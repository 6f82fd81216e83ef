"""The recognizer: finding instruction-pointer hyperplanes worth
predicting (§4.3).

The default recognizer induces a hyperplane in state space by fixing an
instruction-pointer value: the trajectory's crossings of that hyperplane
are the superstep boundaries. Its job is to pick the IP whose crossing
states are (a) widely spaced enough that speculation pays for its lookup
cost and (b) predictable by the learning ensemble.

Following the paper's parallel search, the implementation:

1. traces a window of execution and computes occurrence statistics for
   every IP value seen;
2. filters to IPs that recur enough, assigning each a *stride* — how many
   occurrences to group into one superstep so the superstep meets the
   minimum instruction spacing (this is the adaptation the paper
   describes for Collatz, where the recognizer "consider[s] only every
   4000 instances" of a too-frequent IP);
3. shortlists candidates by spacing regularity, then *validates* the
   shortlist exactly the way the paper does: train a fresh predictor
   ensemble on each candidate's observed state sequence and measure how
   well it predicts the next crossing state;
4. selects the candidate maximizing predicted-jump utility — accuracy
   times expected superstep length, the paper's "proxy for the utility
   of the speculative execution that would result".
"""

import math

import numpy as np

from repro.errors import EngineError
from repro.core.excitation import ExcitationTracker
from repro.core.predictors.ensemble import default_ensemble
from repro.core.speculation import run_speculation
from repro.machine.executor import STOP_BREAKPOINT

#: Candidate IPs the shortlist passes on to validation.
_MAX_CANDIDATES = 8

#: A speculation's instruction budget, in mean supersteps.
SPECULATION_BUDGET_FACTOR = 4.0


class CandidateReport:
    """Diagnostics for one candidate IP considered by the recognizer."""

    __slots__ = ("ip", "occurrences", "stride", "mean_gap", "max_gap",
                 "gap_cv", "accuracy", "utility", "validated", "alive",
                 "first_pos")

    def __init__(self, ip, occurrences, stride, mean_gap, gap_cv,
                 max_gap=None, accuracy=0.0, utility=0.0, validated=False,
                 alive=True, first_pos=0):
        self.ip = ip
        self.occurrences = occurrences
        self.stride = stride
        self.mean_gap = mean_gap
        self.max_gap = max_gap if max_gap is not None else mean_gap
        self.gap_cv = gap_cv
        self.accuracy = accuracy
        self.utility = utility
        self.validated = validated
        self.alive = alive
        self.first_pos = first_pos

    def __repr__(self):
        return ("CandidateReport(ip=0x%x, occ=%d, stride=%d, gap=%.0f, "
                "cv=%.3f, acc=%.3f, util=%.0f)"
                % (self.ip, self.occurrences, self.stride, self.mean_gap,
                   self.gap_cv, self.accuracy, self.utility))


class RecognizedIP:
    """The recognizer's output: where to cut the trajectory."""

    __slots__ = ("ip", "stride", "mean_gap", "max_gap",
                 "superstep_instructions", "converge_instructions",
                 "search_instructions", "candidates", "training_states")

    def __init__(self, ip, stride, mean_gap, converge_instructions,
                 candidates, search_instructions=None, max_gap=None,
                 training_states=()):
        self.ip = ip
        self.stride = stride
        self.mean_gap = mean_gap
        self.max_gap = max_gap if max_gap is not None else mean_gap
        self.superstep_instructions = stride * mean_gap
        self.converge_instructions = converge_instructions
        self.search_instructions = (search_instructions
                                    if search_instructions is not None
                                    else converge_instructions)
        self.candidates = candidates
        # The winning candidate's observed states: recognition *is* the
        # predictors' first training data (§4.3's search trains a private
        # copy of the learning algorithms per candidate), so engines
        # start from these instead of relearning from scratch.
        self.training_states = list(training_states)

    def drought_limit(self):
        """Instructions without a RIP crossing that signal phase death.

        When the main thread runs this long without crossing the
        hyperplane, the current RIP has stopped occurring — program
        behavior changed (e.g. 2mm moved to its second loop nest) and
        the recognizer must re-run from the current state (§4.4.1's
        ``reset``).
        """
        return int(self.superstep_instructions * 8) + 2048

    def speculation_budget(self, factor):
        """Instruction budget for one superstep's speculation.

        Generous on purpose: superstep lengths can be heavy-tailed
        (Collatz sequence lengths grow with n past anything the search
        window saw), and an aborted speculation is a guaranteed miss
        while an over-budgeted garbage speculation merely wastes one
        worker's time.
        """
        by_mean = self.mean_gap * self.stride * factor
        by_max = self.max_gap * self.stride * 6.0
        return int(max(by_mean, by_max)) + 256

    def __repr__(self):
        return ("RecognizedIP(ip=0x%x, stride=%d, superstep~%.0f, "
                "converge=%d)" % (self.ip, self.stride,
                                  self.superstep_instructions,
                                  self.converge_instructions))


class Recognizer:
    def __init__(self, config):
        self.config = config

    # -- phase 1: occurrence statistics --------------------------------------

    def _machine_from(self, program, start_state):
        fast_path = self.config.fast_path
        if start_state is None:
            return program.make_machine(fast_path=fast_path)
        from repro.machine.executor import Machine
        from repro.machine.state import StateVector
        state = StateVector(program.layout, bytearray(start_state))
        return Machine(state, program.make_context(fast_path=fast_path))

    def _collect_positions(self, program, start_state=None):
        machine = self._machine_from(program, start_state)
        trace = machine.ip_trace(self.config.recognizer_window)
        positions = {}
        for pos, ip in enumerate(trace):
            positions.setdefault(ip, []).append(pos)
        return trace, positions

    def _candidate_stats(self, positions, trace_len):
        config = self.config
        candidates = []
        for ip, pos_list in positions.items():
            if len(pos_list) < config.recognizer_min_occurrences:
                continue
            gaps = [b - a for a, b in zip(pos_list, pos_list[1:])]
            if not gaps:
                continue
            mean_gap = sum(gaps) / len(gaps)
            if mean_gap <= 0:
                continue
            stride = max(1, math.ceil(
                config.min_superstep_instructions / mean_gap))
            if len(pos_list) // stride < 3:
                continue  # too few supersteps to learn from
            variance = sum((g - mean_gap) ** 2 for g in gaps) / len(gaps)
            cv = math.sqrt(variance) / mean_gap
            # An IP that stopped occurring well before the window's end
            # belongs to a finished phase (input setup, a completed loop
            # nest) — speculating on it buys nothing going forward.
            alive = pos_list[-1] + 4 * max(gaps) >= trace_len
            candidates.append(CandidateReport(
                ip, len(pos_list), stride, mean_gap, cv, max_gap=max(gaps),
                alive=alive, first_pos=pos_list[0]))
        return candidates

    def _shortlist(self, candidates):
        """Pick a diverse shortlist for validation.

        IPs inside the same loop body share occurrence counts and gap
        statistics and would crowd out everything else, so near-identical
        candidates are collapsed to one representative. The surviving
        candidates fill the shortlist alternately from two rankings —
        most regular spacing and widest effective superstep — so both a
        tight inner loop and a long outer loop get validated.
        """
        seen = set()
        unique = []
        for c in sorted(candidates, key=lambda c: c.ip):
            key = (c.occurrences, round(c.mean_gap, 1))
            if key in seen:
                continue
            seen.add(key)
            unique.append(c)
        by_regularity = sorted(unique, key=lambda c: (c.gap_cv,
                                                      -c.mean_gap * c.stride))
        by_width = sorted(unique, key=lambda c: -c.mean_gap * c.stride)
        shortlist = []
        chosen = set()
        for a, b in zip(by_regularity, by_width):
            for c in (a, b):
                if len(shortlist) >= _MAX_CANDIDATES:
                    break
                if id(c) not in chosen:
                    chosen.add(id(c))
                    shortlist.append(c)
        return shortlist

    # -- phase 2: validation ------------------------------------------------------

    def _snapshot_states(self, program, shortlist, start_state=None):
        """Replay, snapshotting each candidate's strided crossing states."""
        want = {c.ip: c for c in shortlist}
        counts = {c.ip: 0 for c in shortlist}
        snapshots = {c.ip: [] for c in shortlist}
        limit = self.config.recognizer_validate_states
        machine = self._machine_from(program, start_state)
        break_ips = set(want)
        budget = self.config.recognizer_window
        consumed = 0
        while consumed < budget:
            result = machine.run(max_instructions=budget - consumed,
                                 break_ips=break_ips)
            consumed += result.instructions
            if result.reason != STOP_BREAKPOINT:
                break
            ip = result.eip
            candidate = want[ip]
            index = counts[ip]
            counts[ip] += 1
            if index % candidate.stride == 0 \
                    and len(snapshots[ip]) < limit:
                snapshots[ip].append(bytes(machine.state.buf))
            if all(len(s) >= limit for s in snapshots.values()):
                break
        return snapshots, consumed

    def _validate(self, program, candidate, states):
        """Train an ensemble on the candidate's states; return accuracy.

        Accuracy is scored the way the engine will use predictions: a
        prediction counts as correct when it matches the true next state
        on the bits the following superstep actually *reads* (its cache
        dependency set), obtained by executing one real superstep under
        dependency tracking. Bits the superstep overwrites before reading
        — dead temporaries at the hyperplane — are rightly ignored.
        """
        if len(states) < 5:
            return 0.0
        # A short warmup leaves most snapshots available for scoring.
        config = self.config.replace(warmup_observations=3)
        tracker = ExcitationTracker(None, config)
        views = []
        for buf in states:
            view = tracker.observe(buf)
            if view is not None:
                views.append(view)
        if len(views) < 3:
            return 0.0
        mask = self._dependency_bit_mask(program, candidate, states, tracker)

        ensemble = default_ensemble(config)
        results = []
        for view in views:
            outcome = ensemble.observe(view)
            if not outcome.scored:
                continue
            errors = outcome.ensemble_bits != outcome.actual_bits
            if mask is not None:
                keep = mask[mask < len(errors)]
                errors = errors[keep]
            results.append(not errors.any())
        if not results:
            return 0.0
        # Score the steady state: the RWMA needs a few observations to
        # identify the right expert per bit, and what matters for
        # speculation is accuracy after that burn-in.
        steady = results[len(results) // 2:]
        return sum(steady) / len(steady)

    def _candidate_budget(self, candidate):
        by_mean = (candidate.mean_gap * candidate.stride
                   * SPECULATION_BUDGET_FACTOR)
        by_max = candidate.max_gap * candidate.stride * 6.0
        return int(max(by_mean, by_max)) + 256

    def _dependency_bit_mask(self, program, candidate, states, tracker):
        """Target-bit indices read by one real superstep, or None."""
        budget = self._candidate_budget(candidate)
        probe = run_speculation(
            program.make_context(fast_path=self.config.fast_path),
            states[len(states) // 2], candidate.ip,
            candidate.stride, budget)
        if probe.entry is None:
            return None
        word_pos = {int(w): i
                    for i, w in enumerate(tracker.target_words.tolist())}
        bits = []
        for idx in probe.entry.start_indices.tolist():
            word = idx & ~3
            pos = word_pos.get(word)
            if pos is not None:
                base = pos * 32 + (idx - word) * 8
                bits.extend(range(base, base + 8))
        if not bits:
            return None
        return np.array(sorted(set(bits)), dtype=np.int64)

    # -- selection -------------------------------------------------------------------

    def find(self, program, start_state=None):
        """Search for the best recognized IP for ``program``.

        ``start_state`` recognizes from an arbitrary point on the
        trajectory instead of the program's initial state — used when a
        phase change kills the previous RIP mid-run.

        Adaptive: when no shortlisted candidate validates as predictable
        — typically because an input-setup phase dominated the window and
        the steady-state loop has too few occurrences yet — the window
        doubles and the search repeats, up to
        ``recognizer_max_window_doublings`` times.
        """
        mid_run = start_state is not None
        result = self._find_once(program, start_state=start_state,
                                 mid_run=mid_run)
        doublings = 0
        while (result is None
               and doublings < self.config.recognizer_max_window_doublings):
            doublings += 1
            self.config = self.config.replace(
                recognizer_window=self.config.recognizer_window * 2)
            result = self._find_once(program, start_state=start_state,
                                     mid_run=mid_run)
        if result is None:
            result = self._find_once(program, accept_any=True,
                                     start_state=start_state,
                                     mid_run=mid_run)
        return result

    def _hint_filter(self, program, candidates):
        """Restrict candidates to compiler-hinted addresses (§2.1).

        Hybrid recognition: the compiler says *where* loops and functions
        live; the online validation still decides *which* of them is
        predictable and profitable. Falls back to the full candidate set
        if no hinted address survived the occurrence filters.
        """
        if not self.config.use_compiler_hints:
            return candidates
        hints = getattr(program, "hints", None)
        if not hints:
            return candidates
        hinted_addresses = hints.all_addresses()
        hinted = [c for c in candidates if c.ip in hinted_addresses]
        return hinted or candidates

    def _find_once(self, program, accept_any=False, start_state=None,
                   mid_run=False):
        trace, positions = self._collect_positions(program, start_state)
        candidates = self._hint_filter(
            program, self._candidate_stats(positions, len(trace)))
        if not candidates:
            if not accept_any:
                return None
            raise EngineError(
                "recognizer found no candidate IPs in a window of %d "
                "instructions (program too short or too irregular)"
                % self.config.recognizer_window)

        shortlist = self._shortlist(candidates)

        snapshots, replay_instructions = self._snapshot_states(
            program, shortlist, start_state)
        best = None
        for candidate in shortlist:
            candidate.accuracy = self._validate(program, candidate,
                                                snapshots[candidate.ip])
            # Utility: predicted-jump coverage — accuracy times the span
            # of trajectory this IP's supersteps tile within the search
            # window (the paper's "instructions between the state from
            # which a prediction was made and the predicted state" proxy,
            # summed over the window). An accurate IP that stops
            # recurring (e.g. an input-setup loop) scores low because its
            # occurrences cover only a prefix of the window.
            candidate.utility = (candidate.accuracy
                                 * candidate.mean_gap * candidate.occurrences)
            if mid_run:
                # Re-recognition after a phase death: the loop running
                # *right now* is what matters. A candidate that only
                # begins later in the window belongs to a future phase
                # (we will re-recognize when we get there), and a
                # candidate that dies mid-window is fine — phase death
                # is exactly what triggered us.
                starts_soon = candidate.first_pos <= max(
                    4 * candidate.max_gap * candidate.stride,
                    len(trace) // 8)
                if not starts_soon:
                    candidate.utility *= 0.02
            elif not candidate.alive:
                candidate.utility *= 0.05
            candidate.validated = True
            if best is None or candidate.utility > best.utility:
                best = candidate
        if best is None or best.utility <= 0.0 \
                or (not best.alive and not accept_any and not mid_run):
            # A dead winner means the window mostly saw a finished phase;
            # let the adaptive search widen the window.
            if not accept_any:
                return None
            # Final fallback: the most regular, widest candidate;
            # prediction may still improve as more states are observed.
            if best is None or best.utility <= 0.0:
                best = shortlist[0]

        # Convergence is the trajectory span the search had to observe;
        # in the architecture the candidate validation runs on spare
        # cores against the live trajectory, so the snapshot replay is an
        # implementation artifact and is reported separately.
        converge = len(trace)
        return RecognizedIP(best.ip, best.stride, best.mean_gap, converge,
                            shortlist, search_instructions=len(trace)
                            + replay_instructions, max_gap=best.max_gap,
                            training_states=snapshots.get(best.ip, ()))

    # -- memoization variant ---------------------------------------------------

    def find_for_memoization(self, program):
        """Search for the IP whose states *recur* most profitably.

        Single-core LASC (Figure 6, right) gains nothing from
        predictability — it never predicts. What pays is an IP whose
        dependency-projected states repeat, so cached past supersteps
        match again (generalized memoization). Candidates are scored by
        recurrence rate instead of prediction accuracy.
        """
        trace, positions = self._collect_positions(program)
        candidates = self._hint_filter(
            program, self._candidate_stats(positions, len(trace)))
        if not candidates:
            raise EngineError(
                "recognizer found no candidate IPs in a window of %d "
                "instructions" % self.config.recognizer_window)
        shortlist = self._shortlist(candidates)
        snapshots, replay_instructions = self._snapshot_states(program,
                                                               shortlist)
        best = None
        for candidate in shortlist:
            candidate.accuracy = self._validate_recurrence(
                program, candidate, snapshots[candidate.ip])
            candidate.utility = (candidate.accuracy
                                 * candidate.mean_gap * candidate.stride)
            candidate.validated = True
            if best is None or candidate.utility > best.utility:
                best = candidate
        if best is None or best.utility <= 0.0:
            best = min(shortlist, key=lambda c: c.mean_gap * c.stride)
        return RecognizedIP(best.ip, best.stride, best.mean_gap, len(trace),
                            shortlist, search_instructions=len(trace)
                            + replay_instructions, max_gap=best.max_gap)

    def _validate_recurrence(self, program, candidate, states):
        """Fraction of dependency-projected states seen before."""
        if len(states) < 6:
            return 0.0
        budget = self._candidate_budget(candidate)
        context = program.make_context(fast_path=self.config.fast_path)
        # Probe a few states; keep the tightest dependency set (probes
        # that straddle a loop exit drag in unrelated outer state).
        best_indices = None
        for pick in (len(states) // 4, len(states) // 2,
                     3 * len(states) // 4):
            probe = run_speculation(context, states[pick], candidate.ip,
                                    candidate.stride, budget)
            if probe.entry is None:
                continue
            indices = probe.entry.start_indices
            if best_indices is None or len(indices) < len(best_indices):
                best_indices = indices
        if best_indices is None:
            return 0.0
        seen = set()
        repeats = 0
        for buf in states:
            arr = np.frombuffer(buf, dtype=np.uint8)
            key = arr[best_indices].tobytes()
            if key in seen:
                repeats += 1
            else:
                seen.add(key)
        return repeats / max(1, len(states) - 1)
