"""Sequential predictor training over a workload's RIP boundaries.

This is the paper's 1-core learning configuration: the main thread
executes, the excitation tracker and predictor ensemble observe each
recognized-IP state, and statistics accumulate. Table 2's error rates,
Figure 3's weight matrices, and Table 1's query sizes all come from this
single instrumented pass.
"""

from repro.core.excitation import ExcitationTracker
from repro.core.predictors.ensemble import default_ensemble
from repro.core.recognizer import SPECULATION_BUDGET_FACTOR
from repro.core.speculation import run_speculation
from repro.core.stats import PredictionStats
from repro.core.superstep import run_superstep
from repro.machine.diff import delta_size_bits


class TrainingResult:
    """Artifacts of one sequential training pass."""

    def __init__(self, tracker, ensemble, prediction_stats, relevant_bits,
                 query_bits, boundaries):
        self.tracker = tracker
        self.ensemble = ensemble
        self.prediction_stats = prediction_stats
        self.relevant_bits = relevant_bits
        self.query_bits = query_bits  # delta-compressed sizes per boundary
        self.boundaries = boundaries

    @property
    def mean_query_bits(self):
        if not self.query_bits:
            return 0.0
        return sum(self.query_bits) / len(self.query_bits)


def _relevant_bits_from_entry(entry, tracker):
    word_pos = {int(w): i for i, w in
                enumerate(tracker.target_words.tolist())}
    bits = set()
    for idx in entry.start_indices.tolist():
        word = idx & ~3
        pos = word_pos.get(word)
        if pos is not None:
            base = pos * 32 + (idx - word) * 8
            bits.update(range(base, base + 8))
    return bits


def train_on_boundaries(context, max_boundaries=None, max_query_samples=32,
                        probe_count=3):
    """Run the workload sequentially, training the ensemble at each
    boundary; returns a :class:`TrainingResult`.

    ``relevant_bits`` is the union of dependency bits over ``probe_count``
    real superstep executions — the subset on which the paper scores a
    state prediction as correct ("state vectors need only match cache
    entries on the latter's dependencies").
    """
    program = context.workload.program
    config = context.config
    recognized = context.recognized
    rip = recognized.ip
    stride = recognized.stride
    break_ips = frozenset((rip,))
    budget = recognized.speculation_budget(SPECULATION_BUDGET_FACTOR)

    tracker = ExcitationTracker(program.layout, config)
    ensemble = default_ensemble(config)
    pstats = PredictionStats(ensemble.expert_names)
    machine = program.make_machine()
    context_vm = machine.context

    relevant_bits = set()
    probes_done = 0
    query_bits = []
    prev_snapshot = None
    boundaries = 0
    guard = 500_000_000

    while True:
        __, arrived = run_superstep(machine, break_ips, stride, guard, guard)
        if not arrived:
            break
        boundaries += 1
        snapshot = bytes(machine.state.buf)
        if prev_snapshot is not None and len(query_bits) < max_query_samples:
            query_bits.append(delta_size_bits(prev_snapshot, snapshot))
        prev_snapshot = snapshot
        view = tracker.observe(snapshot)
        if view is not None:
            outcome = ensemble.observe(view)
            pstats.record(outcome)
            if probes_done < probe_count:
                probe = run_speculation(context_vm, snapshot, rip, stride,
                                        budget)
                probes_done += 1
                if probe.entry is not None:
                    relevant_bits |= _relevant_bits_from_entry(probe.entry,
                                                               tracker)
        if max_boundaries is not None and boundaries >= max_boundaries:
            break

    return TrainingResult(tracker, ensemble, pstats,
                          relevant_bits or None,
                          query_bits, boundaries)
