"""Oracle prediction: the paper's "LASC+oracle" configuration (§5.4).

The oracle run "holds everything else constant — including the
recognizer and allocator policies as well as the times to compute
predictions, speculative trajectories and cache queries — while ensuring
that the prediction for any particular state is correct." The gap
between oracle and actual scaling isolates prediction accuracy from
implementation overheads.

:class:`TrajectoryRecord` performs one instrumented sequential pass,
recording every superstep-boundary state's projection; it doubles as the
reference run that provides total instruction counts and superstep
statistics for scaling denominators and Table 1.
"""

from repro.core.allocator import RolloutStep
from repro.core.excitation import ExcitationTracker
from repro.core.superstep import run_superstep


class TrajectoryRecord:
    """Ground truth from one sequential pass over the program.

    Attributes
    ----------
    total_instructions:
        Full sequential instruction count to halt.
    boundary_positions:
        Instruction index of each superstep boundary (every ``stride``-th
        RIP occurrence).
    views:
        ``(boundary_index, word_values, digest, phase_index)`` for each
        boundary at which the excitation tracker was warmed up.
    """

    def __init__(self, program, recognized, config,
                 max_instructions=500_000_000):
        self.program = program
        self.recognized = recognized
        #: One RecognizedIP per program phase. When a phase's RIP stops
        #: occurring (a drought — §4.4.1's "change in program behavior
        #: renders the current RIP useless"), the recognizer re-runs from
        #: the current state and a new phase begins; the parallel engine
        #: detects droughts with the same rule and follows this plan.
        self.phases = [recognized]
        tracker = ExcitationTracker(program.layout, config)
        machine = program.make_machine()
        phase = recognized

        self.boundary_positions = []
        self.views = []
        self._digest_to_pos = {}
        executed = 0
        stride = 1  # boundaries sit at crossings 1, s+1, 2s+1, ...

        from repro.core.recognizer import Recognizer
        from repro.errors import EngineError

        while executed < max_instructions:
            ran, arrived = run_superstep(
                machine, frozenset((phase.ip,)), stride,
                phase.drought_limit(), max_instructions - executed)
            executed += ran
            if machine.halted:
                break
            if not arrived:
                if executed >= max_instructions:
                    break
                # Drought: the current RIP died. Recognize the new phase
                # from this very state; give up only if nothing is found
                # (program tail) and run plainly to the end.
                try:
                    phase = Recognizer(config).find(
                        program, start_state=bytes(machine.state.buf))
                except EngineError:
                    tail = machine.run(
                        max_instructions=max_instructions - executed)
                    executed += tail.instructions
                    break
                self.phases.append(phase)
                tracker = ExcitationTracker(program.layout, config)
                stride = 1
                continue
            stride = phase.stride
            boundary_index = len(self.boundary_positions)
            self.boundary_positions.append(executed)
            view = tracker.observe(machine.state.buf)
            if view is not None:
                digest = view.digest()
                self._digest_to_pos[digest] = len(self.views)
                self.views.append((boundary_index,
                                   view.word_values.copy(), digest,
                                   len(self.phases) - 1))
        self.total_instructions = executed
        self.halted = machine.halted
        self.n_boundaries = len(self.boundary_positions)

    @property
    def mean_superstep_instructions(self):
        """Average jump length between consecutive boundaries."""
        if len(self.boundary_positions) < 2:
            return float(self.total_instructions)
        first = self.boundary_positions[0]
        last = self.boundary_positions[-1]
        return (last - first) / (len(self.boundary_positions) - 1)

    def position_of(self, digest):
        return self._digest_to_pos.get(digest)


class OracleAllocator:
    """Drop-in for :class:`repro.core.allocator.Allocator` with perfect
    predictions taken from a :class:`TrajectoryRecord`."""

    def __init__(self, record, max_rollout):
        self.record = record
        self.max_rollout = max_rollout
        self.chain = []
        self.rebuilds = 0
        self.shifts = 0
        self.unknown_states = 0

    def advance(self, view):
        digest = view.digest()
        pos = self.record.position_of(digest)
        self.chain = []
        if pos is None:
            self.unknown_states += 1
            return
        views = self.record.views
        phase = views[pos][3]
        for offset in range(1, self.max_rollout + 1):
            nxt = pos + offset
            if nxt >= len(views):
                break
            __, word_values, next_digest, next_phase = views[nxt]
            if next_phase != phase:
                # A recognizer reset separates the phases: projections on
                # the far side live in a different target space and the
                # old RIP cannot fast-forward into them.
                break
            self.chain.append(RolloutStep(word_values, next_digest, 1.0))

    def probabilities(self):
        return [1.0] * len(self.chain)

    def dispatch_order(self, mean_jump, min_probability):
        return list(range(len(self.chain)))

    def reset(self):
        self.chain = []
