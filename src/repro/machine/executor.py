"""Run primitives over the transition function.

:class:`Machine` owns a state vector plus a transition context and
provides the run primitives every higher layer is built from: run for a
bounded number of instructions, run until a set of instruction-pointer
breakpoints (how the recognizer samples RIP states), or run to the halt
fixed point. The loops themselves belong to the context's interpreter
tier (``context.tier``); a machine keeps the instruction count.
"""

from repro.errors import MachineError
from repro.machine.layout import STATUS_OFF, STATUS_HALTED, STOP_HALTED
from repro.machine.state import StateVector
from repro.machine.transition import TransitionContext


class RunResult:
    """Outcome of one :meth:`Machine.run` call."""

    __slots__ = ("instructions", "reason", "eip")

    def __init__(self, instructions, reason, eip):
        self.instructions = instructions
        self.reason = reason
        self.eip = eip

    def __repr__(self):
        return "RunResult(instructions=%d, reason=%r, eip=0x%x)" % (
            self.instructions, self.reason, self.eip)


class Machine:
    """A state vector bound to a transition context, with run loops."""

    def __init__(self, state, context=None):
        if not isinstance(state, StateVector):
            raise MachineError("state must be a StateVector")
        self.state = state
        self.context = context or TransitionContext(state.layout)
        self.instruction_count = 0

    @property
    def halted(self):
        return bool(self.state.buf[STATUS_OFF] & STATUS_HALTED)

    @property
    def eip(self):
        return self.state.eip

    def step(self, dep=None):
        """Execute exactly one instruction."""
        g = dep.buf if dep is not None else None
        op = self.context.step(self.state.buf, g)
        self.instruction_count += 1
        return op

    def run(self, max_instructions=None, break_ips=None, dep=None):
        """Run until halt, an IP breakpoint, or an instruction budget.

        ``break_ips`` is an optional set of instruction-pointer values; the
        run stops *after* the machine arrives at one of them (the
        breakpoint state itself is the current state on return). Returns a
        :class:`RunResult`.
        """
        buf = self.state.buf
        if buf[STATUS_OFF] & STATUS_HALTED:
            return RunResult(0, STOP_HALTED, self.state.eip)
        g = dep.buf if dep is not None else None
        executed, reason = self.context.tier.run(buf, g, max_instructions,
                                                 break_ips)
        self.instruction_count += executed
        return RunResult(executed, reason, self.state.eip)

    def run_to_halt(self, max_instructions=10_000_000, dep=None):
        """Run to the halt fixed point; raise if the budget is exhausted."""
        result = self.run(max_instructions=max_instructions, dep=dep)
        if result.reason != STOP_HALTED:
            raise MachineError(
                "program did not halt within %d instructions (eip=0x%x)"
                % (max_instructions, result.eip))
        return result

    def ip_trace(self, max_instructions):
        """Execute up to ``max_instructions``, returning the EIP sequence.

        The returned list contains the EIP of each instruction *before* it
        executed — the sequence of points at which the trajectory crossed
        instruction-boundary hyperplanes.
        """
        try:
            trace, executed = self.context.tier.ip_trace(self.state.buf,
                                                         max_instructions)
        except MachineError as exc:
            self.instruction_count += getattr(exc, "_fp_executed", 0)
            raise
        self.instruction_count += executed
        return trace
