"""Speculative execution workers (§3.2 E, §4.1).

A speculative thread starts from a *predicted* state, resets its
dependency vector to null, runs the transition function until it has
crossed the requested number of recognized-IP occurrences (one
superstep's worth), and packages the result as a trajectory-cache entry.

Two properties make this sound even under misprediction:

* the produced entry is a true fact about the transition function — "any
  state agreeing on these read bytes evolves to these written bytes in N
  instructions" — regardless of whether the predicted start state ever
  occurs; wrong predictions simply create entries nobody matches;
* a garbage predicted state may fault or wander; faults are caught and
  reported (no entry), and a budget bounds wandering.
"""

from repro.errors import MachineError
from repro.machine.depvec import DepVector
from repro.machine.layout import (
    STATUS_OFF,
    STATUS_HALTED,
    STOP_BREAKPOINT,
    STOP_HALTED,
)
from repro.core.trajectory_cache import CacheEntry


class SpeculationResult:
    """Outcome of one speculative execution."""

    __slots__ = ("entry", "instructions", "halted", "fault")

    def __init__(self, entry, instructions, halted, fault=None):
        self.entry = entry
        self.instructions = instructions
        self.halted = halted
        self.fault = fault

    @property
    def ok(self):
        return self.entry is not None

    def __repr__(self):
        return ("SpeculationResult(ok=%s, instructions=%d, halted=%s, "
                "fault=%r)" % (self.ok, self.instructions, self.halted,
                               self.fault))


def run_speculation(context, start_buf, rip, occurrences, max_instructions):
    """Execute speculatively from ``start_buf`` and build a cache entry.

    ``context`` is the program's :class:`TransitionContext`;
    ``start_buf`` the (predicted) full start state, which is not
    modified; ``rip`` the recognized IP; ``occurrences`` how many RIP
    crossings make up one superstep (the recognizer's stride);
    ``max_instructions`` the wandering budget.

    Returns a :class:`SpeculationResult`; ``entry`` is ``None`` when the
    run faulted or executed zero instructions (e.g. an already-halted
    predicted state).
    """
    work = bytearray(start_buf)
    dep = DepVector(len(work))
    g = dep.buf
    run = context.tier.run
    rip_set = frozenset((rip,))
    executed = 0
    crossings = 0
    fault = None
    halted = bool(work[STATUS_OFF] & STATUS_HALTED)
    while not halted and crossings < occurrences \
            and executed < max_instructions:
        try:
            n, reason = run(work, g, max_instructions - executed, rip_set)
        except MachineError as exc:
            executed += getattr(exc, "_fp_executed", 0)
            fault = str(exc)
            break
        executed += n
        if reason == STOP_HALTED:
            halted = True
        elif reason == STOP_BREAKPOINT:
            crossings += 1
        else:
            break  # budget exhausted

    if fault is not None or executed == 0:
        return SpeculationResult(None, executed, halted, fault)
    if not halted and crossings < occurrences:
        # Budget exhausted before completing a superstep: unusable
        # (fast-forwarding to it would strand the main thread mid-step).
        return SpeculationResult(None, executed, halted, "budget exhausted")
    entry = CacheEntry.from_execution(rip, dep, start_buf, work, executed,
                                      occurrences=crossings, halted=halted)
    return SpeculationResult(entry, executed, halted)
