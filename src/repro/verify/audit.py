"""Shadow re-execution of one spliced cache segment.

:func:`run_audit` replays exactly the number of instructions a cache
entry claims to fast-forward over, from the retained pre-splice state,
with full dependency tracking on the context's *reference* interpreter
tier (``context.reference``, whatever ``context.tier`` is — the audit
deliberately does not trust the tier that may have produced the
entry). The replay's dependency vector and final state are packaged as
a ground-truth :class:`CacheEntry` over the same segment.

:func:`compare_audit` then holds the claimed entry against that ground
truth. For a *sound* entry the comparison is exact, not approximate:
the entry matched the pre-splice state on its declared read set, and a
complete read set pins the entire execution path, so the replay must
reproduce the identical read indices, write indices, values, length,
and halt flag. Any difference is a divergence, classified by kind so
incidents say what was wrong (an under-approximated dependency set
shows up as ``read-set``, a corrupted write as ``end-state``, a wrong
claimed span as ``length``).
"""

import numpy as np

from repro.core.speculation import SpeculationResult
from repro.core.trajectory_cache import CacheEntry
from repro.errors import MachineError
from repro.machine.depvec import DepVector
from repro.machine.layout import STATUS_HALTED, STATUS_OFF, STOP_HALTED


def run_audit(context, start_buf, rip, length, occurrences=1):
    """Replay ``length`` instructions from ``start_buf`` with tracking.

    Unlike :func:`~repro.core.speculation.run_speculation` this counts
    *instructions*, not recognized-IP crossings — the claimed length is
    the one quantity every engine's splice bookkeeping depends on, and
    replaying by count stays robust to entries whose ``occurrences``
    field has engine-specific semantics. Returns a
    :class:`SpeculationResult` whose entry is the ground truth for the
    segment (``None`` only if the replay faulted).
    """
    work = bytearray(start_buf)
    dep = DepVector(len(work))
    executed = 0
    fault = None
    halted = bool(work[STATUS_OFF] & STATUS_HALTED)
    if not halted:
        try:
            executed, reason = context.reference.run(work, dep.buf, length,
                                                     None)
        except MachineError as exc:
            executed = exc._fp_executed
            fault = str(exc)
        else:
            halted = reason == STOP_HALTED
    if fault is not None:
        return SpeculationResult(None, executed, halted, fault)
    entry = CacheEntry.from_execution(rip, dep, start_buf, work, executed,
                                      occurrences=occurrences, halted=halted)
    return SpeculationResult(entry, executed, halted)


def compare_audit(claimed, audit_result, pre_state):
    """Hold a claimed entry against its shadow replay.

    ``claimed`` is the spliced :class:`CacheEntry`, ``audit_result``
    the :class:`SpeculationResult` from :func:`run_audit` (or a
    worker-shipped equivalent), ``pre_state`` the pre-splice state the
    replay started from. Returns a list of mismatch kinds — empty means
    the splice was verified clean.
    """
    if audit_result.fault is not None or audit_result.entry is None:
        return ["replay-fault"]
    truth = audit_result.entry
    mismatches = []
    if truth.length != claimed.length:
        mismatches.append("length")
    if bool(truth.halted) != bool(claimed.halted):
        mismatches.append("halt-flag")
    if not np.array_equal(truth.start_indices, claimed.start_indices):
        mismatches.append("read-set")
    elif not np.array_equal(truth.start_values, claimed.start_values):
        mismatches.append("read-values")
    if not np.array_equal(truth.end_indices, claimed.end_indices):
        mismatches.append("write-set")
    spliced = bytearray(pre_state)
    claimed.apply(spliced)
    replayed = bytearray(pre_state)
    truth.apply(replayed)
    if spliced != replayed:
        mismatches.append("end-state")
    return mismatches
