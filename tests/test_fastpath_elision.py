"""Generated straight-line blocks: first-touch mark elision stays exact.

The tracking variants of a translated block drop every memory and
EFLAGS mark that an earlier mark of the same block already made a no-op
(``blockcache._redundant_marks``) and update the register/EIP header
once at block exit. Hypothesis builds random straight-line blocks out
of the access patterns that elision reasons about — push then pop of
one slot, two base registers aliasing one address under different
symbolic roots, a base register rewritten by a load or pop between two
accesses, byte and word accesses at one address, a shift by a register
count between a flag write and a flag read, and a fault after an elided
mark — and runs each through both interpreter tiers in both tracking
variants, starting from a dependency vector pre-filled with random
statuses. State, dependency vector, instruction count and fault message
must be byte-identical.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import MachineError
from repro.isa.encoding import encode
from repro.isa.opcodes import Op
from repro.machine import DepVector, Machine, StateVector, TransitionContext
from repro.machine.blockcache import TranslationStore, _redundant_marks
from repro.machine.layout import StateLayout

_MEM = 1024
_CODE = 0x40
#: Data words; memory there holds addresses from the same pool, so a
#: loaded or popped base register is usually still a valid address and
#: often aliases another register.
_POOL = (0x200, 0x204, 0x208, 0x20C, 0x210)
_ESP = 4
_GPRS = (0, 1, 2, 3, 5, 6)

reg = st.sampled_from(_GPRS)
disp = st.sampled_from((0, 0, 4, -4, 1, 8))
width = st.sampled_from(((Op.LOAD, Op.STORE), (Op.LOAD8U, Op.STORE8),
                         (Op.LOAD8S, Op.STORE8)))


def _mem(op, ra, base, imm):
    return (op, 1, ra, base << 4, imm)


@st.composite
def _push_pop(draw):
    # Popping into ESP itself moves the stack to the popped value.
    pushes = [draw(st.sampled_from(((Op.PUSH_R, 0, draw(reg), 0, 0),
                                    (Op.PUSH_I, 0, 0, 0, 0x204))))
              for __ in range(draw(st.integers(1, 2)))]
    popped = draw(st.sampled_from(_GPRS + (_ESP,)))
    return pushes + [(Op.POP_R, 0, popped, 0, 0),
                     (Op.PUSH_R, 0, draw(reg), 0, 0)]


@st.composite
def _aliasing_bases(draw):
    # One address under two roots: a constant, and the same value loaded
    # from the pool word before it (unless an earlier store changed
    # that word). The second access is never elided and must agree.
    a, b, d = draw(reg), draw(reg), draw(reg)
    k = draw(st.integers(1, len(_POOL) - 1))
    load, store = draw(width)
    return [(Op.MOV_RI, 0, a, 0, _POOL[k]), (Op.LOAD, 0, b, 0, _POOL[k - 1]),
            _mem(store, d, a, 0), _mem(load, d, b, 0)]


@st.composite
def _rebased(draw):
    a, d = draw(reg), draw(reg)
    k = draw(disp)
    load, store = draw(width)
    rewrite = draw(st.sampled_from(((Op.LOAD, 1, a, a << 4, k),
                                    (Op.POP_R, 0, a, 0, 0))))
    return [_mem(draw(st.sampled_from((load, store))), d, a, k), rewrite,
            _mem(draw(st.sampled_from((load, store))), d, a, k)]


@st.composite
def _mixed_widths(draw):
    a, d = draw(reg), draw(reg)
    k = draw(disp)
    ops = draw(st.permutations((Op.LOAD, Op.STORE, Op.LOAD8U, Op.STORE8)))
    return [_mem(op, d, a, k) for op in ops[:draw(st.integers(2, 4))]]


@st.composite
def _shift_between_flags(draw):
    a, b, c = draw(reg), draw(reg), draw(reg)
    shift = draw(st.sampled_from((Op.SHL_RR, Op.SHR_RR, Op.SAR_RR)))
    read = draw(st.sampled_from((Op.SETZ, Op.SETB, Op.ADC_RR, Op.INC_R)))
    return [(Op.CMP_RR, 0, a, b, 0),
            (Op.MOV_RI, 0, c, 0, draw(st.sampled_from((0, 1, 32, 33)))),
            (shift, 0, a, c, 0), (read, 0, b, a, 0)]


@st.composite
def _fault_after_elision(draw):
    a, d = draw(reg), draw(reg)
    k = draw(disp)
    load, store = draw(width)
    repeat = [_mem(draw(st.sampled_from((load, store))), d, a, k)
              for __ in range(2)]
    fault = draw(st.sampled_from((
        [_mem(Op.LOAD, d, a, 0x100000)],               # out of range
        [_mem(Op.STORE, d, a, -0x1000)],               # below the floor
        [(Op.MOV_RI, 0, d, 0, 0), (Op.IDIV_R, 0, d, 0, 0)],
        [(Op.MOV_RI, 0, d, 0, 0), (Op.UDIV_R, 0, d, 0, 0)],
    )))
    return repeat + fault


@st.composite
def _single(draw):
    a, b = draw(reg), draw(reg)
    return [draw(st.sampled_from((
        (Op.ADD_RI, 0, a, 0, draw(disp)),
        (Op.SUB_RI, 0, a, 0, draw(disp)),
        (Op.MOV_RR, 0, a, b, 0),
        (Op.LEA, 1, a, b << 4, draw(disp)),
        (Op.LEA, 4, a, (b << 4) | a, draw(disp)),
        (Op.XCHG, 0, a, b, 0),
        (Op.ADD_RR, 0, a, b, 0),
        (Op.SBB_RR, 0, a, b, 0),
        (Op.SHL_RI, 0, a, 0, draw(st.sampled_from((0, 1, 32)))),
        (Op.PUSH_I, 0, 0, 0, draw(st.sampled_from(_POOL))),
        (Op.POP_R, 0, _ESP, 0, 0),
        (Op.LOAD, 4, a, (b << 4) | a, draw(disp)),
        (Op.STORE, 2, a, (b << 4) | a, draw(disp)),
    )))]


_SNIPPETS = st.one_of(_push_pop(), _aliasing_bases(), _rebased(),
                      _mixed_widths(), _shift_between_flags(),
                      _fault_after_elision(), _single())


@st.composite
def blocks(draw):
    instrs = [i for part in draw(st.lists(_SNIPPETS, min_size=1,
                                          max_size=8)) for i in part]
    if draw(st.booleans()):
        instrs.append((Op.HLT, 0, 0, 0, 0))
    return instrs


def _machine(code, regs, track, store):
    layout = StateLayout(_MEM)
    state = StateVector(layout)
    for k, addr in enumerate(_POOL):
        state.write_bytes(addr, _POOL[(k + 1) % len(_POOL)].to_bytes(4,
                                                                     "little"))
    state.write_bytes(_CODE, code)
    state.eip = _CODE
    for r, value in enumerate(regs):
        state.set_reg(r, value)
    state.set_reg(_ESP, 0x300)
    context = TransitionContext(layout, code_range=(_CODE, _CODE + len(code)),
                                track_code_reads=track,
                                fast_path=store is not None,
                                translations=store)
    return Machine(state, context)


def _outcome(code, regs, g0, track, store):
    """Run on the reference tier, or on the fast path of ``store``."""
    machine = _machine(code, regs, track, store)
    dep = DepVector(g0)
    try:
        result = machine.run(max_instructions=1000, dep=dep)
        end = (result.instructions, result.reason, result.eip)
    except MachineError as exc:
        end = ("fault", type(exc).__name__, str(exc))
    return (end, bytes(machine.state.buf), bytes(dep.buf),
            machine.instruction_count)


@settings(max_examples=150, deadline=None)
@given(instrs=blocks(),
       regs=st.lists(st.sampled_from(_POOL + (0, 3)), min_size=8,
                     max_size=8),
       prefill=st.sampled_from(("null", "random")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_elided_blocks_agree_with_the_reference(instrs, regs, prefill, seed):
    code = b"".join(encode(*i) for i in instrs)
    size = StateLayout(_MEM).size
    rng = random.Random(seed)
    g0 = bytes(size) if prefill == "null" else bytes(
        rng.randrange(4) for __ in range(size))
    for track in (False, True):
        # One store for three runs: the compiled variants run again from
        # the same marks, then from the marks they left, so the header
        # update's fixed-point skip is checked too.
        store = TranslationStore(_MEM, _CODE, _CODE + len(code))
        first = None
        for g in (g0, g0, "first"):
            g = first[2] if g == "first" else g
            ref = _outcome(code, regs, g, track, None)
            fast = _outcome(code, regs, g, track, store)
            assert fast == ref, "track=%s: ref=%r fast=%r" % (
                track, ref[0], fast[0])
            first = first or ref


def _plan(instrs):
    return _redundant_marks([(_CODE + 8 * k,) + tuple(i)
                             for k, i in enumerate(instrs)])


def test_elision_drops_what_an_earlier_mark_made_a_no_op():
    plan = _plan([(Op.PUSH_R, 0, 0, 0, 0),          # write [esp-4]
                  (Op.POP_R, 0, 1, 0, 0),           # read it: dropped
                  (Op.PUSH_R, 0, 1, 0, 0),          # write again: dropped
                  (Op.LOAD, 1, 2, 5 << 4, 8),       # read [r5+8]
                  (Op.ADD_RI, 0, 5, 0, 4),          # r5 keeps its root
                  (Op.LOAD8U, 1, 3, 5 << 4, 4),     # byte at r5+8: kept
                  (Op.STORE, 1, 3, 5 << 4, 4),      # first write: kept
                  (Op.LOAD, 1, 2, 5 << 4, 4),       # read after write: dropped
                  (Op.LOAD, 1, 5, 5 << 4, 0),       # r5 rewritten: fresh root
                  (Op.LOAD, 1, 2, 5 << 4, 4)])      # new address: kept
    assert [sorted(p) for p in plan] == [
        [], ["mem"], ["mem"], [], [], [], [], ["mem"], [], []]


def test_flag_marks_after_an_unconditional_write_are_dropped():
    plan = _plan([(Op.SETZ, 0, 0, 0, 0),            # read
                  (Op.INC_R, 0, 0, 0, 0),           # read dropped, write kept
                  (Op.SHL_RR, 0, 0, 1, 0),          # conditional write
                  (Op.CMP_RR, 0, 0, 1, 0),          # write dropped
                  (Op.SETB, 0, 2, 0, 0)])           # read dropped
    assert [sorted(p) for p in plan] == [
        [], ["flags_read"], [], ["flags_write"], ["flags_read"]]
    # A shift by a register count never licenses a later write.
    plan = _plan([(Op.SHL_RR, 0, 0, 1, 0), (Op.CMP_RR, 0, 0, 1, 0)])
    assert [sorted(p) for p in plan] == [[], []]

