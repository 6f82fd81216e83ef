"""Generated straight-line blocks: forwarding, check elision and flag
liveness stay exact in every variant.

A translated block takes a load's value from a local when the block
stored or loaded that ``(address, width)`` before and no store between
may alias it, drops a bounds or code-write check an earlier access of
the block already passed, and computes only the ``fl`` bits something
reads before the next flag write (``blockcache._plan_block``). Those
decisions apply to the plain variant as much as to the tracking ones,
so Hypothesis runs the elision file's random blocks, plus two shapes
aimed at the new decisions, on the reference tier and then on each of
``base``, ``dep`` and ``dep_code``, and once more inside a loop that is
promoted to a region at once. State, dependency vector, instruction
count and fault message must be byte-identical in every run. The named
tests below pin the plan itself.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MachineError
from repro.isa.encoding import encode
from repro.isa.opcodes import Op
from repro.machine import DepVector, blockcache
from repro.machine.blockcache import TranslationStore, _plan_block
from repro.machine.layout import StateLayout

from test_fastpath_elision import (
    _CODE,
    _ESP,
    _MEM,
    _POOL,
    _SNIPPETS,
    _machine,
    _mem,
    disp,
    reg,
    width,
)

#: Never written by a generated block: the loop counter of the region run.
_COUNTER = 7


@st.composite
def _aliasing_store_between(draw):
    # A store and a load with one base register, at offsets that overlap
    # or not, with a store through another base register (whose value
    # may or may not be the same address) in between.
    a, b, d, e = draw(reg), draw(reg), draw(reg), draw(reg)
    load, store = draw(width)
    first = draw(st.sampled_from((load, store)))
    between = draw(st.sampled_from((Op.STORE, Op.STORE8)))
    return [(Op.MOV_RI, 0, b, 0, draw(st.sampled_from(_POOL))),
            _mem(first, d, a, draw(disp)),
            _mem(between, e, b, draw(disp)),
            _mem(draw(st.sampled_from((store, load))), d, a, draw(disp)),
            _mem(load, e, a, draw(disp))]


@st.composite
def _fault_between_flags(draw):
    # A flag write, an access that may fault (or one whose check an
    # earlier access passed), then a flag read.
    a, b, d = draw(reg), draw(reg), draw(reg)
    write = draw(st.sampled_from(((Op.CMP_RR, 0, a, b, 0),
                                  (Op.SUB_RI, 0, a, 0, 1),
                                  (Op.TEST_RR, 0, a, b, 0),
                                  (Op.INC_R, 0, a, 0, 0))))
    access = draw(st.sampled_from((
        _mem(Op.LOAD, d, a, 0),
        _mem(Op.STORE, d, a, 0x100000),
        (Op.IDIV_R, 0, b, 0, 0),
        (Op.POP_R, 0, d, 0, 0))))
    read = draw(st.sampled_from(((Op.SETZ, 0, d, 0, 0),
                                 (Op.SETB, 0, d, 0, 0),
                                 (Op.SETL, 0, d, 0, 0),
                                 (Op.ADC_RR, 0, d, b, 0),
                                 (Op.DEC_R, 0, d, 0, 0))))
    return [write, access, read]


_FLAG_WRITES = (Op.CMP_RR, Op.CMP_RI, Op.SUB_RI, Op.TEST_RR, Op.TEST_RI,
                Op.AND_RI, Op.OR_RR, Op.XOR_RR, Op.ADD_RR, Op.ADC_RR,
                Op.SBB_RR, Op.INC_R, Op.DEC_R, Op.NEG_R, Op.IMUL_RR,
                Op.SHL_RI, Op.SHR_RI, Op.SAR_RI)
_FLAG_READS = (Op.SETZ, Op.SETNZ, Op.SETL, Op.SETLE, Op.SETG, Op.SETGE,
               Op.SETB, Op.SETA)


@st.composite
def _flag_chain(draw):
    # Flag writes and reads with no fault site between, ending in a
    # write: every write but the last computes only its live bits.
    def one(ops):
        op = draw(st.sampled_from(ops))
        imm = draw(st.sampled_from((0, 1, 31, 0x204, 0xFFFFFFFF)))
        return (op, 0, draw(reg), draw(reg), imm)
    return [one(_FLAG_WRITES + _FLAG_READS)
            for __ in range(draw(st.integers(1, 5)))] + [one(_FLAG_WRITES)]


@st.composite
def _code_write(draw):
    # A load from the code region passes its bounds check; the store
    # to the same address must still fault on its code-write check.
    a, d = draw(reg), draw(reg)
    load, store = draw(width)
    return [(Op.MOV_RI, 0, a, 0, _CODE + 8 * draw(st.integers(0, 2))),
            _mem(load, d, a, 0), _mem(store, d, a, 0)]


@st.composite
def _self_pointer(draw):
    # A stack slot holding its own address, whose only other holder at
    # the pop is ESP itself: the pop reads ESP before moving it.
    a, b = draw(reg), draw(reg)
    return [(Op.MOV_RR, 0, a, _ESP, 0), (Op.SUB_RI, 0, a, 0, 4),
            (Op.PUSH_R, 0, a, 0, 0), (Op.MOV_RI, 0, a, 0, 0),
            (Op.POP_R, 0, b, 0, 0)]


_SHAPES = st.one_of(_SNIPPETS, _aliasing_store_between(),
                    _fault_between_flags(), _flag_chain(), _code_write(),
                    _self_pointer())


@st.composite
def bodies(draw):
    return [i for part in draw(st.lists(_SHAPES, min_size=1, max_size=6))
            for i in part]


def _outcome(code, regs, g0, variant, store):
    """Run a variant's configuration on the reference tier (``store``
    None) or on the fast path of ``store``."""
    machine = _machine(code, regs, variant == "dep_code", store)
    dep = None if variant == "base" else DepVector(g0)
    try:
        result = machine.run(max_instructions=1000, dep=dep)
        end = (result.instructions, result.reason, result.eip)
    except MachineError as exc:
        end = ("fault", type(exc).__name__, str(exc))
    return (end, bytes(machine.state.buf),
            None if dep is None else bytes(dep.buf),
            machine.instruction_count)


def _assert_variants_agree(code, regs, g0):
    for variant in blockcache.VARIANTS:
        store = TranslationStore(_MEM, _CODE, _CODE + len(code))
        ref = _outcome(code, regs, g0, variant, None)
        fast = _outcome(code, regs, g0, variant, store)
        assert fast == ref, "%s: ref=%r fast=%r" % (variant, ref[0],
                                                    fast[0])


def _looped(body):
    """``body`` as a loop run as many turns as ``_COUNTER`` holds."""
    return b"".join(encode(*i) for i in body + [
        (Op.DEC_R, 0, _COUNTER, 0, 0), (Op.JNZ, 0, 0, 0, _CODE),
        (Op.HLT, 0, 0, 0, 0)])


@settings(max_examples=150, deadline=None)
@given(body=bodies(),
       halt=st.booleans(),
       regs=st.lists(st.sampled_from(_POOL + (0, 3)), min_size=8,
                     max_size=8),
       prefill=st.sampled_from(("null", "random")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_forwarded_blocks_agree_with_the_reference(body, halt, regs,
                                                   prefill, seed):
    size = StateLayout(_MEM).size
    rng = random.Random(seed)
    g0 = bytes(size) if prefill == "null" else bytes(
        rng.randrange(4) for __ in range(size))
    tail = [(Op.HLT, 0, 0, 0, 0)] if halt else []
    _assert_variants_agree(b"".join(encode(*i) for i in body + tail),
                           regs, g0)
    # The same block as a loop body, promoted to a region on its first
    # run: the later turns run inside the region function.
    regs = list(regs)
    regs[_COUNTER] = 3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockcache, "HOT_RUNS", 1)
        _assert_variants_agree(_looped(body), regs, g0)


@pytest.mark.parametrize("chain", [
    # The first block's CMP leaves CF set (3 < 0x200) in the next
    # block's entry flags. Each write there is read only through bits
    # it clears without a term (TEST, AND, SHR), sets from one term
    # (IMUL) or keeps from the entry flags (INC), before the last CMP
    # overwrites all four.
    [(Op.TEST_RR, 0, 0, 0, 0), (Op.SETB, 0, 2, 0, 0)],
    [(Op.AND_RI, 0, 3, 0, 0), (Op.SETA, 0, 2, 0, 0)],
    [(Op.SHR_RI, 0, 1, 0, 1), (Op.SETL, 0, 2, 0, 0)],
    [(Op.IMUL_RR, 0, 3, 0, 0), (Op.SETB, 0, 2, 0, 0)],
    [(Op.INC_R, 0, 3, 0, 0), (Op.SETB, 0, 2, 0, 0)],
])
def test_flag_writes_cut_short_agree_with_the_reference(chain):
    body = [(Op.CMP_RR, 0, 0, 1, 0), (Op.JMP, 0, 0, 0, _CODE + 16)] + \
        chain + [(Op.CMP_RR, 0, 1, 0, 0), (Op.HLT, 0, 0, 0, 0)]
    regs = [3, 0x200, 0, 5, 0, 0, 0, 0]
    _assert_variants_agree(b"".join(encode(*i) for i in body), regs,
                           bytes(StateLayout(_MEM).size))


# -- the plan, case by case -----------------------------------------------------

def _plan(instrs):
    return _plan_block([(_CODE + 8 * k,) + tuple(i)
                        for k, i in enumerate(instrs)])


def test_forwarding_crosses_a_same_root_store_to_disjoint_bytes():
    plan = _plan([_mem(Op.STORE, 1, 5, 0),
                  _mem(Op.STORE, 2, 5, 4),          # bytes 4..7: disjoint
                  _mem(Op.STORE8, 2, 5, -1),        # byte -1: disjoint
                  _mem(Op.LOAD, 3, 5, 0)])
    assert plan[3].source == "r1"
    assert plan[3].elided == {"segv"} and not plan[3].faults


def test_forwarding_refused_across_a_different_root_store():
    plan = _plan([_mem(Op.STORE, 1, 5, 0),
                  _mem(Op.STORE, 2, 6, 0x40),       # r6 may equal r5 + 0
                  _mem(Op.LOAD, 3, 5, 0)])
    assert plan[2].source is None
    # The check is still elided: the address is the same name.
    assert plan[2].elided == {"segv"}


def test_forwarding_refused_across_an_overlapping_byte_store():
    for offset in (0, 3, -3):  # -3 overlaps through the 2**32 wrap
        plan = _plan([_mem(Op.STORE, 1, 5, 0),
                      _mem(Op.STORE8 if offset >= 0 else Op.STORE, 2, 5,
                           offset),
                      _mem(Op.LOAD, 3, 5, 0)])
        assert plan[2].source is None, offset


def test_forwarding_refused_after_the_base_register_is_rewritten():
    plan = _plan([_mem(Op.LOAD, 1, 5, 0),
                  _mem(Op.LOAD, 5, 6, 0),           # r5: a fresh value
                  _mem(Op.LOAD, 3, 5, 0)])
    assert plan[2].source is None
    assert plan[2].elided == set() and plan[2].faults


def test_forwarded_values_come_from_a_register_a_constant_or_a_save():
    plan = _plan([(Op.PUSH_R, 0, 1, 0, 0),
                  (Op.PUSH_I, 0, 0, 0, 0x1FF),
                  (Op.POP_R, 0, 2, 0, 0),           # the constant
                  (Op.MOV_RI, 0, 1, 0, 7),          # r1's value now lives
                  (Op.POP_R, 0, 3, 0, 0),           # only in the save
                  _mem(Op.LOAD8S, 0, 5, 0),
                  _mem(Op.LOAD8U, 6, 5, 0)])        # r0 still holds it
    assert plan[2].source == 0x1FF
    assert plan[4].source == plan[0].save is not None
    assert plan[6].source == "r0" and plan[5].save is None
    # A register with the same root at another offset holds another value.
    plan = _plan([(Op.PUSH_R, 0, 1, 0, 0), (Op.ADD_RI, 0, 1, 0, 4),
                  (Op.POP_R, 0, 2, 0, 0)])
    assert plan[2].source == plan[0].save is not None


def test_a_check_is_elided_only_for_the_same_name_width_and_kind():
    plan = _plan([_mem(Op.LOAD, 1, 5, 4),
                  _mem(Op.LOAD8U, 1, 5, 4),         # other width
                  _mem(Op.LOAD, 1, 6, 4),           # other name
                  _mem(Op.STORE, 1, 5, 4),          # code check is new
                  _mem(Op.STORE, 2, 5, 4),          # both passed
                  _mem(Op.STORE8, 2, 5, 4)])        # 1-byte code check new
    assert [sorted(step.elided) for step in plan] == [
        [], [], [], ["segv"], ["code", "segv"], ["segv"]]
    assert [step.faults for step in plan] == [
        True, True, True, True, False, True]


def test_inc_and_dec_keep_the_cf_of_an_earlier_write_live():
    # INC / DEC pass CF through: the CF the block exit sees is CMP's.
    for op in (Op.INC_R, Op.DEC_R):
        plan = _plan([(Op.CMP_RR, 0, 0, 1, 0), (op, 0, 2, 0, 0)])
        assert plan[0].live == 1
        plan = _plan([(Op.CMP_RR, 0, 0, 1, 0), (op, 0, 2, 0, 0),
                      (Op.TEST_RR, 0, 0, 0, 0)])
        assert plan[0].live == 0 and plan[1].live == 0
        plan = _plan([(Op.CMP_RR, 0, 0, 1, 0), (op, 0, 2, 0, 0),
                      (Op.SETB, 0, 3, 0, 0), (Op.TEST_RR, 0, 0, 0, 0)])
        assert plan[0].live == 1 and plan[1].live == 1


def test_readers_keep_only_their_bits_live():
    plan = _plan([(Op.CMP_RR, 0, 0, 1, 0), (Op.SETZ, 0, 2, 0, 0),
                  (Op.SUB_RI, 0, 0, 0, 1), (Op.SETL, 0, 2, 0, 0),
                  (Op.ADD_RR, 0, 0, 1, 0), (Op.ADC_RR, 0, 3, 1, 0),
                  (Op.CMP_RI, 0, 0, 0, 0)])
    assert [step.live for step in plan if step.live != 15] == [2, 12, 1, 0]
    assert plan[6].live == 15  # the block exit reads every bit


def test_a_shift_by_a_register_count_reads_every_flag_bit():
    for shift in (Op.SHL_RR, Op.SHR_RR, Op.SAR_RR):
        plan = _plan([(Op.CMP_RR, 0, 0, 1, 0), (shift, 0, 2, 3, 0),
                      (Op.CMP_RR, 0, 0, 1, 0)])
        assert plan[0].live == 15
    # A shift by a zero immediate touches no flag; by any other, all.
    plan = _plan([(Op.CMP_RR, 0, 0, 1, 0), (Op.SHL_RI, 0, 2, 0, 0),
                  (Op.SETZ, 0, 3, 0, 0), (Op.SHR_RI, 0, 2, 0, 1),
                  (Op.CMP_RR, 0, 0, 1, 0)])
    assert (plan[0].live, plan[3].live) == (2, 0)


def test_a_faultable_instruction_makes_every_flag_bit_live():
    for fault in (_mem(Op.LOAD, 2, 5, 0), _mem(Op.STORE8, 2, 5, 0),
                  (Op.IDIV_R, 0, 1, 0, 0), (Op.POP_R, 0, 2, 0, 0)):
        plan = _plan([(Op.CMP_RR, 0, 0, 1, 0), fault,
                      (Op.TEST_RR, 0, 0, 0, 0)])
        assert plan[1].faults and plan[0].live == 15, fault
    # An access whose checks an earlier one passed is no fault site.
    plan = _plan([_mem(Op.LOAD, 2, 5, 0), (Op.CMP_RR, 0, 0, 1, 0),
                  _mem(Op.LOAD, 3, 5, 0), (Op.TEST_RR, 0, 0, 0, 0)])
    assert not plan[2].faults and plan[1].live == 0


def test_an_instruction_without_a_fault_site_sets_no_pc(monkeypatch):
    sources = []
    real = compile

    def capture(source, filename, mode):
        sources.append(source)
        return real(source, filename, mode)

    monkeypatch.setattr(blockcache, "compile", capture, raising=False)
    code = b"".join(encode(*i) for i in [(Op.PUSH_R, 0, 1, 0, 0),
                                          (Op.POP_R, 0, 2, 0, 0),
                                          (Op.HLT, 0, 0, 0, 0)])
    store = TranslationStore(_MEM, _CODE, _CODE + len(code))
    block = store.translator.translate(code, _CODE, frozenset())
    for variant in blockcache.VARIANTS:
        store.translator.emit(block, variant)
    assert len(sources) == 3
    for source in sources:
        assert source.count("_pc = ") == 2  # the entry value, the push
        assert "r2 = r1" in source and "u32(buf, _o)" not in source
