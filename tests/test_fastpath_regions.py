"""Regions: the hot-block tier of the fast path against the reference.

A region compiles the blocks a break set keeps running into one
function with the registers in locals (``blockcache.Region``). Here the
promotion constant is 1, so every block the cold loop runs is promoted
at once and nearly every instruction runs inside a region: its exits
(break IP, short budget, a non-member EIP, a fault) are where it can go
wrong, and each is held to the reference tier on everything observable —
final state, dependency bytes, instruction count, stop reason, fault
type, the state a fault leaves, and the exception's ``_fp_executed``.
The header fold a region uses for register / EIP marks is checked on
its own against the FSM tables.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.errors import MachineError
from repro.machine import DepVector, blockcache
from repro.machine.depvec import ON_READ, ON_WRITE, mark
from repro.machine.layout import EIP_OFF
from repro.minic import compile_source

from test_fastpath_differential import (
    _HOT_LOOP,
    _random_minic,
    _random_stream,
    _raw_machine,
    _walk_break_set_sequence,
    assert_tiers_agree,
)


@pytest.fixture(autouse=True)
def promote_everything(monkeypatch):
    monkeypatch.setattr(blockcache, "HOT_RUNS", 1)


def _assemble(source):
    return assemble(".entry start\nstart:\n%s" % source, name="region-test")


def _loop(fault_at, stride=200):
    """A 30-turn loop with a call: the callee divides by ``fault_at -
    ecx`` (a fault in the middle of a member once ``ecx`` gets there),
    and the loop body loads through a pointer that walks ``stride``
    bytes per turn (at 200, a segmentation fault around turn 17 if the
    division has not faulted first; at 40, none)."""
    return _assemble("""
    mov ecx, 0
    mov ebx, 1024
loop:
    load eax, [ebx + 4]
    add edx, eax
    add ebx, %d
    call f
    store [ebx + 8], edx
    inc ecx
    cmp ecx, 30
    jl loop
    hlt
f:
    push eax
    mov eax, 1000
    mov esi, %d
    sub esi, ecx
    idiv esi
    add edi, eax
    pop eax
    ret
""" % (stride, fault_at))


def _region_ran(machine):
    return any(heat.region is not None
               for heat in machine.context.tier._heat.values())


def _resume(program, fast, track, with_dep, budgets, break_ips=None):
    """Run one machine over a sequence of budgets (resuming after each
    stop) until it halts or faults: every stop and the fault, if any."""
    machine = program.make_machine(track_code_reads=track, fast_path=fast)
    dep = DepVector(program.layout.size) if with_dep else None
    trail = []
    fault = None
    for budget in budgets:
        try:
            result = machine.run(max_instructions=budget,
                                 break_ips=break_ips, dep=dep)
        except MachineError as exc:
            fault = (type(exc).__name__, str(exc),
                     getattr(exc, "_fp_executed", None))
            break
        trail.append((result.instructions, result.reason, result.eip))
        if result.reason == "halted":
            break
    outcome = (trail, fault, bytes(machine.state.buf),
               None if dep is None else bytes(dep.buf),
               machine.instruction_count)
    return outcome, machine


def assert_resumes_agree(program, budgets, break_ips=None,
                         tracks=(False, True)):
    ran_regions = False
    for track in tracks:
        for with_dep in (False, True):
            ref, __ = _resume(program, False, track, with_dep, budgets,
                              break_ips)
            fast, machine = _resume(program, True, track, with_dep, budgets,
                                    break_ips)
            assert ref == fast, (
                "track=%s dep=%s budgets=%r break=%r:\nref=%r %r\nfast=%r %r"
                % (track, with_dep, budgets[:5], break_ips, ref[0][-3:],
                   ref[1], fast[0][-3:], fast[1]))
            ran_regions = ran_regions or _region_ran(machine)
    return ran_regions


# -- region exits ----------------------------------------------------------------

@pytest.mark.parametrize("fault_at", [5, 13, 40])
def test_fault_in_the_middle_of_a_region(fault_at):
    # 5 and 13: the division faults in the callee after a few turns of
    # the loop inside the region; 40: the walking load faults first.
    program = _loop(fault_at)
    assert assert_resumes_agree(program, [None])
    assert assert_resumes_agree(program, [10_000])
    # The fault after a short run: registers of earlier members and the
    # folded header must both be flushed before the block's recovery.
    assert assert_resumes_agree(program, [3, 50, 1, 10_000])


def test_fault_carries_instructions_retired_before_it():
    program = _loop(9)
    outcome, machine = _resume(program, True, False, True, [None])
    trail, fault = outcome[:2]
    assert trail == [] and fault[0] == "MachineError"
    assert _region_ran(machine)
    # The reference retires exactly that many, then faults on the next.
    reference = program.make_machine(fast_path=False)
    result = reference.run(max_instructions=fault[2])
    assert (result.reason, result.instructions) == ("limit", fault[2])
    with pytest.raises(MachineError):
        reference.step()


def test_budget_shorter_than_the_next_member():
    # Budgets smaller than any block leave the region at once; budgets
    # that end mid-loop leave it between members.
    program = _loop(1000)
    rng = random.Random(3)
    for budgets in ([1] * 400, [2, 3, 5, 7] * 100,
                    [rng.choice((1, 4, 9, 13, 17, 40)) for __ in range(300)]):
        assert assert_resumes_agree(program, budgets)


def test_arrival_at_a_break_ip_from_inside_a_region():
    program = _loop(1000, stride=40)
    lo, hi = program.code_range
    for ip in range(lo, hi, 8):
        assert_resumes_agree(program, [997] * 60, break_ips=frozenset((ip,)))
    ips = list(range(lo, hi, 8))
    rng = random.Random(8)
    for __ in range(10):
        assert_resumes_agree(program, [rng.choice((13, 997))] * 60,
                             break_ips=frozenset(rng.sample(ips, 2)))


def test_region_stops_on_every_arrival_at_the_loop_head():
    program = _loop(1000)
    head = program.entry + 16  # loop:
    outcome, machine = _resume(program, True, False, True, [None] * 40,
                               frozenset((head,)))
    assert _region_ran(machine)
    assert [stop[1:] for stop in outcome[0][:-1]] == \
        [("breakpoint", head)] * (len(outcome[0]) - 1)


def test_supersteps_with_a_fresh_dependency_vector_each():
    # The memo shape: every run starts from an all-NULL vector, so the
    # fold's masks decide each register's status alone (a register a
    # member writes and a later member reads stays WRITTEN).
    program = _loop(1000, stride=40)
    head = program.entry + 16
    for break_ips in (None, frozenset((head,))):
        for track in (False, True):
            stops = []
            for fast in (False, True):
                machine = program.make_machine(track_code_reads=track,
                                               fast_path=fast)
                dep = DepVector(program.layout.size)
                trail = []
                while not machine.halted:
                    dep.reset()
                    result = machine.run(max_instructions=61,
                                         break_ips=break_ips, dep=dep)
                    trail.append((result.instructions, result.reason,
                                  bytes(machine.state.buf), bytes(dep.buf)))
                stops.append(trail)
            assert stops[0] == stops[1]
            assert _region_ran(machine)


def test_dep_code_variant():
    program = compile_source(_HOT_LOOP, name="hot-dep-code")
    ref, __ = _resume(program, False, True, True, [None])
    fast, machine = _resume(program, True, True, True, [None])
    assert ref == fast
    assert machine.context.tier._heat[frozenset(), "dep_code"].region
    assert assert_resumes_agree(_loop(6), [7, 300, 2, None], tracks=(True,))


# -- the differential suites, promoted -----------------------------------------

def test_hot_loop_and_random_programs():
    hot = compile_source(_HOT_LOOP, name="hot-regions")
    assert_tiers_agree(hot)
    for budget in (0, 1, 2, 3, 7, 9, 100, 101, 12345):
        assert_tiers_agree(hot, max_instructions=budget)
    rng = random.Random(0x2E610)
    for trial in range(6):
        assert_tiers_agree(compile_source(_random_minic(rng),
                                          name="fuzz%d" % trial))


def test_random_instruction_streams_resumed():
    # Random streams with their faults, refusals and wild jumps, resumed
    # in small budgets so blocks run again (and so inside regions).
    rng = random.Random(4321)
    for trial in range(120):
        code = _random_stream(rng, rng.randrange(1, 30))
        for track in (False, True):
            results = []
            for fast in (False, True):
                machine = _raw_machine(code, trial, fast, track)
                dep = DepVector(machine.state.layout.size)
                trail = []
                for __ in range(12):
                    try:
                        result = machine.run(max_instructions=17, dep=dep)
                    except MachineError as exc:
                        trail.append((type(exc).__name__, str(exc),
                                      exc._fp_executed))
                        break
                    trail.append((result.instructions, result.reason))
                    if result.reason == "halted":
                        break
                results.append((trail, bytes(machine.state.buf),
                                bytes(dep.buf), machine.instruction_count))
            assert results[0] == results[1], (trial, track)


def test_shared_store_under_random_break_set_sequences():
    rng = random.Random(0x2E6)
    hot = compile_source(_HOT_LOOP, name="hot-walk-regions")
    _walk_break_set_sequence(hot, rng, stops=120)
    assert hot.translations._regions
    for trial in range(4):
        program = compile_source(_random_minic(rng), name="rwalk%d" % trial)
        _walk_break_set_sequence(program, rng, stops=40)


# -- one store, two threads ------------------------------------------------------

def test_two_threads_promote_one_break_set_and_compile_it_once(monkeypatch):
    compiled = []

    def counting(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(blockcache, "compile", counting, raising=False)
    program = compile_source(_HOT_LOOP, name="hot-region-threads")
    reference = program.make_machine(fast_path=False)
    reference.run()
    lo, hi = program.code_range
    break_ips = frozenset((lo + 8 * ((hi - lo) // 16),))
    start = threading.Barrier(2)
    finals, regions, errors = {}, {}, []

    def work(k):
        try:
            machine = program.make_machine(fast_path=True)
            dep = DepVector(program.layout.size)
            start.wait(timeout=30)
            while not machine.halted:
                machine.run(max_instructions=5000, break_ips=break_ips,
                            dep=dep)
            finals[k] = (bytes(machine.state.buf), machine.instruction_count)
            regions[k] = machine.context.tier._heat[break_ips, "dep"].region
        except Exception as exc:  # surfaced below, in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    expected = (bytes(reference.state.buf), reference.instruction_count)
    assert finals == {0: expected, 1: expected}
    assert regions[0] is regions[1]
    assert regions[0] is program.translations._regions[break_ips, "dep"]
    made = [name for name in compiled if name.startswith("<region")]
    assert made and len(made) == len(set(made))


# -- the header fold -------------------------------------------------------------

def _pool_of_blocks():
    translator = blockcache.BlockTranslator(1024, 0x40, 0x40 + 8 * 4096)
    rng = random.Random(99)
    blocks = []
    while len(blocks) < 40:
        code = _random_stream(rng, rng.randrange(1, 12))
        block = translator.translate(code, 0x40, frozenset())
        if block:
            blocks.append(block)
    return blocks


_BLOCKS = _pool_of_blocks()
_HEADER = EIP_OFF + 4


def _run_block_marks(g, block):
    """The reference's register / EIP marks of one full block run,
    access by access: every instruction reads EIP, its registers in
    handler order, then writes EIP."""
    for accesses in block.reg_marks:
        mark(g, EIP_OFF, 4, ON_READ)
        for kind, reg in accesses:
            mark(g, reg * 4, 4, ON_READ if kind == "r" else ON_WRITE)
        mark(g, EIP_OFF, 4, ON_WRITE)


@settings(max_examples=300, deadline=None)
@given(sequence=st.lists(st.integers(0, len(_BLOCKS) - 1), max_size=12),
       header=st.binary(min_size=_HEADER, max_size=_HEADER).map(
           lambda raw: bytes(b & 3 for b in raw)))
def test_header_fold_equals_the_updates_in_order(sequence, header):
    oracle = bytearray(header)
    stepwise = bytearray(header)
    for index in sequence:
        _run_block_marks(oracle, _BLOCKS[index])
        blockcache.apply_header(stepwise, *_BLOCKS[index].header)
    assert stepwise == oracle
    rd = wr = 0
    seen = set()
    for index in sequence:
        if index not in seen:  # fold on the first visit only
            seen.add(index)
            block_rd, block_wr = _BLOCKS[index].header
            rd |= block_rd & ~(wr >> 1)
            wr |= block_wr
    folded = bytearray(header)
    blockcache.apply_header(folded, rd, wr)
    assert folded == oracle
