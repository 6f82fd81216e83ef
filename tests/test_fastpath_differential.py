"""Differential tests: block-cache fast path vs. reference interpreter.

Every test here runs the same program through both interpreter tiers and
asserts bit-exact agreement: final state vectors, instruction counts,
dependency vectors, stop reasons, and fault messages — with and without
``track_code_reads``. This is the acceptance gate that makes the fast
path trustworthy enough to be on by default.
"""

import random

import pytest

from repro.core.speculation import run_speculation
from repro.errors import MachineError
from repro.isa.encoding import encode
from repro.isa.opcodes import Op
from repro.machine import DepVector, Machine, StateVector, TransitionContext
from repro.machine.layout import StateLayout
from repro.minic import compile_source

_HOT_LOOP = """
int sink;
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 2000; i++) { x = x + i; x = x ^ (i << 1); }
    sink = x;
    return x;
}
"""


# -- helpers -------------------------------------------------------------------

def _outcome(machine, dep, run_result, exc):
    """Everything that must agree between the two tiers."""
    if exc is not None:
        result = ("fault", type(exc).__name__, str(exc))
    else:
        result = (run_result.instructions, run_result.reason, run_result.eip)
    return (result, bytes(machine.state.buf),
            None if dep is None else bytes(dep.buf),
            machine.instruction_count)


def _run_tier(program, fast, track, with_dep, max_instructions=100_000,
              break_ips=None):
    machine = program.make_machine(track_code_reads=track, fast_path=fast)
    dep = DepVector(program.layout.size) if with_dep else None
    result = exc = None
    try:
        result = machine.run(max_instructions=max_instructions,
                             break_ips=break_ips, dep=dep)
    except MachineError as caught:
        exc = caught
    return _outcome(machine, dep, result, exc)


def assert_tiers_agree(program, max_instructions=100_000, break_ips=None):
    for track in (False, True):
        for with_dep in (False, True):
            ref = _run_tier(program, False, track, with_dep,
                            max_instructions, break_ips)
            fast = _run_tier(program, True, track, with_dep,
                             max_instructions, break_ips)
            assert ref == fast, (
                "tier mismatch (track=%s dep=%s): ref=%r fast=%r"
                % (track, with_dep, ref[0], fast[0]))


# -- the hot kernel ------------------------------------------------------------

@pytest.fixture(scope="module")
def hot_program():
    return compile_source(_HOT_LOOP, name="hot")


def test_hot_loop_bit_exact(hot_program):
    assert_tiers_agree(hot_program)


def test_hot_loop_under_budgets(hot_program):
    # Budgets that land mid-block force the fast path's single-step
    # fallback; every cut must agree with the reference.
    for budget in (0, 1, 2, 3, 7, 9, 100, 101, 12345):
        assert_tiers_agree(hot_program, max_instructions=budget)


def test_hot_loop_breakpoints(hot_program):
    lo, hi = hot_program.code_range
    ips = list(range(lo, hi, 8))
    rng = random.Random(11)
    cases = [frozenset((ip,)) for ip in ips]
    cases += [frozenset(rng.sample(ips, 3)) for __ in range(10)]
    for break_ips in cases:
        for fast in (False, True):
            machine = hot_program.make_machine(fast_path=fast)
            dep = DepVector(hot_program.layout.size)
            trail = []
            for __ in range(40):  # resume repeatedly over one break set
                result = machine.run(max_instructions=997,
                                     break_ips=break_ips, dep=dep)
                trail.append((result.instructions, result.reason,
                              result.eip))
                if result.reason == "halted":
                    break
            if fast:
                assert trail == ref_trail
                assert bytes(machine.state.buf) == ref_state
                assert bytes(dep.buf) == ref_dep
            else:
                ref_trail = trail
                ref_state = bytes(machine.state.buf)
                ref_dep = bytes(dep.buf)


def test_hot_loop_ip_trace(hot_program):
    for budget in (0, 1, 5, 9, 1000, 54321):
        ref = hot_program.make_machine(fast_path=False)
        fast = hot_program.make_machine(fast_path=True)
        assert ref.ip_trace(budget) == fast.ip_trace(budget)
        assert bytes(ref.state.buf) == bytes(fast.state.buf)
        assert ref.instruction_count == fast.instruction_count


def test_hot_loop_speculation(hot_program):
    lo, hi = hot_program.code_range
    rng = random.Random(5)
    seed = hot_program.make_machine(fast_path=False)
    snapshots = []
    for __ in range(12):
        seed.run(max_instructions=131)
        snapshots.append(bytes(seed.state.buf))
    for rip in rng.sample(list(range(lo, hi, 8)), 6):
        for occurrences in (1, 3):
            for snap in snapshots[::4]:
                results = []
                for fast in (False, True):
                    context = hot_program.make_context(fast_path=fast)
                    spec = run_speculation(context, snap, rip, occurrences,
                                           3000)
                    entry = spec.entry
                    results.append(
                        (spec.instructions, spec.halted, spec.fault,
                         None if entry is None else
                         (entry.start_indices.tobytes(),
                          entry.end_indices.tobytes())))
                assert results[0] == results[1]


# -- randomized mini-C programs ------------------------------------------------

def _random_minic(rng):
    """A small random program: global array, loop, mixed arithmetic."""
    n = rng.randrange(4, 9)
    ops = ["+", "-", "*", "^", "|", "&", "%", "/", "<<", ">>"]
    body = []
    for k in range(rng.randrange(2, 5)):
        op = rng.choice(ops)
        if op in ("%", "/"):
            rhs = "(i + %d)" % rng.randrange(1, 7)  # nonzero divisor
        elif op in ("<<", ">>"):
            rhs = "%d" % rng.randrange(0, 5)
        else:
            rhs = rng.choice(["i", "arr[i %% %d]" % n,
                              "%d" % rng.randrange(-9, 9)])
        body.append("acc = acc %s %s;" % (op, rhs))
    body.append("arr[i %% %d] = acc;" % n)
    return """
int arr[%d] = {%s};
int out;
int main() {
    int i;
    int acc = %d;
    for (i = 0; i < %d; i++) {
        %s
    }
    out = acc;
    return acc;
}
""" % (n, ", ".join(str(rng.randrange(-20, 20)) for __ in range(n)),
       rng.randrange(-50, 50), rng.randrange(10, 60),
       "\n        ".join(body))


def test_random_minic_programs():
    rng = random.Random(0xA5C)
    for trial in range(10):
        source = _random_minic(rng)
        program = compile_source(source, name="fuzz%d" % trial)
        assert_tiers_agree(program)


# -- randomized raw instruction streams ----------------------------------------
# Mini-C exercises the compiler's favorite instructions; raw streams cover
# the whole ISA including faults, misaligned jumps, and encodings the
# translator must refuse (register fields >= 8, junk modes).

def _random_stream(rng, n):
    out = bytearray()
    for __ in range(n):
        op = rng.choice(list(Op))
        mode = rng.choice([0, 0, 1, 1, 2, 3, 4, 5])
        ra = rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 7, 9])
        rb = rng.choice([0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x70,
                         0x9A])
        imm = rng.choice([0, 1, 4, 64, 100, 200, -4, 0x7FFFFFFF,
                          -0x80000000, rng.randrange(-300, 300)])
        out += encode(op, mode, ra, rb, imm)
    return bytes(out)


def _raw_machine(code, trial, fast, track, mem=1024):
    layout = StateLayout(mem)
    state = StateVector(layout)
    base = 0x40
    state.write_bytes(base, code)
    state.eip = base
    state.set_reg(4, mem)  # ESP at the top of memory
    rng = random.Random(trial)
    for reg in range(8):
        if reg != 4:
            state.set_reg(reg, rng.randrange(0, 1 << 32))
    context = TransitionContext(layout, code_range=(base, base + len(code)),
                                track_code_reads=track, fast_path=fast)
    return Machine(state, context)


def test_random_instruction_streams():
    rng = random.Random(1234)
    for trial in range(200):
        code = _random_stream(rng, rng.randrange(1, 30))
        for track in (False, True):
            results = []
            for fast in (False, True):
                machine = _raw_machine(code, trial, fast, track)
                dep = DepVector(machine.state.layout.size)
                result = exc = None
                try:
                    result = machine.run(max_instructions=200, dep=dep)
                except MachineError as caught:
                    exc = caught
                results.append(_outcome(machine, dep, result, exc))
            assert results[0] == results[1], (
                "stream mismatch trial=%d track=%s: ref=%r fast=%r"
                % (trial, track, results[0][0], results[1][0]))


# -- one translation store, many contexts ---------------------------------------
# Translated blocks belong to the Program and are reused under any break
# set that does not cut them, by contexts that differ in everything a
# context can differ in. The reference interpreter shares nothing, so it
# is the oracle at every stop.

def _stop(program, context, start, break_ips, budget, with_dep):
    """One ``Machine.run`` from ``start`` on ``context``: everything
    observable about where and how it stopped."""
    machine = Machine(StateVector(program.layout, bytearray(start)), context)
    dep = DepVector(program.layout.size) if with_dep else None
    result = exc = None
    try:
        result = machine.run(max_instructions=budget, break_ips=break_ips,
                             dep=dep)
    except MachineError as caught:
        exc = caught
    return _outcome(machine, dep, result, exc)


def _walk_break_set_sequence(program, rng, stops):
    lo, hi = program.code_range
    ips = list(range(lo, hi, 8))
    shared = [program.make_context(track_code_reads=track, fast_path=True)
              for track in (False, True, False)]
    assert all(context.tier.store is program.translations
               for context in shared)
    reference = {track: program.make_context(track_code_reads=track,
                                             fast_path=False)
                 for track in (False, True)}
    state = bytes(program.initial_state().buf)
    for stop in range(stops):
        break_ips = frozenset(rng.sample(ips, rng.choice((0, 1, 1, 2, 3))))
        budget = rng.choice((1, 7, 64, 997, 5000))
        with_dep = rng.random() < 0.5
        context = rng.choice(shared)
        fast = _stop(program, context, state, break_ips, budget, with_dep)
        ref = _stop(program, reference[context.track_code_reads], state,
                    break_ips, budget, with_dep)
        assert fast == ref, (
            "stop %d under %s (budget=%d dep=%s track=%s): ref=%r fast=%r"
            % (stop, sorted(break_ips), budget, with_dep,
               context.track_code_reads, ref[0], fast[0]))
        state = ref[1]
        if ref[0][1] == "halted":
            break
    for shapes in program.translations._pool.values():
        # Nothing was translated twice.
        assert not shapes or len({b.addrs for b in shapes}) == len(shapes)


def test_shared_store_under_random_break_set_sequences(hot_program):
    rng = random.Random(0x5709E)
    _walk_break_set_sequence(hot_program, rng, stops=150)
    for trial in range(6):
        program = compile_source(_random_minic(rng), name="walk%d" % trial)
        _walk_break_set_sequence(program, rng, stops=60)


def test_pooled_block_shapes_are_what_discovery_would_find():
    # The reuse rule, checked against the definition: a pooled block
    # handed out under a break set has the shape a fresh discovery under
    # that break set produces.
    program = compile_source(_HOT_LOOP, name="hot-shapes")
    store = program.translations
    lo, hi = program.code_range
    ips = list(range(lo, hi, 8))
    rng = random.Random(77)
    buf = program.initial_state().buf
    for __ in range(400):
        break_set = frozenset(rng.sample(ips, rng.choice((0, 1, 2, 4))))
        entry = rng.choice(ips)
        block = store.lookup(buf, entry, break_set)
        instrs, cut_by = store.translator.discover(program.code, entry,
                                                   break_set)
        if not instrs:
            assert block is False
        else:
            assert block.instrs == instrs
            assert block.cut_by is None or block.cut_by in break_set


def test_equal_layout_different_code_never_share():
    template = ("int out; int main() { int i; int x = 0; "
                "for (i = 0; i < 50; i++) { x = x %s i; } out = x; "
                "return x; }")
    plus = compile_source(template % "+", name="plus")
    minus = compile_source(template % "-", name="minus")
    assert plus.code_range == minus.code_range
    assert plus.layout.mem_size == minus.layout.mem_size
    assert plus.code != minus.code
    assert plus.translations is not minus.translations
    # Populate one store, then run the other program on the fast path:
    # it decodes its own code bytes, whatever state it is handed first.
    assert_tiers_agree(plus)
    assert_tiers_agree(minus)
    # A store is good for one geometry only, and says so.
    small = compile_source("int main() { return 0; }", name="small")
    with pytest.raises(MachineError):
        TransitionContext(small.layout, code_range=small.code_range,
                          fast_path=True, translations=plus.translations)


def test_store_decodes_the_programs_code_not_the_first_buffer():
    program = compile_source(_HOT_LOOP, name="hot-own-code")
    lo, hi = program.code_range
    # The first state to reach the (empty) store has junk where the code
    # should be. Blocks must come from program.code regardless.
    junk = program.initial_state()
    junk.buf[64 + lo:64 + hi] = bytes(hi - lo)
    store = program.translations
    block = store.lookup(junk.buf, program.entry, frozenset())
    instrs, __ = store.translator.discover(program.code, program.entry,
                                           frozenset())
    assert block.instrs == instrs
    assert_tiers_agree(program)


def test_threads_of_one_program_end_byte_identical(monkeypatch):
    # More threads than cores, switching every few bytecodes, all
    # translating and compiling into one store: every thread must end
    # where the reference does, and the store's lock must have kept
    # "once per program" true (a lost update would translate a shape or
    # compile a variant twice).
    import sys
    import threading
    from repro.machine import blockcache

    compiled = []

    def counting(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(blockcache, "compile", counting, raising=False)
    program = compile_source(_HOT_LOOP, name="hot-threads")
    reference = program.make_machine(fast_path=False)
    reference.run()
    lo, hi = program.code_range
    ips = list(range(lo, hi, 8))
    finals, errors = {}, []
    start = threading.Barrier(6)

    def work(k):
        try:
            rng = random.Random(k)
            machine = program.make_machine(fast_path=True)
            dep = DepVector(program.layout.size) if k % 2 else None
            start.wait(timeout=30)
            while not machine.halted:
                machine.run(max_instructions=rng.choice((50, 500, 5000)),
                            break_ips=frozenset(rng.sample(ips, k % 3)),
                            dep=dep)
            finals[k] = (bytes(machine.state.buf), machine.instruction_count)
        except Exception as exc:  # surfaced below, in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    expected = (bytes(reference.state.buf), reference.instruction_count)
    assert finals == {k: expected for k in range(6)}
    assert len(compiled) == len(set(compiled))
    for shapes in program.translations._pool.values():
        assert not shapes or len({b.addrs for b in shapes}) == len(shapes)


def test_populated_store_is_no_part_of_the_image():
    from repro.loader.image import Program

    program = compile_source(_HOT_LOOP, name="hot-identity")
    before = (program.to_dict(), program.image_hash())
    program.make_machine(fast_path=True).run()
    assert program.translations._pool
    assert (program.to_dict(), program.image_hash()) == before
    clone = Program.from_dict(program.to_dict())
    assert clone.image_hash() == before[1]
    assert clone.translations is not program.translations
    assert not clone.translations._pool
    fresh = Program.from_dict(before[0])
    assert fresh.to_dict() == clone.to_dict() == before[0]
