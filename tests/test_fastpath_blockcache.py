"""Block-cache soundness: write protection, splitting, fault exactness.

The translation cache is sound only because of three invariants, each
pinned here: stores into the code region fault before any byte changes
(so translations never go stale), blocks split at breakpoint IPs (so
``break_ips`` arrival is observed exactly), and mid-block faults recover
the byte-identical reference machine state.
"""

import pytest

from repro.asm import assemble
from repro.errors import CodeWriteError, MachineError, SegmentationFault
from repro.machine import DepVector, Machine
from repro.machine.blockcache import BlockCache


def _assemble(body, data=""):
    source = ".entry start\nstart:\n%s\n    hlt\n" % body
    if data:
        source += ".data\n%s\n" % data
    return assemble(source, name="blockcache-test")


# -- write protection never leaves a stale block -------------------------------

class TestCodeWriteProtection:
    def test_store_into_code_raises_and_preserves_translations(self):
        # A loop body that first executes (and so gets translated), then
        # on a later iteration tries to overwrite its own first
        # instruction. The store must raise, and re-running the same
        # entry must still produce reference behavior — the translated
        # block cannot have picked up the attempted write.
        program = _assemble("""
            mov ecx, 3
            mov ebx, start
        loop:
            add eax, ecx
            dec ecx
            jnz loop
            store [ebx], eax      ; hits write-protected code
        """)
        results = []
        for fast in (False, True):
            machine = program.make_machine(fast_path=fast)
            with pytest.raises(CodeWriteError) as excinfo:
                machine.run(max_instructions=1000)
            results.append((str(excinfo.value), bytes(machine.state.buf),
                            machine.instruction_count))
        assert results[0] == results[1]

    def test_faulted_store_then_rerun_stays_reference_exact(self):
        program = _assemble("""
            mov ebx, start
            store [ebx], eax
        """)
        machine = program.make_machine(fast_path=True)
        cache = machine.context.tier
        assert isinstance(cache, BlockCache)
        with pytest.raises(CodeWriteError):
            machine.run(max_instructions=100)
        # The fault interrupted a translated block; its cached form must
        # still describe the (unchanged) code. Re-run from scratch on
        # the SAME context and compare against a fresh reference run.
        rerun = Machine(program.initial_state(), machine.context)
        with pytest.raises(CodeWriteError):
            rerun.run(max_instructions=100)
        reference = program.make_machine(fast_path=False)
        with pytest.raises(CodeWriteError):
            reference.run(max_instructions=100)
        assert bytes(rerun.state.buf) == bytes(reference.state.buf)

    def test_code_bytes_unchanged_after_faulted_store(self):
        program = _assemble("""
            mov ebx, start
            mov eax, 0xDEADBEEF
            store [ebx], eax
        """)
        machine = program.make_machine(fast_path=True)
        lo, hi = program.code_range
        before = bytes(machine.state.buf[64 + lo:64 + hi])
        with pytest.raises(CodeWriteError):
            machine.run(max_instructions=100)
        assert bytes(machine.state.buf[64 + lo:64 + hi]) == before


# -- block splitting at breakpoint IPs -----------------------------------------

class TestBlockSplitting:
    def test_blocks_never_contain_interior_break_ips(self):
        program = _assemble("""
            mov eax, 1
            add eax, eax
            add eax, eax
            add eax, eax
            add eax, eax
        """)
        lo, hi = program.code_range
        machine = program.make_machine(fast_path=True)
        cache = machine.context.tier
        # Break in the middle of what would otherwise be one superblock.
        break_ip = lo + 16
        machine.run(max_instructions=1000, break_ips=frozenset((break_ip,)))
        assert machine.state.eip == break_ip
        __, blocks = cache.blocks_for(frozenset((break_ip,)))
        for block in blocks.values():
            if block:
                assert break_ip not in block.addrs[1:], (
                    "break IP 0x%x is interior to block at 0x%x"
                    % (break_ip, block.entry))

    def test_same_code_different_break_sets(self):
        # The same entry translated under two break sets must split
        # differently and both must behave like the reference.
        program = _assemble("""
            mov eax, 0
            mov ecx, 5
        loop:
            add eax, ecx
            dec ecx
            jnz loop
        """)
        lo, __ = program.code_range
        for break_ip in (lo + 24, lo + 32):
            outs = []
            for fast in (False, True):
                machine = program.make_machine(fast_path=fast)
                trail = []
                for __unused in range(20):
                    result = machine.run(max_instructions=500,
                                         break_ips=frozenset((break_ip,)))
                    trail.append((result.instructions, result.reason,
                                  result.eip))
                    if result.reason == "halted":
                        break
                outs.append((trail, bytes(machine.state.buf)))
            assert outs[0] == outs[1]


# -- fault exactness mid-block -------------------------------------------------

class TestFaultExactness:
    @pytest.mark.parametrize("body,data,exc_type", [
        # Segfault on the 3rd instruction of a straight-line block.
        ("mov eax, 5\n add eax, eax\n load ebx, [0]\n add eax, 1",
         "", SegmentationFault),
        # Division by zero mid-block.
        ("mov eax, 10\n mov ecx, 0\n idiv ecx\n hlt", "", MachineError),
        # IDIV quotient overflow (INT_MIN / -1).
        ("mov eax, -2147483648\n mov ecx, -1\n idiv ecx\n hlt",
         "", MachineError),
        # Unsigned division by zero.
        ("mov eax, 7\n mov ecx, 0\n udiv ecx\n hlt", "", MachineError),
        # Stack underflow: pop with ESP at the memory top.
        ("mov eax, 1\n pop ebx\n hlt", "", SegmentationFault),
    ])
    def test_fault_state_matches_reference(self, body, data, exc_type):
        program = _assemble(body, data)
        results = []
        for fast in (False, True):
            machine = program.make_machine(fast_path=fast)
            dep = DepVector(program.layout.size)
            with pytest.raises(exc_type) as excinfo:
                machine.run(max_instructions=100, dep=dep)
            results.append((str(excinfo.value), bytes(machine.state.buf),
                            bytes(dep.buf), machine.instruction_count))
        assert results[0] == results[1]

    def test_ip_trace_fault_accounting_matches(self):
        program = _assemble("mov eax, 2\n add eax, eax\n load ebx, [4]")
        counts = []
        for fast in (False, True):
            machine = program.make_machine(fast_path=fast)
            with pytest.raises(SegmentationFault):
                machine.ip_trace(100)
            counts.append((machine.instruction_count,
                           bytes(machine.state.buf)))
        assert counts[0] == counts[1]


# -- the switch ----------------------------------------------------------------

class TestFastPathSwitch:
    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        program = _assemble("mov eax, 1")
        machine = program.make_machine()
        assert machine.context.tier is machine.context.reference

    def test_env_default_enables(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
        program = _assemble("mov eax, 1")
        machine = program.make_machine()
        assert isinstance(machine.context.tier, BlockCache)

    @pytest.mark.parametrize("value", ["", "  "])
    def test_env_empty_reads_as_unset(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FAST_PATH", value)
        program = _assemble("mov eax, 1")
        machine = program.make_machine()
        assert isinstance(machine.context.tier, BlockCache)

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATH", "1")
        program = _assemble("mov eax, 1")
        machine = program.make_machine(fast_path=False)
        assert machine.context.tier is machine.context.reference

    def test_no_code_range_disables(self):
        from repro.machine import StateLayout, TransitionContext
        context = TransitionContext(StateLayout(256), fast_path=True)
        assert context.tier is context.reference

    def test_halted_machine_returns_immediately(self):
        program = _assemble("mov eax, 1")
        machine = program.make_machine(fast_path=True)
        machine.run(max_instructions=100)
        assert machine.halted
        result = machine.run(max_instructions=100)
        assert (result.instructions, result.reason) == (0, "halted")

    def test_blocks_are_reused_across_runs(self):
        program = _assemble("""
            mov ecx, 50
        loop:
            dec ecx
            jnz loop
        """)
        machine = program.make_machine(fast_path=True)
        cache = machine.context.tier
        machine.run(max_instructions=10_000)
        compiled = cache.compiled_block_count()
        assert compiled >= 2  # entry block + loop body at minimum
        rerun = Machine(program.initial_state(), machine.context)
        rerun.run(max_instructions=10_000)
        assert cache.compiled_block_count() == compiled


# -- each block is compiled once per program -----------------------------------

class TestCompiledOncePerProgram:
    """The mechanism behind the cold-run speed-up, as exact counts: the
    contexts of one job (recognizer trace, replay, dependency probes,
    main loop) share the Program's store, and a variant nobody executes
    is never compiled."""

    @pytest.fixture()
    def compiled(self, monkeypatch):
        """Names handed to ``compile()`` by the translator, in order:
        ``<block ENTRY+LENGTH/VARIANT>``, one per block variant."""
        from repro.machine import blockcache
        names = []

        def counting(source, filename, mode):
            names.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(blockcache, "compile", counting, raising=False)
        return names

    def test_one_job_compiles_each_variant_once_and_a_second_nothing(
            self, compiled, monkeypatch):
        from repro.bench import build_collatz
        from repro.core.recognizer import Recognizer
        from repro.core.superstep import SpeculationBackend, SuperstepLoop

        workload = build_collatz(count=400)
        program, config = workload.program, workload.config
        monkeypatch.setenv("REPRO_FAST_PATH", "1")  # whatever the shell says

        def job():
            recognized = Recognizer(config).find(program)
            searched = len(compiled)
            loop = SuperstepLoop(program, config, SpeculationBackend(),
                                 [recognized], 10_000_000)
            assert loop.main.context.tier.store is program.translations
            loop.run()
            assert loop.main.halted
            return compiled[:searched], compiled[searched:]

        # The search probes dependencies; the main thread of a
        # null-backend run tracks none: it may meet blocks the search
        # never did, but compiles only their plain variant.
        searched, ran = job()
        assert any(name.endswith("/dep>") for name in searched)
        assert all(name.endswith("/base>") for name in ran)

        assert len(compiled) == len(set(compiled)), "a variant compiled twice"
        pooled = sum(len(shapes) for shapes
                     in program.translations._pool.values() if shapes)
        assert 0 < len(compiled) < 2 * pooled  # not every block, both ways
        assert not any(name.endswith("/dep_code>") for name in compiled)

        # The same image again — what a daemon or a benchmark loop does.
        del compiled[:]
        assert job() == ([], [])

    def test_private_store_of_a_bare_context_still_compiles_lazily(
            self, compiled):
        from repro.machine import StateVector, TransitionContext
        program = _assemble("mov ecx, 5\nloop:\n dec ecx\n jnz loop")
        context = TransitionContext(program.layout,
                                    code_range=program.code_range,
                                    fast_path=True)
        assert context.tier.store is not program.translations
        Machine(StateVector(program.layout,
                            bytearray(program.initial_state().buf)),
                context).run(max_instructions=1000)
        assert compiled and all(n.endswith("/base>") for n in compiled)
        assert not program.translations._pool
