"""Checkpoints must be portable across interpreter tiers.

A durable checkpoint records machine state, not the tier that computed
it: a snapshot taken while the block-cache fast path was enabled
(``REPRO_FAST_PATH=1``) must restore and finish identically on the
plain reference interpreter, and vice versa. Anything else would mean
the tiers disagree about machine state — exactly the class of bug the
verify subsystem audits for at the cache-entry level.
"""

import pytest

from repro.bench import build_collatz
from repro.cli import main
from repro.core import checkpoint as ck
from repro.core.config import EngineConfig
from repro.runtime import RealParallelEngine, RuntimeConfig

DETERMINISTIC = RuntimeConfig(n_workers=2, inflight_wait_bias=1e9)


def sequential_state(program, limit=50_000_000):
    machine = program.make_machine()
    machine.run(max_instructions=limit)
    assert machine.halted
    return bytes(machine.state.buf)


@pytest.fixture(scope="module")
def workload():
    return build_collatz(count=300)


@pytest.mark.parametrize("first_tier,second_tier",
                         [(True, False), (False, True)],
                         ids=["fast-then-reference", "reference-then-fast"])
def test_real_backend_checkpoint_crosses_tiers(workload, tmp_path,
                                               monkeypatch, first_tier,
                                               second_tier):
    """The tier switch is per process, set before each engine exists, so
    the forked workers cross tiers along with the main thread."""
    expected = sequential_state(workload.program)
    monkeypatch.setenv("REPRO_FAST_PATH", "1" if first_tier else "0")
    cp = ck.Checkpointer(tmp_path, every_instructions=20_000,
                         program=workload.program.name)
    first = RealParallelEngine(
        workload.program, config=EngineConfig(),
        runtime_config=DETERMINISTIC, checkpointer=cp).run()
    assert first.halted
    assert first.final_state == expected
    assert first.runtime.checkpoints_written >= 1

    snapshot = ck.load_latest(tmp_path)
    assert snapshot is not None
    assert 0 < snapshot.instruction_count < first.total_instructions

    monkeypatch.setenv("REPRO_FAST_PATH", "1" if second_tier else "0")
    resumed = RealParallelEngine(
        workload.program, config=EngineConfig(),
        runtime_config=DETERMINISTIC, resume_from=snapshot).run()
    assert resumed.halted
    assert resumed.final_state == expected
    assert resumed.total_instructions < first.total_instructions


@pytest.mark.parametrize("first_env,second_env", [("1", "0"), ("0", "1")],
                         ids=["fast-then-reference", "reference-then-fast"])
def test_cli_resume_crosses_tiers(tmp_path, monkeypatch, first_env,
                                  second_env):
    """``repro run --resume`` through the env-var form of the switch."""
    source = tmp_path / "kernel.c"
    source.write_text("""
        int total;
        int main() {
            int i;
            for (i = 1; i <= 2000; i++) total += i * i;
            return total;
        }
    """)
    ckdir = str(tmp_path / "ck")
    state_full = tmp_path / "full.bin"
    state_resumed = tmp_path / "resumed.bin"

    monkeypatch.setenv("REPRO_FAST_PATH", first_env)
    assert main(["run", str(source), "--checkpoint-dir", ckdir,
                 "--checkpoint-every", "2000",
                 "--state-out", str(state_full)]) == 0
    assert ck.checkpoint_paths(ckdir)

    monkeypatch.setenv("REPRO_FAST_PATH", second_env)
    assert main(["run", str(source), "--checkpoint-dir", ckdir, "--resume",
                 "--state-out", str(state_resumed)]) == 0
    assert state_full.read_bytes() == state_resumed.read_bytes()
