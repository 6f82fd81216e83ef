"""Shared fixtures: small compiled programs used across test modules,
plus per-test isolation (REPRO_* env, ring hygiene), a session-wide
shm leak gate and a seeded test-order shuffle for the CI isolation
leg."""

import os
import random
import time

import pytest

from repro.asm import assemble
from repro.minic import compile_source
from repro.runtime import shm
from repro.runtime.pool import WorkerPool

#: The REPRO_* environment as it stood when the suite started. CI legs
#: legitimately export knobs (REPRO_FAST_PATH, REPRO_BENCH_PROFILE); tests
#: are restored to *this* baseline, not to an empty environment.
REPRO_ENV_BASELINE = {key: value for key, value in os.environ.items()
                      if key.startswith("REPRO_")}


def pytest_addoption(parser):
    parser.addoption(
        "--repro-shuffle", type=int, default=None, metavar="SEED",
        help="run tests in a seeded random order (catches order-"
             "dependent state leaks; the CI isolation leg sets this)")


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--repro-shuffle")
    if seed is not None:
        random.Random(seed).shuffle(items)


_PSM_BASELINE = pytest.StashKey()

#: Where glibc's ``shm_open`` (so ``multiprocessing.shared_memory``)
#: places named segments; CI's leak gates list the same directory.
SHM_DIR = "/dev/shm"


def psm_names():
    """Every named ``psm_*`` segment in :data:`SHM_DIR`, whichever
    process created it."""
    try:
        return {name for name in os.listdir(SHM_DIR)
                if name.startswith("psm_")}
    except OSError:
        return set()


def pytest_sessionstart(session):
    session.config.stash[_PSM_BASELINE] = psm_names()


def pytest_sessionfinish(session):
    """Fail the session over any named segment it left behind. Rings
    are anonymous mappings and never appear here; a SIGKILLed
    subprocess's leftover would be visible only here, so allow its
    stragglers a moment to exit."""
    baseline = session.config.stash.get(_PSM_BASELINE, None)
    if baseline is None:
        return
    deadline = time.monotonic() + 5.0
    while psm_names() - baseline and time.monotonic() < deadline:
        time.sleep(0.1)
    leaked = sorted(psm_names() - baseline)
    if leaked:
        reporter = session.config.pluginmanager.get_plugin(
            "terminalreporter")
        reporter.ensure_newline()
        reporter.write_line(
            "session leaked shm segments in %s: %s"
            % (SHM_DIR, ", ".join(leaked)), red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(autouse=True)
def _repro_isolation():
    """Per-test isolation: restore the REPRO_* env to the session
    baseline and fail any test that leaves a ring open.

    Env restoration is silent (it *is* the isolation — a polluting test
    still fails its own assertions if it relied on the leak); segment
    leaks fail loudly because they are resource bugs, not state bugs,
    and closing them here keeps one bad test from failing every later
    one.
    """
    yield
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in REPRO_ENV_BASELINE:
            del os.environ[key]
    os.environ.update(REPRO_ENV_BASELINE)
    leaked = shm.live_segment_names()
    if leaked:
        shm.close_rings()
        pytest.fail("test left rings open: %s" % ", ".join(leaked))


class _Ringless:
    """What the ``ringless`` fixture hands a test."""

    def __init__(self):
        self.slots = None  # worker slots refused rings; None: every slot
        self.refused = 0  # spawns that got no rings


@pytest.fixture
def ringless(monkeypatch):
    """Pools this test builds in-process get no rings.

    ``repro.runtime.shm.create_ring`` raises :class:`ShmError` — what a
    platform without fork does — so the pool observes the failure and
    runs those workers ringless; nothing is *told* to. Set
    ``ringless.slots`` to a collection of slot indices to refuse only
    those (an empty one refuses none). Fails a test that asked for
    ringless workers and never spawned one.
    """
    control = _Ringless()
    spawning = []  # slot index of the _spawn in progress
    real_spawn, real_create = WorkerPool._spawn, shm.create_ring

    def spawn(pool, index):
        spawning.append(index)
        try:
            return real_spawn(pool, index)
        finally:
            spawning.pop()

    def create_ring(capacity):
        if spawning and (control.slots is None
                         or spawning[-1] in control.slots):
            control.refused += 1
            raise shm.ShmError("ringless fixture: no ring for slot %d"
                               % spawning[-1])
        return real_create(capacity)

    monkeypatch.setattr(WorkerPool, "_spawn", spawn)
    monkeypatch.setattr(shm, "create_ring", create_ring)
    yield control
    assert control.refused, "no worker was ever spawned ringless"


@pytest.fixture(scope="session")
def counting_program():
    """Tight counted loop: eax ends at 10, result stored to memory."""
    return assemble("""
        .entry start
        start:
            mov eax, 0
        loop:
            inc eax
            cmp eax, 10
            jl loop
            store [result], eax
            hlt
        .data
        result: .word 0
    """, name="counting")


@pytest.fixture(scope="session")
def sum_to_n_source():
    return """
    int result;
    int main() {
        int i;
        int total = 0;
        for (i = 1; i <= 100; i++) {
            total += i;
        }
        result = total;
        return total;
    }
    """


@pytest.fixture(scope="session")
def sum_program(sum_to_n_source):
    return compile_source(sum_to_n_source, name="sum100")


def run_minic(source, max_instructions=2_000_000, globals_to_read=()):
    """Compile, run to halt, and return requested global values."""
    program = compile_source(source, name="t")
    machine = program.make_machine()
    machine.run(max_instructions=max_instructions)
    assert machine.halted, "program did not halt"
    values = {}
    for name in globals_to_read:
        values[name] = machine.state.read_i32(program.symbol("g_" + name))
    values["__return"] = machine.state.get_reg_signed(0)
    return values
