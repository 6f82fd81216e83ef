"""Shared fixtures for the paper-reproduction benchmark harness.

Every benchmark regenerates one table or figure from §5 of the paper.
Workload sizes are scaled down ~1e4x from the paper's (see DESIGN.md);
the cost model is scaled by the same factor so curve *shapes* are
preserved. Set ``REPRO_BENCH_PROFILE=quick`` for a faster, smaller pass.

Rendered outputs are written to ``benchmarks/results/*.txt`` and printed
(run with ``-s`` to see them inline); EXPERIMENTS.md collates them against
the paper's numbers.
"""

import os
import pathlib

import pytest

from repro.analysis import ExperimentContext
from repro.analysis.training import train_on_boundaries
from repro.bench import build_collatz, build_ising, build_mm2

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "full")

_SIZES = {
    "full": dict(ising_nodes=512, ising_spins=8, mm2_n=16,
                 collatz_count=1500, collatz_memo_count=800,
                 server_cores=(1, 2, 4, 8, 16, 24, 32),
                 bgp_cores=(2, 8, 32, 128, 512, 1024, 2048, 4096)),
    "quick": dict(ising_nodes=128, ising_spins=6, mm2_n=10,
                  collatz_count=400, collatz_memo_count=250,
                  server_cores=(1, 4, 16, 32),
                  bgp_cores=(8, 64, 512, 2048)),
}

SIZES = _SIZES["quick" if PROFILE == "quick" else "full"]

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def publish(name, text):
    """Print a rendered table/series and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / ("%s.txt" % name)).write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def ising_context():
    return ExperimentContext(build_ising(nodes=SIZES["ising_nodes"],
                                         spins=SIZES["ising_spins"]))


@pytest.fixture(scope="session")
def mm2_context():
    return ExperimentContext(build_mm2(n=SIZES["mm2_n"]))


@pytest.fixture(scope="session")
def collatz_context():
    return ExperimentContext(build_collatz(count=SIZES["collatz_count"]))


@pytest.fixture(scope="session")
def collatz_memo_context():
    return ExperimentContext(
        build_collatz(count=SIZES["collatz_memo_count"], memoize=True),
        memoization=True)


@pytest.fixture(scope="session")
def all_contexts(ising_context, mm2_context, collatz_context):
    return {"ising": ising_context, "2mm": mm2_context,
            "collatz": collatz_context}


@pytest.fixture(scope="session")
def all_training(all_contexts):
    return {name: train_on_boundaries(context)
            for name, context in all_contexts.items()}
