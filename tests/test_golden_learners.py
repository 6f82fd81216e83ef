"""Golden learner stream: every bit the predictors and allocator emit.

The boundary snapshots of three small builds are recorded once per
session (a plain run with the recognized IP as breakpoint) and replayed
through tracker → ``ensemble.observe`` → ``allocator.advance`` the way
``SuperstepLoop._enter_phase`` / ``_boundary`` drive them — training
states first, then ``flush_pending`` + ``reset_continuity``, the
relevance mask seeded by one probed superstep. One sha256 runs over, at
every boundary, the combined ``(bits, probs)``, the raw weight matrix,
and every rollout step's digest and ``repr(step_confidence)``.

The constants below were recorded from the **parent's** ``src/`` (a
separate checkout of 313ea3b, the commit before the ensemble kept an
(experts × bits) matrix, the logistic rates shared one bank and linreg
predicted from columns): the learners may get cheaper, never different.
The recorded states are the same on both interpreter tiers, so under
``REPRO_FAST_PATH=0`` the digests double as a cross-tier check.
"""

import hashlib

import pytest

from repro.bench import build_collatz, build_ising, build_mm2
from repro.core.allocator import Allocator, RelevanceMask
from repro.core.excitation import ExcitationTracker
from repro.core.predictors import default_ensemble
from repro.core.recognizer import SPECULATION_BUDGET_FACTOR, Recognizer
from repro.core.speculation import run_speculation
from repro.core.superstep import run_superstep

GUARD = 500_000_000

BUILDS = {
    "collatz": lambda: build_collatz(count=120),
    "ising": lambda: build_ising(nodes=32, spins=5),
    "2mm": lambda: build_mm2(n=8),
}

#: variant -> (EngineConfig overrides, max_rollout)
VARIANTS = {
    "default": ({}, 4),
    "rollout1": ({}, 1),
    "randomized": ({"rwma_randomized": True, "seed": 7}, 4),
    "one-rate": ({"logistic_learning_rates": (0.5,)}, 4),
    "three-rates": ({"logistic_learning_rates": (0.5, 0.05, 0.005)}, 2),
}

#: (workload, variant) -> (sha256, shifts, rebuilds, tracker version)
GOLDEN = {
    ("collatz", "default"): (
        "54819e6890d4139a99be7cccf1a81c7af4d4549bd26373a4eb1359fb426e6dfc",
        116, 4, 1),
    ("collatz", "rollout1"): (
        "46bd135408fd53ef02a05caf4287d668ed6f8ecaf59927906a8afa9632be4191",
        116, 4, 1),
    ("collatz", "randomized"): (
        "fcf571c2978e12acde9e6fdfd7afc03d27255958e06df73b8bae0a4447f8f564",
        113, 7, 1),
    ("collatz", "one-rate"): (
        "178fca5994b1167663ffff1176a7558d0d2d7f7b3f8176b168ad1679ae9af5ef",
        116, 4, 1),
    ("collatz", "three-rates"): (
        "393f610b77dd93b947a58323471edbd5f1083f16f13120e9943e8c19f56deaaf",
        116, 4, 1),
    ("ising", "default"): (
        "d1e9fd46e4d5921f4226cba9d7a0fc56945f7de0c8869725597d885a201791e5",
        28, 3, 1),
    ("ising", "rollout1"): (
        "0ec4112bfa2e3c6cb09fc51352114b72eea8db15b322cb7286bff33429fdbe1d",
        28, 3, 1),
    ("ising", "randomized"): (
        "b5de00046468e5f0856f03b2ca3cafb7a2cb9a1a2d0032e58797318bee15962f",
        20, 11, 1),
    ("ising", "one-rate"): (
        "c57e3b81cf2ff841eaa16358897192bd9e0013d43ec0613b1e3909319fd15e30",
        28, 3, 1),
    ("ising", "three-rates"): (
        "c05c1572c4c44df12a42a3523a834f8b1da24d52910ac77022b2af59bffc2df4",
        28, 3, 1),
    ("2mm", "default"): (
        "725d380281883ebc7ea2f34b796f2cd8678cab0f4bd0066a2f97eab6be5f816f",
        97, 30, 9),
    ("2mm", "rollout1"): (
        "ce2363f9c289b026bb119638089cacda0c8b393f61096a4158765068c8fef044",
        97, 30, 9),
    ("2mm", "randomized"): (
        "a9bdcde4722114877a94c5f9b2623a0c2603025170d0b8b7ea109a9a3475c196",
        90, 37, 9),
    ("2mm", "one-rate"): (
        "f0175bf77cd9d91ae5e44a8172d9ec245de780706ecd3d58e38496374148e3da",
        98, 29, 9),
    ("2mm", "three-rates"): (
        "9042e18ca2c56a18cb89f7e8fab4b3d41cb50df47011baa2e5889e1e8ad9ee3d",
        97, 30, 9),
}


class Stream:
    def __init__(self, workload):
        program, config = workload.program, workload.config
        recognized = Recognizer(config).find(program)
        self.layout = program.layout
        self.config = config
        self.training_states = list(recognized.training_states)
        machine = program.make_machine()
        break_ips = frozenset((recognized.ip,))
        self.snapshots = []
        while run_superstep(machine, break_ips, recognized.stride,
                            GUARD, GUARD)[1]:
            self.snapshots.append(bytes(machine.state.buf))
        # What the backends' seed_mask learns: the words one real
        # superstep reads.
        budget = recognized.speculation_budget(SPECULATION_BUDGET_FACTOR)
        self.probe = run_speculation(
            machine.context, self.snapshots[len(self.snapshots) // 2],
            recognized.ip, recognized.stride, budget).entry
        assert self.probe is not None


@pytest.fixture(scope="module")
def streams():
    recorded = {}

    def get(name):
        if name not in recorded:
            recorded[name] = Stream(BUILDS[name]())
        return recorded[name]
    return get


def replay(stream, overrides, max_rollout):
    config = stream.config.replace(**overrides)
    tracker = ExcitationTracker(stream.layout, config)
    mask = RelevanceMask(tracker)
    ensemble = default_ensemble(config)
    allocator = Allocator(ensemble, tracker, max_rollout, mask=mask)
    for trained in stream.training_states:
        view = tracker.observe(trained)
        if view is not None:
            ensemble.observe(view)
    ensemble.flush_pending()
    tracker.reset_continuity()
    digest = hashlib.sha256()
    for snapshot in stream.snapshots:
        view = tracker.observe(snapshot)
        if view is None:
            continue
        ensemble.observe(view)
        if not mask.seeded:
            mask.update_from_entry(stream.probe)
        allocator.advance(view)
        bits, probs = ensemble.current_prediction()
        digest.update(bits.tobytes())
        digest.update(probs.tobytes())
        digest.update(ensemble.weight_matrix(normalized=False).tobytes())
        for step in allocator.chain:
            digest.update(step.digest)
            digest.update(repr(step.step_confidence).encode())
    return (digest.hexdigest(), allocator.shifts, allocator.rebuilds,
            tracker.version)


@pytest.mark.parametrize("workload,variant", sorted(GOLDEN))
def test_learner_stream_matches_the_parent(streams, workload, variant):
    overrides, max_rollout = VARIANTS[variant]
    assert replay(streams(workload), overrides, max_rollout) \
        == GOLDEN[workload, variant]


def test_the_streams_cover_shift_rebuild_and_growth():
    """The table is only worth its constants if the recorded streams
    walk the paths: chains that shift and chains that rebuild on every
    workload, and 2mm adopting target words batch after batch."""
    assert set(GOLDEN) == {(w, v) for w in BUILDS for v in VARIANTS}
    for workload in BUILDS:
        __, shifts, rebuilds, __ = GOLDEN[workload, "default"]
        assert shifts > 0 and rebuilds > 0, workload
    assert GOLDEN["2mm", "default"][3] > 3


if __name__ == "__main__":  # record: PYTHONPATH=<src> python <this file>
    recorded = {name: Stream(build()) for name, build in BUILDS.items()}
    for name in BUILDS:
        for variant, (overrides, max_rollout) in VARIANTS.items():
            print("    (%r, %r): %r," % (
                name, variant,
                replay(recorded[name], overrides, max_rollout)))
