"""Ablations of the design choices DESIGN.md calls out.

1. Dependency keying vs whole-state matching: the cache's hit rate
   collapses if entries must match the entire state vector (§4.2's
   motivating claim).
2. RWMA vs equal weighting vs single predictors: the regret minimizer
   earns its keep (§4.5.1).
3. Code-read tracking: the faithful mode inflates entry dependency sets;
   the default write-protected mode keeps them sparse.
"""

import numpy as np

from conftest import publish

from repro.analysis.training import train_on_boundaries
from repro.core.speculation import run_speculation
from repro.machine.layout import STOP_BREAKPOINT


def _boundary_entries(context, n_entries=24, track_code_reads=False):
    """Entries for consecutive supersteps from real boundary states."""
    program = context.workload.program
    recognized = context.recognized
    machine = program.make_machine()
    vm = program.make_context(track_code_reads=track_code_reads)
    rip = recognized.ip
    budget = recognized.speculation_budget(4.0)
    entries = []
    states = []
    while len(entries) < n_entries:
        stop = False
        for __ in range(recognized.stride):
            result = machine.run(max_instructions=10_000_000,
                                 break_ips=frozenset((rip,)))
            if result.reason != STOP_BREAKPOINT:
                stop = True
                break
        if stop:
            break
        snapshot = bytes(machine.state.buf)
        states.append(snapshot)
        spec = run_speculation(vm, snapshot, rip, recognized.stride, budget)
        if spec.entry is not None:
            entries.append(spec.entry)
    return entries, states


def test_dependency_keying_vs_whole_state(benchmark, ising_context):
    entries, states = benchmark.pedantic(
        _boundary_entries, args=(ising_context,), rounds=1, iterations=1)

    dep_survives = 0
    whole_survives = 0
    perturbed_total = 0
    for entry, state in zip(entries, states):
        assert entry.matches(state)
        # Perturb one byte the speculation never read (a dead temporary:
        # EAX's low byte — word 0 is written before read at boundaries).
        perturbed = bytearray(state)
        victim = 0
        if victim in entry.start_indices.tolist():
            continue
        perturbed[victim] ^= 0xFF
        perturbed_total += 1
        if entry.matches(perturbed):
            dep_survives += 1
        if bytes(perturbed) == state:
            whole_survives += 1
    publish("ablation_dependency_keying",
            "after perturbing one irrelevant byte: dependency-keyed "
            "matches %d/%d, whole-state matches %d/%d; mean dependency "
            "bytes per entry: %.0f of %d state bytes"
            % (dep_survives, perturbed_total, whole_survives,
               perturbed_total,
               np.mean([len(e.start_indices) for e in entries]),
               len(states[0])))
    # Dependency keying tolerates irrelevant-byte mismatches that sink
    # whole-state matching entirely (§4.2).
    assert perturbed_total > 0
    assert dep_survives == perturbed_total
    assert whole_survives == 0
    # And dependencies are a tiny, sparse slice of the state.
    assert np.mean([len(e.start_indices) for e in entries]) \
        < len(states[0]) / 20


def test_code_read_tracking_inflates_entries(benchmark, ising_context):
    sparse, __ = benchmark.pedantic(
        _boundary_entries, args=(ising_context,),
        kwargs={"n_entries": 4}, rounds=1, iterations=1)
    faithful, __ = _boundary_entries(ising_context, n_entries=4,
                                     track_code_reads=True)
    sparse_size = np.mean([len(e.start_indices) for e in sparse])
    faithful_size = np.mean([len(e.start_indices) for e in faithful])
    publish("ablation_code_reads",
            "entry dependency bytes: write-protected=%.0f, "
            "faithful code-read tracking=%.0f" % (sparse_size,
                                                  faithful_size))
    # Tracking instruction fetches drags the whole superstep's code
    # footprint into every entry.
    assert faithful_size > 4 * sparse_size


def test_rwma_vs_alternatives(benchmark, ising_context):
    training = benchmark.pedantic(
        train_on_boundaries, args=(ising_context,),
        kwargs={"max_boundaries": 150}, rounds=1, iterations=1)
    pstats = training.prediction_stats
    relevant = training.relevant_bits
    actual = pstats.actual_error_rate(relevant)
    equal = pstats.equal_weight_error_rate(relevant)
    hindsight = pstats.hindsight_error_rate(relevant)
    publish("ablation_rwma",
            "state error rates on dependency bits: rwma=%.3f "
            "equal-weight=%.3f hindsight-optimal=%.3f"
            % (actual, equal, hindsight))
    assert actual <= equal
    assert actual <= hindsight + 0.15
