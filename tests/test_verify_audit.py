"""Verify subsystem units: replay, comparison, quarantine, config."""

import numpy as np
import pytest

from repro.core.checkpoint import restore_state, snapshot_state
from repro.core.speculation import SpeculationResult, run_speculation
from repro.core.trajectory_cache import CacheEntry, TrajectoryCache
from repro.minic import compile_source
from repro.runtime.faults import FaultPlan
from repro.verify import (
    SpliceAuditor,
    VerifyConfig,
    compare_audit,
    resolve_verify,
    run_audit,
)
from repro.verify.config import VerifyConfigError
from repro.verify.incidents import format_incident, make_incident

_LOOP = """
int sink;
int main() {
    int i;
    int x = 1;
    for (i = 0; i < 600; i++) { x = x * 3 + i; x = x ^ (x >> 2); }
    sink = x;
    return x;
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_source(_LOOP, name="verify-loop")


@pytest.fixture(scope="module")
def segment(program):
    """(context, pre_state, genuine entry) for a real code segment."""
    machine = program.make_machine()
    machine.run(max_instructions=500)
    pre_state = bytes(machine.state.buf)
    context = program.make_context()
    rip = machine.state.eip
    spec = run_speculation(context, pre_state, rip, 3, 5000)
    assert spec.entry is not None
    return context, pre_state, spec.entry


# -- run_audit -----------------------------------------------------------------

def test_run_audit_reproduces_genuine_entry(segment):
    context, pre_state, entry = segment
    result = run_audit(context, pre_state, entry.rip, entry.length)
    assert result.fault is None
    assert result.instructions == entry.length
    assert compare_audit(entry, result, pre_state) == []


def test_run_audit_counts_instructions_not_occurrences(segment):
    context, pre_state, entry = segment
    result = run_audit(context, pre_state, entry.rip, 7, occurrences=99)
    assert result.instructions == 7
    assert result.entry.length == 7


def test_run_audit_stops_at_halt(program):
    context = program.make_context()
    machine = program.make_machine()
    machine.run(max_instructions=10_000_000)
    assert machine.halted
    halted_state = bytes(machine.state.buf)
    result = run_audit(context, halted_state, 0, 500)
    assert result.instructions == 0
    assert result.halted


def test_run_audit_stays_on_the_reference_tier(program, segment,
                                              monkeypatch):
    """An audit never trusts the tier that may have produced the entry:
    it replays on ``context.reference`` even where ``context.tier`` is
    the block cache."""
    from repro.machine.blockcache import BlockCache
    __, pre_state, entry = segment
    expected = run_audit(program.make_context(fast_path=False), pre_state,
                         entry.rip, entry.length).entry
    context = program.make_context(fast_path=True)
    assert isinstance(context.tier, BlockCache)

    def untrusted(*args):
        raise AssertionError("the audit ran on the block cache")

    monkeypatch.setattr(BlockCache, "run", untrusted)
    monkeypatch.setattr(BlockCache, "ip_trace", untrusted)
    replayed = run_audit(context, pre_state, entry.rip, entry.length).entry
    assert replayed is not None
    for field in CacheEntry.__slots__:
        assert np.array_equal(getattr(replayed, field),
                              getattr(expected, field)), field


# -- compare_audit mismatch kinds ----------------------------------------------

def _mutated(entry, **overrides):
    fields = dict(
        rip=entry.rip,
        start_indices=np.array(entry.start_indices),
        start_values=np.array(entry.start_values),
        end_indices=np.array(entry.end_indices),
        end_values=np.array(entry.end_values),
        length=entry.length,
    )
    fields.update(overrides)
    return CacheEntry(fields["rip"], fields["start_indices"],
                      fields["start_values"], fields["end_indices"],
                      fields["end_values"], fields["length"],
                      occurrences=entry.occurrences, halted=entry.halted)


def test_compare_clean(segment):
    context, pre_state, entry = segment
    truth = run_audit(context, pre_state, entry.rip, entry.length)
    assert compare_audit(entry, truth, pre_state) == []


def test_compare_length_mismatch(segment):
    context, pre_state, entry = segment
    truth = run_audit(context, pre_state, entry.rip, entry.length)
    bad = _mutated(entry, length=entry.length + 1)
    assert "length" in compare_audit(bad, truth, pre_state)


def test_compare_read_set_mismatch(segment):
    context, pre_state, entry = segment
    truth = run_audit(context, pre_state, entry.rip, entry.length)
    mask = np.arange(len(entry.start_indices)) != 0
    bad = _mutated(entry,
                   start_indices=np.array(entry.start_indices)[mask],
                   start_values=np.array(entry.start_values)[mask])
    assert "read-set" in compare_audit(bad, truth, pre_state)


def test_compare_read_values_mismatch(segment):
    context, pre_state, entry = segment
    truth = run_audit(context, pre_state, entry.rip, entry.length)
    values = np.array(entry.start_values)
    values[0] ^= 0xFF
    bad = _mutated(entry, start_values=values)
    assert "read-values" in compare_audit(bad, truth, pre_state)


def test_compare_end_state_mismatch(segment):
    context, pre_state, entry = segment
    truth = run_audit(context, pre_state, entry.rip, entry.length)
    values = np.array(entry.end_values)
    values[len(values) // 2] ^= 0x5A
    bad = _mutated(entry, end_values=values)
    assert "end-state" in compare_audit(bad, truth, pre_state)


def test_compare_replay_fault(segment):
    __, pre_state, entry = segment
    faulted = SpeculationResult(None, 3, False, "div by zero")
    assert compare_audit(entry, faulted, pre_state) == ["replay-fault"]


def test_taint_entry_modes_are_all_detected(segment):
    """Every shape FaultPlan.taint_entry produces must be refutable."""
    context, pre_state, entry = segment
    truth = run_audit(context, pre_state, entry.rip, entry.length)
    for seed in range(12):
        plan = FaultPlan(seed=seed, taint=1)
        tainted = plan.taint_entry(entry)
        mismatches = compare_audit(tainted, truth, pre_state)
        assert mismatches, "taint seed %d escaped the audit" % seed


# -- snapshot/restore ----------------------------------------------------------

def test_snapshot_state_roundtrip(segment):
    __, pre_state, __entry = segment
    blob = snapshot_state(pre_state, 12345)
    restored = restore_state(blob)
    assert bytes(restored.state) == pre_state
    assert restored.instruction_count == 12345


# -- quarantine ----------------------------------------------------------------

def test_quarantine_hides_group_from_lookup(segment):
    __, pre_state, entry = segment
    cache = TrajectoryCache()
    cache.insert(entry)
    hit, __ = cache.lookup_classified(entry.rip, bytearray(pre_state))
    assert hit is not None
    rip, key = cache.group_key(entry)
    cache.quarantine_group(rip, key)
    assert cache.is_quarantined(rip, key)
    miss, __ = cache.lookup_classified(entry.rip, bytearray(pre_state))
    assert miss is None


def test_quarantine_decays_after_clean_audits(segment):
    __, __pre, entry = segment
    cache = TrajectoryCache()
    rip, key = cache.group_key(entry)
    cache.quarantine_group(rip, key, readmit_after=3)
    assert cache.note_clean_audit() == 0
    assert cache.note_clean_audit() == 0
    assert cache.note_clean_audit() == 1  # third clean audit readmits
    assert not cache.is_quarantined(rip, key)
    assert cache.n_groups_readmitted == 1


def test_strict_quarantine_never_decays(segment):
    __, __pre, entry = segment
    cache = TrajectoryCache()
    rip, key = cache.group_key(entry)
    cache.quarantine_group(rip, key, readmit_after=None)
    for __i in range(50):
        assert cache.note_clean_audit() == 0
    assert cache.is_quarantined(rip, key)


def test_cache_stats_dict_keys(segment):
    cache = TrajectoryCache()
    stats = cache.stats_dict()
    for key in ("n_entries", "n_inserted", "n_evicted", "n_quarantined",
                "n_groups_quarantined", "n_groups_readmitted",
                "quarantined_groups", "total_bytes"):
        assert key in stats


# -- VerifyConfig --------------------------------------------------------------

def test_config_parse_values():
    assert VerifyConfig.parse("0.25").rate == 0.25
    assert VerifyConfig.parse("1").rate == 1.0
    assert VerifyConfig.parse("off") is None
    assert VerifyConfig.parse("0") is None
    strict = VerifyConfig.parse("strict")
    assert strict.strict and strict.rate == 1.0
    assert strict.readmit_after is None
    with pytest.raises(VerifyConfigError):
        VerifyConfig.parse("bogus")


def test_config_strict_forces_full_rate():
    config = VerifyConfig(rate=0.1, strict=True)
    assert config.rate == 1.0
    assert config.readmit_after is None


def test_config_rate_bounds():
    with pytest.raises(VerifyConfigError):
        VerifyConfig(rate=1.5)


def test_config_from_env():
    assert VerifyConfig.from_env({}) is None
    assert VerifyConfig.from_env({"REPRO_VERIFY": "0.5"}).rate == 0.5
    assert VerifyConfig.from_env({"REPRO_VERIFY": "strict"}).strict


def test_resolve_verify():
    assert resolve_verify("0.5").rate == 0.5
    disabled = VerifyConfig(rate=0.0)
    assert resolve_verify(disabled) is None
    enabled = VerifyConfig(rate=1.0)
    assert resolve_verify(enabled) is enabled


def test_sampling_rate_roughly_honored():
    config = VerifyConfig(rate=0.3, seed=7)
    picks = sum(config.should_sample() for __ in range(2000))
    assert 400 < picks < 800


# -- SpliceAuditor sync path ---------------------------------------------------

class _Stats:
    def __init__(self):
        self.hits = 1
        self.misses = 0
        self.misses_nomatch = 0
        self.supersteps = 4
        self.instructions_executed = 0
        self.instructions_fast_forwarded = 0


def test_auditor_sync_clean(segment):
    context, pre_state, entry = segment
    cache = TrajectoryCache()
    auditor = SpliceAuditor(VerifyConfig(rate=1.0), cache, context=context)
    buf = bytearray(pre_state)
    entry.apply(buf)
    stats = _Stats()
    stats.instructions_fast_forwarded = entry.length
    assert auditor.verify_splice(entry, buf, pre_state, stats) is False
    assert auditor.sampled == 1 and auditor.clean == 1
    assert auditor.report()["incidents"] == []


def test_auditor_sync_divergence_rolls_back(segment):
    context, pre_state, entry = segment
    plan = FaultPlan(seed=3, taint=1)
    tainted = plan.taint_entry(entry)
    cache = TrajectoryCache()
    auditor = SpliceAuditor(VerifyConfig(rate=1.0), cache, context=context)
    buf = bytearray(pre_state)
    tainted.apply(buf)
    stats = _Stats()
    stats.instructions_fast_forwarded = tainted.length
    assert auditor.verify_splice(tainted, buf, pre_state, stats) is True
    # Rolled back: the splice is undone and accounted as a miss.
    assert bytes(buf) == pre_state
    assert stats.hits == 0 and stats.misses == 1
    assert stats.instructions_fast_forwarded == 0
    assert auditor.divergent == 1 and auditor.rollbacks == 1
    rip, key = cache.group_key(tainted)
    assert cache.is_quarantined(rip, key)
    report = auditor.report()
    assert len(report["incidents"]) == 1
    incident = report["incidents"][0]
    assert incident["action"] == "rollback"
    assert incident["mismatches"]
    assert "refuted" in format_incident(incident)


def test_incident_shape(segment):
    __, __pre, entry = segment
    incident = make_incident(entry, ["end-state"], 9, "async", "rollback")
    for key in ("superstep", "rip", "dep_bytes", "write_bytes", "length",
                "occurrences", "mismatches", "mode", "action"):
        assert key in incident
    assert incident["superstep"] == 9
    assert incident["mismatches"] == ["end-state"]
