"""The settings surface, pinned: every subcommand's arguments, every
config class's ``(field, default)`` list, the submit options and the
``REPRO_*`` variables ``src/`` reads.

``tests/data/cli_surface.json`` was recorded from the parent of the PR
that moved the surface into tables (``repro/settings.py``); since then
it changes only on purpose — re-record with
``PYTHONPATH=src python tests/test_cli_surface.py > tests/data/cli_surface.json``
and read the diff.
"""

import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core.config import EngineConfig
from repro.runtime import RuntimeConfig
from repro.serve.config import ServeConfig, SubmitOptions
from repro.settings import SettingsError
from repro.verify import VerifyConfig

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "cli_surface.json")
SRC = os.path.join(os.path.dirname(HERE), "src")
README = os.path.join(os.path.dirname(HERE), "README.md")


def _plain(value):
    """``value`` as JSON holds it, with the per-user socket path made
    machine-independent."""
    if isinstance(value, str):
        value = value.replace(tempfile.gettempdir(), "<tmp>")
        return re.sub(r"repro-serve-\d+\.sock", "repro-serve-<uid>.sock",
                      value)
    return json.loads(json.dumps(value))


def _arguments(parser):
    rows = []
    for action in parser._actions:
        if action.dest == "help":
            continue
        rows.append({
            "flags": list(action.option_strings),
            "dest": action.dest,
            "type": getattr(action.type, "__name__", None),
            "default": _plain(action.default),
            "choices": _plain(list(action.choices))
            if action.choices is not None else None,
            "nargs": action.nargs,
            "action": type(action).__name__,
        })
    return sorted(rows, key=lambda row: (row["flags"], row["dest"]))


def _fields(config):
    names = getattr(config, "__slots__", None) or sorted(vars(config))
    return [[name, _plain(getattr(config, name))]
            for name in names if not name.startswith("_")]


def surface():
    saved = {key: os.environ.pop(key) for key in list(os.environ)
             if key.startswith("REPRO_")}
    try:
        subcommands = build_parser()._subparsers._group_actions[0].choices
        return {
            "commands": {name: _arguments(sub)
                         for name, sub in sorted(subcommands.items())},
            "configs": {cls.__name__: _fields(cls()) for cls in (
                EngineConfig, RuntimeConfig, ServeConfig, VerifyConfig)},
            "submit_options": sorted(SubmitOptions.FIELDS),
        }
    finally:
        os.environ.update(saved)


def test_surface_matches_the_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    got = surface()
    for section in ("commands", "configs"):  # a readable diff first
        for name, pinned in golden[section].items():
            assert got[section].get(name) == pinned, \
                "%s %s moved" % (section, name)
    assert got == golden


# -- flag -> field: one command line per class, every flag non-default -------

_SERVE_LINE = {
    "--socket": ("socket_path", "/tmp/x.sock"),
    "--worker-budget": ("worker_budget", 7),
    "--workers-per-job": ("workers_per_job", 3),
    "--max-jobs": ("max_concurrent_jobs", 5),
    "--max-running-per-client": ("max_running_per_client", 2),
    "--max-queued-per-client": ("max_queued_per_client", 9),
    "--cache-dir": ("cache_dir", "/tmp/x-cache"),
    "--flush-every": ("flush_every_jobs", 4),
    "--drain-seconds": ("drain_seconds", 2.5),
    "--max-instructions": ("max_instructions", 12345),
    "--task-timeout": ("task_timeout_seconds", 7.5),
    "--journal-dir": ("journal_dir", "/tmp/x-journal"),
    "--no-journal-fsync": ("journal_fsync", False),
    "--job-deadline": ("job_deadline_seconds", 33.0),
    "--no-progress-seconds": ("no_progress_seconds", 11.0),
    "--kill-grace-seconds": ("kill_grace_seconds", 1.5),
    "--shm-headroom-bytes": ("min_shm_headroom_bytes", 1024),
    "--min-disk-free-bytes": ("min_disk_free_bytes", 2048),
    "--fd-headroom": ("min_fd_headroom", 3),
    "--max-queued-jobs": ("max_queued_jobs", 6),
    "--fault-plan": ("fault_plan", "seed=7,disk_full=2"),
}

_RUN_LINE = {
    "--workers": ("n_workers", 5),
    "--superstep-scale": ("superstep_scale", 8),
    "--max-instructions": ("max_instructions", 777),
    "--fault-plan": ("fault_plan", "seed=3,kill=1"),
    "--worker-rlimit-as": ("worker_rlimit_as_bytes", 1 << 30),
}

_SUBMIT_LINE = {
    "--workers": ("workers", 3),
    "--max-instructions": ("max_instructions", 4242),
    "--superstep-scale": ("superstep_scale", 16),
    "--wait-bias": ("inflight_wait_bias", 1e9),
    "--verify-rate": ("verify_rate", 0.25),
    "--strict-verify": ("strict_verify", True),
    "--deadline": ("deadline_seconds", 9.0),
}


def _argv(line):
    argv = []
    for flag, (_, value) in line.items():
        argv.append(flag)
        if not isinstance(value, bool):
            argv.append(str(value))
    return argv


def _check_line(config, line, default):
    for flag, (field, value) in line.items():
        assert getattr(config, field) == value, flag
        assert getattr(default, field) != value, \
            "%s: pick a non-default value" % flag


def test_every_serve_flag_lands_in_its_field():
    args = build_parser().parse_args(["serve"] + _argv(_SERVE_LINE))
    _check_line(ServeConfig.from_args(args), _SERVE_LINE, ServeConfig())
    flagged = {s.name for s in ServeConfig.FIELDS.values() if s.flag}
    assert flagged == {field for field, _ in _SERVE_LINE.values()}


def test_every_run_flag_lands_in_its_field():
    args = build_parser().parse_args(
        ["run", "k.c", "--backend", "real"] + _argv(_RUN_LINE))
    _check_line(RuntimeConfig.from_args(args), _RUN_LINE, RuntimeConfig())


def test_every_submit_flag_lands_in_its_option():
    args = build_parser().parse_args(
        ["submit", "k.c", "--window", "5000", "--hints"]
        + _argv(_SUBMIT_LINE))
    engine = EngineConfig.from_args(args).overrides()
    assert engine == {"recognizer_window": 5000, "use_compiler_hints": True}
    options = SubmitOptions.from_args(args, engine=engine)
    _check_line(options, _SUBMIT_LINE, SubmitOptions())
    assert options.overrides() == dict(
        {field: value for field, value in _SUBMIT_LINE.values()},
        engine=engine)
    assert set(SubmitOptions.FIELDS) \
        == {field for field, _ in _SUBMIT_LINE.values()} | {"engine"}


# -- overrides() <-> from_options() ------------------------------------------

_ENGINE_VALUES = {
    "warmup_observations": st.integers(1, 50),
    "grow_targets": st.booleans(),
    "recognizer_window": st.integers(1, 10 ** 6),
    "min_superstep_instructions": st.integers(1, 10 ** 5),
    "use_compiler_hints": st.booleans(),
    "logistic_learning_rates": st.lists(
        st.floats(0.001, 1.0), min_size=1, max_size=3).map(tuple),
    "rwma_beta": st.floats(0.01, 0.99),
    "seed": st.integers(0, 2 ** 31),
    "converge_supersteps_charge": st.none() | st.floats(0.0, 8.0),
    "max_rollout": st.none() | st.integers(1, 64),
    "cache_capacity_bytes": st.none() | st.integers(1, 1 << 30),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=_ENGINE_VALUES))
def test_overrides_round_trip_through_the_wire(fields):
    config = EngineConfig(**fields)
    shipped = json.loads(json.dumps(config.overrides()))
    assert all(not isinstance(v, tuple) for v in shipped.values())
    assert repr(EngineConfig.from_options(shipped)) == repr(config)


def test_from_options_names_the_field_it_cannot_coerce():
    with pytest.raises(SettingsError, match="recognizer_window"):
        EngineConfig.from_options({"recognizer_window": "wide"})
    with pytest.raises(SettingsError, match="unknown engine options: nope"):
        EngineConfig.from_options({"nope": 1})
    with pytest.raises(SettingsError, match="engine"):
        EngineConfig.from_options(["not", "an", "object"])
    with pytest.raises(TypeError):
        EngineConfig(nope=1)


# -- the six variables ---------------------------------------------------------

def test_environment_variables_are_the_six_the_readme_lists():
    """A ``REPRO_*`` name reaches ``os.environ`` only as a quoted
    literal (prose spells it in backticks), so the quoted names under
    ``src/`` are the variables read."""
    read = set()
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as handle:
                    read.update(re.findall(r"[\"'](REPRO_[A-Z_]+)[\"']",
                                           handle.read()))
    with open(README) as handle:
        section = handle.read().split("## Settings", 1)[1].split("\n## ")[0]
    documented = set(re.findall(r"`(REPRO_[A-Z_]+)`", section))
    assert read == documented
    assert len(read) == 6


if __name__ == "__main__":
    print(json.dumps(surface(), indent=1, sort_keys=True))
