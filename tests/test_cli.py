"""Command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
int total;
int main() {
    int i;
    for (i = 1; i <= 40; i++) total += i;
    return total;
}
"""

ASM_SOURCE = """
.entry start
start:
    mov eax, 99
    hlt
"""


@pytest.fixture()
def c_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(SOURCE)
    return str(path)


def test_compile_and_save(c_file, tmp_path, capsys):
    out = str(tmp_path / "kernel.json")
    assert main(["compile", c_file, "-o", out, "--disasm"]) == 0
    text = capsys.readouterr().out
    assert "Program(" in text
    assert "hints:" in text
    assert "fn_main:" in text  # disassembly listing
    # The saved image runs identically.
    assert main(["run", out, "--global", "total"]) == 0
    assert "total = 820" in capsys.readouterr().out


def test_run_c_file(c_file, capsys):
    assert main(["run", c_file, "--reg", "eax", "--global", "total"]) == 0
    text = capsys.readouterr().out
    assert "halted" in text
    assert "eax = 820" in text
    assert "total = 820" in text


def test_run_assembly(tmp_path, capsys):
    path = tmp_path / "prog.s"
    path.write_text(ASM_SOURCE)
    assert main(["run", str(path), "--reg", "eax"]) == 0
    assert "eax = 99" in capsys.readouterr().out


def test_run_unknown_register(c_file, capsys):
    assert main(["run", c_file, "--reg", "xyz"]) == 2


def test_run_unknown_global(c_file, capsys):
    assert main(["run", c_file, "--global", "missing"]) == 2


@pytest.mark.parametrize("argv", [
    ["chaos", "collatz", "--kills", "-1"],
    ["audit", "collatz", "--taints", "-2"],
    ["run", "<c>", "--backend", "real", "--fault-plan", "bogus=1"],
    ["run", "<c>", "--backend", "real", "--workers", "1", "--fault-plan",
     "seed=1,slow=3,slow_ms=-5,start=0,spacing=1"],
])
def test_malformed_fault_plan_is_a_usage_error(argv, c_file, capsys):
    assert main([c_file if arg == "<c>" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "fault" in err or "slow_ms" in err


def test_disasm(c_file, capsys):
    assert main(["disasm", c_file]) == 0
    text = capsys.readouterr().out
    assert "call fn_main" not in text  # rendered numerically
    assert "fn_main:" in text


def test_scale_command(tmp_path, capsys):
    path = tmp_path / "loop.c"
    path.write_text("""
        int out[400];
        int step(int v) {
            int j;
            for (j = 0; j < 12; j++) v = v * 5 + j;
            return v;
        }
        int main() {
            int i;
            for (i = 0; i < 400; i++) out[i] = step(i);
            return out[399];
        }
    """)
    assert main(["scale", str(path), "--cores", "4,16",
                 "--window", "30000", "--min-superstep", "80"]) == 0
    text = capsys.readouterr().out
    assert "recognized IP" in text
    assert "lasc" in text
    assert "16" in text


def test_run_real_backend(tmp_path, capsys):
    path = tmp_path / "loop.c"
    path.write_text("""
        int total;
        int main() {
            int i;
            for (i = 1; i <= 900; i++) total += i;
            return total;
        }
    """)
    assert main(["run", str(path), "--backend", "real", "--workers", "2",
                 "--global", "total"]) == 0
    text = capsys.readouterr().out
    assert "halted" in text
    assert "real backend: 2 workers" in text
    assert "total = 405450" in text


def test_run_backend_defaults_to_sim(c_file, capsys):
    assert main(["run", c_file, "--global", "total"]) == 0
    text = capsys.readouterr().out
    assert "real backend" not in text  # no worker pool was involved
    assert "total = 820" in text


def test_scale_real_backend(tmp_path, capsys):
    path = tmp_path / "loop.c"
    path.write_text("""
        int out[400];
        int step(int v) {
            int j;
            for (j = 0; j < 12; j++) v = v * 5 + j;
            return v;
        }
        int main() {
            int i;
            for (i = 0; i < 400; i++) out[i] = step(i);
            return out[399];
        }
    """)
    assert main(["scale", str(path), "--backend", "real", "--workers", "1,2",
                 "--window", "30000", "--min-superstep", "80"]) == 0
    text = capsys.readouterr().out
    assert "recognized IP" in text
    assert "sequential:" in text
    assert "1 workers:" in text
    assert "2 workers:" in text
    assert "identical=True" in text
    assert "identical=False" not in text


def test_memoize_command(tmp_path, capsys):
    path = tmp_path / "collatz.c"
    path.write_text("""
        int limit = 150;
        int verified;
        int main() {
            int n;
            for (n = 1; n <= limit; n++) {
                int x = n;
                while (x != 1) {
                    if (x % 2 == 0) x = x / 2; else x = 3 * x + 1;
                }
                verified++;
            }
            return verified;
        }
    """)
    assert main(["memoize", str(path), "--window", "20000"]) == 0
    assert "final scaling" in capsys.readouterr().out


def test_run_json_output(c_file, capsys):
    import json
    assert main(["run", c_file, "--json", "--reg", "eax",
                 "--global", "total"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "sim"
    assert payload["halted"] is True
    assert payload["registers"]["eax"] == 820
    assert payload["globals"]["total"] == 820


def test_run_real_backend_json_includes_runtime_stats(tmp_path, capsys):
    import json
    path = tmp_path / "loop.c"
    path.write_text("""
        int total;
        int main() {
            int i;
            for (i = 1; i <= 900; i++) total += i;
            return total;
        }
    """)
    assert main(["run", str(path), "--backend", "real", "--workers", "2",
                 "--json", "--global", "total"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "real"
    assert payload["halted"] is True
    assert payload["globals"]["total"] == 405450
    runtime = payload["runtime"]
    for key in ("tasks_dispatched", "breaker_trips", "workers_quarantined",
                "pool_degradations", "faults_injected",
                "checkpoints_written", "frames_rejected"):
        assert key in runtime
    assert payload["stats"]["supersteps"] >= 0


def test_run_checkpoint_and_resume_sim(c_file, tmp_path, capsys):
    state_a = tmp_path / "full.bin"
    state_b = tmp_path / "resumed.bin"
    ckdir = str(tmp_path / "ck")
    assert main(["run", c_file, "--checkpoint-dir", ckdir,
                 "--checkpoint-every", "200",
                 "--state-out", str(state_a)]) == 0
    out = capsys.readouterr().out
    assert "checkpoints:" in out
    from repro.core.checkpoint import checkpoint_paths
    assert checkpoint_paths(ckdir)
    # Resume from the newest snapshot: the remaining tail replays to
    # the identical final state.
    assert main(["run", c_file, "--checkpoint-dir", ckdir, "--resume",
                 "--state-out", str(state_b)]) == 0
    assert "resumed from checkpoint" in capsys.readouterr().out
    assert state_a.read_bytes() == state_b.read_bytes()


def test_resume_without_checkpoint_dir_rejected(c_file):
    import pytest
    with pytest.raises(SystemExit):
        main(["run", c_file, "--resume"])


def test_chaos_command(capsys):
    assert main(["chaos", "collatz", "--size", "250", "--seed", "11",
                 "--kills", "1", "--timeouts", "1", "--corrupts", "1",
                 "--slows", "0", "--drops", "0", "--workers", "2",
                 "--slow-ms", "10"]) == 0
    text = capsys.readouterr().out
    assert "IDENTICAL" in text
    assert "supervision:" in text


def test_chaos_command_json(capsys):
    import json
    assert main(["chaos", "collatz", "--size", "250", "--seed", "42",
                 "--kills", "1", "--timeouts", "0", "--corrupts", "1",
                 "--slows", "0", "--drops", "1", "--workers", "2",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identical"] is True
    assert payload["plan"]["injected"].get("kill") == 1
    assert payload["runtime"]["faults_injected"] >= 2


def test_program_image_roundtrip(c_file, tmp_path):
    from repro.cli import load_program
    from repro.loader.image import Program
    out = str(tmp_path / "image.json")
    original = load_program(c_file)
    original.save(out)
    loaded = Program.load(out)
    assert loaded.code == original.code
    assert loaded.data == original.data
    assert loaded.entry == original.entry
    assert loaded.symbols == original.symbols
    assert loaded.hints.loop_headers == original.hints.loop_headers
    machine = loaded.make_machine()
    machine.run(max_instructions=100_000)
    assert machine.state.read_i32(loaded.symbol("g_total")) == 820


def test_audit_command_clean(capsys):
    assert main(["audit", "collatz", "--size", "250", "--seed", "42",
                 "--workers", "2"]) == 0
    text = capsys.readouterr().out
    assert "splices verified" in text
    assert "IDENTICAL" in text
    assert "audit verdict: CLEAN" in text


def test_audit_command_catches_tainted_entries(capsys):
    assert main(["audit", "collatz", "--size", "250", "--seed", "42",
                 "--taints", "2", "--workers", "2"]) == 1
    text = capsys.readouterr().out
    assert "refuted" in text  # structured incident report
    assert "audit verdict: DIVERGENT" in text
    # Recovery still holds: the tainted splices were rolled back.
    assert "IDENTICAL" in text


def test_audit_command_json(capsys):
    import json
    assert main(["audit", "collatz", "--size", "250", "--seed", "7",
                 "--fault-plan", "seed=7,taint=2", "--json",
                 "--workers", "2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["identical"] is True  # rollback preserved the state
    assert payload["audit"]["divergent"] >= 1
    assert payload["audit"]["incidents"]
    incident = payload["audit"]["incidents"][0]
    for key in ("superstep", "rip", "mismatches", "mode", "action"):
        assert key in incident
    assert payload["plan"]["injected"].get("taint") == 2
    assert payload["cache"]["n_groups_quarantined"] >= 1


def test_run_real_backend_json_verify_and_cache_sections(tmp_path, capsys):
    import json
    path = tmp_path / "loop.c"
    path.write_text("""
        int total;
        int main() {
            int i;
            for (i = 1; i <= 900; i++) total += i;
            return total;
        }
    """)
    assert main(["run", str(path), "--backend", "real", "--workers", "2",
                 "--json", "--verify-rate", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    cache = payload["cache"]
    for key in ("n_entries", "n_evicted", "n_groups_quarantined",
                "quarantined_groups"):
        assert key in cache
    audit = payload["audit"]
    assert audit["rate"] == 1.0
    assert audit["divergent"] == 0
    assert payload["runtime"]["audits_sampled"] == audit["sampled"]


def test_scale_sim_json(tmp_path, capsys):
    import json
    path = tmp_path / "loop.c"
    path.write_text("""
        int out[400];
        int step(int v) {
            int j;
            for (j = 0; j < 12; j++) v = v * 5 + j;
            return v;
        }
        int main() {
            int i;
            for (i = 0; i < 400; i++) out[i] = step(i);
            return out[399];
        }
    """)
    assert main(["scale", str(path), "--cores", "4,16", "--json",
                 "--window", "30000", "--min-superstep", "80"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "sim"
    lasc = payload["series"]["lasc"]
    assert [p["cores"] for p in lasc] == [4, 16]
    for point in lasc:
        assert "n_evicted" in point["cache"]
        assert point["stats"]["queries"] >= 0
    # The ideal series carries no engine diagnostics.
    assert payload["series"]["ideal"][0]["stats"] is None


def test_scale_real_backend_json(tmp_path, capsys):
    import json
    path = tmp_path / "loop.c"
    path.write_text("""
        int out[400];
        int step(int v) {
            int j;
            for (j = 0; j < 12; j++) v = v * 5 + j;
            return v;
        }
        int main() {
            int i;
            for (i = 0; i < 400; i++) out[i] = step(i);
            return out[399];
        }
    """)
    assert main(["scale", str(path), "--backend", "real", "--workers", "2",
                 "--json", "--verify-rate", "1.0",
                 "--window", "30000", "--min-superstep", "80"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "real"
    assert payload["identical"] is True
    point = payload["points"][0]
    assert point["workers"] == 2
    assert "n_evicted" in point["cache"]
    assert "breaker_trips" in point["runtime"]  # supervisor counters
    assert point["audit"]["rate"] == 1.0
    assert point["audit"]["divergent"] == 0
