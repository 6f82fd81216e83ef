"""Command-line interface: compile, run, inspect, and scale programs.

Usage (also available as ``python -m repro``)::

    repro compile kernel.c -o kernel.json --disasm
    repro run kernel.c --global result --reg eax
    repro run kernel.c --backend real --checkpoint-dir ck/ --resume
    repro disasm kernel.c
    repro scale kernel.c --cores 4,16,32 --platform server32
    repro memoize kernel.c
    repro chaos collatz --seed 42 --kills 2 --timeouts 2 --corrupts 1
    repro chaos collatz --serve --daemon-kills 1 --journal-truncs 1
    repro serve --cache-dir ~/.cache/repro --worker-budget 8
    repro serve --status
    repro submit kernel.c --global result
    repro jobs --json

Input files ending in ``.c`` are compiled as Mini-C, ``.s``/``.asm`` are
assembled, and ``.json`` loads a previously saved program image.
"""

import argparse
import base64
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

# ``import repro`` loads every layer before this module runs: nothing
# below is worth importing lazily.
import repro
from repro.analysis import (ExperimentContext, memoization_curve,
                            scaling_sweep)
from repro.analysis.report import format_series
from repro.analysis.scaling import ideal_series
from repro.asm import assemble, disassemble_program
from repro.bench import build_collatz, build_ising, build_mm2
from repro.bench.workload import Workload
from repro.core.checkpoint import Checkpointer, load_latest
from repro.core.config import EngineConfig
from repro.core.recognizer import Recognizer
from repro.core.superstep import SpeculationBackend, SuperstepLoop
from repro.isa.registers import NAME_TO_REG
from repro.loader.image import Program
from repro.machine.state import StateVector
from repro.minic import compile_source
from repro.runtime import FaultPlan, RealParallelEngine, RuntimeConfig
from repro.runtime.faults import FaultSpec, resolve_fault_plan
from repro.serve import (ServeClient, ServeClientError, ServeConfig,
                         ServeError, SpeculationDaemon)
from repro.serve.config import SubmitOptions
from repro.settings import SettingsError
from repro.verify import VerifyConfig
from repro.verify.incidents import format_incident

#: One-shot commands stop a runaway program well before the engine's
#: own limit would.
_MAX_INSTRUCTIONS = 50_000_000


def load_program(path, name=None):
    """Compile/assemble/load ``path`` by extension."""
    if path.endswith(".json"):
        return Program.load(path)
    with open(path) as handle:
        source = handle.read()
    program_name = name or path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    if path.endswith((".s", ".asm")):
        return assemble(source, name=program_name)
    return compile_source(source, name=program_name)


def _reference_state(program, max_instructions):
    """The sequential oracle: the final state bytes of a plain run."""
    machine = program.make_machine()
    machine.run(max_instructions=max_instructions)
    return bytes(machine.state.buf)


def _report(args, program, state, payload, summary=None):
    """Finish a command that ends in a final :class:`StateVector`: the
    ``--reg`` / ``--global`` / ``--state-out`` read-back, then ``payload``
    under ``--json``, else ``summary`` and the values. Returns the exit
    code: 2 for a register or global the program does not have."""
    registers = {}
    for reg_name in args.reg or ():
        reg = NAME_TO_REG.get(reg_name.lower())
        if reg is None:
            print("unknown register %r" % reg_name, file=sys.stderr)
            return 2
        registers[reg_name] = state.get_reg_signed(reg)
    global_values = {}
    for symbol in args.globals or ():
        for candidate in (symbol, "g_" + symbol):
            if candidate in program.symbols:
                global_values[symbol] = state.read_i32(
                    program.symbol(candidate))
                break
        else:
            print("unknown global %r" % symbol, file=sys.stderr)
            return 2
    if args.state_out:
        with open(args.state_out, "wb") as handle:
            handle.write(bytes(state.buf))
    if args.json:
        payload.update(registers=registers, globals=global_values)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if summary:
            print(summary)
        for name, value in [*registers.items(), *global_values.items()]:
            print("%s = %d" % (name, value))
    return 0 if payload["halted"] else 1


def _verify_line(audit):
    return ("verify: %d sampled, %d clean, %d divergent, %d lost, "
            "%d rollbacks, %d groups quarantined (%d now), %d readmitted"
            % (audit["sampled"], audit["clean"], audit["divergent"],
               audit["lost"], audit["rollbacks"],
               audit["groups_quarantined"], audit["quarantined_now"],
               audit["groups_readmitted"]))


def _checkpoint_setup(args, program, subdir=None):
    """Build (checkpointer, resume_from) from --checkpoint-* flags."""
    directory = args.checkpoint_dir
    if directory is None:
        if args.resume:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            raise SystemExit(2)
        return None, None
    if subdir is not None:
        directory = os.path.join(directory, subdir)
    checkpointer = Checkpointer(
        directory, every_instructions=args.checkpoint_every,
        program=program.name)
    resume_from = None
    if args.resume:
        resume_from = load_latest(directory)
        if resume_from is None:
            print("no valid checkpoint in %s; starting fresh" % directory,
                  file=sys.stderr)
    return checkpointer, resume_from


def cmd_compile(args):
    program = load_program(args.file, name=args.name)
    print(repr(program))
    if program.hints:
        print("hints: %r" % (program.hints,))
    if args.output:
        program.save(args.output)
        print("saved image to %s" % args.output)
    if args.disasm:
        print(disassemble_program(program))
    return 0


def cmd_disasm(args):
    program = load_program(args.file)
    print(disassemble_program(program))
    return 0


def _supervision_line(runtime):
    return ("supervision: %d respawned, %d breaker trips, %d quarantined, "
            "%d readmitted, %d retired, %d degraded boundaries, "
            "%d faults injected"
            % (runtime.workers_respawned, runtime.breaker_trips,
               runtime.workers_quarantined, runtime.workers_readmitted,
               runtime.workers_retired, runtime.degraded_boundaries,
               runtime.faults_injected))


def _wire_line(runtime):
    """Raw vs shipped state bytes and physical pipe/shm bytes, one
    human-readable line."""
    ratio = (runtime.state_bytes_raw / runtime.state_bytes_shipped
             if runtime.state_bytes_shipped else 0.0)
    return ("transport: %d/%d pipe bytes out/in; %d shm bytes written, "
            "%d read; states %d raw -> %d shipped bytes, delta %.1fx "
            "(%d sparse / %d full); %d inline fallbacks"
            % (runtime.bytes_sent, runtime.bytes_received,
               runtime.shm_bytes_written, runtime.shm_bytes_read,
               runtime.state_bytes_raw, runtime.state_bytes_shipped,
               ratio, runtime.states_delta, runtime.states_full,
               runtime.shm_fallbacks))


def _run_real_backend(program, args, checkpointer, resume_from):
    """Execute on the multiprocess runtime; returns (machine, payload)."""
    runtime_config = RuntimeConfig.from_args(args)
    runtime_config.resolve_fault_plan()  # a bad spec is refused up front
    engine = RealParallelEngine(program, config=EngineConfig.from_args(args),
                                runtime_config=runtime_config,
                                checkpointer=checkpointer,
                                resume_from=resume_from,
                                verify=VerifyConfig.from_options(
                                    args.verify_rate, args.strict_verify))
    result = engine.run()
    stats, runtime = result.stats, result.runtime
    payload = {
        "program": program.name,
        "backend": "real",
        "halted": result.halted,
        "wall_seconds": result.wall_seconds,
        "total_instructions": result.total_instructions,
        "resumed_instructions": engine.resumed_instructions,
        "n_workers": result.n_workers,
        "stats": stats.as_dict(),
        "runtime": runtime.as_dict(),
        "cache": result.cache.stats_dict(),
        "audit": result.audit,
        "resources": result.resources,
    }
    if not args.json:
        print("%s after %d instructions in %.3fs wall "
              "(%d executed + %d fast-forwarded)"
              % ("halted" if result.halted else "limit",
                 result.total_instructions, result.wall_seconds,
                 stats.instructions_executed,
                 stats.instructions_fast_forwarded))
        print("real backend: %d workers, %d dispatched, %d shipped, "
              "%d used, %d crashed, %d timed-out"
              % (result.n_workers, runtime.tasks_dispatched,
                 runtime.entries_shipped, runtime.entries_used,
                 runtime.tasks_crashed, runtime.tasks_timed_out))
        print(_wire_line(runtime))
        print(_supervision_line(runtime))
        if result.audit is not None:
            print(_verify_line(result.audit))
    return engine.machine, payload


def _run_sim_backend(program, args, checkpointer, resume_from):
    """Plain single-machine execution — the superstep loop with no
    phases and no speculation — with optional checkpoint/resume."""
    loop = SuperstepLoop(program, EngineConfig(), SpeculationBackend(), (),
                         args.max_instructions, checkpointer=checkpointer,
                         resume_from=resume_from)
    loop.run()
    machine = loop.main
    executed = loop.stats.instructions_executed
    payload = {
        "program": program.name,
        "backend": "sim",
        "halted": machine.halted,
        "instructions": executed,
        "resumed_instructions": loop.base_instructions,
    }
    if not args.json:
        print("%s after %d instructions (eip=0x%x)"
              % ("halted" if machine.halted else "limit", executed,
                 machine.state.eip))
    return machine, payload


def cmd_run(args):
    program = load_program(args.file)
    checkpointer, resume_from = _checkpoint_setup(args, program)
    run = _run_real_backend if args.backend == "real" else _run_sim_backend
    machine, payload = run(program, args, checkpointer, resume_from)
    if not args.json:
        if payload["resumed_instructions"]:
            print("resumed from checkpoint at %d instructions"
                  % payload["resumed_instructions"])
        if checkpointer is not None:
            print("checkpoints: %d written to %s"
                  % (checkpointer.saves, checkpointer.directory))
    return _report(args, program, machine.state, payload)


def _recognized_line(recognized):
    return ("recognized IP 0x%x (superstep ~%.0f instructions, stride %d)"
            % (recognized.ip, recognized.superstep_instructions,
               recognized.stride))


def _scale_real_backend(program, args):
    """Measured wall-clock scaling on the multiprocess runtime."""
    config = EngineConfig.from_args(args)
    recognized = Recognizer(config).find(program)
    if not args.json:
        print(_recognized_line(recognized))
    t0 = time.perf_counter()
    expected = _reference_state(program, RuntimeConfig().max_instructions)
    seq_wall = time.perf_counter() - t0
    if not args.json:
        print("sequential: %.3fs wall" % seq_wall)
    all_identical = True
    points = []
    for n_workers in (int(w) for w in args.workers.split(",")):
        runtime_config = RuntimeConfig.from_args(args, n_workers=n_workers)
        checkpointer, resume_from = _checkpoint_setup(
            program=program, args=args, subdir="w%d" % n_workers)
        result = RealParallelEngine(
            program, config=config, runtime_config=runtime_config,
            recognized=recognized, checkpointer=checkpointer,
            resume_from=resume_from, verify=VerifyConfig.from_options(
                args.verify_rate, args.strict_verify)).run()
        identical = result.final_state == expected
        all_identical = all_identical and identical
        points.append({
            "workers": n_workers,
            "wall_seconds": result.wall_seconds,
            "speedup": result.speedup_vs(seq_wall),
            "identical": identical,
            "resumed_instructions": (resume_from.instruction_count
                                     if resume_from is not None else 0),
            "stats": result.stats.as_dict(),
            "runtime": result.runtime.as_dict(),
            "cache": result.cache.stats_dict(),
            "audit": result.audit,
        })
        if not args.json:
            print("%3d workers: %.3fs wall, %.2fx, %d hits, %d shipped, "
                  "identical=%s"
                  % (n_workers, result.wall_seconds,
                     result.speedup_vs(seq_wall), result.stats.hits,
                     result.runtime.entries_shipped, identical))
            print("    " + _wire_line(result.runtime))
            if resume_from is not None:
                # A resumed run replays only the tail; its final state
                # must still match the uninterrupted sequential
                # reference.
                print("    (resumed from %d instructions)"
                      % resume_from.instruction_count)
            if result.audit is not None:
                print("    " + _verify_line(result.audit))
    if args.json:
        print(json.dumps({
            "program": program.name,
            "backend": "real",
            "sequential_wall_seconds": seq_wall,
            "identical": all_identical,
            "points": points,
        }, indent=2, sort_keys=True))
    return 0 if all_identical else 1


def cmd_scale(args):
    program = load_program(args.file)
    if args.backend == "real":
        return _scale_real_backend(program, args)
    workload = Workload(program.name, program,
                        config=EngineConfig.from_args(args))
    context = ExperimentContext(workload)
    recognized = context.recognized
    if not args.json:
        print(_recognized_line(recognized))
    cores = [int(c) for c in args.cores.split(",")]
    series = {"ideal": ideal_series(cores)}
    if args.oracle:
        series["lasc+oracle"] = scaling_sweep(
            context, cores, platform=args.platform, oracle=True)
    series["lasc"] = scaling_sweep(context, cores, platform=args.platform,
                                   collect_prediction_stats=False)
    if args.json:
        payload = {
            "program": program.name,
            "backend": "sim",
            "platform": args.platform,
            "series": {},
        }
        for name, pts in series.items():
            payload["series"][name] = [{
                "cores": p.n_cores,
                "scaling": p.scaling,
                "stats": (p.result.stats.as_dict()
                          if p.result is not None else None),
                "cache": (p.result.cache.stats_dict()
                          if p.result is not None else None),
                "audit": (getattr(p.result, "audit", None)
                          if p.result is not None else None),
            } for p in pts]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_series(series, title="%s on %s" % (program.name,
                                                        args.platform)))
    return 0


def cmd_memoize(args):
    program = load_program(args.file)
    config = EngineConfig.from_args(args).replace(
        min_superstep_instructions=args.min_superstep or 60,
        recognizer_validate_states=96)
    workload = Workload(program.name, program, config=config)
    context = ExperimentContext(workload, memoization=True)
    result = memoization_curve(context)
    for point in result.timeline[::max(1, len(result.timeline) // 16)]:
        print("%12d  %6.3f" % (point.instructions, point.scaling))
    print("final scaling %.3fx (%d hits / %d queries)"
          % (result.scaling, result.stats.hits, result.stats.queries))
    return 0


_CHAOS_BUILTINS = {
    "collatz": lambda size: build_collatz(count=size or 300),
    "ising": lambda size: build_ising(nodes=size or 48, spins=6),
    "mm2": lambda size: build_mm2(n=size or 10),
}


def _chaos_workload(args):
    """A (program, engine_config) pair for the chaos target."""
    if args.target not in _CHAOS_BUILTINS:
        return load_program(args.target), EngineConfig.from_args(args)
    workload = _CHAOS_BUILTINS[args.target](args.size)
    return workload.program, workload.config


def _chaos_serve(args):
    """Service-tier chaos: drive a real ``repro serve`` subprocess under
    a seeded plan of daemon SIGKILLs, dropped client connections, and
    torn journal tails, and assert the submitted job's final state is
    still byte-identical to a plain sequential run.

    One plan event is one client poll round; faults drawn between polls
    land at seeded, reproducible points of the job's life. The job is
    tracked purely by its idempotency token — the thing the journal
    guarantees survives any restart."""
    program, config = _chaos_workload(args)
    spec = FaultSpec.from_args(args, seed=args.seed)
    plan = FaultPlan(spec.only("client"), start=1)
    # Resource faults run daemon-side: the daemon consumes its own
    # seeded plan (REPRO_SERVE_FAULT_PLAN semantics) at its journal/
    # cache/admission seams, so ENOSPC and fd pressure hit the real
    # degradation ladders, not a client-side simulation. A daemon
    # restarted by a daemon_kill re-arms the same spec — deliberate:
    # every incarnation faces the same adversary.
    serve_plan_spec = None
    daemon_spec = spec.only("daemon")
    if any(daemon_spec.scheduled().values()):
        # start=1: the initial submit lands clean, then every admission
        # event (the token resubmits below) consumes one fault.
        serve_plan_spec = str(daemon_spec.replace(start=1, spacing=1))
    expected = _reference_state(program, args.max_instructions)

    workdir = tempfile.mkdtemp(prefix="repro-chaos-serve-")
    socket_path = os.path.join(workdir, "serve.sock")
    cache_dir = os.path.join(workdir, "cache")
    journal_path = os.path.join(cache_dir, "journal", "journal.ascj")
    pkg_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def start_daemon():
        try:
            os.unlink(socket_path)  # stale after a SIGKILL; a fresh
        except OSError:             # bind is the readiness signal
            pass
        cmd = [sys.executable, "-m", "repro", "serve",
               "--socket", socket_path, "--cache-dir", cache_dir,
               "--worker-budget", str(args.workers),
               "--max-instructions", str(args.max_instructions),
               "--task-timeout", str(args.task_timeout)]
        if serve_plan_spec:
            cmd += ["--fault-plan", serve_plan_spec]
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(socket_path):
                return proc
            if proc.poll() is not None:
                raise RuntimeError("daemon exited with %d before binding %s"
                                   % (proc.returncode, socket_path))
            time.sleep(0.05)
        proc.kill()
        raise RuntimeError("daemon never bound %s" % socket_path)

    options = SubmitOptions(max_instructions=args.max_instructions,
                            inflight_wait_bias=1e9,
                            engine=config.overrides()).overrides()

    restarts = 0
    proc = start_daemon()
    try:
        # Seed the backoff jitter from the chaos seed so reconnect
        # timing replays with the rest of the fault schedule.
        client = ServeClient(socket_path, client="chaos", retries=10,
                             timeout=args.timeout, jitter_seed=args.seed)
        submitted = client.submit(program, **options)
        token = submitted["token"]
        deadline = time.monotonic() + args.timeout
        job = None
        # Keep polling until the job is terminal AND every scheduled
        # fault has been spent — a daemon_kill after completion still
        # proves the result store survives a restart.
        while time.monotonic() < deadline:
            kind = plan.next("serve")
            if kind == "daemon_kill":
                proc.kill()
                proc.wait(timeout=30)
                proc = start_daemon()
                restarts += 1
            elif kind == "conn_drop":
                client.close()  # next request reconnects transparently
            elif kind == "journal_trunc":
                proc.kill()
                proc.wait(timeout=30)
                if os.path.exists(journal_path):
                    size = os.path.getsize(journal_path)
                    if size:
                        os.truncate(
                            journal_path,
                            max(0, size - plan.truncate_tail_bytes(size)))
                proc = start_daemon()
                restarts += 1
            if serve_plan_spec:
                # Each idempotent resubmit (dedups onto the original
                # job) is one admission event at the daemon — the pulse
                # that drains its resource-fault queue. A shed round
                # answers "overloaded"; the client's backoff absorbs it.
                client.submit(program, token=token, **options)
            try:
                job = client.poll(token=token)
            except ServeClientError as exc:
                if exc.code == "not-found":
                    # The torn tail ate the submit record itself; the
                    # token makes resubmission idempotent and correct.
                    client.submit(program, token=token, **options)
                    continue
                raise
            if (job["state"] in ("done", "failed", "cancelled")
                    and plan.exhausted):
                break
            time.sleep(0.1)
        if job is None or job["state"] != "done":
            raise ServeClientError(
                "job %s under serve chaos: %s"
                % (token, job["state"] if job else "never polled"))
        final = client.final_state(token=token)
        # Recovery check: after the storm, degraded durability modes
        # must lift on their own — the daemon's self-check retries
        # suspended write-through on its own cadence, so give it a few
        # ticks before calling the recovery failed.
        recovery_deadline = time.monotonic() + 15.0
        while True:
            daemon_stats = client.stats()
            governor = daemon_stats.get("governor") or {}
            journal_stats = daemon_stats.get("journal") or {}
            cache_stats = daemon_stats.get("cache") or {}
            recovered = not (journal_stats.get("journal_suspended")
                             or cache_stats.get("write_through_suspended"))
            if recovered or time.monotonic() >= recovery_deadline:
                break
            time.sleep(0.25)
        serve_faults_ok = (not serve_plan_spec
                           or (daemon_stats.get("serve_faults_injected")
                               or 0) >= 1)
        client.close()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        shutil.rmtree(workdir, ignore_errors=True)

    identical = final == expected
    payload = {
        "program": program.name,
        "seed": args.seed,
        "identical": identical,
        "recovered": recovered,
        "restarts": restarts,
        "plan": plan.as_dict(),
        "serve_fault_plan": serve_plan_spec,
        "serve_faults_injected": daemon_stats.get("serve_faults_injected"),
        "jobs_shed": (daemon_stats.get("jobs") or {}).get("shed"),
        "governor": governor,
        "journal_pressure": {
            key: journal_stats.get(key)
            for key in ("enospc_events", "records_dropped",
                        "results_dropped", "results_pruned_for_space",
                        "journal_suspended", "journal_resumes")},
        "cache_pressure": {
            key: cache_stats.get(key)
            for key in ("enospc_events", "shards_pruned",
                        "write_through_suspended", "write_through_resumes")},
        "job": job,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("chaos --serve %s seed=%d: injected %s across %d restarts"
              % (program.name, args.seed,
                 dict(plan.injected) or "nothing", restarts))
        if serve_plan_spec:
            print("  daemon-side plan %r: %s faults consumed, "
                  "%s submits shed, journal enospc=%s cache enospc=%s"
                  % (serve_plan_spec,
                     daemon_stats.get("serve_faults_injected"),
                     (daemon_stats.get("jobs") or {}).get("shed"),
                     journal_stats.get("enospc_events"),
                     cache_stats.get("enospc_events")))
            print("  degraded durability %s"
                  % ("RECOVERED" if recovered else "STILL SUSPENDED"))
        print("final state %s sequential reference"
              % ("IDENTICAL to" if identical else "DIVERGES from"))
    return 0 if (identical and plan.exhausted and recovered
                 and serve_faults_ok) else 1


def _run_beside_reference(args, plan, verify=None, **runtime):
    """Run the chaos target on the real backend and hold its final
    state against the sequential oracle's: ``(program, result, payload)``
    with the keys every differential report shares."""
    program, config = _chaos_workload(args)
    expected = _reference_state(program, args.max_instructions)
    result = RealParallelEngine(
        program, config=config, verify=verify,
        runtime_config=RuntimeConfig.from_args(
            args, fault_plan=plan, **runtime)).run()
    return program, result, {
        "program": program.name,
        "seed": args.seed,
        "identical": result.final_state == expected,
        "halted": result.halted,
        "wall_seconds": result.wall_seconds,
        "total_instructions": result.total_instructions,
        "plan": plan.as_dict() if plan is not None else None,
        "stats": result.stats.as_dict(),
        "runtime": result.runtime.as_dict(),
    }


def cmd_chaos(args):
    """Run a workload under a seeded fault schedule and assert that the
    final state is byte-identical to a plain sequential run — the ASC
    correctness property under adversarial infrastructure."""
    if args.serve:
        return _chaos_serve(args)

    plan = FaultPlan(FaultSpec.from_args(args, seed=args.seed).only("pool"))
    program, result, payload = _run_beside_reference(args, plan)
    identical = payload["identical"]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("chaos %s seed=%d: injected %s"
              % (program.name, args.seed,
                 dict(plan.injected) or "nothing"))
        if plan.pending:
            print("  (plan not exhausted; pending: %s)"
                  % dict(plan.pending))
        print("%s after %d instructions in %.3fs wall"
              % ("halted" if result.halted else "limit",
                 result.total_instructions, result.wall_seconds))
        print(_supervision_line(result.runtime))
        print("final state %s sequential reference"
              % ("IDENTICAL to" if identical else "DIVERGES from"))
    return 0 if identical and result.halted else 1


def cmd_audit(args):
    """Run a workload with *every* cache splice shadow-verified (strict
    mode) and the final state compared against a plain sequential run.
    Exit 0 only if no audit diverged and the state is byte-identical —
    the machine-checkable form of the paper's correctness argument."""
    if args.fault_plan:
        plan = resolve_fault_plan(args.fault_plan)
    else:
        spec = FaultSpec.from_args(args, seed=args.seed)
        plan = FaultPlan(spec) if spec.taint else None
    # The wait bias makes every on-trajectory speculation a hit, so the
    # audit sweep covers the same splices on every run of a given seed.
    program, result, payload = _run_beside_reference(
        args, plan, verify=VerifyConfig(strict=True, seed=args.seed),
        inflight_wait_bias=1e9)
    audit = result.audit or {}
    incidents = audit.get("incidents", [])
    identical = payload["identical"]
    clean = bool(identical and result.halted and not incidents)
    payload.update(clean=clean, audit=audit,
                   cache=result.cache.stats_dict())
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("audit %s: %d splices verified" % (program.name,
                                                 audit.get("sampled", 0)))
        if audit:
            print(_verify_line(audit))
        for incident in incidents:
            print("  " + format_incident(incident))
        print("%s after %d instructions; final state %s sequential "
              "reference"
              % ("halted" if result.halted else "limit",
                 result.total_instructions,
                 "IDENTICAL to" if identical else "DIVERGES from"))
        print("audit verdict: %s" % ("CLEAN" if clean else "DIVERGENT"))
    return 0 if clean else 1


def cmd_serve(args):
    """Run (or stop) the resident speculation daemon."""
    if args.status or args.ping:
        with ServeClient(socket_path=args.socket, retries=0) as client:
            if args.status:
                print(json.dumps(client.status(), indent=2, sort_keys=True))
            else:
                client.ping()
                print("ok: daemon on %s" % client.socket_path)
        return 0
    if args.stop:
        with ServeClient(socket_path=args.socket) as client:
            client.shutdown(drain=not args.no_drain)
        print("shutdown requested")
        return 0

    daemon = SpeculationDaemon(ServeConfig.from_args(args))
    # SIGTERM drains; a second SIGTERM escalates to an immediate
    # interrupt. Both land in the same idempotent close() path.
    handler = lambda signum, frame: daemon.request_stop()  # noqa: E731
    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    daemon.start()
    cache = ("cache %s" % daemon.config.cache_dir
             if daemon.config.cache_dir else "cache in memory")
    print("repro serve: listening on %s (%d-worker budget, %s, "
          "%d warm entries)"
          % (daemon.config.socket_path, daemon.config.worker_budget, cache,
             daemon.store.stats_dict()["total_entries"]))
    sys.stdout.flush()
    daemon.serve_forever()
    print("repro serve: stopped (%d done, %d failed, %d cancelled)"
          % (daemon.jobs_done, daemon.jobs_failed, daemon.jobs_cancelled))
    return 0


def cmd_submit(args):
    """Submit a program to the daemon; by default wait for the result."""
    # The daemon rebuilds EngineConfig from the overrides, so builtins
    # run with the same tuned config ``repro chaos`` gives them and
    # files honor --window/--min-superstep/--hints.
    program, config = _chaos_workload(args)
    options = SubmitOptions.from_args(
        args, engine=config.overrides()).overrides()

    with ServeClient(socket_path=args.socket, client=args.client,
                     timeout=args.timeout) as client:
        submitted = client.submit(program, token=args.token, **options)
        job_id = submitted["job_id"]
        if args.no_wait:
            if args.json:
                print(json.dumps(submitted, indent=2, sort_keys=True))
            else:
                print("submitted %s as %s (namespace %s, %d warm entries)"
                      % (program.name, job_id, submitted["namespace"][:12],
                         submitted["warm_entries"]))
            return 0
        job = client.wait(job_id, timeout=args.timeout)
        if job["state"] != "done":
            print("job %s %s: %s" % (job_id, job["state"],
                                     job.get("error")), file=sys.stderr)
            return 1
        result = client.result(job_id)

    state = StateVector(program.layout)
    state.buf[:] = base64.b64decode(result.pop("final_state"))
    first = result.get("first_splice_seconds")
    return _report(args, program, state, result, summary=(
        "%s: %s after %d instructions in %.3fs wall "
        "(%d warm entries, %d hits%s, %d new entries banked)"
        % (job_id, "halted" if result["halted"] else "limit",
           result["total_instructions"], result["wall_seconds"],
           result["warm_entries"], result["hits"],
           ", first splice %.3fs" % first if first is not None else "",
           result["merged_entries"])))


def cmd_jobs(args):
    """List the daemon's jobs, with per-client aggregates via stats."""
    with ServeClient(socket_path=args.socket) as client:
        rows = client.jobs()
        stats = client.stats()
    if args.json:
        print(json.dumps({"jobs": rows, "stats": stats}, indent=2,
                         sort_keys=True))
        return 0
    if not rows:
        print("no jobs")
    for row in rows:
        wall = ("%.3fs" % row["wall_seconds"]
                if row.get("wall_seconds") is not None else "-")
        extra = ""
        if row["state"] == "done":
            extra = " hits=%s warm=%s merged=%s recognition=%s" % (
                row.get("hits"), row.get("warm_entries"),
                row.get("merged_entries"), row.get("recognition"))
        elif row.get("error"):
            extra = " error=%s" % row["error"]
        print("%-8s %-16s %-10s %-9s %8s%s"
              % (row["job_id"], row["client"][:16], row["program"][:10],
                 row["state"], wall, extra))
    queue = stats["queue"]
    print("queue: %d queued, %d running; budget %d/%d workers; "
          "cache %d entries in %d namespaces"
          % (queue["queued"], queue["running"],
             stats["workers_committed"], stats["worker_budget"],
             stats["cache"]["total_entries"], stats["cache"]["namespaces"]))
    images = stats["images"]
    print("images: %d held (%d evicted); recognitions %d run, %d reused; "
          "%d translated blocks"
          % (images["held"], images["evicted"], images["recognitions_run"],
             images["recognitions_reused"], images["translated_blocks"]))
    for name, agg in stats["clients"].items():
        print("client %-16s %d submitted, %d done, %d failed, "
              "%d cancelled" % (name[:16], agg["jobs_submitted"],
                                agg["jobs_done"], agg["jobs_failed"],
                                agg["jobs_cancelled"]))
    return 0


def _group(*parents):
    """A flag group to share between subcommands through ``parents=``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser():
    """Flags a config class declares come from its table (``add_flags``);
    only what is the command line's own is spelled out here."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASC (ASPLOS 2014) reproduction: compile, run, and "
                    "automatically scale sequential programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Unset means "the config's default", so these show None, not it.
    recognize = _group()
    EngineConfig.add_flags(recognize, recognizer_window=None,
                           min_superstep_instructions=None,
                           use_compiler_hints=False)
    target = _group(recognize)
    target.add_argument("target",
                        help="builtin workload (%s) or a program file"
                             % "/".join(_CHAOS_BUILTINS))
    target.add_argument("--size", type=int,
                        help="builtin workload size (collatz count / "
                             "ising nodes / mm2 n)")
    read_back = _group()
    read_back.add_argument("--reg", action="append",
                           help="print a register of the final state "
                                "(repeatable)")
    read_back.add_argument("--global", dest="globals", action="append",
                           help="print a global variable of the final "
                                "state (repeatable)")
    read_back.add_argument("--state-out", dest="state_out", metavar="PATH",
                           help="write the final machine state bytes to "
                                "PATH")
    verify = _group()
    SubmitOptions.add_flags(verify, "verify_rate", "strict_verify")
    checkpoint = _group()
    checkpoint.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                            help="write periodic durable checkpoints here")
    checkpoint.add_argument("--checkpoint-every", dest="checkpoint_every",
                            type=int, default=1_000_000, metavar="N",
                            help="checkpoint cadence in instructions")
    checkpoint.add_argument("--resume", action="store_true",
                            help="resume from the newest valid checkpoint "
                                 "in --checkpoint-dir")

    p = sub.add_parser("compile", help="compile Mini-C / assemble SVM32")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="save the program image (JSON)")
    p.add_argument("--name")
    p.add_argument("--disasm", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("disasm", help="disassemble a program")
    p.add_argument("file")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("run", help="execute a program to halt",
                       parents=[read_back, verify, checkpoint])
    p.add_argument("file")
    p.add_argument("--backend", choices=["sim", "real"], default="sim",
                   help="'real' speculates on a pool of worker processes")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON report (stats + runtime counters)")
    RuntimeConfig.add_flags(
        p, "n_workers", "superstep_scale", "fault_plan",
        "worker_rlimit_as_bytes", max_instructions=_MAX_INSTRUCTIONS)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("scale", help="ASC scaling sweep",
                       parents=[recognize, verify, checkpoint])
    p.add_argument("file")
    p.add_argument("--cores", default="4,16,32")
    p.add_argument("--platform", default="server32",
                   choices=["server32", "bluegene_p"])
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--backend", choices=["sim", "real"], default="sim",
                   help="'sim' charges a cost model; 'real' measures "
                        "wall-clock on worker processes")
    p.add_argument("--workers", default="1,2,4",
                   help="worker counts to sweep for --backend real")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON report (per-point stats, cache, "
                        "and audit sections)")
    RuntimeConfig.add_flags(p, "superstep_scale")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("memoize", parents=[recognize],
                       help="single-core generalized memoization run")
    p.add_argument("file")
    p.set_defaults(func=cmd_memoize)

    p = sub.add_parser(
        "chaos", parents=[target],
        help="run under seeded fault injection; assert the final state "
             "is byte-identical to a sequential run")
    p.add_argument("--seed", type=int, default=42)
    # Every kind but taint (an audit fault), each process's rows:
    # the pool's, the daemon's (disk_full, fd_exhaust) and the --serve
    # client's (daemon_kill, conn_drop, journal_trunc).
    FaultSpec.add_flags(p, "shm_full", "disk_full", "worker_oom",
                        "fd_exhaust", "slow_ms", kill=2, timeout=2,
                        corrupt=1, slow=1, drop=1, daemon_kill=1,
                        conn_drop=1, journal_trunc=1, spacing=1)
    RuntimeConfig.add_flags(p, "task_timeout_seconds", n_workers=3,
                            max_instructions=_MAX_INSTRUCTIONS)
    p.add_argument("--json", action="store_true")
    p.add_argument("--serve", action="store_true",
                   help="service-tier chaos: drive a real daemon "
                        "subprocess, injecting --daemon-kills/"
                        "--conn-drops/--journal-truncs instead of "
                        "worker faults")
    p.add_argument("--timeout", type=float, default=180.0,
                   help="with --serve: overall scenario deadline")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "audit", parents=[target],
        help="shadow-verify every cache splice against the reference "
             "interpreter; nonzero exit on any semantic divergence")
    p.add_argument("--seed", type=int, default=42,
                   help="seeds the audit sampler and any --taints plan")
    FaultSpec.add_flags(p, "taint")
    p.add_argument("--fault-plan", dest="fault_plan", metavar="SPEC",
                   help="full fault-plan spec, e.g. 'seed=7,taint=3'; "
                        "overrides --taints")
    RuntimeConfig.add_flags(p, "n_workers",
                            max_instructions=_MAX_INSTRUCTIONS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "serve",
        help="run the resident speculation daemon (warm pools + shared "
             "cross-run trajectory cache)")
    p.add_argument("--stop", action="store_true",
                   help="ask the daemon on --socket to drain and exit")
    p.add_argument("--status", action="store_true",
                   help="print the daemon's health probe (journal, "
                        "watchdog, degraded mode) as JSON and exit")
    p.add_argument("--ping", action="store_true",
                   help="exit 0 iff a daemon answers on --socket")
    p.add_argument("--no-drain", dest="no_drain", action="store_true",
                   help="with --stop: interrupt running jobs (the next "
                        "start re-runs them) instead of draining them")
    ServeConfig.add_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", parents=[target, read_back, verify],
        help="submit a program to the daemon and (by default) wait")
    p.add_argument("--socket", default=None)
    p.add_argument("--client", default=None,
                   help="client name for fairness and stats bookkeeping")
    SubmitOptions.add_flags(p, "workers", "superstep_scale",
                            "inflight_wait_bias", "deadline_seconds",
                            max_instructions=_MAX_INSTRUCTIONS)
    p.add_argument("--no-wait", dest="no_wait", action="store_true",
                   help="print the job id and return immediately")
    p.add_argument("--token",
                   help="idempotency token (default: random; resubmit "
                        "with the same token to dedup onto the original "
                        "job, even across a daemon restart)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="seconds to wait for the result")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs",
                       help="list the daemon's jobs and per-client stats")
    p.add_argument("--socket", default=None)
    p.add_argument("--json", action="store_true",
                   help="full jobs list + stats verb payload as JSON")
    p.set_defaults(func=cmd_jobs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ServeClientError, ServeError) as exc:
        # No daemon, a refused request, a socket another daemon owns.
        print(str(exc), file=sys.stderr)
        return 1
    except SettingsError as exc:
        # A malformed setting or fault plan: a usage error, as argparse
        # reports its own.
        print("repro: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
