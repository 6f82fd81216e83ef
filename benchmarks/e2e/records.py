"""Records: what a run stores, and how two records are compared.

A record is one JSON object: schema version, provenance (so a number is
never read without the machine and settings that produced it), and per
workload the samples of every metric. ``compare`` is direction-aware,
refuses records that were not produced under the same conditions, and
admits noise: a difference is only ``better`` or ``worse`` beyond the
metric's bound, and ``unresolved`` where the parent's own spread is
wider than that bound and the two overlap.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

SCHEMA = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Provenance fields two records must share to be comparable.
MUST_MATCH = ("schema", "nproc", "affinity", "workers", "seed", "seconds",
              "runs", "start_method", "transport")

#: What each ratio is a ratio *of* (no ratio is printed without it).
RATIO_BASE = {
    "machine.dep_tax": "machine.mips_plain / machine.mips_dep",
    "cache.hit_ratio": "hits / cache queries of the main thread",
    "cache.ff_share": "fast-forwarded / total instructions",
    "spec.useful_ratio": "entries spliced / entries shipped by workers",
    "transport.delta_ratio": "raw state bytes / bytes actually shipped",
    "daemon.pool_hit_ratio": "1 - pools created / jobs",
    "trace.overhead_ratio": "traced wall / untraced wall of the same "
                            "run - 1",
    "trace.coverage": "time under a named layer span / traced wall",
    "speedup_vs_seq": "seq_wall_s / wall_s",
}


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _git(*args):
    try:
        return subprocess.run(("git",) + args, cwd=ROOT, timeout=10,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(seed, seconds, workers, runs=1):
    from repro.runtime.config import (default_start_method,
                                      default_transport)
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "schema": SCHEMA,
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if sha else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": workers,
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "start_method": default_start_method(),
        "transport": default_transport(),
        "argv": sys.argv[1:],
    }


def default_workers():
    """``min(2, nproc - 1)``, at least one: speculation needs a worker
    even where it has to share the main thread's core."""
    return max(1, min(2, len(os.sched_getaffinity(0)) - 1))


# -- summaries -----------------------------------------------------------------

def summarize(samples):
    """n, median, quartiles, extremes of a list of numbers."""
    samples = [float(value) for value in samples]
    if not samples:
        return {"n": 0, "median": None, "q1": None, "q3": None,
                "min": None, "max": None}
    if len(samples) >= 2:
        q1, __, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"n": len(samples), "median": statistics.median(samples),
            "q1": q1, "q3": q3, "min": min(samples), "max": max(samples)}


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, as
    ``(percent, value)``; ``(None, None)`` with fewer than twenty
    samples (the median is then the only percentile worth a name)."""
    count = len(samples)
    if count < 20:
        return None, None
    ordered = sorted(samples)
    index = count - 11  # ten samples lie strictly beyond it
    return 100.0 * (index + 1) / count, ordered[index]


def spread(summary):
    """Inter-quartile distance of the samples as a share of the value."""
    if not summary["n"] or not summary["value"]:
        return None
    return (summary["q3"] - summary["q1"]) / abs(summary["value"])


# -- comparison ----------------------------------------------------------------

class Mismatch(Exception):
    """The two records were not produced under the same conditions."""


def check_comparable(parent, change):
    differing = [
        "%s: %r vs %r" % (field, parent["provenance"].get(field),
                          change["provenance"].get(field))
        for field in MUST_MATCH
        if parent["provenance"].get(field)
        != change["provenance"].get(field)]
    if differing:
        raise Mismatch("records are not comparable (" + "; ".join(differing)
                       + ")")


def worsening(parent_median, change_median, better):
    """How much worse the change is, as a share of the parent's median
    (negative = improved)."""
    delta = (change_median - parent_median) / abs(parent_median)
    return delta if better == "lower" else -delta


def verdict(parent, change, better, bound):
    """``better`` / ``worse`` / ``same`` / ``unresolved`` for one
    (workload, metric) pair of summaries."""
    worse_by = worsening(parent["value"], change["value"], better)
    if abs(worse_by) <= bound:
        return "same"
    overlap = (parent["q1"] <= change["q3"]
               and change["q1"] <= parent["q3"])
    if overlap and (spread(parent) or 0.0) > bound:
        return "unresolved"
    return "worse" if worse_by > 0 else "better"


def compare(parent, change, contract=None):
    """Rows for every (workload, end-to-end metric) both records hold,
    and whether the change may land.

    Returns ``(rows, ok)``; ``ok`` is False on any ``worse`` row or a
    higher share of failed operations."""
    check_comparable(parent, change)
    contract = contract or load_contract()
    rows = []
    ok = True
    for workload in contract["workloads"]:
        name = workload["name"]
        before = parent["workloads"].get(name)
        after = change["workloads"].get(name)
        if before is None or after is None:
            continue
        error_before = before["failed"] / before["attempted"]
        error_after = after["failed"] / after["attempted"]
        if error_after > error_before:
            ok = False
        rows.append({"workload": name, "metric": "error_rate",
                     "unit": "ratio", "better": "lower",
                     "parent": error_before, "change": error_after,
                     "base": "failed / attempted operations",
                     "verdict": ("worse" if error_after > error_before
                                 else "same")})
        for metric in contract["end_to_end"]:
            a = before["end_to_end"].get(metric["name"])
            b = after["end_to_end"].get(metric["name"])
            if not a or not b or not a["value"] or not b["value"]:
                continue
            label = verdict(a, b, metric["better"], metric["bound"])
            if label == "worse":
                ok = False
            rows.append({
                "workload": name, "metric": metric["name"],
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "parent": a, "change": b,
                "ratio": b["value"] / a["value"],
                "base": "parent value", "verdict": label})
    return rows, ok


def format_rows(rows):
    lines = ["%-12s %-12s %-6s %-6s %27s %27s %8s  %s"
             % ("workload", "metric", "unit", "better",
                "parent value [q1..q3] n", "change value [q1..q3] n",
                "ratio", "verdict")]
    for row in rows:
        if row["metric"] == "error_rate":
            lines.append("%-12s %-12s %-6s %-6s %27.4f %27.4f %8s  %s  "
                         "(%s)" % (row["workload"], row["metric"],
                                   row["unit"], row["better"],
                                   row["parent"], row["change"], "-",
                                   row["verdict"], row["base"]))
            continue
        lines.append("%-12s %-12s %-6s %-6s %27s %27s %7.3fx  %s  "
                     "(change / %s, bound %.0f%%)"
                     % (row["workload"], row["metric"], row["unit"],
                        row["better"], _cell(row["parent"]),
                        _cell(row["change"]), row["ratio"],
                        row["verdict"], row["base"], 100 * row["bound"]))
    return "\n".join(lines)


def _cell(summary):
    return "%.4g [%.4g..%.4g] %d" % (summary["value"], summary["q1"],
                                     summary["q3"], summary["n"])
