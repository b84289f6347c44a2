"""Measuring one workload: the closed loop, the traced run and the record.

Importing this module imports ``goodmat``; ``run.py`` puts the checkout's
``src`` directory on ``sys.path`` and pins numerical libraries to one thread
before it does.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 7

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run(w: wl.Workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure workload ``w``; returns the full record of the run.

    Its keys ``correct``, ``attempted``, ``failed`` and ``metrics`` make the
    result line.
    """
    if trace:
        attempted, bad, metrics, units, details = _traced(w, seed)
    else:
        attempted, bad, metrics, units, details = _end_to_end(w, seed, seconds, setup_repeats)
    return {
        "workload": w.name, "n": w.n, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "problems": bad, **details,
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _end_to_end(w, seed, seconds, setup_repeats):
    """The closed loop: operations back to back until ``seconds`` is spent.

    The next operation starts only after the previous one has returned and
    been checked, and only if a typical operation still fits in the time
    left; at least one always runs.  Peak memory is read after the first
    operation, so it does not depend on how many operations fit.
    """
    setup = [_setup_seconds(w.n) for _ in range(setup_repeats)]
    wl.warm(w.n)
    op = wl.operation(w, seed)
    samples: list[float] = []
    bad: list[list[str]] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        _, problems = _attempt(w, op, samples)
        if problems:
            bad.append(problems)
        if attempted == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        typical = statistics.median(samples) if samples else 0.0
        if time.perf_counter() - start + typical > seconds:
            break
    metrics = {
        "wall_s": statistics.median(samples) if samples else time.perf_counter() - start,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {"wall_s_samples": samples, "wall_s_tail": tail(samples),
               "setup_s_samples": setup}
    return attempted, bad, metrics, END_TO_END_UNITS, details


def _traced(w, seed):
    """The entry point once untraced, then the traced recomposition once.

    The traced answer must equal the untraced one, so both runs measure the
    same program.  Verification is traced too, outside the operation span.
    """
    wl.warm(w.n)
    untraced: list[float] = []
    reference, problems = _attempt(w, wl.operation(w, seed), untraced)
    bad = [problems] if problems else []

    tr = tracing.Tracer()
    try:
        result = tracing.traced_operation(w, seed, tr)
        with tr.span("pipeline.verify"):
            summary = wl.summarize(w, result)
        problems = wl.problems(w, summary)
        if summary != reference:
            problems.append(f"traced recomposition gave {summary}, entry point {reference}")
    except Exception as exc:  # a failing operation is counted, not fatal
        problems = [f"traced operation raised {exc!r}"]
    if problems:
        bad.append(problems)
    metrics = tracing.layer_metrics(tr, untraced[0] if untraced else 0.0)
    details = {"untraced_s": untraced, "layers": tr.layers(), "spans": tr.spans}
    return 2, bad, metrics, tracing.PER_LAYER_UNITS, details


def _attempt(w, op, samples: list[float]):
    """One timed operation, then its checks: (summary, problems)."""
    try:
        t0 = time.perf_counter()
        result = op()
        samples.append(time.perf_counter() - t0)
        summary = wl.summarize(w, result)
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, [f"operation raised {exc!r}"]
    return summary, wl.problems(w, summary)


def _setup_seconds(n: int) -> float:
    """Import and cache warm-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", str(n)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def tail(samples: list[float]) -> dict | None:
    """The highest percentile that leaves at least ten samples above it."""
    k = len(samples) - 10
    if k < 1:
        return None
    return {"percentile": 100 * k / len(samples), "value": sorted(samples)[k - 1],
            "samples": len(samples)}


def environment() -> dict:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_head": head or "unknown",
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def report(record: dict) -> None:
    """Print the run by name with units, write its record, and finish with
    the one-line JSON result."""
    env = record["environment"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"git {env['git_head']}, src lines {env['src_lines']}")
    print(f"{record['workload']} (n = {record['n']}) seed {record['seed']} "
          f"trace {record['trace']}: {record['attempted']} attempted, {record['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        wall = record["wall_s_samples"]
        t = record["wall_s_tail"]
        print(f"  wall_s is the median of {len(wall)} operations; tail: "
              + (f"p{t['percentile']:.1f} = {t['value']:.6g} s" if t
                 else "needs at least 11 operations"))
        print(f"  setup_s is the median of {len(record['setup_s_samples'])} fresh interpreters")
    print(f"  {'error_rate':36s} {record['failed'] / record['attempted']:.6g} ratio")
    for problems in record["problems"]:
        print("  FAILED: " + "; ".join(problems))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def smoke() -> bool:
    """Every workload's code path at small orders, traced and untraced, plus
    a negative control: a wrong expected count must be reported as failed."""
    ok = True
    for w in wl.SMOKE.values():
        for trace in (False, True):
            record = run(w, seed=0, seconds=0, trace=trace, setup_repeats=1)
            report(record)
            names = tracing.PER_LAYER_UNITS if trace else END_TO_END_UNITS
            ok &= record["correct"] and record["metrics"].keys() == names.keys()
    wrong = dataclasses.replace(wl.SMOKE["enumerate-15"],
                                expect={**wl.SMOKE["enumerate-15"].expect, "classes": 12})
    record = run(wrong, seed=0, seconds=0, trace=False, setup_repeats=1)
    caught = not record["correct"] and record["failed"] == record["attempted"]
    print(f"negative control (expect 12 classes at n = 15): "
          f"{'reported as failed' if caught else 'NOT reported'}")
    return ok and caught
