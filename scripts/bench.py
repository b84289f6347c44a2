#!/usr/bin/env python3
"""Record end-to-end and per-stage seconds of the enumeration in BENCH_<label>.json.

Each run is one enumerate_good_matrices(n, allow_large=True) in a fresh
interpreter, so no run inherits another's caches.  The runs go round the
orders k times, and the file keeps, per order, the median of the wall time, of
every stage_seconds entry and of the peak RSS, all runs' wall times, and the
report's solver_stats, digest, instances_fingerprint and exhaustive flag
(which must agree across runs).  It also records the Python and numpy versions, the CPU,
`git rev-parse HEAD` (and whether src/ differs from it) and the line count of
src/.

    python3 scripts/bench.py --label packed-join        # n = 21, 27, 33, 39; k = 5
    python3 scripts/bench.py --label quick --orders 21 27 --repeats 3
    python3 scripts/bench.py --label n51 --orders 51 --repeats 1 --jobs 2

peak_rss_mb is the run's own peak RSS; children_peak_rss_mb is the largest
peak among the worker processes that --jobs > 1 starts (0 without them).

goodmat is imported from the src/ directory of the checkout this script sits
in, with numerical libraries pinned to one thread.  The file is written to the
checkout's root unless --out names a directory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the runs import goodmat from here too

from goodmat.errors import InvalidInputError
from goodmat.pipeline import check_run
from goodmat.seqcore import write_file

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import json, resource, sys
from goodmat.pipeline import enumerate_good_matrices
n, jobs = int(sys.argv[1]), int(sys.argv[2])
_, report = enumerate_good_matrices(n, allow_large=True, jobs=jobs)
peak = {who: resource.getrusage(who).ru_maxrss / 1024
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
print(json.dumps({"report": json.loads(report.to_json()),
                  "peak_rss_mb": peak[resource.RUSAGE_SELF],
                  "children_peak_rss_mb": peak[resource.RUSAGE_CHILDREN]}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="file name: BENCH_<label>.json")
    parser.add_argument("--orders", type=int, nargs="+", default=[21, 27, 33, 39])
    parser.add_argument("--repeats", type=int, default=5, help="runs per order (k)")
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--jobs", type=int, default=1, help="uncompression worker processes")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    try:
        check_run(None, args.jobs)
    except InvalidInputError as exc:
        parser.error(f"argument --jobs: {exc}")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in THREAD_VARS})
    runs: dict[int, list[dict]] = {n: [] for n in args.orders}
    for r in range(args.repeats):
        for n in args.orders:
            argv = [sys.executable, "-c", CHILD, str(n), str(args.jobs)]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs[n].append(json.loads(proc.stdout))
            print(f"run {r + 1}/{args.repeats} n={n}: "
                  f"{runs[n][-1]['report']['wall_time_s']:.3f} s", file=sys.stderr)

    record = {
        "label": args.label,
        "environment": environment(env),
        "repeats": args.repeats,
        "jobs": args.jobs,
        "orders": {str(n): summarize(n, one) for n, one in runs.items()},
    }
    path = args.out / f"BENCH_{args.label}.json"
    write_file(path, lambda fp: fp.write(json.dumps(record, indent=1) + "\n"))
    print(f"wrote {path}")
    return 0


def summarize(n: int, runs: list[dict]) -> dict:
    reports = [run["report"] for run in runs]
    answers = {(r["digest"], r["instances_fingerprint"], r["exhaustive"],
                json.dumps(r["solver_stats"], sort_keys=True)) for r in reports}
    if len(answers) != 1:
        raise SystemExit(f"n={n}: runs disagree on the digest, instances, coverage "
                         "or solver_stats")
    stages = reports[0]["stage_seconds"]
    return {
        "wall_s": round(statistics.median(r["wall_time_s"] for r in reports), 3),
        "wall_s_runs": [r["wall_time_s"] for r in reports],
        "stage_seconds": {s: round(statistics.median(r["stage_seconds"][s] for r in reports), 3)
                          for s in stages},
        "peak_rss_mb": round(statistics.median(run["peak_rss_mb"] for run in runs), 1),
        "children_peak_rss_mb": round(
            statistics.median(run["children_peak_rss_mb"] for run in runs), 1),
        "instances": reports[0]["instance_count"],
        "inequivalent": reports[0]["inequivalent_count"],
        "exhaustive": reports[0]["exhaustive"],
        "solver_stats": reports[0]["solver_stats"],
        "digest": reports[0]["digest"],
        "instances_fingerprint": reports[0]["instances_fingerprint"],
    }


def environment(env: dict) -> dict:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False).stdout.strip()
    changed = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                             capture_output=True, text=True, check=False).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,  # the runs use this interpreter too
        "cpu_count": os.cpu_count(),
        "cpu": cpu_model(),
        "git_head": head or None,
        "src_differs_from_head": bool(changed),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
