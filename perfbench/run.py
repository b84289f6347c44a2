#!/usr/bin/env python3
"""Run the goodmat benchmark: one workload, every workload, or the smoke test.

    python3 perfbench/run.py --workload enumerate-27 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports ``goodmat`` from that
checkout's ``src/`` and refuses to run without it.  One process, one caller,
``jobs=1`` and numerical libraries pinned to one thread.  With ``--trace 0``
the run reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  Metrics are printed by name with their units; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes its full
record (environment, samples, problems, spans) to ``perfbench/results/``.
``--workload all`` runs each workload in a fresh process, so that peak
memory is the workload's own.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def use_checkout_source() -> None:
    """Import goodmat from this checkout's src/, single-threaded, or exit."""
    if not (SRC / "goodmat" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no goodmat package under {SRC}; run it in a full checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def run_all(args, names) -> int:
    """Every workload in its own fresh process; prints each and a summary line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"run.py: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="solver seed; changes the SAT search path, never the answer")
    parser.add_argument("--seconds", type=float, default=36,
                        help="time budget of the closed loop (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small orders, every code path and a negative control")
    parser.add_argument("--setup-probe", type=int, metavar="N", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_source()
    if args.setup_probe is not None:
        # A fresh interpreter: time importing goodmat and filling its caches.
        t0 = time.perf_counter()
        import workloads
        workloads.warm(args.setup_probe)
        print(time.perf_counter() - t0)
        return 0

    import bench
    if args.workload not in (*bench.wl.WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join((*bench.wl.WORKLOADS, "all")))
    if args.smoke:
        ok = bench.smoke()
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1
    if args.workload == "all":
        return run_all(args, bench.wl.WORKLOADS)
    bench.report(bench.run(bench.wl.WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
