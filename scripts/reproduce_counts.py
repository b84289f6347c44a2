#!/usr/bin/env python3
"""Reproduce the inequivalent-count table and verify every matrix found.

Runs the full pipeline for each order, compares against the expected counts,
re-certifies all solutions with pipeline.CHECKS (definition, PAF certificate,
product rule, amicability, skew Hadamard construction), and writes row files
and reports.

    python3 scripts/reproduce_counts.py --out runs/
    python3 scripts/reproduce_counts.py --stretch --out runs/   # adds 33, 39
"""

import argparse
import sys
import time
from pathlib import Path

from goodmat.pipeline import CHECKS, enumerate_good_matrices
from goodmat.seqcore import write_file, write_quads

EXPECTED = {3: 1, 9: 1, 15: 11, 21: 10, 27: 13}
STRETCH = {33: 15, 39: 5}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs"))
    parser.add_argument("--stretch", action="store_true",
                        help="include n = 33, 39 (about 20 s on one core)")
    args = parser.parse_args()

    expected = dict(EXPECTED)
    if args.stretch:
        expected.update(STRETCH)

    all_ok = True
    print(f"{'n':>4} {'instances':>10} {'classes':>8} {'expected':>9} "
          f"{'verified':>9} {'seconds':>9}")
    for n, want in expected.items():
        start = time.perf_counter()
        quads, report = enumerate_good_matrices(n)
        elapsed = time.perf_counter() - start

        verified = sum(all(check(c.quad) for _, check in CHECKS) for c in quads)

        ok = len(quads) == want and verified == len(quads)
        all_ok &= ok
        flag = "" if ok else "  <-- MISMATCH"
        print(f"{n:>4} {report.instance_count:>10} {len(quads):>8} {want:>9} "
              f"{verified:>9} {elapsed:>9.1f}{flag}")

        write_file(args.out / f"solutions-n{n}.rows",
                   lambda fp: write_quads(fp, (c.quad for c in quads)))
        write_file(args.out / f"report-n{n}.json", lambda fp: fp.write(report.to_json()))

    print("all counts reproduced" if all_ok else "MISMATCHES FOUND")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
