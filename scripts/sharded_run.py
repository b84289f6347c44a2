#!/usr/bin/env python3
"""Split one order across N shards, then merge and verify the union.

Each shard uncompresses every N-th instance, writes its own row file + report,
and the merge step re-canonicalizes the union and checks shard coverage —
the same flow as `goodmat solve --shard i/N` + `goodmat report`, usable as a
template for spreading shards over separate machines.

    python3 scripts/sharded_run.py 21 --shards 4 --out shards21/
"""

import argparse
import sys
from pathlib import Path

from goodmat.cli import run_cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", type=int)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    out = args.out or Path(f"shards{args.n}")
    for i in range(args.shards):
        print(f"--- shard {i}/{args.shards} ---")
        code = run_cli([
            "solve", str(args.n), "--shard", f"{i}/{args.shards}",
            "--out", str(out),
        ])
        if code != 0:
            print(f"shard {i} failed with exit code {code}", file=sys.stderr)
            return code
    print("--- merge ---")
    return run_cli(["report", str(out)])


if __name__ == "__main__":
    sys.exit(main())
