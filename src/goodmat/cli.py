"""Command-line interface.

Subcommands mirror the pipeline stages plus verification utilities:

  rowsums n              signed rowsum triples for order n
  candidates n           compressed candidate sets s_sk / s_sy
  match n                matched compressed quadruples S_q
  solve n [--shard i/N]  uncompress (optionally one shard of) the instances
  enumerate n            the full pipeline: all inequivalent good matrices
  verify FILE            check quads in a row file against all certificates
  hadamard FILE          build + verify the order-4n skew Hadamard matrices
  oracle n               brute-force ground truth for n ≤ 15
  report DIR             merge shard outputs in DIR into one report

Exit status: 0 on success, 1 on verification failure or internal error,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

from . import __version__
from .candidates import generate_candidates
from .diophantine import signed_rowsums
from .equiv import canonical_forms, dedup
from .errors import GoodmatError, InvalidInputError, ParseError
from .matching import match_quadruples
from .pipeline import (
    CHECKS,
    SearchReport,
    brute_force_oracle,
    build_skew_hadamard,
    check_run,
    enumerate_prepared,
    prepare_instances,
    shard_ids,
    solution_digest,
)
from .satsearch import build_instance, export_dimacs
from .seqcore import format_int_row, read_quads, write_file, write_quads


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (InvalidInputError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GoodmatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodmat",
        description="Exhaustive enumeration and verification of circulant good matrices.",
    )
    parser.add_argument("--version", action="version", version=f"goodmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rowsums", help="signed rowsum triples for order n")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_rowsums)

    p = sub.add_parser("candidates", help="generate compressed candidate sets")
    p.add_argument("n", type=int)
    p.add_argument("--out", type=Path, default=None, help="directory for s_sk.txt / s_sy.txt")
    p.set_defaults(handler=_cmd_candidates)

    p = sub.add_parser("match", help="match compressed quadruples (S_q)")
    p.add_argument("n", type=int)
    p.add_argument("--out", type=Path, default=None, help="directory for s_q.txt")
    p.set_defaults(handler=_cmd_match)

    p = sub.add_parser("solve", help="uncompress the instances (optionally one shard)")
    _add_search_args(p)
    p.add_argument("--shard", type=_parse_shard, default=None, metavar="i/N",
                   help="uncompress only instances with index ≡ i (mod N)")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("enumerate", help="run the full enumeration pipeline")
    _add_search_args(p)
    p.set_defaults(handler=_cmd_search, shard=None)

    p = sub.add_parser("verify", help="verify quads in a row file")
    p.add_argument("rowfile", type=Path)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("hadamard", help="build skew Hadamard matrices from a row file")
    p.add_argument("rowfile", type=Path)
    p.add_argument("--out", type=Path, default=None, help="write the matrices as ± rows")
    p.set_defaults(handler=_cmd_hadamard)

    p = sub.add_parser("oracle", help="brute-force enumeration (n ≤ 15)")
    p.add_argument("n", type=int)
    p.add_argument("--out", type=Path, default=None, help="directory for the row file")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("report", help="merge shard outputs from a directory")
    p.add_argument("dir", type=Path)
    p.set_defaults(handler=_cmd_report)
    return parser


def _add_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--jobs", type=_parse_jobs, default=1,
                   help="worker processes that uncompress the instances")
    p.add_argument("--allow-large", action="store_true",
                   help="permit orders beyond the desk-scale limit")
    p.add_argument("--dimacs", action="store_true",
                   help="also export each instance as a DIMACS .cnf file")


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
        check_run(None, jobs)
    except ValueError:  # InvalidInputError is one
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None
    return jobs


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        i, total = (int(tok) for tok in text.split("/"))
        check_run((i, total), 1)
    except ValueError:  # InvalidInputError is one
        raise argparse.ArgumentTypeError(f"expected i/N with 0 <= i < N, got {text!r}") from None
    return i, total


# ── command handlers ─────────────────────────────────────────────────────────

def _cmd_rowsums(args) -> int:
    for triple in sorted(signed_rowsums(args.n)):
        print(f"{triple.x} {triple.y} {triple.z}")
    return 0


def _cmd_candidates(args) -> int:
    cands = generate_candidates(args.n, signed_rowsums(args.n))
    print(f"n={args.n}: |s_sk|={len(cands.sk)} |s_sy|={len(cands.sy)}")
    if args.out is not None:
        for name, rows in (("s_sk.txt", cands.s_sk), ("s_sy.txt", cands.s_sy)):
            _write(args.out / name, lambda fp: fp.writelines(
                format_int_row(row) + "\n" for row in sorted(rows)))
    return 0


def _cmd_match(args) -> int:
    cands = generate_candidates(args.n, signed_rowsums(args.n))
    s_q = match_quadruples(cands, args.n)
    print(f"n={args.n}: |S_q|={len(s_q)}")
    if args.out is not None:
        _write(args.out / "s_q.txt", lambda fp: write_quads(fp, s_q, fmt=format_int_row))
    return 0


def _cmd_search(args) -> int:
    """solve and enumerate: enumerate is solve without a shard."""
    shard = args.shard
    tag = f"n{args.n}"
    if shard is not None:
        tag += f"-shard{shard[0]}of{shard[1]}"
    out: Path = args.out

    start = time.perf_counter()
    prepared = prepare_instances(args.n, allow_large=args.allow_large)
    instances = prepared[0]
    ids = shard_ids(len(instances), shard)  # ids index the full instance list
    manifest = [{"id": idx, "quad": [list(row) for row in instances[idx].rows()]}
                for idx in ids]
    _write(out / f"manifest-{tag}.json",
           lambda fp: fp.write(json.dumps(manifest, indent=1) + "\n"))
    if args.dimacs:  # the .cnf headers carry the variable and clause counts
        for idx in ids:
            cnf = export_dimacs(build_instance(instances[idx]))
            write_file(out / f"instance-{tag}-{idx}.cnf", lambda fp: fp.write(cnf))

    quads, report = enumerate_prepared(
        args.n, prepared, start=start, shard=shard, jobs=args.jobs
    )
    print(f"n={args.n}: instances={report.instance_count} "
          f"solutions={report.solutions_found} inequivalent={report.inequivalent_count}")
    _write(out / f"solutions-{tag}.rows", lambda fp: write_quads(fp, (cq.quad for cq in quads)))
    _write(out / f"report-{tag}.json", lambda fp: fp.write(report.to_json()))
    return 0


def _cmd_verify(args) -> int:
    quads = _read_rows(args.rowfile)
    failures = 0
    for idx, quad in enumerate(quads):
        results = [(name, check(quad)) for name, check in CHECKS]
        ok = all(flag for _, flag in results)
        failures += 0 if ok else 1
        detail = " ".join(f"{name}={'OK' if flag else 'FAIL'}" for name, flag in results)
        print(f"quad {idx} (n={quad.n}): {detail}")
    if failures:
        print(f"{failures} of {len(quads)} quads failed verification", file=sys.stderr)
        return 1
    print(f"all {len(quads)} quads verified")
    return 0


def _cmd_hadamard(args) -> int:
    quads = _read_rows(args.rowfile)
    matrices = []
    for idx, quad in enumerate(quads):
        h = build_skew_hadamard(quad)  # raises ConstructionError on failure
        matrices.append(h)
        print(f"quad {idx}: skew Hadamard matrix of order {h.shape[0]} verified")
    if args.out is not None:  # one block of 4n ± rows per matrix
        _write(args.out, lambda fp: write_quads(fp, matrices))
    return 0


def _cmd_oracle(args) -> int:
    quads = brute_force_oracle(args.n)
    print(f"n={args.n}: {len(quads)} inequivalent good matrices (brute force)")
    if args.out is not None:
        _write(args.out / f"oracle-n{args.n}.rows",
               lambda fp: write_quads(fp, (cq.quad for cq in quads)))
    return 0


def _cmd_report(args) -> int:
    report_paths = sorted(
        p for p in args.dir.glob("report-*.json") if not p.name.endswith("-merged.json")
    )
    if not report_paths:
        raise InvalidInputError(f"no report-*.json files in {args.dir}")
    reports = []
    for path in report_paths:
        try:
            reports.append(SearchReport.from_json(path.read_text()))
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
    orders = {r.n for r in reports}
    if len(orders) != 1:
        raise InvalidInputError(f"mixed orders in {args.dir}: {sorted(orders)}")
    n = orders.pop()

    # each report's own rows file, whose classes must give the report's digest
    classes, mismatched = [], []
    stage_seconds, solver_stats = Counter(), Counter()
    for path, report in zip(report_paths, reports):
        rows_path = path.with_name(f"solutions-{path.stem.removeprefix('report-')}.rows")
        with open(rows_path) as fp:  # a missing file: OSError, exit 2
            own = dedup(canonical_forms(read_quads(fp)), lambda c: c)
        if solution_digest(own) != report.digest:
            mismatched.append(rows_path.name)
        classes.extend(own)
        stage_seconds.update(report.stage_seconds)
        solver_stats.update(report.solver_stats)
    canonical = dedup(classes, lambda c: c)

    gap = (f"{', '.join(mismatched)} does not match its report's digest" if mismatched
           else _coverage_gap(reports))
    covered = gap is None

    merged = SearchReport(
        n=n,
        wall_time_s=sum(r.wall_time_s for r in reports),
        instance_count=sum(r.instance_count for r in reports),
        solutions_found=sum(r.solutions_found for r in reports),
        inequivalent_count=len(canonical),
        stage_seconds=dict(stage_seconds),  # asdict would rebuild a Counter from its items
        solver_stats=dict(solver_stats),
        exhaustive=covered,
        digest=solution_digest(canonical),
        instances_fingerprint=reports[0].instances_fingerprint if covered else "",
    )
    coverage = "complete" if covered else f"INCOMPLETE ({gap})"
    print(f"merged {len(reports)} reports for n={n}: "
          f"inequivalent={merged.inequivalent_count}, coverage {coverage}")
    _write(args.dir / f"solutions-n{n}-merged.rows",
           lambda fp: write_quads(fp, (cq.quad for cq in canonical)))
    _write(args.dir / f"report-n{n}-merged.json", lambda fp: fp.write(merged.to_json()))
    return 0


def _write(path: Path, write) -> None:
    write_file(path, write)
    print(f"wrote {path}")


def _read_rows(path: Path) -> list:
    """The quads of a row file, unvalidated; ParseError if it holds none."""
    with open(path) as fp:
        if quads := read_quads(fp, validate=False):
            return quads
    raise ParseError(f"no quads in {path}")


def _coverage_gap(reports: list[SearchReport]) -> str | None:
    """Why the shard reports do not cover one search exactly once; None if they do."""
    fingerprints = {r.instances_fingerprint for r in reports}
    if "" in fingerprints:
        return "a report without an instance fingerprint"
    if len(fingerprints) > 1:
        return f"{len(fingerprints)} different instance fingerprints"
    shards = [r.shard or (0, 1) for r in reports]  # unsharded: shard 0 of 1
    totals = {total for _, total in shards}
    if len(totals) != 1:
        return f"mixed shard totals {sorted(totals)}"
    indices = [i for i, _ in shards]
    repeated = sorted({i for i in indices if indices.count(i) > 1})
    if repeated:
        return f"duplicate shard index {', '.join(map(str, repeated))}"
    total = totals.pop()
    if set(indices) != set(range(total)):
        return f"shard indices {sorted(indices)} do not cover 0..{total - 1}"
    return None


if __name__ == "__main__":
    main()
