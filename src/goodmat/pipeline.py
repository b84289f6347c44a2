"""End-to-end enumeration, independent verification, oracle, and reporting.

The enumeration pipeline for an odd order n divisible by 3:

  1. signed_rowsums(n):      solve row(B)²+row(C)²+row(D)² = 4n−1 with signs;
  2. generate_candidates:    compressed sweep → kept rows as int8 arrays sk, sy;
  3. match_codes:            the quad join at compressed length, one owner
                             per rowsum group of B′ → one arrangement per
                             {B′, C′, D′} of each S_q quad whose A′ is
                             orbit-minimal, as codes;
  4. canonical_codes dedup → one instance per compressed class;
  5. uncompress_all: the quad join at full length, one owner per
                             instance → defining quads, one per orbit of the
                             index maps u ≡ 1 (mod n/3) that fix every
                             compressed row;
  6. canonical_forms dedup → the sorted list of inequivalent good matrices.

Verification is deliberately independent of the search code: it materializes
the circulant matrices and checks the defining identity, amicability after
row reversal, and the 4n-order skew Hadamard block construction with exact
integer matrix arithmetic.  CHECKS names every check; `goodmat verify` and
scripts/reproduce_counts.py run that one table.  The brute-force oracle
re-derives small orders (n ≤ 15) from nothing but the PAF certificate,
bypassing candidates/matching/uncompress entirely.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .candidates import check_order, generate_candidates
from .diophantine import signed_rowsums
from .equiv import (
    CanonicalQuad,
    canonical_codes,
    canonical_forms,
    decode_quads,
    dedup,
    unique_rows,
    units,
)
from .errors import (ConstructionError, GoodmatError, InternalError, InvalidInputError,
                     ParseError)
from .matching import match_codes
from .seqcore import (
    CompressedQuad,
    DefiningQuad,
    format_int_row,
    format_row,
    iter_halves,
    make_skew,
    make_symmetric,
    write_quads,
)
from .spectral import paf_certificate, paf_vector
from .uncompress import uncompress_all

#: Orders above this need an explicit opt-in (allow_large / --allow-large).
#: n = 45 runs in about 30 s and 250 MB on one core of a 2-core Xeon;
#: n = 51 takes minutes on two cores and over 1 GB in a worker.
UNLIMITED_MAX_ORDER = 45


@dataclass(frozen=True)
class FilterConfig:
    """The one switch for every pruning device that is not part of the exact core.

    The filters are float spectral/rowsum screens that discard candidates
    early: the row PSD bound and the rowsum membership of symmetric rows in
    the sweep, the pairwise PSD bound in matching, and the row and pair PSD
    screens before the full-length join in uncompression.  They are
    redundant with the exact integer checks (PAF certificate, exact
    matching identity), so disabling them (``no_filters``) must not change
    the solution set, only the running time; they are all on or all off.
    enabled is read once where each layer starts (generate_candidates,
    match_codes, uncompress_all): a disabled PSD filter becomes the bound
    +inf, which every row and pair meets, and an enabled one the bound
    4n + spectral.EPS.

    psd_candidates, rowsum_candidates, psd_pairs, prefix_checks and
    parity_clauses are read-only and exist only because the benchmark's
    trace (perfbench/tracing.py) reads them: the first four are enabled,
    and parity_clauses is build_instance's default, the product-rule clauses.
    """

    enabled: bool = True
    parity_clauses = True  # not a field: build_instance's default
    psd_candidates = rowsum_candidates = psd_pairs = prefix_checks = property(
        lambda self: self.enabled)

    @classmethod
    def no_filters(cls) -> "FilterConfig":
        """Every float filter off; the exact constraints alone drive the search."""
        return cls(enabled=False)


def _of_type(kind, value) -> bool:
    """Whether a parsed JSON value is of the declared type kind: a float is
    any number, a tuple a list of its length, Optional[X] None or an X."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is dict:
        return type(value) is dict and all(_of_type(args[1], v) for v in value.values())
    if origin is tuple:
        return type(value) is list and len(value) == len(args) and all(map(_of_type, args, value))
    if args:  # Optional[...]
        return any(_of_type(member, value) for member in args)
    return type(value) in ((int, float) if kind is float else (kind,))


@dataclass
class SearchReport:
    """What a run did: counts, timings, shard, and a digest of the answer.

    instances_fingerprint identifies the full, unsharded instance list the
    run drew its shard from (see instances_fingerprint), so shards of one
    run agree on it and shards of different runs do not.  solver_stats holds
    uncompress_all's join counters (pairs_ab, pairs_cd, key_hits) and
    raw_models, the quads it certified: one per orbit of the maps that fix
    every compressed row, not every certified quad of the preimage products.
    """

    n: int
    wall_time_s: float
    instance_count: int
    solutions_found: int
    inequivalent_count: int
    stage_seconds: dict[str, float] = field(default_factory=dict)
    solver_stats: dict[str, int] = field(default_factory=dict)
    shard: Optional[tuple[int, int]] = None
    exhaustive: bool = True
    digest: str = ""
    instances_fingerprint: str = ""
    schema_version: int = 2  # of the fields above: raise it when they change

    def to_json(self) -> str:
        payload = {"schema_version": self.schema_version, **asdict(self),
                   "wall_time_s": round(self.wall_time_s, 3),
                   "stage_seconds": {k: round(v, 3) for k, v in self.stage_seconds.items()}}
        return json.dumps(payload, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SearchReport":
        """The declared fields that text holds, defaults for the rest but
        exhaustive (False); ParseError unless a JSON object with every count
        and each field of its JSON type (a count is an int, never a bool)."""
        try:
            data = json.loads(text)
            values = {f.name: data[f.name] for f in fields(cls) if f.name in data}
            kinds = get_type_hints(cls)
            if wrong := [k for k, v in values.items() if not _of_type(kinds[k], v)]:
                raise ValueError(f"{', '.join(wrong)} of the wrong JSON type")
            values = {k: tuple(v) if type(v) is list else v for k, v in values.items()}
            return cls(**{"exhaustive": False, **values})  # only tuple fields hold lists
        except (ValueError, TypeError) as exc:
            raise ParseError(f"not a report: {exc}") from None


def solution_digest(quads: Sequence[CanonicalQuad]) -> str:
    """SHA-256 of the sorted canonical row file — the auditable fingerprint."""
    return _rows_digest((cq.quad for cq in quads), format_row)


def instances_fingerprint(instances: Sequence[CompressedQuad]) -> str:
    """SHA-256 of the sorted instance list, written as write_quads writes
    compressed rows: comma-separated integers, a blank line after each quad."""
    return _rows_digest(sorted(instances), format_int_row)


def _rows_digest(quads, fmt: Callable) -> str:
    buf = io.StringIO()
    write_quads(buf, quads, fmt=fmt)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _validate_order(n: int, allow_large: bool) -> None:
    check_order(n)
    if n > UNLIMITED_MAX_ORDER and not allow_large:
        raise InvalidInputError(
            f"order {n} exceeds the desk-scale limit {UNLIMITED_MAX_ORDER}; "
            "pass allow_large=True (CLI: --allow-large) to proceed anyway"
        )


def prepare_instances(
    n: int,
    *,
    filters: FilterConfig = FilterConfig(),
    allow_large: bool = False,
) -> tuple[list[CompressedQuad], dict[str, float]]:
    """Stages 1–4 (rowsums, candidates, matching, compressed dedup) → (instances, timings).

    match_codes joins only the A′ rows that are orbit-minimal under units(m),
    which by equiv.orbit_minimal keeps every class's canonical quad, and
    returns one (B′, C′, D′) arrangement of each quad; canonical_codes maps
    it to its class.
    """
    _validate_order(n, allow_large)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    rowsums = signed_rowsums(n)
    timings["rowsums"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cands = generate_candidates(n, rowsums, psd_filter=filters.enabled,
                                rowsum_filter=filters.enabled)
    timings["candidates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    s_q = match_codes(cands, n, pair_filter=filters.enabled, multipliers=units(cands.m))
    timings["matching"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    instances = decode_quads(unique_rows(canonical_codes(s_q, cands.m)), cands.m)
    timings["instance_dedup"] = time.perf_counter() - t0
    return instances, timings


def enumerate_good_matrices(
    n: int,
    *,
    filters: FilterConfig = FilterConfig(),
    shard: Optional[tuple[int, int]] = None,
    seed: int = 0,
    jobs: int = 1,
    allow_large: bool = False,
) -> tuple[list[CanonicalQuad], SearchReport]:
    """Run the full pipeline; returns (sorted canonical quads, report).

    With shard=(i, N), only instances with index ≡ i (mod N) in the sorted
    deduped instance list are uncompressed: N shards jointly cover the search
    exactly once and their union equals the unsharded result.  jobs > 1
    spreads the instances over that many worker processes; check_run rejects
    bad values before the front end starts.  seed no longer affects the
    search (a deterministic join); it is kept for callers that pass it.
    """
    start = time.perf_counter()
    check_run(shard, jobs)
    prepared = prepare_instances(n, filters=filters, allow_large=allow_large)
    return enumerate_prepared(n, prepared, start=start, filters=filters, shard=shard, jobs=jobs)


def check_run(shard: Optional[tuple[int, int]], jobs: int) -> None:
    """InvalidInputError unless shard is None or (i, N) with 0 ≤ i < N, and jobs ≥ 1."""
    i, total = shard or (0, 1)
    if not 0 <= i < total:
        raise InvalidInputError(f"shard index {i} not in range 0..{total - 1}")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be at least 1, got {jobs}")


def shard_ids(count: int, shard: Optional[tuple[int, int]]) -> range:
    """The ids, indices into the full list of count instances, that shard
    (i, N), checked by check_run, uncompresses: i, i + N, …; all without one."""
    i, total = shard or (0, 1)
    return range(i, count, total)


def enumerate_prepared(
    n: int,
    prepared: tuple[list[CompressedQuad], dict[str, float]],
    *,
    start: float,
    filters: FilterConfig = FilterConfig(),
    shard: Optional[tuple[int, int]] = None,
    jobs: int = 1,
) -> tuple[list[CanonicalQuad], SearchReport]:
    """Stages 5–6 on the output of prepare_instances: uncompress each
    instance by the PAF-key join, then dedup to canonical forms.

    start is the perf_counter() value the report's wall time counts from.
    """
    check_run(shard, jobs)
    instance_quads, timings = prepared
    timings = dict(timings)
    fingerprint = instances_fingerprint(instance_quads)
    instance_quads = [instance_quads[i] for i in shard_ids(len(instance_quads), shard)]

    t0 = time.perf_counter()
    run = partial(uncompress_all, filters=filters.enabled)
    if jobs > 1:
        # imported here, so that `import goodmat` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(run, [instance_quads[j::jobs] for j in range(jobs)]))
    else:
        parts = [run(instance_quads)]
    found = [quads for part, _ in parts for quads in part]
    join_stats: Counter = Counter()
    for _, part_stats in parts:
        join_stats.update(part_stats)
    timings["solving"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # one representative per class and instance, as solve_all returns
    forms = iter(canonical_forms([quad for quads in found for quad in quads]))
    per_instance = [dedup([next(forms) for _ in quads], lambda c: c) for quads in found]
    canonical = dedup((c for classes in per_instance for c in classes), lambda c: c)
    timings["postprocess"] = time.perf_counter() - t0

    report = SearchReport(
        n=n,
        wall_time_s=time.perf_counter() - start,
        instance_count=len(instance_quads),
        solutions_found=sum(map(len, per_instance)),
        inequivalent_count=len(canonical),
        stage_seconds=timings,
        solver_stats={"raw_models": sum(map(len, found)), **join_stats},
        shard=shard,
        exhaustive=shard is None or shard[1] == 1,  # shard 0 of 1 covers every id
        digest=solution_digest(canonical),
        instances_fingerprint=fingerprint,
    )
    return canonical, report


# ── independent verification family ─────────────────────────────────────────

def circulant(row: Sequence[int]) -> np.ndarray:
    """Integer circulant matrix: each row is the previous one shifted right."""
    n = len(row)
    r = np.asarray(row, dtype=np.int64)
    i, j = np.indices((n, n))
    return r[(j - i) % n]


def verify_definition(quad: DefiningQuad) -> bool:
    """Exact check of the defining identity on materialized matrices.

    A skew (unit diagonal, off-diagonal antisymmetric), B, C, D symmetric,
    and AAᵀ + B² + C² + D² = 4n·I — all in integer arithmetic, independent
    of the spectral code path.
    """
    a, b, c, d = (circulant(r) for r in quad.rows())
    n = quad.n
    for mat in (a, b, c, d):
        if not np.isin(mat, (-1, 1)).all():
            return False
    if not (np.diag(a) == 1).all() or not (a + a.T == 2 * np.eye(n, dtype=np.int64)).all():
        return False
    for mat in (b, c, d):
        if not (mat == mat.T).all():
            return False
    lhs = a @ a.T + b @ b + c @ c + d @ d
    return bool((lhs == 4 * n * np.eye(n, dtype=np.int64)).all())


def recover_amicable(quad: DefiningQuad) -> tuple[np.ndarray, ...]:
    """A unchanged; B, C, D with row order reversed — restores amicability.

    Reversing the rows of a circulant matrix built from a symmetric defining
    row yields a symmetric back-circulant matrix; any two of those commute
    with transposition, which is the amicability condition XYᵀ = YXᵀ.
    """
    if not verify_definition(quad):
        raise InvalidInputError("quad does not satisfy the defining identity")
    a = circulant(quad.a)
    rest = [circulant(r)[::-1, :] for r in quad.rows()[1:]]
    mats = (a, *rest)
    for x in mats:
        for y in mats:
            if not (x @ y.T == y @ x.T).all():
                raise ConstructionError("amicability failed after row reversal")
    total = sum(x @ x.T for x in mats)
    if not (total == 4 * quad.n * np.eye(quad.n, dtype=np.int64)).all():
        raise ConstructionError("defining identity lost after row reversal")
    return mats


def build_skew_hadamard(quad: DefiningQuad) -> np.ndarray:
    """The 4n-order skew Hadamard block matrix, verified exactly.

    Block layout (A, B, C, D amicable good matrices):

        [  A   B   C   D ]
        [ -B   A   D  -C ]
        [ -C  -D   A   B ]
        [ -D   C  -B   A ]
    """
    a, b, c, d = recover_amicable(quad)
    h = np.block([
        [a, b, c, d],
        [-b, a, d, -c],
        [-c, -d, a, b],
        [-d, c, -b, a],
    ])
    order = 4 * quad.n
    eye = np.eye(order, dtype=np.int64)
    if not (h @ h.T == order * eye).all():
        raise ConstructionError("block matrix is not Hadamard")
    if not (h + h.T == 2 * eye).all():
        raise ConstructionError("block matrix is not skew")
    return h


def product_rule_holds(quad: DefiningQuad) -> bool:
    """Entrywise check of a_k·b_k·c_k·d_k = −a_{2k mod n} for 1 ≤ k < n."""
    a, b, c, d = quad.rows()
    n = len(a)
    return all(a[k] * b[k] * c[k] * d[k] == -a[(2 * k) % n] for k in range(1, n))


def _no_raise(construct: Callable[[DefiningQuad], object], quad: DefiningQuad) -> bool:
    try:
        construct(quad)
        return True
    except GoodmatError:
        return False


#: Every independent check of one quad, as (name, check) pairs; a check
#: returns False where its construction would raise.
CHECKS: tuple[tuple[str, Callable[[DefiningQuad], bool]], ...] = (
    ("definition", verify_definition),
    ("paf", paf_certificate),
    ("product", product_rule_holds),
    ("amicable", partial(_no_raise, recover_amicable)),
    ("hadamard", partial(_no_raise, build_skew_hadamard)),
)


# ── the brute-force oracle ──────────────────────────────────────────────────

ORACLE_MAX_ORDER = 15


def brute_force_oracle(n: int) -> list[CanonicalQuad]:
    """Ground-truth enumeration for n ≤ 15, from the PAF certificate alone.

    Walks all 4^(n−1) half-assignment combinations (as a keyed join over the
    2^d skew and 2^d symmetric rows: the PAF sums of (A, B) must cancel those
    of (C, D), which prunes without ever discarding a certified quad).  Uses
    no code from the candidates/matching/satsearch path.
    """
    if n < 1 or n % 2 == 0:
        raise InvalidInputError(f"order must be odd and positive, got {n}")
    if n > ORACLE_MAX_ORDER:
        raise InvalidInputError(
            f"brute-force oracle refuses n={n} > {ORACLE_MAX_ORDER} (4^(n-1) blow-up)"
        )
    d = n // 2
    skews = [make_skew(h, n) for h in iter_halves(d)]
    syms = [make_symmetric(h, n) for h in iter_halves(d)]
    paf_of = {row: paf_vector(row)[1:] for row in set(skews) | set(syms)}

    cd_index: dict[tuple[int, ...], list[tuple]] = {}
    for c in syms:
        pc = paf_of[c]
        for dd in syms:
            key = tuple(-x - y for x, y in zip(pc, paf_of[dd]))
            cd_index.setdefault(key, []).append((c, dd))

    found: list[DefiningQuad] = []
    for a in skews:
        pa = paf_of[a]
        for b in syms:
            key = tuple(x + y for x, y in zip(pa, paf_of[b]))
            for c, dd in cd_index.get(key, ()):
                quad = DefiningQuad(a, b, c, dd)
                if not paf_certificate(quad):
                    raise InternalError(f"PAF key join accepted a non-good quad: {quad}")
                found.append(quad)
    return dedup(canonical_forms(found), lambda c: c)
