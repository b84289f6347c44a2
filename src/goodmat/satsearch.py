"""CNF encoding of one compressed quadruple and its exhaustive solution.

Variable layout.  Rows A, B, C, D are numbered 0..3; each row owns d+1
Boolean variables for its entries at indices 0..d (d = ⌊n/2⌋), with
var true ⟺ entry +1.  Entries at indices j > d never get variables: the
skew relation a_j = −a_{n−j} and the symmetric relation x_j = x_{n−j} fold
them onto index n−j with the appropriate polarity.  Unit clauses pin all
four index-0 variables true.  Total: 4(d+1) variables.

Compression constraints.  Each compressed entry v′_k = x_k + x_{k+m} + x_{k+2m}
over three folded literals l1, l2, l3 becomes:

    +3 → units l1, l2, l3              −3 → units ¬l1, ¬l2, ¬l3
    +1 → (¬l1∨¬l2∨¬l3), (l1∨l2), (l1∨l3), (l2∨l3)      [exactly two true]
    −1 → (l1∨l2∨l3), (¬l1∨¬l2), (¬l1∨¬l3), (¬l2∨¬l3)   [exactly one true]

Parity constraints.  Good-matrix rows with positive first entries satisfy
the product rule a_k·b_k·c_k·d_k = −a_{2k mod n} for all 1 ≤ k < n.  For
k ≠ m this says the product of the five values {a_k, a_{2k}, b_k, c_k, d_k}
is −1, i.e. an EVEN number of the five variables are true: 16 clauses, one
forbidding each odd-true pattern.  At k = m the skew relation makes
a_m·a_{2m} = −1, leaving b_m·c_m·d_m = +1: an ODD number of {b_m, c_m, d_m}
true, i.e. the four clauses (b∨c∨d), (¬b∨¬c∨d), (¬b∨c∨¬d), (b∨¬c∨¬d).

Theory callback.  At every conflict-free propagation fixpoint the callback
collects the fully-assigned rows, sorts them by descending peak PSD, and
checks the cumulative PSD sums of the 1-, 2- and 3-row prefixes against
4n + EPS; a violation yields a clause negating the current values of the
violating rows' free variables.  When all four rows are assigned, the exact
integer PAF certificate decides whether to record the quad as a solution,
and in every such case a blocking clause over all 4d free literals is
returned, so the solver enumerates the instance exhaustively and finishes
with an unsatisfiable clause database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .cdcl import Solver
from .equiv import canonical_form
from .errors import InfeasibleInstanceError, InternalError, InvalidInputError, ParseError
from .seqcore import CompressedQuad, DefiningQuad, compress3
from .spectral import paf_certificate, psd_bound, psd_values

ROW_LABELS = ("A", "B", "C", "D")

Clause = tuple[int, ...]


# ── variables and folding ───────────────────────────────────────────────────

def var_id(row: int, i: int, d: int) -> int:
    """Variable for entry i of row 0..3; ids are 1..4(d+1)."""
    return row * (d + 1) + i + 1


def fold_index(row: int, j: int, n: int) -> tuple[int, int]:
    """Map entry index j of row 0..3 to its variable index and polarity.

    Returns (i, s) with x_j = s · x_i and i ≤ ⌊n/2⌋: indices beyond n/2 fold
    via a_j = −a_{n−j} for the skew row and x_j = x_{n−j} for symmetric rows.
    """
    j %= n
    d = n // 2
    if j <= d:
        return j, 1
    return n - j, -1 if row == 0 else 1


def _fold_lit(row: int, j: int, n: int, d: int) -> int:
    i, s = fold_index(row, j, n)
    return s * var_id(row, i, d)


def _normalize(clause: Iterable[int]) -> Optional[Clause]:
    """Dedup literals; None for tautologies."""
    out: list[int] = []
    for lit in clause:
        if -lit in out:
            return None
        if lit not in out:
            out.append(lit)
    return tuple(out)


# ── encoding ────────────────────────────────────────────────────────────────

def encode_compression(cq: CompressedQuad) -> list[Clause]:
    """Clauses forcing each row's 3-compression to equal the given one."""
    m = cq.m
    n = 3 * m
    d = n // 2
    for row, crow in enumerate(cq.rows()):
        for value in crow:
            if value not in (-3, -1, 1, 3):
                raise InvalidInputError(f"bad compressed entry {value} in row {ROW_LABELS[row]}")
    if cq.ac[0] != 1:
        raise InfeasibleInstanceError(
            "compressed skew row must start with +1 (a_0 + a_m + a_2m = 1 is forced)"
        )
    clauses: list[Clause] = []
    for row, crow in enumerate(cq.rows()):
        for k in range(m):
            value = crow[k]
            lits = [_fold_lit(row, k + t * m, n, d) for t in range(3)]
            l1, l2, l3 = lits
            if value == 3:
                raw = [(l1,), (l2,), (l3,)]
            elif value == 1:
                raw = [(-l1, -l2, -l3), (l1, l2), (l1, l3), (l2, l3)]
            elif value == -1:
                raw = [(l1, l2, l3), (-l1, -l2), (-l1, -l3), (-l2, -l3)]
            else:
                raw = [(-l1,), (-l2,), (-l3,)]
            for c in raw:
                norm = _normalize(c)
                if norm is not None:
                    clauses.append(norm)
    return clauses


def encode_parity(n: int) -> list[Clause]:
    """Product-rule clauses for every shift 1 ≤ k < n/2."""
    return list(_parity_cached(n))


@lru_cache(maxsize=None)
def _parity_cached(n: int) -> tuple[Clause, ...]:
    if n % 3 != 0:
        raise InvalidInputError(f"parity encoding needs 3 | n, got {n}")
    m, d = n // 3, n // 2
    clauses: list[Clause] = []
    for k in range(1, d + 1):
        if k == m:
            b, c, dd = (var_id(row, m, d) for row in (1, 2, 3))
            clauses += [(b, c, dd), (-b, -c, dd), (-b, c, -dd), (b, -c, -dd)]
            continue
        lits = (
            _fold_lit(0, k, n, d),
            _fold_lit(0, (2 * k) % n, n, d),
            var_id(1, k, d),
            var_id(2, k, d),
            var_id(3, k, d),
        )
        for pattern in product((True, False), repeat=5):
            if sum(pattern) % 2 == 0:
                continue  # even-true assignments satisfy the product rule
            norm = _normalize(tuple(-l if p else l for l, p in zip(lits, pattern)))
            if norm is not None:
                clauses.append(norm)
    return tuple(clauses)


@dataclass
class CnfInstance:
    """One compressed quadruple, encoded; accumulates its raw solutions."""

    n: int
    m: int
    d: int
    source: CompressedQuad
    clauses: list[Clause]
    num_vars: int
    solutions: list[DefiningQuad] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def build_instance(cq: CompressedQuad, *, parity: bool = True) -> CnfInstance:
    """Encode a compressed quadruple: unit fixing + compression (+ parity)."""
    m = cq.m
    n = 3 * m
    if n % 2 == 0:
        raise InvalidInputError(f"order {n} is even; expected odd multiples of 3")
    d = n // 2
    clauses: list[Clause] = [(var_id(row, 0, d),) for row in range(4)]
    clauses += encode_compression(cq)
    if parity:
        clauses += encode_parity(n)
    return CnfInstance(n=n, m=m, d=d, source=cq, clauses=clauses, num_vars=4 * (d + 1))


# ── the theory callback ─────────────────────────────────────────────────────

@dataclass(frozen=True)
class LearnedClause:
    """A theory clause plus the reason it was produced."""

    lits: Clause
    origin: str  # "psd_prefix_1" | "psd_prefix_2" | "psd_prefix_3" | "blocking"


@dataclass
class AuditRecord:
    """Book-keeping for the callback-soundness properties."""

    origin: str
    lits: Clause
    falsified_at_creation: bool
    certified: Optional[bool] = None  # blocking clauses only
    recorded: Optional[bool] = None


class _ProfileCache:
    """PSD profiles of completed rows, keyed by (is_skew, folded values)."""

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self.data: dict[tuple[bool, tuple[int, ...]], tuple[np.ndarray, float]] = {}

    def get(self, is_skew: bool, vals: tuple[int, ...]) -> tuple[np.ndarray, float]:
        key = (is_skew, vals)
        hit = self.data.get(key)
        if hit is None:
            row = _unfold(is_skew, vals, self.n)
            profile = psd_values(row)
            hit = (profile, float(profile.max()))
            self.data[key] = hit
        return hit


def _unfold(is_skew: bool, vals: Sequence[int], n: int) -> tuple[int, ...]:
    """Reconstruct the full ±1 row from values at indices 0..d."""
    d = n // 2
    tail = range(d + 1, n)
    if is_skew:
        return tuple(vals[: d + 1]) + tuple(-vals[n - j] for j in tail)
    return tuple(vals[: d + 1]) + tuple(vals[n - j] for j in tail)


def _callback_core(
    row_values: list[Optional[tuple[int, ...]]],
    instance: CnfInstance,
    *,
    bound: float,
    record: Optional[Callable[[DefiningQuad], None]],
    cache: _ProfileCache,
) -> tuple[Optional[LearnedClause], Optional[bool]]:
    """Steps of the PSD theory check on the four rows' folded values.

    row_values[r] is a tuple of ±1 of length d+1 when row r is fully
    assigned, else None.  bound is the prefix PSD bound (+inf with the
    prefix checks off).  Returns (clause, certified) where certified is
    only meaningful for blocking clauses.
    """
    n, d = instance.n, instance.d
    assigned = [(r, vals) for r, vals in enumerate(row_values) if vals is not None]
    if not assigned:
        return None, None

    profiled = [(cache.get(r == 0, vals), r, vals) for r, vals in assigned]
    profiled.sort(key=lambda item: -item[0][1])  # descending peak PSD

    total = np.zeros(d + 1)
    for t in range(min(3, len(profiled))):
        total = total + profiled[t][0][0]
        if (total > bound).any():
            violators = [(r, vals) for _, r, vals in profiled[: t + 1]]
            return _negation_clause(violators, d), None

    if len(assigned) < 4:
        return None, None

    quad = DefiningQuad(*(_unfold(r == 0, vals, n) for r, vals in assigned))
    certified = paf_certificate(quad)
    if certified:
        if CompressedQuad(*(compress3(row) for row in quad.rows())) != instance.source:
            raise InternalError(f"model {quad} does not compress to {instance.source}")
        if record is not None:
            record(quad)
    return _negation_clause(assigned, d, origin="blocking"), certified


def _negation_clause(
    rows: Sequence[tuple[int, tuple[int, ...]]], d: int, origin: Optional[str] = None
) -> LearnedClause:
    """Clause negating the current values of the rows' free variables."""
    lits = []
    for r, vals in rows:
        base = r * (d + 1) + 1
        for i in range(1, d + 1):
            var = base + i
            lits.append(-var if vals[i] == 1 else var)
    return LearnedClause(tuple(lits), origin or f"psd_prefix_{len(rows)}")


class UncompressionTheory:
    """Solver-facing adapter: fast value extraction + audit trail."""

    def __init__(
        self,
        instance: CnfInstance,
        *,
        bound: float,
        sink: Optional[Callable[[DefiningQuad], None]] = None,
        audit: Optional[list[AuditRecord]] = None,
    ):
        self.instance = instance
        self.bound = bound
        self.sink = sink
        self.audit = audit
        self.cache = _ProfileCache(instance.n, instance.d)

    def __call__(self, solver: Solver) -> Optional[list[int]]:
        d = self.instance.d
        nv = solver.nvars
        val = solver.val
        row_values: list[Optional[tuple[int, ...]]] = []
        for r in range(4):
            base = r * (d + 1) + 1 + nv
            vals = tuple(val[base : base + d + 1])
            row_values.append(vals if 0 not in vals else None)
        recorded = []
        sink = None if self.sink is None else (lambda q: (recorded.append(q), self.sink(q)))
        clause, certified = _callback_core(
            row_values, self.instance, bound=self.bound, record=sink, cache=self.cache,
        )
        if clause is None:
            return None
        if self.audit is not None:
            falsified = all(val[lit + nv] == -1 for lit in clause.lits)
            self.audit.append(
                AuditRecord(
                    origin=clause.origin,
                    lits=clause.lits,
                    falsified_at_creation=falsified,
                    certified=certified if clause.origin == "blocking" else None,
                    recorded=bool(recorded) if clause.origin == "blocking" else None,
                )
            )
        return list(clause.lits)


# ── exhaustive per-instance search ──────────────────────────────────────────

def solve_all(
    instance: CnfInstance,
    *,
    seed: int = 0,
    prefix_checks: bool = True,
    audit: Optional[list[AuditRecord]] = None,
) -> list[DefiningQuad]:
    """Enumerate the instance exhaustively; one quad per equivalence class.

    Every certified raw model is recorded on instance.solutions (several raw
    models may be equivalent quads); the return value keeps the first model
    of each class.
    """
    raw: list[DefiningQuad] = []
    bound = psd_bound(instance.n, prefix_checks)
    theory = UncompressionTheory(instance, bound=bound, sink=raw.append, audit=audit)
    solver = Solver(instance.num_vars, instance.clauses, seed=seed, theory=theory)
    if solver.solve():
        raise InternalError("the blocking theory must reject every full assignment")
    instance.solutions.extend(raw)
    instance.stats = {
        "conflicts": solver.conflicts,
        "decisions": solver.decisions,
        "propagations": solver.propagations,
        "restarts": solver.restarts,
        "theory_clauses": solver.theory_clauses,
        "raw_models": len(raw),
    }
    return _first_per_class(raw)


def _first_per_class(raw: Sequence[DefiningQuad]) -> list[DefiningQuad]:
    seen = set()
    out = []
    for quad in raw:
        key = canonical_form(quad)
        if key not in seen:
            seen.add(key)
            out.append(quad)
    return out


# ── DIMACS export / import ──────────────────────────────────────────────────

def export_dimacs(instance: CnfInstance) -> str:
    """Standard CNF text for the clause part of the instance.

    The PSD callback is not expressible in CNF, so exported instances
    over-approximate the search: external models must be cross-checked
    against recorded solutions / the PAF certificate.
    """
    lines = [f"p cnf {instance.num_vars} {len(instance.clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in instance.clauses]
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[Clause]]:
    """Parse CNF text back into (num_vars, clauses); inverse of export_dimacs."""
    nvars = None
    declared = None
    clauses: list[Clause] = []
    current: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad DIMACS header on line {lineno}: {line!r}")
            nvars, declared = int(parts[2]), int(parts[3])
            continue
        if nvars is None:
            raise ParseError(f"clause before DIMACS header on line {lineno}")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            elif abs(lit) > nvars:
                raise ParseError(f"literal {lit} out of range on line {lineno}")
            else:
                current.append(lit)
    if current:
        raise ParseError("unterminated clause at end of DIMACS text")
    if declared is not None and declared != len(clauses):
        raise ParseError(f"header declared {declared} clauses, found {len(clauses)}")
    return nvars, clauses

