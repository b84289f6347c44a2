"""CNF encoding of one compressed quadruple, its DIMACS text, and its
uncompression.

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

Uncompression.  The paper hands these clauses to a SAT solver whose
programmatic callback adds the PSD and PAF conditions.  Here no solver reads
them: they are only exported as DIMACS (`goodmat enumerate --dimacs`), and
the tests check their models by evaluating them on every free assignment.
solve_all uncompresses an instance with uncompress_all, the exact PAF-key
join the pipeline runs, whose row and pair screens do the callback's PSD
checks and whose PAF certificate decides every quad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Optional

from .equiv import canonical_form
from .errors import InvalidInputError, ParseError
from .seqcore import CompressedQuad, DefiningQuad
from .uncompress import uncompress_all

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
        raise InvalidInputError(
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


# ── one instance, uncompressed ──────────────────────────────────────────────

def solve_all(
    instance: CnfInstance,
    *,
    seed: int = 0,
    prefix_checks: bool = True,
) -> list[DefiningQuad]:
    """Uncompress the instance's source; one quad per equivalence class.

    The quads come from uncompress_all, the join the pipeline runs, with
    prefix_checks as both its row and its pair filter.  They are recorded
    on instance.solutions, and instance.stats holds the join counters and
    raw_models, their number; the return value keeps the first quad of each
    class.  seed no longer affects anything (a deterministic join); it is
    kept for callers that pass it.
    """
    (raw,), stats = uncompress_all([instance.source], row_filter=prefix_checks,
                                   pair_filter=prefix_checks)
    instance.solutions.extend(raw)
    instance.stats = {**stats, "raw_models": len(raw)}
    first: dict = {}
    for quad in raw:
        first.setdefault(canonical_form(quad), quad)
    return list(first.values())


# ── DIMACS export / import ──────────────────────────────────────────────────

def export_dimacs(instance: CnfInstance) -> str:
    """Standard CNF text for the clause part of the instance.

    The PSD and PAF conditions are not in the CNF, so its models
    over-approximate the instance's solutions: an external model is one
    only if it passes the PAF certificate.
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

