"""Uncompression: the quads of defining rows above one compressed quadruple,
one quad per orbit of the index maps that fix every compressed row.

This is the compression/uncompression scheme of Đoković and Kotsireas
(Compression of periodic complementary sequences and applications, Des.
Codes Cryptogr. 2015), run with matching's exact PAF-key quad join
(join_table and join_blocks) — one join at two lengths:

  (i)   enumerate the preimages of compressed rows and screen them by the
        full-length row PSD bound (a float filter) from their choice
        triples times a basis (_choice_maps): only those inside it are
        built as rows;
  (ii)  build one preimage table per skewness for all the distinct
        compressed rows of a run (preimage_table), _ROW_BLOCK lines at a
        time, and in the A table keep only the rows that are
        equiv.orbit_minimal under equiv.compression_units(n), whose
        docstring says why that is exact; the table is a join_table whose
        group r holds the kept preimages of compressed row r, with their
        PSD and PAF table;
  (iii) join every instance in one join_blocks call over the A table and
        the symmetric one, which batches them: one block per instance and
        side, the groups of its four compressed rows.  Every quad found
        must pass the PAF certificate, checked for a whole run in one exact
        integer pass (spectral.paf_sums); a failure is a bug: InternalError.

The pair screen reads only the PSD planes k ≢ 0 (mod 3).  PSD_X(3k′) =
PSD_X′(k′) is the same for every preimage of X′, and matching's compressed
screen has already bounded those sums; dropping them keeps every pair the
full profile keeps.  The row filter reads every plane.  uncompress_all turns
each disabled filter into the bound +inf, which every row and pair meets.
The quads found are exactly the certified models of the instance's SAT
encoding (satsearch, kept as the reference and for DIMACS export) whose A
is orbit-minimal and whose B, C, D preimages of one compressed row are in
table order (join_blocks): reordering B, C and D maps a solution to a
solution of the same instance and class and leaves A alone.

A compressed row's preimages are the mixed-radix numbers over the choices of
its free groups 0..(m−1)/2, the last group varying fastest: group 0 (x_0 = +1,
x_{2m} = ±x_m) has 2 choices in a skew row and 1 in a symmetric row, every
other group 1 when |c′_k| = 3 and 3 when |c′_k| = 1; a choice is a triple
(x_k, x_{k+m}, x_{k+2m}).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .candidates import _ROW_BLOCK
from .errors import InternalError
from .equiv import compression_units, orbit_minimal
from .matching import JoinTable, join_blocks, join_table
from .seqcore import CompressedQuad, DefiningQuad
from .spectral import half_basis, paf_sums, psd_bound

#: The eight ±1 triples (x_k, x_{k+m}, x_{k+2m}) one compression group can take.
_TRIPLES = np.array(list(product((1, -1), repeat=3)), dtype=np.int8)


def _choice_table() -> tuple[np.ndarray, np.ndarray]:
    """The triples a group may take, as [3·value + choice, 3], and the
    choice count of each value.

    Values 0–3 are group 0 of a skew row (x_0 = +1, x_{2m} = −x_m), 4–7
    group 0 of a symmetric row (x_{2m} = x_m), 8–11 every other group, each
    for c′_k = +3, +1, −1, −3 in turn (offset + (3 − c′_k)/2).
    """
    table = np.zeros((12, 3, 3), dtype=np.int8)
    count = np.zeros(12, dtype=np.int64)
    for base, sign in ((0, -1), (4, 1), (8, 0)):
        for value, c in enumerate((3, 1, -1, -3), start=base):
            choice = _TRIPLES[_TRIPLES.sum(axis=1) == c]
            if sign:
                choice = choice[(choice[:, 0] == 1) & (choice[:, 2] == sign * choice[:, 1])]
            table[value, : len(choice)] = choice
            count[value] = len(choice)
    return table.reshape(36, 3), count


_CHOICES, _CHOICE_COUNTS = _choice_table()


def preimage_table(crows: np.ndarray, skew: bool, *, bound: float,
                   multipliers: Sequence[int] = ()) -> JoinTable:
    """The JoinTable of the preimages of an (R × m) array of compressed rows
    whose PSD stays within bound at every k and that are orbit_minimal under
    multipliers (all for none), group r those of row r in mixed-radix order."""
    rows, kept = _preimage_rows(crows, skew, bound, multipliers)
    planes = np.flatnonzero(np.arange(rows.shape[1] // 2 + 1) % 3)  # k ≢ 0 (mod 3)
    return join_table(rows, skew, planes, np.concatenate([[0], np.cumsum(kept)]))


def _preimage_rows(crows: np.ndarray, skew: bool, bound: float,
                   multipliers: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """preimage_table's rows, and how many of them each compressed row owns.
    The preimages are screened _ROW_BLOCK at a time, from their triples times
    the basis of _choice_maps: 1 + proj² skew, (1 + proj)² symmetric.  A
    function of its own, so that its block arrays are freed before join_table
    allocates."""
    value, stride, count = _layout(crows, skew)
    basis, column = _choice_maps(crows.shape[1], skew)
    first = np.concatenate([[0], np.cumsum(count)])  # each row's first line
    kept, blocks = np.zeros(len(crows), dtype=np.int64), []
    for lo in range(0, first[-1] or 1, _ROW_BLOCK):
        line = np.arange(lo, min(lo + _ROW_BLOCK, first[-1]))
        owner = np.searchsorted(first, line, side="right") - 1
        local = line - first[owner]
        choice = 3 * value[owner] + local[:, None] // stride[owner] % _CHOICE_COUNTS[value[owner]]
        triples = np.take(_CHOICES, choice, axis=0).reshape(len(line), len(basis))
        proj = triples.astype(np.float64) @ basis
        keep = ((1 + proj**2 if skew else (1 + proj) ** 2) <= bound).all(axis=1)
        owner, triples = owner[keep], triples[keep]
        rows = np.concatenate([triples, -triples], axis=1)[:, column]
        if multipliers:  # an uncut block is kept as it is: a copy raises the peak RSS
            minimal = orbit_minimal(rows, multipliers)
            owner, rows = owner[minimal], rows[minimal]
        kept += np.bincount(owner, minlength=len(crows))
        blocks.append(rows)
    return np.concatenate(blocks), kept


def _layout(crows: np.ndarray, skew: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per compressed row and free group k = 0..(m−1)/2, the _CHOICE_COUNTS
    index and the mixed-radix stride (the last group varies fastest); and per row
    its number of preimages, 0 for a row whose mirror groups disagree."""
    m = crows.shape[1]
    free = (m + 1) // 2
    value = np.r_[0 if skew else 4, np.full(free - 1, 8)] + (3 - crows[:, :free]) // 2
    count = _CHOICE_COUNTS[value]
    stride = np.ones_like(count)
    stride[:, :-1] = np.cumprod(count[:, :0:-1], axis=1)[:, ::-1]
    mirrored = crows[:, m - np.arange(1, free)] == (-1 if skew else 1) * crows[:, 1:free]
    return value, stride, count.prod(axis=1) * mirrored.all(axis=1)


@lru_cache(maxsize=None)
def _choice_maps(m: int, skew: bool) -> tuple[np.ndarray, np.ndarray]:
    """For preimages of length n = 3m, h = n // 2, as lines of triples: the
    (3·free × (h+1)) basis that maps a line to mirror_psd's projection, and
    each row entry's column in [line, −line].  Entry i of group g sits at
    p = g + i·m, or, when p > h, at its mirror n − p with the skew sign;
    x_0 = +1 is the constant term, and x_2m, the mirror of x_m, gets a zero
    row."""
    n, free, h = 3 * m, (m + 1) // 2, 3 * m // 2
    half = half_basis(n)[:, h + 1 :] if skew else half_basis(n)[:, : h + 1]
    basis = np.zeros((3 * free, h + 1))
    column = np.empty(n, dtype=np.intp)
    for g, i in product(range(free), range(3)):
        p = g + i * m
        column[p] = 3 * g + i
        if g:
            column[n - p] = 3 * g + i + (3 * free if skew else 0)
        if 0 < p <= h:
            basis[3 * g + i] = half[p - 1]
        elif g:
            basis[3 * g + i] = (-1 if skew else 1) * half[n - p - 1]
    return basis, column


def uncompress_all(
    instances: Sequence[CompressedQuad],
    *,
    row_filter: bool = True,
    pair_filter: bool = True,
) -> tuple[list[list[DefiningQuad]], dict[str, int]]:
    """The certified quads of each instance whose A is orbit_minimal under
    compression_units, from one preimage table per skewness over the
    distinct compressed rows of all instances.

    One join_blocks call joins them all, one block per instance and side,
    so no hit joins pairs of two instances.

    Returns the quads of each instance, sorted (the join leaves their order
    unspecified), and the join_blocks counters pairs_ab, pairs_cd and
    key_hits.  A disabled row or pair filter is the bound +inf.
    """
    stats = Counter(pairs_ab=0, pairs_cd=0, key_hits=0)
    if not instances:
        return [], dict(stats)
    n = 3 * instances[0].m
    row_bound, pair_bound = psd_bound(n, row_filter), psd_bound(n, pair_filter)
    quads = np.array([cq.rows() for cq in instances])  # [instance, A/B/C/D, entry]
    sk, a_index = np.unique(quads[:, 0], axis=0, return_inverse=True)
    sy, bcd_index = np.unique(quads[:, 1:].reshape(-1, n // 3), axis=0, return_inverse=True)
    table_a = preimage_table(sk, True, bound=row_bound, multipliers=compression_units(n))
    table_s = preimage_table(sy, False, bound=row_bound)  # B, C and D
    groups = np.column_stack([a_index.ravel(), bcd_index.reshape(-1, 3)]).tolist()  # A, B, C, D
    blocks = [[(i, g[x], g[x + 1]) for i, g in enumerate(groups)] for x in (0, 2)]
    hits = join_blocks((table_a, table_s), *blocks, pair_bound, stats)  # instance, 4 rows
    joined = np.concatenate([table_a.rows[hits[:, 1:2]], table_s.rows[hits[:, 2:]]], axis=1)
    failed = paf_sums(joined).any(axis=1)
    if failed.any():
        bad = joined[np.argmax(failed)].tolist()
        raise InternalError(
            f"joined quad fails the PAF certificate: {DefiningQuad(*map(tuple, bad))}")
    counts = np.bincount(hits[:, 0], minlength=len(instances))
    found = [sorted(DefiningQuad(*map(tuple, quad)) for quad in block.tolist())
             for block in np.split(joined, np.cumsum(counts)[:-1])]
    return found, dict(stats)
