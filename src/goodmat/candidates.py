"""Candidate row generation: a compressed-first sweep with PSD filtering.

For each of the 2^d free-entry assignments X, the skew row A = (1, X, −rev X)
and the symmetric row B = (1, X, rev X) are the defining rows.  compress3(A)
enters s_sk iff PSD_A(k) ≤ 4n + EPS for all k; compress3(B) enters s_sy iff it
passes the same PSD bound AND rowsum(B) occurs as a component of some signed
rowsum triple.  Both sets are deduplicated by exact entrywise equality only —
equivalence-level reduction happens later, at the compressed-quad stage.

The sweep runs over compressed rows (Đoković and Kotsireas, Des. Codes
Cryptogr. 2015).  Entry k of a compression is x_k + x_{k+m} + x_{k+2m}; the
mirror x_{n−j} = ±x_j ties group k to group m − k, so only groups
0..(m−1)/2 are free.  Group 0 holds x_0 = +1 and x_{2m} = ±x_m: its image is
1 with 2 preimage choices in a skew row, 3 or −1 with 1 in a symmetric row.
Every other group has 1 choice when |c′_k| = 3 and 3 when |c′_k| = 1.  So:

  (i)   enumerate every image row (4^((m−1)/2) skew, twice as many
        symmetric), _ROW_BLOCK at a time;
  (ii)  screen each by its own PSD at length m and by rowsum, which drops no
        row with a good preimage X: PSD_X(3k′) = PSD_X′(k′) and
        rowsum(X) = rowsum(X′);
  (iii) keep a survivor iff one of its preimages passes the full PSD bound,
        sought from its middle one (count // 2, mod count) in rounds of
        doubling width from _FIRST_ROUND preimages until one passes or none
        is left (the start and the rounds only order the search).

A row's preimages are the mixed-radix numbers over its groups' choices, the
last group varying fastest; uncompression uses the same enumerator.  They are
screened from their choice triples (_choice_maps), and only the rows that
uncompression keeps are built.  The float masks only screen.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

from .diophantine import RowsumTriple, rowsum_components
from .errors import InvalidInputError
from .seqcore import Row
from .spectral import half_basis, mirror_psd, psd_bound

#: Compressed rows per screen block, and preimage rows per block of lines.
_ROW_BLOCK = 4096

#: Preimages tried per survivor in the first witness round.
_FIRST_ROUND = 1

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


@dataclass(frozen=True)
class CandidateSets:
    """Compressed candidate rows surviving step 2: s_sk skew, s_sy symmetric."""

    s_sk: frozenset[Row]
    s_sy: frozenset[Row]
    n: int
    m: int


def check_order(n: int) -> None:
    """InvalidInputError unless n is odd, ≥ 3, divisible by 3 and n/3 ≤ 31,
    the most base-4 digits an int64 row code (equiv.row_codes) holds."""
    if n < 3 or n % 2 == 0 or n % 3 != 0:
        raise InvalidInputError(f"order must be odd, >= 3 and divisible by 3, got {n}")
    if n // 3 > 31:
        raise InvalidInputError(f"row length {n // 3} exceeds 31, all an int64 row code holds")


def generate_candidates(
    n: int,
    rowsums: frozenset[RowsumTriple],
    *,
    psd_filter: bool = True,
    rowsum_filter: bool = True,
) -> CandidateSets:
    """Run the compressed-first sweep for order n (check_order).

    psd_filter=False sweeps against the bound +inf, which every row meets;
    rowsum_filter=False admits every rowsum."""
    check_order(n)
    m = n // 3
    if not rowsums:
        return CandidateSets(frozenset(), frozenset(), n, m)
    bound = psd_bound(n, psd_filter)
    allowed = sorted(rowsum_components(rowsums)) if rowsum_filter else None
    return CandidateSets(_sweep(m, True, bound, None), _sweep(m, False, bound, allowed), n, m)


def _sweep(m: int, skew: bool, bound: float, rowsums: list[int] | None) -> frozenset[Row]:
    """The compressed rows of one skewness with a preimage whose PSD stays
    within bound at every k and, unless rowsums is None, whose rowsum is one
    of rowsums."""
    free = (m - 1) // 2
    total = (1 if skew else 2) << 2 * free  # group 0 choices × 4 per free group
    kept = []
    for lo in range(0, total, _ROW_BLOCK):
        crows = _image_rows(np.arange(lo, min(lo + _ROW_BLOCK, total)), m, skew)
        keep = (mirror_psd(crows, skew) <= bound).all(axis=1)
        if rowsums is not None:
            keep &= np.isin(crows.sum(axis=1, dtype=np.int64), rowsums)
        crows = crows[keep]
        kept.append(crows[_witnessed(crows, skew, bound)])
    return frozenset(map(tuple, np.concatenate(kept).tolist()))


def _image_rows(index: np.ndarray, m: int, skew: bool) -> np.ndarray:
    """Compressed image rows number `index`: base-4 digit k − 1 gives free
    group k the value 3 − 2·digit, the bit above them picks 3 or −1 for B′_0."""
    free = (m - 1) // 2
    rows = np.empty((len(index), m), dtype=np.int8)
    rows[:, 0] = 1 if skew else 3 - 4 * (index >> 2 * free)
    rows[:, 1 : free + 1] = 3 - 2 * ((index[:, None] >> 2 * np.arange(free)) & 3)
    rows[:, : free : -1] = (-1 if skew else 1) * rows[:, 1 : free + 1]
    return rows


def _witnessed(crows: np.ndarray, skew: bool, bound: float) -> np.ndarray:
    """Which compressed rows have a preimage whose PSD stays within bound at
    every k: the pending rows' next preimages, from each row's middle one
    (count // 2, wrapping round mod count), in rounds of doubling width."""
    layout = _layout(crows, skew)
    count = layout[2]
    found = np.zeros(len(crows), dtype=bool)
    pending = np.flatnonzero(count)
    start, width = 0, _FIRST_ROUND
    while len(pending):
        take = np.minimum(count[pending] - start, width)
        first = count[pending] // 2 + start
        for owner, _ in _preimage_blocks(layout, skew, bound, pending, take, first):
            found[owner] = True
        start, width = start + width, 2 * width
        pending = pending[~found[pending] & (count[pending] > start)]
    return found


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


def _preimage_blocks(
    layout: tuple[np.ndarray, np.ndarray, np.ndarray], skew: bool, bound: float,
    owners: np.ndarray, take: np.ndarray, first: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Preimages first[i]..first[i] + take[i] − 1 (mod its count) of
    compressed row owners[i] of a _layout, for every i, in blocks of
    _ROW_BLOCK lines (at least one block): per block, (each kept line's
    compressed row, its int8 triples, group g's at 3g..3g + 2).  A line is
    kept iff its PSD stays within bound at every k, from its triples times
    the basis of _choice_maps: 1 + proj² skew, (1 + proj)² symmetric."""
    value, stride, _ = layout
    basis = _choice_maps(2 * value.shape[1] - 1, skew)[0]
    offsets = np.concatenate([[0], np.cumsum(take)])
    for lo in range(0, offsets[-1] or 1, _ROW_BLOCK):
        line = np.arange(lo, min(lo + _ROW_BLOCK, offsets[-1]))
        index = np.searchsorted(offsets, line, side="right") - 1
        owner = owners[index]
        local = first[index] + line - offsets[index]  # group 0's digit takes it mod count
        choice = 3 * value[owner] + local[:, None] // stride[owner] % _CHOICE_COUNTS[value[owner]]
        triples = np.take(_CHOICES, choice, axis=0).reshape(len(line), len(basis))
        proj = triples.astype(np.float64) @ basis
        keep = ((1 + proj**2 if skew else (1 + proj) ** 2) <= bound).all(axis=1)
        yield owner[keep], triples[keep]


def _preimage_rows(triples: np.ndarray, skew: bool) -> np.ndarray:
    """The (lines × n) int8 rows of _preimage_blocks' kept lines, gathered
    from their triples and the triples' negatives."""
    column = _choice_maps(2 * triples.shape[1] // 3 - 1, skew)[1]
    return np.concatenate([triples, -triples], axis=1)[:, column]


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
