"""Uncompression: every quad of defining rows above one compressed quadruple.

This is the compression/uncompression scheme of Đoković and Kotsireas
(Compression of periodic complementary sequences and applications, Des.
Codes Cryptogr. 2015), run with matching's exact PAF-key quad join
(join_quads) — one join at two lengths:

  (i)   enumerate the preimages of compressed rows directly.  Entry k of a
        compression is x_k + x_{k+m} + x_{k+2m}; the mirror x_j = ±x_{n−j}
        ties group k to group m−k, so only groups 0..(m−1)/2 are free.
        Group 0 holds x_0 = +1 and x_{2m} = ±x_m: a skew row has 2 choices
        there, a symmetric row is forced.  Every other group has 1 choice
        when |c′_k| = 3 and 3 choices when |c′_k| = 1.  A row's preimages
        are the mixed-radix numbers over its groups' choices, the last
        group varying fastest; a row whose mirror groups disagree
        (c′_{m−k} ≠ ±c′_k) has none;
  (ii)  build one preimage table per skewness for all the distinct
        compressed rows of a run (preimage_table), in blocks of
        _ROW_BLOCK rows: keep the rows inside the row PSD bound (a float
        filter, optional) and store each kept row with its PSD, PAF table
        and packed PAF key (PAF(0) = n bounds every other PAF value of a
        ±1 row), in CSR form — row r's preimages are lines
        offsets[r]..offsets[r+1] of flat arrays;
  (iii) join the four table slices of each instance with join_quads over
        the ordered A×B and C×D products.  Every quad it returns must pass
        the PAF certificate; a failure is a bug: InternalError.

The pair screen reads only the PSD planes k ≢ 0 (mod 3).  PSD_X(3k′) =
PSD_X′(k′) is the same for every preimage of X′, and matching's compressed
screen has already bounded those sums; dropping them keeps every pair the
full profile keeps.  The row filter reads every plane.

C×D is the ordered product even when C′ = D′, so the quads found for one
instance are exactly the certified models of its SAT encoding (satsearch,
kept as the reference and for DIMACS export).
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InternalError
from .matching import JoinSide, join_quads, packed_keys, paf_matrix
from .seqcore import CompressedQuad, DefiningQuad
from .spectral import EPS, mirror_psd, paf_certificate

#: Preimage rows per block while a table is built, so its temporaries stay small.
_ROW_BLOCK = 4096

#: The eight ±1 triples (x_k, x_{k+m}, x_{k+2m}) one compression group can take.
_TRIPLES = np.array(list(product((1, -1), repeat=3)), dtype=np.int8)


def _choice_table() -> tuple[np.ndarray, np.ndarray]:
    """The triples a group may take, as [value, choice, 3], and their counts.

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
    return table, count


_CHOICES, _CHOICE_COUNTS = _choice_table()


class PreimageTable(NamedTuple):
    """The preimages of R compressed rows of one skewness, in CSR form: the
    preimages of compressed row r are lines offsets[r]..offsets[r+1] of the
    flat arrays."""

    offsets: np.ndarray  # (R + 1) int64
    rows: np.ndarray     # (N × n) int8
    psd: np.ndarray      # (F′ × N) float64, planes k ≢ 0 (mod 3) of k = 0..⌊n/2⌋
    paf: np.ndarray      # (N × (⌊n/2⌋ + 1)) int16
    keys: np.ndarray     # (N) int64 packed PAF keys

    def side(self, r: int) -> JoinSide:
        """Compressed row r's preimages as one join_quads side (views)."""
        lo, hi = self.offsets[r], self.offsets[r + 1]
        return self.psd[:, lo:hi], self.paf[lo:hi], self.keys[lo:hi]


def preimages(crow: Sequence[int], skew: bool) -> np.ndarray:
    """Every skew (or symmetric) ±1 row with first entry +1 that
    3-compresses to crow, one per line of a (count × 3m) int8 array: the
    unfiltered preimage_table of crow alone."""
    return preimage_table(np.array([crow]), skew, bound=np.inf, row_filter=False).rows


def preimage_table(
    crows: np.ndarray, skew: bool, *, bound: float, row_filter: bool = True
) -> PreimageTable:
    """The preimages of every row of an (R × m) array of compressed rows,
    with their PSD, PAF tables and packed keys; with row_filter, only the
    rows whose PSD stays within bound at every k.

    Two passes of _ROW_BLOCK rows: the first enumerates and filters the rows,
    the second fills the other columns in place, so of the whole table only
    the int8 rows are ever copied (joined from their blocks).
    """
    layout = _layout(crows, skew)
    total = layout[-1][-1]  # the last offset: every preimage, unfiltered
    n = 3 * crows.shape[1]
    kept = np.zeros(len(crows), dtype=np.int64)
    blocks = []
    for lo in range(0, total or 1, _ROW_BLOCK):  # one empty block if none
        owner, rows = _preimage_rows(layout, skew, lo, min(lo + _ROW_BLOCK, total))
        if row_filter:
            keep = (mirror_psd(rows, skew) <= bound).all(axis=1)
            owner, rows = owner[keep], rows[keep]
        kept += np.bincount(owner, minlength=len(crows))
        blocks.append(rows)
    rows = np.concatenate(blocks)
    del blocks
    planes = np.flatnonzero(np.arange(n // 2 + 1) % 3)  # k ≢ 0 (mod 3)
    psd = np.empty((len(planes), len(rows)))
    paf = np.empty((len(rows), n // 2 + 1), dtype=np.int16)
    keys = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        psd[:, block] = mirror_psd(rows[block], skew)[:, planes].T
        paf[block] = paf_matrix(rows[block].astype(np.int16))  # |PAF(k)| ≤ PAF(0) = n
        keys[block] = packed_keys(paf[block], n)
    return PreimageTable(np.concatenate([[0], np.cumsum(kept)]), rows, psd, paf, keys)


def _layout(crows: np.ndarray, skew: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per compressed row and free group k = 0..(m−1)/2, the _CHOICES index
    and the mixed-radix stride (the last group varies fastest); and the CSR
    offsets of the rows' preimages, counting 0 for a row whose mirror groups
    disagree."""
    m = crows.shape[1]
    free = (m + 1) // 2
    base = np.full(free, 8)
    base[0] = 0 if skew else 4
    value = base + (3 - crows[:, :free]) // 2
    count = _CHOICE_COUNTS[value]
    stride = np.ones_like(count)
    stride[:, :-1] = np.cumprod(count[:, :0:-1], axis=1)[:, ::-1]
    mirrored = crows[:, m - np.arange(1, free)] == (-1 if skew else 1) * crows[:, 1:free]
    total = count.prod(axis=1) * mirrored.all(axis=1)
    return value, stride, np.concatenate([[0], np.cumsum(total)])


def _preimage_rows(
    layout: tuple[np.ndarray, np.ndarray, np.ndarray], skew: bool, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lines lo..hi of the flat preimage list of a _layout, as (the index of
    each line's compressed row, the (hi − lo) × n int8 rows)."""
    value, stride, offsets = layout
    free = value.shape[1]
    m = 2 * free - 1
    line = np.arange(lo, hi)
    owner = np.searchsorted(offsets, line, side="right") - 1
    value = value[owner]
    digit = (line - offsets[owner])[:, None] // stride[owner] % _CHOICE_COUNTS[value]
    triples = _CHOICES[value, digit]  # [line, group, 3]
    pos = np.arange(free)[:, None] + m * np.arange(3)  # group k: k, k + m, k + 2m
    rows = np.empty((hi - lo, 3 * m), dtype=np.int8)
    rows[:, pos.ravel()] = triples.reshape(len(line), pos.size)
    # group m − k mirrors group k: x_{n−j} = ±x_j; group 0 mirrors itself
    rows[:, (3 * m - pos[1:]).ravel()] = (-1 if skew else 1) * triples[:, 1:].reshape(
        len(line), pos.size - 3)
    return owner, rows


def uncompress(
    cq: CompressedQuad,
    *,
    eps: float = EPS,
    row_filter: bool = True,
    pair_filter: bool = True,
) -> list[DefiningQuad]:
    """All certified quads whose 3-compression is cq: uncompress_all([cq])."""
    found, _ = uncompress_all([cq], eps=eps, row_filter=row_filter, pair_filter=pair_filter)
    return found[0]


def uncompress_all(
    instances: Sequence[CompressedQuad],
    *,
    eps: float = EPS,
    row_filter: bool = True,
    pair_filter: bool = True,
) -> tuple[list[list[DefiningQuad]], dict[str, int]]:
    """The certified quads of each instance, from one preimage table per
    skewness over the distinct compressed rows of all instances.

    Returns the quads of each instance and the summed join_quads counters
    pairs_ab, pairs_cd and key_hits.
    """
    stats = Counter(pairs_ab=0, pairs_cd=0, key_hits=0)
    if not instances:
        return [], dict(stats)
    n = 3 * instances[0].m
    bound = 4 * n + eps
    quads = np.array([cq.rows() for cq in instances])  # [instance, A/B/C/D, entry]
    sk, a_index = np.unique(quads[:, 0], axis=0, return_inverse=True)
    sy, bcd_index = np.unique(quads[:, 1:].reshape(-1, n // 3), axis=0, return_inverse=True)
    table_a = preimage_table(sk, True, bound=bound, row_filter=row_filter)
    table_bcd = preimage_table(sy, False, bound=bound, row_filter=row_filter)
    tables = (table_a, table_bcd, table_bcd, table_bcd)
    found: list[list[DefiningQuad]] = []
    for index in np.column_stack([a_index.ravel(), bcd_index.reshape(-1, 3)]).tolist():
        sides = [table.side(r) for table, r in zip(tables, index)]
        if any(len(keys) == 0 for _, _, keys in sides):
            found.append([])
            continue
        hits = join_quads(*sides, bound, pair_filter=pair_filter, stats=stats)
        rows = [table.rows[table.offsets[r] + i].tolist()
                for table, r, i in zip(tables, index, hits)]
        found.append([DefiningQuad(*map(tuple, quad)) for quad in zip(*rows)])
        for quad in found[-1]:
            if not paf_certificate(quad):
                raise InternalError(f"joined quad fails the PAF certificate: {quad}")
    return found, dict(stats)
