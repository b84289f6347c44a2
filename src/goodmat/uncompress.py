"""Uncompression: every quad of defining rows above one compressed quadruple.

This is the compression/uncompression scheme of Đoković and Kotsireas
(Compression of periodic complementary sequences and applications, Des.
Codes Cryptogr. 2015), run with matching's exact PAF-key quad join
(join_quads) — one join at two lengths:

  (i)   enumerate the preimages of compressed rows directly, with the
        candidate sweep's mixed-radix enumerator (candidates._preimage_rows);
  (ii)  build one preimage table per skewness for all the distinct
        compressed rows of a run (preimage_table), in blocks of
        _ROW_BLOCK rows: keep the rows inside the row PSD bound (a float
        filter) and store each kept row with its PSD, PAF table and packed
        PAF key (PAF(0) = n bounds every other PAF value of a ±1 row), in
        CSR form — row r's preimages are lines offsets[r]..offsets[r+1] of
        flat arrays;
  (iii) join the four table slices of each instance with join_quads over
        the ordered A×B and C×D products.  Every quad it returns must pass
        the PAF certificate, checked for a whole run in one exact integer
        pass (spectral.paf_sums); a failure is a bug: InternalError.

The pair screen reads only the PSD planes k ≢ 0 (mod 3).  PSD_X(3k′) =
PSD_X′(k′) is the same for every preimage of X′, and matching's compressed
screen has already bounded those sums; dropping them keeps every pair the
full profile keeps.  The row filter reads every plane.  uncompress_all turns
each disabled filter into the bound +inf, which every row and pair meets.

C×D is the ordered product even when C′ = D′, so the quads found for one
instance are exactly the certified models of its SAT encoding (satsearch,
kept as the reference and for DIMACS export).
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from .candidates import _ROW_BLOCK, _layout, _preimage_blocks
from .errors import InternalError
from .matching import JoinSide, join_quads, packed_keys, paf_matrix
from .seqcore import CompressedQuad, DefiningQuad
from .spectral import EPS, mirror_psd, paf_sums


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
    return preimage_table(np.array([crow]), skew, bound=np.inf).rows


def preimage_table(crows: np.ndarray, skew: bool, *, bound: float) -> PreimageTable:
    """The preimages of every row of an (R × m) array of compressed rows
    whose PSD stays within bound at every k, with their PSD, PAF tables and
    packed keys.

    Two passes of _ROW_BLOCK rows: the first enumerates and filters the rows,
    the second fills the other columns in place, so of the whole table only
    the int8 rows are ever copied (joined from their blocks).
    """
    layout = _layout(crows, skew)
    n = 3 * crows.shape[1]
    kept = np.zeros(len(crows), dtype=np.int64)
    blocks = []
    for owner, rows in _preimage_blocks(layout, skew, bound, np.arange(len(crows)), layout[2]):
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


def uncompress_all(
    instances: Sequence[CompressedQuad],
    *,
    row_filter: bool = True,
    pair_filter: bool = True,
) -> tuple[list[list[DefiningQuad]], dict[str, int]]:
    """The certified quads of each instance, from one preimage table per
    skewness over the distinct compressed rows of all instances.

    Returns the quads of each instance, sorted (the join leaves their order
    unspecified), and the summed join_quads counters pairs_ab, pairs_cd and
    key_hits.  A disabled row or pair filter is the bound +inf.
    """
    stats = Counter(pairs_ab=0, pairs_cd=0, key_hits=0)
    if not instances:
        return [], dict(stats)
    n = 3 * instances[0].m
    row_bound = 4 * n + EPS if row_filter else np.inf
    pair_bound = 4 * n + EPS if pair_filter else np.inf
    quads = np.array([cq.rows() for cq in instances])  # [instance, A/B/C/D, entry]
    sk, a_index = np.unique(quads[:, 0], axis=0, return_inverse=True)
    sy, bcd_index = np.unique(quads[:, 1:].reshape(-1, n // 3), axis=0, return_inverse=True)
    table_a = preimage_table(sk, True, bound=row_bound)
    table_bcd = preimage_table(sy, False, bound=row_bound)
    tables = (table_a, table_bcd, table_bcd, table_bcd)
    blocks = []  # per instance, its quads as a (count × 4 × n) int8 array
    for index in np.column_stack([a_index.ravel(), bcd_index.reshape(-1, 3)]).tolist():
        sides = [table.side(r) for table, r in zip(tables, index)]
        if any(len(keys) == 0 for _, _, keys in sides):
            blocks.append(np.empty((0, 4, n), dtype=np.int8))
            continue
        hits = join_quads(*sides, pair_bound, stats=stats)
        blocks.append(np.stack([table.rows[table.offsets[r] + i]
                                for table, r, i in zip(tables, index, hits)], axis=1))
    joined = np.concatenate(blocks)
    failed = paf_sums(joined).any(axis=1)
    if failed.any():
        bad = joined[np.argmax(failed)].tolist()
        raise InternalError(
            f"joined quad fails the PAF certificate: {DefiningQuad(*map(tuple, bad))}")
    found = [sorted(DefiningQuad(*map(tuple, quad)) for quad in block.tolist())
             for block in blocks]
    return found, dict(stats)
