"""Uncompression: the quads of defining rows above one compressed quadruple,
one quad per orbit of the index maps that fix every compressed row.

This is the compression/uncompression scheme of Đoković and Kotsireas
(Compression of periodic complementary sequences and applications, Des.
Codes Cryptogr. 2015), run with matching's exact PAF-key quad join
(join_table and join_blocks) — one join at two lengths:

  (i)   enumerate the preimages of compressed rows with the candidate
        sweep's enumerator and screen (candidates._preimage_blocks): only
        those inside the row PSD bound (a float filter) are built as rows;
  (ii)  build one preimage table per skewness for all the distinct
        compressed rows of a run (preimage_table), _ROW_BLOCK lines at a
        time, and in the A table keep only the rows that are
        equiv.orbit_minimal under equiv.compression_units(n), whose
        docstring says why that is exact; the table is a join_table whose
        group r holds the kept preimages of compressed row r, with their
        PSD, PAF table and packed PAF key (PAF(0) = n bounds every other
        PAF value of a ±1 row);
  (iii) join every instance in one join_blocks call, which batches them:
        one block per instance and side, the ordered A×B and C×D products
        of the groups of its four compressed rows.  Every quad found must
        pass the PAF certificate, checked for a whole run in one exact
        integer pass (spectral.paf_sums); a failure is a bug: InternalError.

The pair screen reads only the PSD planes k ≢ 0 (mod 3).  PSD_X(3k′) =
PSD_X′(k′) is the same for every preimage of X′, and matching's compressed
screen has already bounded those sums; dropping them keeps every pair the
full profile keeps.  The row filter reads every plane.  uncompress_all turns
each disabled filter into the bound +inf, which every row and pair meets.
The quads found are exactly the certified models of the instance's SAT
encoding (satsearch, kept as the reference and for DIMACS export) whose A
is orbit-minimal.  C×D is the ordered product even when C′ = D′.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .candidates import _layout, _preimage_blocks, _preimage_rows
from .errors import InternalError
from .equiv import compression_units, orbit_minimal
from .matching import JoinTable, join_blocks, join_table
from .seqcore import CompressedQuad, DefiningQuad
from .spectral import paf_sums, psd_bound


def preimage_table(crows: np.ndarray, skew: bool, *, bound: float,
                   multipliers: Sequence[int] = ()) -> JoinTable:
    """The JoinTable of the preimages of an (R × m) array of compressed rows
    whose PSD stays within bound at every k and that are orbit_minimal under
    multipliers (all for none), group r those of row r.  Only the preimages
    inside bound are built as rows, _ROW_BLOCK lines at a time."""
    layout = _layout(crows, skew)
    kept, blocks = np.zeros(len(crows), dtype=np.int64), []
    owners = np.arange(len(crows))
    for owner, triples in _preimage_blocks(layout, skew, bound, owners, layout[2], 0 * owners):
        rows = _preimage_rows(triples, skew)
        if multipliers:  # an uncut block is kept as it is: a copy raises the peak RSS
            minimal = orbit_minimal(rows, multipliers)
            owner, rows = owner[minimal], rows[minimal]
        kept += np.bincount(owner, minlength=len(crows))
        blocks.append(rows)
    rows = np.concatenate(blocks)
    del blocks, layout  # freed before join_table allocates the other columns
    n = rows.shape[1]
    planes = np.flatnonzero(np.arange(n // 2 + 1) % 3)  # k ≢ 0 (mod 3)
    offsets = np.concatenate([[0], np.cumsum(kept)])
    return join_table(rows, skew, planes, n, offsets)  # |PAF| ≤ PAF(0) = n


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
    tables = (table_a, *[preimage_table(sy, False, bound=row_bound)] * 3)  # B, C, D share one
    groups = np.column_stack([a_index.ravel(), bcd_index.reshape(-1, 3)]).tolist()  # A, B, C, D
    blocks = [[(i, g[x], g[x + 1], False) for i, g in enumerate(groups)] for x in (0, 2)]
    hits = join_blocks(tables, *blocks, pair_bound, stats)  # instance and the four table rows
    joined = np.stack([t.rows[hits[:, s + 1]] for s, t in enumerate(tables)], axis=1)
    failed = paf_sums(joined).any(axis=1)
    if failed.any():
        bad = joined[np.argmax(failed)].tolist()
        raise InternalError(
            f"joined quad fails the PAF certificate: {DefiningQuad(*map(tuple, bad))}")
    counts = np.bincount(hits[:, 0], minlength=len(instances))
    found = [sorted(DefiningQuad(*map(tuple, quad)) for quad in block.tolist())
             for block in np.split(joined, np.cumsum(counts)[:-1])]
    return found, dict(stats)
