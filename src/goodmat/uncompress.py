"""Uncompression: every quad of defining rows above one compressed quadruple.

This is the compression/uncompression scheme of Đoković and Kotsireas
(Compression of periodic complementary sequences and applications, Des.
Codes Cryptogr. 2015), run with matching's exact PAF-key quad join
(join_quads) — one join at two lengths:

  (i)   enumerate the preimages of each compressed row directly.  Entry k of
        a compression is x_k + x_{k+m} + x_{k+2m}; the mirror x_j = ±x_{n−j}
        ties group k to group m−k, so only groups 0..(m−1)/2 are free.
        Group 0 holds x_0 = +1 and x_{2m} = ±x_m: a skew row has 2 choices
        there, a symmetric row is forced.  Every other group has 1 choice
        when |c′_k| = 3 and 3 choices when |c′_k| = 1;
  (ii)  keep the rows inside the row PSD bound (a float filter, optional)
        and cache each compressed row's preimages with their PSD, PAF table
        and packed PAF keys (PAF(0) = n bounds every other PAF value of a
        ±1 row);
  (iii) join the four preimage tables with join_quads over the ordered
        A×B and C×D products.  Every quad it returns must pass the PAF
        certificate; a failure is a bug: InternalError.

C×D is the ordered product even when C′ = D′, so the quads found for one
instance are exactly the certified models of its SAT encoding (satsearch,
kept as the reference and for DIMACS export).
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import InternalError
from .matching import join_quads, packed_keys, paf_matrix
from .seqcore import CompressedQuad, DefiningQuad, Row
from .spectral import EPS, mirror_psd, paf_certificate

#: The eight ±1 triples (x_k, x_{k+m}, x_{k+2m}) one compression group can take.
_TRIPLES = np.array(list(product((1, -1), repeat=3)), dtype=np.int64)

#: Per-run cache: (compressed row, is skew) →
#: (preimages, their PSD, their PAF, their packed PAF keys).
RowData = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
RowCache = dict[tuple[Row, bool], RowData]


def preimages(crow: Sequence[int], skew: bool) -> np.ndarray:
    """Every skew (or symmetric) ±1 row with first entry +1 that
    3-compresses to crow, one per line of a (count × 3m) int64 array."""
    m = len(crow)
    n = 3 * m
    sign = -1 if skew else 1
    rows = np.ones((1, n), dtype=np.int64)
    for k in range((m + 1) // 2):
        choice = _TRIPLES[_TRIPLES.sum(axis=1) == crow[k]]
        if k == 0:  # x_0 = +1, and index m mirrors onto 2m
            choice = choice[(choice[:, 0] == 1) & (choice[:, 2] == sign * choice[:, 1])]
        picked = np.tile(choice, (len(rows), 1))
        rows = np.repeat(rows, len(choice), axis=0)
        pos = np.array([k, k + m, k + 2 * m])
        rows[:, pos] = picked
        if k > 0:
            rows[:, n - pos] = sign * picked
    # groups m−k were filled by mirroring; keep the rows they compress right
    compressed = rows[:, :m] + rows[:, m : 2 * m] + rows[:, 2 * m :]
    return rows[(compressed == np.asarray(crow)).all(axis=1)]


def uncompress(
    cq: CompressedQuad,
    *,
    eps: float = EPS,
    row_filter: bool = True,
    pair_filter: bool = True,
    cache: Optional[RowCache] = None,
    stats: Optional[Counter] = None,
) -> list[DefiningQuad]:
    """All certified quads whose 3-compression is cq.

    stats, when given, gains join_quads' counters pairs_ab, pairs_cd and
    key_hits.
    """
    n = 3 * cq.m
    bound = 4 * n + eps
    if cache is None:
        cache = {}
    blocks = [
        _row_data(crow, r == 0, bound, row_filter, cache)
        for r, crow in enumerate(cq.rows())
    ]
    if any(len(rows) == 0 for rows, *_ in blocks):
        return []
    hits = join_quads(*(data[1:] for data in blocks), bound, pair_filter=pair_filter,
                      stats=stats)
    found: list[DefiningQuad] = []
    for quad in zip(*(rows[i].tolist() for (rows, *_), i in zip(blocks, hits))):
        quad = DefiningQuad(*map(tuple, quad))
        if not paf_certificate(quad):
            raise InternalError(f"joined quad fails the PAF certificate: {quad}")
        found.append(quad)
    return found


def uncompress_all(
    instances: Sequence[CompressedQuad],
    *,
    eps: float = EPS,
    row_filter: bool = True,
    pair_filter: bool = True,
) -> tuple[list[list[DefiningQuad]], dict[str, int]]:
    """uncompress for each instance in turn, sharing one row cache.

    Returns the quads of each instance and the summed join counters.
    """
    cache: RowCache = {}
    stats = Counter(pairs_ab=0, pairs_cd=0, key_hits=0)
    found = [
        uncompress(cq, eps=eps, row_filter=row_filter, pair_filter=pair_filter,
                   cache=cache, stats=stats)
        for cq in instances
    ]
    return found, dict(stats)


def _row_data(
    crow: Row, skew: bool, bound: float, row_filter: bool, cache: RowCache
) -> RowData:
    hit = cache.get((crow, skew))
    if hit is None:
        rows = preimages(crow, skew)
        psd = mirror_psd(rows, skew)
        if row_filter:
            keep = (psd <= bound).all(axis=1)
            rows, psd = rows[keep], psd[keep]
        paf = paf_matrix(rows)
        key = packed_keys(paf, rows.shape[1])  # |PAF(k)| ≤ PAF(0) = n
        hit = cache[crow, skew] = (rows, psd, paf, key)
    return hit
