"""Compressed-quadruple matching, and the PAF-key quad join it shares with
uncompression.

A compressed quadruple (A′, B′, C′, D′) ∈ s_sk × s_sy³ can belong to good
matrices only if Σ PSD(k) = 4n at every k, equivalently (exactly, in
integers): Σ PAF′(k) = 0 for 1 ≤ k < m together with the k = 0 identity
1 + row(B′)² + row(C′)² + row(D′)² = 4n.

Testing all |s_sy|³ combinations directly is wasteful, so match_codes runs
the quad join — one join_table per side (plane-major PSD, PAF table, packed
keys), the pair screen (_screen_pairs), then packed-key join and exact PAF
confirmation (_join_pairs) — on A′×B′ ⊆ s_sk × s_sy and C′×D′ ⊆
s_sy × s_sy, partitioned by rowsum: only the partitions with
r_B ≤ r_C ≤ r_D that can meet the k = 0 identity are paired at all, and
that identity still confirms every hit.
Both identities and s_sy are symmetric in B′, C′, D′, so S_q is closed under
permuting them; match_codes emits one arrangement of each quad, and
all_arrangements expands these to S_q.  Quads are kept as rows of
integer codes (equiv's row code), whose lexicographic order is quad_key
order, so one unique_rows yields the sorted set.  Uncompression builds its
preimage tables with the same join_table and runs the same screen and join
on the full-length preimages of a batch of instances, slices of one
preimage table per run, and tags each pair with its instance (_join_pairs'
owners).

The pair screen (_screen_pairs) is plane-major: PSD tables hold one line
per frequency and one column per row, and for each chunk of _PAIR_CHUNK left
rows the planes' masks l + r ≤ bound are and-reduced over the leading
(frequency) axis.  Every element decision is exactly l + r ≤ bound, so the
screen keeps the same pairs whatever the layout; a side may carry fewer
planes (matching drops k = 0, which its rowsum partition fixes;
uncompression drops those its compressed screen has already bounded), and
the screen then reads only those.  A disabled pair filter is the bound +inf:
every PSD value is finite, so the screen then keeps every pair, in the same
row-major order.

Packing is exact, not hashing.  Cauchy–Schwarz bounds |PAF(k)| by PAF(0),
so with B the largest PAF(0) in the tables, every column of a pair sum lies
in [−2B, 2B], a complete set of balanced digits for the radix R = 4B + 1.
P_x + P_y is therefore the unique balanced base-R number of the pair's first
K columns, and equal packed keys mean equal columns 1..K.  K is the largest
width with R^K < 2^62, so no sum of two keys overflows int64.  The pair
screen is the only approximate step and it only ever discards pairs whose
PSD sum exceeds 4n by more than spectral.EPS — never a pair that can reach
the exact equality.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

import numpy as np

from .candidates import _ROW_BLOCK, CandidateSets
from .equiv import decode_quads, row_codes, row_key, unique_rows
from .errors import InvalidInputError
from .seqcore import CompressedQuad
from .spectral import EPS, mirror_psd

_PAIR_CHUNK = 128
_EMIT_CHUNK = 1 << 16

#: One table of _join_pairs: (PAF table, one line per row with columns
#: k = 0..⌊len/2⌋; packed PAF keys, one per row).
JoinSide = tuple[np.ndarray, np.ndarray]


def match_quadruples(
    cands: CandidateSets,
    n: int,
    *,
    pair_filter: bool = True,
) -> list[CompressedQuad]:
    """All compressed quadruples satisfying the exact matching identity.

    Returns a sorted duplicate-free list; every ordered placement that
    satisfies the identity is present (downstream dedup reduces these to
    equivalence-class representatives).
    """
    codes = match_codes(cands, n, pair_filter=pair_filter)
    return decode_quads(all_arrangements(codes), cands.m)


def all_arrangements(codes: np.ndarray) -> np.ndarray:
    """The full S_q from match_codes' representatives: every order of the
    B′, C′, D′ columns of an (N × 4) code array, sorted and unique."""
    orders = itertools.permutations((1, 2, 3))
    return unique_rows(np.concatenate([codes[:, (0, *order)] for order in orders]))


def match_codes(
    cands: CandidateSets,
    n: int,
    *,
    pair_filter: bool = True,
) -> np.ndarray:
    """The quads of match_quadruples with B′ ≤ C′ ≤ D′ in (rowsum, row code)
    order, as the sorted, unique (N × 4) array of row codes: exactly one
    rearrangement of each (all_arrangements restores S_q).  A′ is never
    moved, so a cut on the A′ rows stays exact.

    The join is partitioned by rowsum.  B′ rows are grouped by rowsum r_B,
    and each group's A′×B′ pairs are screened and keyed once, then joined
    against the C′×D′ pairs of every rowsum partition (both values present
    in s_sy) with r_B ≤ r_C ≤ r_D and 1 + r_B² + r_C² + r_D² = 4n — the
    upper triangle when r_C = r_D, the whole product otherwise.  A hit is
    kept if (r_B, B′) ≤ (r_C, C′), which only removes hits with r_B = r_C.
    Any quad outside these partitions fails the k = 0 identity, so no
    representative is lost, with or without the rowsum filter of the sweep,
    and peak memory is set by one group instead of all of S_q.  The k = 0
    identity is still checked on every hit, as the exact confirmation.
    Within a partition it also fixes the k = 0 PSD plane of every pair
    (1 + r_B² for A′×B′, r_C² + r_D² for C′×D′, both ≤ 4n), so the pair
    screens skip that plane.  pair_filter=False screens against the bound
    +inf, which keeps every pair.
    """
    if n != cands.n:
        raise InvalidInputError(f"candidate sets were generated for n={cands.n}, not {n}")
    if not cands.s_sk or not cands.s_sy:
        return np.empty((0, 4), dtype=np.int64)
    sk_arr = np.array(sorted(cands.s_sk), dtype=np.int64)
    sy_arr = np.array(sorted(cands.s_sy, key=row_key), dtype=np.int64)  # code order
    code_sk, code_sy = row_codes(sk_arr), row_codes(sy_arr)
    # the largest PAF(0) = Σ e² of either table: ≥ |PAF(k)| by Cauchy–Schwarz
    paf_bound = max(int((rows * rows).sum(axis=1).max()) for rows in (sk_arr, sy_arr))
    # 3-compression keeps the mirror: A′[m−i] = −A′[i], B′[m−i] = B′[i]
    planes = np.arange(1, cands.m // 2 + 1)
    psd_sk, *sk = join_table(sk_arr, True, planes, paf_bound)
    psd_sy, *sy = join_table(sy_arr, False, planes, paf_bound)
    bound = 4 * n + EPS if pair_filter else np.inf

    rs_sy = sy_arr.sum(axis=1)
    part = {r: np.flatnonzero(rs_sy == r) for r in np.unique(rs_sy).tolist()}
    found = [np.empty((0, 4), dtype=np.int64)]
    for rb, group in part.items():
        fits = [(rc, rd) for rc in part for rd in part
                if rb <= rc <= rd and 1 + rb * rb + rc * rc + rd * rd == 4 * n]
        if not fits:
            continue
        ab_i, ab_j = _screen_pairs(psd_sk, psd_sy[:, group], bound)
        cd = []
        for rc, rd in fits:
            cd_i, cd_j = _screen_pairs(psd_sy[:, part[rc]], psd_sy[:, part[rd]], bound,
                                       upper=rc == rd)
            cd.append((part[rc][cd_i], part[rd][cd_j]))
        cd_i, cd_j = map(np.concatenate, zip(*cd))
        ab_j = group[ab_j]
        hit_ab, hit_cd = _join_pairs(sk, sy, sy, sy, (ab_i, ab_j), (cd_i, cd_j))
        ia, jb, ic, jd = ab_i[hit_ab], ab_j[hit_ab], cd_i[hit_cd], cd_j[hit_cd]
        a, b, c, d = code_sk[ia], code_sy[jb], code_sy[ic], code_sy[jd]
        ok = 1 + rs_sy[jb] ** 2 + rs_sy[ic] ** 2 + rs_sy[jd] ** 2 == 4 * n  # k = 0
        ok &= (rs_sy[jb] < rs_sy[ic]) | (b <= c)
        found.append(np.stack([a[ok], b[ok], c[ok], d[ok]], axis=1))
    return unique_rows(np.concatenate(found))


def join_table(
    rows: np.ndarray, skew: bool, planes: np.ndarray, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the quad join reads of an (N × L) array of skew (or symmetric)
    mirror rows, filled in blocks of _ROW_BLOCK rows: the plane-major PSD on
    planes (one line per k of planes, for _screen_pairs), the int16 PAF table
    (columns k = 0..⌊L/2⌋) and the packed PAF keys with bound (packed_keys;
    one _join_pairs side is the table and the keys).

    Matching passes planes k ≥ 1 and the largest PAF(0) of its two tables,
    uncompression planes k ≢ 0 (mod 3) and PAF(0) = n.  int16 holds every
    PAF value, and every sum of four, of rows with entries in ±1, ±3 and
    length at most 93.
    """
    psd = np.empty((len(planes), len(rows)))
    paf = np.empty((len(rows), rows.shape[1] // 2 + 1), dtype=np.int16)
    keys = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        psd[:, block] = mirror_psd(rows[block], skew)[:, planes].T
        paf[block] = paf_matrix(rows[block].astype(np.int16))
        keys[block] = packed_keys(paf[block], bound)
    return psd, paf, keys


def _join_pairs(
    a: JoinSide,
    b: JoinSide,
    c: JoinSide,
    d: JoinSide,
    pairs_ab: tuple[np.ndarray, np.ndarray],
    pairs_cd: tuple[np.ndarray, np.ndarray],
    *,
    owners: Optional[tuple[np.ndarray, np.ndarray]] = None,
    stats: Optional[Counter] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The quad join on screened A×B and C×D index pairs into the tables a,
    b, c, d: the positions (p, q) in the two pair lists of every A×B pair p
    and C×D pair q whose four PAF rows sum to zero at every column k ≥ 1.

      (i)  key each A×B pair by P_a + P_b and each C×D pair by
           −(P_c + P_d), where P is the packed key of one row (packed_keys;
           all four tables packed with the same bound), and join equal keys
           (join_equal_keys): equal keys mean the PAF sums cancel at
           columns 1..K;
      (ii) confirm each hit, in blocks of _EMIT_CHUNK, with the full exact
           PAF sum, which covers the columns past K.  A hit that differs
           only there is expected and dropped.

    owners, when given, holds an instance id per A×B and per C×D pair, and
    hits between pairs of different instances are dropped before (ii).
    stats, when given, gains pairs_ab and pairs_cd (the pairs given) and
    key_hits (packed-key matches kept for the exact check).
    """
    (paf_a, key_a), (paf_b, key_b), (paf_c, key_c), (paf_d, key_d) = a, b, c, d
    (ab_i, ab_j), (cd_i, cd_j) = pairs_ab, pairs_cd
    hit_ab, hit_cd = join_equal_keys(key_a[ab_i] + key_b[ab_j], -(key_c[cd_i] + key_d[cd_j]))
    if owners is not None:
        same = owners[0][hit_ab] == owners[1][hit_cd]
        hit_ab, hit_cd = hit_ab[same], hit_cd[same]
    if stats is not None:
        stats.update(pairs_ab=len(ab_i), pairs_cd=len(cd_i), key_hits=len(hit_ab))
    found = [np.empty((2, 0), dtype=np.int64)]
    for lo in range(0, len(hit_ab), _EMIT_CHUNK):
        ab, cd = hit_ab[lo : lo + _EMIT_CHUNK], hit_cd[lo : lo + _EMIT_CHUNK]
        total = paf_a[ab_i[ab]] + paf_b[ab_j[ab]] + paf_c[cd_i[cd]] + paf_d[cd_j[cd]]
        found.append(np.stack([ab, cd])[:, (total[:, 1:] == 0).all(axis=1)])
    hit_ab, hit_cd = np.concatenate(found, axis=1)
    return hit_ab, hit_cd


def packed_keys(paf: np.ndarray, bound: int) -> np.ndarray:
    """One int64 per row of a PAF table (columns k = 0..⌊len/2⌋):
    Σ_{k=1..K} PAF(k)·R^(k−1).

    R = 4·bound + 1, where bound ≥ |PAF(k)| for every k ≥ 1 of every row
    (by Cauchy–Schwarz, any bound on PAF(0) is one), and K is the largest
    width ≤ ⌊len/2⌋ with R^K < 2^62.  Tables packed with the same bound and
    length share R and K, so the sum of any two of their keys is the exact
    balanced base-R number of the pair's first K PAF-sum columns.
    """
    radix = 4 * int(bound) + 1
    width = 0
    while width < paf.shape[1] - 1 and radix ** (width + 1) < 1 << 62:
        width += 1
    return paf[:, 1 : width + 1] @ radix ** np.arange(width, dtype=np.int64)


def join_equal_keys(keys_l: np.ndarray, keys_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with keys_l[i] == keys_r[j], for 1-D int64 keys.

    The right side is sorted once; both searchsorted bounds of each left key
    give the run of right rows it pairs with, expanded by repeat.  The order
    of the pairs within one left key's run is unspecified.
    """
    order = np.argsort(keys_r)
    sorted_r = keys_r[order]
    lo = np.searchsorted(sorted_r, keys_l, side="left")
    count = np.searchsorted(sorted_r, keys_l, side="right") - lo
    shift = np.repeat(lo - np.cumsum(count) + count, count)  # output slot → sorted slot
    return np.repeat(np.arange(len(keys_l)), count), order[shift + np.arange(len(shift))]


def paf_matrix(rows: np.ndarray) -> np.ndarray:
    """Integer PAF values, one row per input row, columns k = 0..⌊len/2⌋."""
    m = rows.shape[1]
    shifts = (np.arange(m // 2 + 1)[:, None] + np.arange(m)) % m  # row k: j ↦ j + k
    return np.einsum("rj,rkj->rk", rows, rows[:, shifts])


def _screen_pairs(
    psd_l: np.ndarray, psd_r: np.ndarray, bound: float, *, upper: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i ≤ j with upper) of two plane-major PSD tables whose
    summed PSD profile stays within bound on every plane, in row-major order.

    Each chunk of left rows meets every right row on every plane in one
    broadcast, and the planes' bool masks are and-reduced over the leading
    axis.  With no planes, or the bound +inf, every pair is kept.
    """
    parts_i, parts_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for lo in range(0, psd_l.shape[1], _PAIR_CHUNK):
        block = psd_l[:, lo : lo + _PAIR_CHUNK, None]
        ii, jj = np.nonzero(np.logical_and.reduce(block + psd_r[:, None, :] <= bound, axis=0))
        ii = ii + lo
        if upper:
            keep = jj >= ii
            ii, jj = ii[keep], jj[keep]
        parts_i.append(ii)
        parts_j.append(jj)
    return np.concatenate(parts_i), np.concatenate(parts_j)

