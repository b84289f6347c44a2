"""Compressed-quadruple matching: the pair-filter + sort-join stage.

A compressed quadruple (A′, B′, C′, D′) ∈ s_sk × s_sy³ can belong to good
matrices only if Σ PSD(k) = 4n at every k, equivalently (exactly, in
integers): Σ PAF′(k) = 0 for 1 ≤ k < m together with the k = 0 identity
1 + row(B′)² + row(C′)² + row(D′)² = 4n.

Testing all |s_sy|³ combinations directly is wasteful, so:

  (i)   build the pair lists AB ⊆ s_sk × s_sy and CD ⊆ {(C′,D′) : C′ ≤ D′}
        that survive the pairwise PSD bound Σ PSD ≤ 4n + ε;
  (ii)  key AB by the packed integer P_A′ + P_B′ and CD by −(P_C′ + P_D′),
        where P packs PAF(1..K) of one row (packed_keys below), so equal keys
        mean PAF_A′ + PAF_B′ + PAF_C′ + PAF_D′ = 0 at k = 1..K;
  (iii) join equal keys (join_equal_keys, which uncompression reuses at full
        length): sort one side, and every AB pair is expanded against the
        run of CD pairs that carries its key;
  (iv)  confirm each joined quadruple with the exact integer identity — the
        rowsum identity and the full PAF sum at k = 1..⌊m/2⌋, which covers
        the columns past K and, by PAF(k) = PAF(m−k), the upper half —
        before emitting, in blocks of _EMIT_CHUNK hits, restoring both
        (C′, D′) orientations.  Quads are kept as rows of integer codes
        (equiv's row code), whose lexicographic order is quad_key order, so
        one np.unique yields the sorted set.

Packing is exact, not hashing.  Cauchy–Schwarz bounds |PAF(k)| by PAF(0),
so with B the largest PAF(0) in the tables, every column of a pair sum lies
in [−2B, 2B], a complete set of balanced digits for the radix R = 4B + 1.
P_x + P_y is therefore the unique balanced base-R number of the pair's first
K columns, and equal packed keys mean equal columns 1..K.  K is the largest
width with R^K < 2^62, so no sum of two keys overflows int64.  The pair
filter is the only approximate step and it only ever discards pairs whose
PSD sum exceeds the bound by more than ε — never a pair that can reach the
exact equality.
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from .candidates import CandidateSets
from .equiv import decode_quads, row_codes
from .errors import InvalidInputError
from .seqcore import CompressedQuad, read_blocks, write_quads
from .spectral import EPS, mirror_psd

_PAIR_CHUNK = 128
_EMIT_CHUNK = 1 << 16


def match_quadruples(
    cands: CandidateSets,
    n: int,
    *,
    eps: float = EPS,
    pair_filter: bool = True,
) -> list[CompressedQuad]:
    """All compressed quadruples satisfying the exact matching identity.

    Returns a sorted duplicate-free list; every ordered placement that
    satisfies the identity is present (downstream dedup reduces these to
    equivalence-class representatives).
    """
    return decode_quads(match_codes(cands, n, eps=eps, pair_filter=pair_filter), cands.m)


def match_codes(
    cands: CandidateSets,
    n: int,
    *,
    eps: float = EPS,
    pair_filter: bool = True,
) -> np.ndarray:
    """match_quadruples as the sorted, unique (N × 4) array of row codes."""
    if n != cands.n:
        raise InvalidInputError(f"candidate sets were generated for n={cands.n}, not {n}")
    if not cands.s_sk or not cands.s_sy:
        return np.empty((0, 4), dtype=np.int64)
    sk_arr = np.array(sorted(cands.s_sk), dtype=np.int64)
    sy_arr = np.array(sorted(cands.s_sy), dtype=np.int64)
    code_sk, code_sy = row_codes(sk_arr), row_codes(sy_arr)
    paf_sk = _paf_matrix(sk_arr)
    paf_sy = _paf_matrix(sy_arr)
    rs_sy = sy_arr.sum(axis=1)

    bound = 4 * n + eps
    if pair_filter:
        # 3-compression keeps the mirror: A′[m−i] = −A′[i], B′[m−i] = B′[i]
        psd_sk = mirror_psd(sk_arr, skew=True)
        psd_sy = mirror_psd(sy_arr, skew=False)
        ab_i, ab_j = _filtered_pairs(psd_sk, psd_sy, bound, symmetric=False)
        cd_i, cd_j = _filtered_pairs(psd_sy, psd_sy, bound, symmetric=True)
    else:
        ab_i, ab_j = _all_pairs(len(sk_arr), len(sy_arr), symmetric=False)
        cd_i, cd_j = _all_pairs(len(sy_arr), len(sy_arr), symmetric=True)

    paf_bound = max(paf_sk[:, 0].max(), paf_sy[:, 0].max())  # ≥ |PAF(k)| by Cauchy–Schwarz
    key_sk, key_sy = packed_keys(paf_sk, paf_bound), packed_keys(paf_sy, paf_bound)
    hit_ab, hit_cd = join_equal_keys(key_sk[ab_i] + key_sy[ab_j], -(key_sy[cd_i] + key_sy[cd_j]))

    found = [np.empty((0, 4), dtype=np.int64)]
    for lo in range(0, len(hit_ab), _EMIT_CHUNK):
        ab, cd = hit_ab[lo : lo + _EMIT_CHUNK], hit_cd[lo : lo + _EMIT_CHUNK]
        ia, jb, ic, jd = ab_i[ab], ab_j[ab], cd_i[cd], cd_j[cd]
        # exact confirmation: k = 0 rowsum identity + the full PAF sums
        ok = 1 + rs_sy[jb] ** 2 + rs_sy[ic] ** 2 + rs_sy[jd] ** 2 == 4 * n
        total = paf_sk[ia] + paf_sy[jb] + paf_sy[ic] + paf_sy[jd]
        ok &= (total[:, 1:] == 0).all(axis=1)
        a, b = code_sk[ia[ok]], code_sy[jb[ok]]
        c, d = code_sy[ic[ok]], code_sy[jd[ok]]
        found += [np.stack([a, b, c, d], axis=1), np.stack([a, b, d, c], axis=1)]
    return np.unique(np.concatenate(found), axis=0)


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
    give the run of right rows it pairs with, expanded by repeat.
    """
    order = np.argsort(keys_r, kind="stable")
    sorted_r = keys_r[order]
    lo = np.searchsorted(sorted_r, keys_l, side="left")
    count = np.searchsorted(sorted_r, keys_l, side="right") - lo
    shift = np.repeat(lo - np.cumsum(count) + count, count)  # output slot → sorted slot
    return np.repeat(np.arange(len(keys_l)), count), order[shift + np.arange(len(shift))]


def _paf_matrix(rows: np.ndarray) -> np.ndarray:
    """Integer PAF values, one row per input row, columns k = 0..⌊len/2⌋."""
    m = rows.shape[1]
    shifts = (np.arange(m // 2 + 1)[:, None] + np.arange(m)) % m  # row k: j ↦ j + k
    return np.einsum("rj,rkj->rk", rows, rows[:, shifts])


def _all_pairs(nl: int, nr: int, *, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    if symmetric:
        return np.triu_indices(nl)
    i = np.repeat(np.arange(nl), nr)
    j = np.tile(np.arange(nr), nl)
    return i, j


def _filtered_pairs(
    psd_l: np.ndarray, psd_r: np.ndarray, bound: float, *, symmetric: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs whose summed PSD profile stays below the bound everywhere."""
    parts_i, parts_j = [], []
    for lo in range(0, len(psd_l), _PAIR_CHUNK):
        block = psd_l[lo : lo + _PAIR_CHUNK]
        ok = ((block[:, None, :] + psd_r[None, :, :]) <= bound).all(axis=2)
        ii, jj = np.nonzero(ok)
        ii = ii + lo
        if symmetric:
            keep = jj >= ii
            ii, jj = ii[keep], jj[keep]
        parts_i.append(ii)
        parts_j.append(jj)
    return np.concatenate(parts_i), np.concatenate(parts_j)


# ── persistence: one quadruple per record, four comma-separated rows ────────

def write_quadruples(fp: TextIO, quads: Sequence[CompressedQuad]) -> None:
    write_quads(fp, quads, fmt=lambda row: ",".join(map(str, row)))


def read_quadruples(fp: TextIO) -> list[CompressedQuad]:
    return [CompressedQuad(*block) for block in read_blocks(fp, _parse_compressed_row)]


def _parse_compressed_row(line: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in line.split(","))
