"""Compressed-quadruple matching: the pair-filter + sort-join stage.

A compressed quadruple (A′, B′, C′, D′) ∈ s_sk × s_sy³ can belong to good
matrices only if Σ PSD(k) = 4n at every k, equivalently (exactly, in
integers): Σ PAF′(k) = 0 for 1 ≤ k < m together with the k = 0 identity
1 + row(B′)² + row(C′)² + row(D′)² = 4n.

Testing all |s_sy|³ combinations directly is wasteful, so:

  (i)   build the pair lists AB ⊆ s_sk × s_sy and CD ⊆ {(C′,D′) : C′ ≤ D′}
        that survive the pairwise PSD bound Σ PSD ≤ 4n + ε;
  (ii)  key AB by the integer vector (PAF_A′(k) + PAF_B′(k))_{k=1..⌊m/2⌋}
        and CD by its negation, so matching keys mean the four PAFs cancel
        at every 1 ≤ k < m (PAF(k) = PAF(m−k) covers the upper half);
  (iii) join equal keys: one lexsort over both key lists numbers the
        distinct keys, and every AB pair is expanded against the CD pairs
        of its number (join_equal_keys, which uncompression reuses at full
        length);
  (iv)  confirm each joined quadruple with the exact integer identity before
        emitting, in blocks of _EMIT_CHUNK hits, restoring both (C′, D′)
        orientations.  Quads are kept as rows of integer codes (equiv's row
        code), whose lexicographic order is quad_key order, so one
        np.unique yields the sorted set.

Keys are exact integer vectors compared column by column, never hashed or
packed, so the join is bit-exact at either length.  The pair filter is the
only approximate step and it only ever discards pairs whose PSD sum exceeds
the bound by more than ε — never a pair that can reach the exact equality.
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from .candidates import CandidateSets
from .equiv import decode_quads, row_codes
from .errors import InvalidInputError
from .seqcore import CompressedQuad, read_blocks, write_quads
from .spectral import EPS, mirror_psd, paf

PafKey = tuple[int, ...]

_PAIR_CHUNK = 128
_EMIT_CHUNK = 1 << 16


def paf_key(x: Sequence[int], y: Sequence[int]) -> PafKey:
    """Join key: PAF_x(k) + PAF_y(k) for k = 1..⌊m/2⌋, exact integers."""
    if len(x) != len(y):
        raise InvalidInputError("paf_key needs rows of equal length")
    return tuple(paf(x, k) + paf(y, k) for k in range(1, len(x) // 2 + 1))


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
    m = cands.m
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

    half = m // 2
    keys_ab = paf_sk[ab_i, 1 : half + 1] + paf_sy[ab_j, 1 : half + 1]
    keys_cd = -(paf_sy[cd_i, 1 : half + 1] + paf_sy[cd_j, 1 : half + 1])
    hit_ab, hit_cd = join_equal_keys(keys_ab, keys_cd)

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


def join_equal_keys(keys_l: np.ndarray, keys_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with keys_l[i] == keys_r[j], compared exactly.

    One lexsort over both sides gives each distinct key a group id; each left
    row then pairs with the right rows of its group.  Zero-width keys (m = 1)
    are all equal, so everything joins.
    """
    nl = len(keys_l)
    keys = np.concatenate([keys_l, keys_r])
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    sorted_keys = keys[order]
    new_key = np.ones(len(keys), dtype=bool)
    new_key[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    group = np.cumsum(new_key)
    on_right = order >= nl
    right, right_group = order[on_right] - nl, group[on_right]  # by group, ascending
    left, left_group = order[~on_right], group[~on_right]
    lo = np.searchsorted(right_group, left_group, side="left")
    count = np.searchsorted(right_group, left_group, side="right") - lo
    shift = np.repeat(lo - np.cumsum(count) + count, count)  # output slot → right slot
    return np.repeat(left, count), right[shift + np.arange(len(shift))]


def _paf_matrix(rows: np.ndarray) -> np.ndarray:
    """Integer PAF values, one row per input row, columns k = 0..m-1."""
    m = rows.shape[1]
    twice = np.concatenate([rows, rows], axis=1)  # twice[:, k : k + m] is the shift by k
    return np.stack([(rows * twice[:, k : k + m]).sum(axis=1) for k in range(m)], axis=1)


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
