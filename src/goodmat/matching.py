"""Compressed-quadruple matching, and the PAF-key quad join it shares with
uncompression.

A compressed quadruple (A′, B′, C′, D′) ∈ s_sk × s_sy³ can belong to good
matrices only if Σ PSD(k) = 4n at every k, equivalently (exactly, in
integers): Σ PAF′(k) = 0 for 1 ≤ k < m together with the k = 0 identity
1 + row(B′)² + row(C′)² + row(D′)² = 4n.

Testing all |s_sy|³ combinations directly is wasteful, so match_codes runs
the quad join (join_blocks) over one join_table per skewness (rows,
plane-major PSD, PAF table) on A′×B′ ⊆ s_sk × s_sy and C′×D′ ⊆ s_sy × s_sy,
pairing only the rowsum groups of s_sy that can meet the k = 0 identity.
Both identities and s_sy are symmetric in B′, C′, D′, so S_q is closed under
permuting them; the join keeps one arrangement of each quad, and
all_arrangements expands these to S_q.  Quads are kept as rows of integer
codes (equiv's row code), whose lexicographic order is quad_key order, so
one unique_rows yields the sorted set.

join_blocks joins an A table and a symmetric one (B, C, D) over blocks, each
an owner and a group of each table, a batch of owners at a time: matching's
owners are the rowsum groups of B′, uncompression's its instances (groups:
one compressed row's preimages).  join_equal_keys, a sort-merge join,
yields hits in chunks.

The pair screen (_screen_blocks) is plane-major: PSD tables hold one line
per frequency and one column per row, and for each chunk of _PAIR_CHUNK left
rows of a block the planes' masks l + r ≤ bound are and-reduced over the
leading (frequency) axis.  Every element decision is exactly l + r ≤ bound,
so the screen keeps the same pairs whatever the layout; a side may carry
fewer planes (matching drops k = 0, which its rowsum groups fix;
uncompression drops those its compressed screen has already bounded), and
the screen then reads only those.  A disabled pair filter is the bound +inf:
every PSD value is finite, so the screen then keeps every pair, in the same
row-major order.

Packing is exact, not hashing.  Cauchy–Schwarz bounds |PAF(k)| by PAF(0),
so with B the largest PAF(0) of both tables, every column of a pair sum lies
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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .candidates import _ROW_BLOCK, CandidateSets
from .diophantine import signed_rowsums
from .equiv import decode_quads, orbit_minimal, row_codes, unique_rows
from .errors import InvalidInputError
from .seqcore import CompressedQuad
from .spectral import mirror_psd, paf_matrix, psd_bound

_PAIR_CHUNK = 128
_EMIT_CHUNK = 1 << 16

#: The summed A×B and C×D products of the owners one join_blocks batch joins.
_BATCH_PAIRS = 1 << 16


class JoinTable(NamedTuple):
    """N rows of one length L in G groups, group g rows offsets[g]..offsets[g+1]."""

    offsets: np.ndarray  # (G + 1) int64
    rows: np.ndarray     # (N × L) the rows
    psd: np.ndarray      # (F × N) float64, plane-major PSD on the screened planes
    paf: np.ndarray      # (N × (⌊L/2⌋ + 1)) int16 PAF table, columns k = 0..⌊L/2⌋


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
    multipliers: Sequence[int] = (),
) -> np.ndarray:
    """The quads of match_quadruples whose A′ is orbit_minimal under
    multipliers (all for none), with B′ ≤ C′ ≤ D′ in (rowsum, row code)
    order, as the sorted, unique (N × 4) array of row codes: exactly one
    rearrangement of each (all_arrangements restores S_q).  A′ is never
    moved, so the cut on the A′ rows stays exact.

    One join_blocks call on the sweep's int8 arrays, read as they are:
    cands.sy is sorted by (rowsum, row code) into one group per rowsum, and
    each B′ group r_B is an owner: its A′×B′ block (cands.sk, in sweep
    order, is one group) against the C′×D′ blocks of each triple
    r_B ≤ r_C ≤ r_D of signed_rowsums(n) with a group for all three.  The join keeps B′ ≤ C′ ≤ D′
    within a rowsum group, and rows of two groups are in rowsum order.  A
    row of s_sy has rowsum ≡ n (mod 4), the sign rule's residue, so these
    are all the groups with 1 + r_B² + r_C² + r_D² = 4n, and a quad outside
    them fails the k = 0 identity, with or without the sweep's rowsum
    filter.  A hit is kept if it meets the k = 0 identity, the exact check.
    A block also fixes the k = 0 PSD plane of its pairs (1 + r_B² for A′×B′,
    r_C² + r_D² for C′×D′, both ≤ 4n), so the screens skip that plane.
    pair_filter=False screens against the bound +inf, which keeps every pair.
    """
    if n != cands.n:
        raise InvalidInputError(f"candidate sets were generated for n={cands.n}, not {n}")
    sk_arr = cands.sk[orbit_minimal(cands.sk, multipliers)]  # no multipliers keep every row
    sy_arr = cands.sy[np.lexsort((row_codes(cands.sy), cands.sy.sum(axis=1)))]  # (rowsum, code)
    code_sk, code_sy, rs_sy = row_codes(sk_arr), row_codes(sy_arr), sy_arr.sum(axis=1)
    # 3-compression keeps the mirror: A′[m−i] = −A′[i], B′[m−i] = B′[i]
    planes = np.arange(1, cands.m // 2 + 1)
    sums, first = np.unique(rs_sy, return_index=True)
    tables = (join_table(sk_arr, True, planes, [0, len(sk_arr)]),
              join_table(sy_arr, False, planes, [*first, len(sy_arr)]))
    group = {rowsum: g for g, rowsum in enumerate(sums.tolist())}
    blocks_ab = [(g, 0, g) for g in group.values()]
    blocks_cd = [(group[x], group[y], group[z]) for x, y, z in sorted(signed_rowsums(n))
                 if {x, y, z} <= group.keys()]
    _, ia, jb, ic, jd = join_blocks(tables, blocks_ab, blocks_cd, psd_bound(n, pair_filter),
                                    Counter()).T
    ok = 1 + rs_sy[jb] ** 2 + rs_sy[ic] ** 2 + rs_sy[jd] ** 2 == 4 * n  # k = 0
    return unique_rows(np.stack([code_sk[ia], code_sy[jb], code_sy[ic], code_sy[jd]], axis=1)[ok])


def join_table(rows: np.ndarray, skew: bool, planes: np.ndarray,
               offsets: Sequence[int]) -> JoinTable:
    """The JoinTable of an (N × L) array of skew (or symmetric) mirror rows
    whose groups are rows offsets[g]..offsets[g+1], filled in blocks of
    _ROW_BLOCK rows: the plane-major PSD on planes (one line per k of
    planes) and the int16 PAF table.

    Matching passes planes k ≥ 1, uncompression planes k ≢ 0 (mod 3).
    int16 holds every PAF value, and every sum of four, of rows with entries
    in ±1, ±3 and length at most 93.
    """
    psd = np.empty((len(planes), len(rows)))
    paf = np.empty((len(rows), rows.shape[1] // 2 + 1), dtype=np.int16)
    for lo in range(0, len(rows), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        psd[:, block] = mirror_psd(rows[block], skew)[:, planes].T
        paf[block] = paf_matrix(rows[block])
    return JoinTable(np.asarray(offsets, dtype=np.int64), rows, psd, paf)


def join_blocks(
    tables: tuple[JoinTable, JoinTable],
    blocks_ab: Sequence[tuple],
    blocks_cd: Sequence[tuple],
    bound: float,
    stats: Counter,
) -> np.ndarray:
    """The quad join over the JoinTables (A, S), S the table of B, C and D:
    a line (owner, a, b, c, d) of table rows for every A×B pair of blocks_ab
    and C×D pair of blocks_cd of one owner whose four PAF rows sum to zero
    at every column k ≥ 1, sorted by owner.  A block is (owner, group of the
    left table, group of the right one).  Rows of one group keep one
    arrangement: c ≤ d in a C×D block of one group, b ≤ c in a hit whose B
    and C rows share a group.  An owner with no A×B or no C×D product is
    skipped; the others are joined in ascending order, in batches of
    consecutive owners whose full A×B plus C×D products reach _BATCH_PAIRS
    (each closed by the owner that reaches it).  Per batch (_join_batch):

      (i)   screen each block's pairs against bound (_screen_blocks);
      (ii)  key each A×B pair by P_a + P_b and each C×D pair by
            −(P_c + P_d), where P is the packed key of one row (packed_keys,
            one radix from both tables' largest PAF(0)), and join equal keys
            (join_equal_keys): equal keys mean the PAF sums cancel at
            columns 1..K;
      (iii) per chunk of about _EMIT_CHUNK hits in key order, find each
            pair's block from the blocks' pair offsets, drop the hits across
            owners or with b > c in one group, and confirm the rest with the
            full exact PAF sum, which covers the columns past K; a hit
            differing only there is dropped.

    stats gains pairs_ab and pairs_cd (the screened pairs) and key_hits
    (the packed-key matches kept for the exact check).
    """
    paf_bound = max(int(t.paf[:, 0].max(initial=0)) for t in tables)  # ≥ every |PAF(k)|
    keys = [packed_keys(t.paf, paf_bound) for t in tables]
    by_owner: dict = {}  # owner → its A×B blocks, its C×D blocks, their products
    for side, blocks in enumerate((blocks_ab, blocks_cd)):
        left, right = (tables[t].offsets.tolist() for t in (side, 1))
        for owner, g_l, g_r in blocks:  # _screen_blocks reads groups as (lo, hi) row ranges
            entry = by_owner.setdefault(owner, ([], [], [0, 0]))
            upper = side == 1 and g_l == g_r  # c ≤ d
            entry[side].append((owner, left[g_l : g_l + 2], right[g_r : g_r + 2], upper))
            entry[2][side] += (left[g_l + 1] - left[g_l]) * (right[g_r + 1] - right[g_r])
    live = sorted(owner for owner, (_, _, work) in by_owner.items() if all(work))
    work = np.array([sum(by_owner[owner][2]) for owner in live], dtype=np.int64)
    batch = (np.cumsum(work) - work) // _BATCH_PAIRS  # consecutive, ≈ equal work
    edges = [*np.flatnonzero(np.diff(batch, prepend=-1)).tolist(), len(live)]
    found = [np.empty((0, 5), dtype=np.int64)]
    for lo, hi in zip(edges, edges[1:]):
        ab_cd = [[b for owner in live[lo:hi] for b in by_owner[owner][side]] for side in (0, 1)]
        found.append(_join_batch(tables, keys, *ab_cd, bound, stats))
    found = np.concatenate(found)
    return found[np.argsort(found[:, 0], kind="stable")]


def _join_batch(tables: Sequence[JoinTable], keys: list[np.ndarray], blocks_ab: Sequence[tuple],
                blocks_cd: Sequence[tuple], bound: float, stats: Counter) -> np.ndarray:
    """join_blocks' steps (i)–(iii) on one batch; its pairs are freed on return."""
    (table_a, table_s), (keys_a, keys_s) = tables, keys
    ia, jb, ends_ab = _screen_blocks(table_a.psd, table_s.psd, blocks_ab, bound)
    ic, jd, ends_cd = _screen_blocks(table_s.psd, table_s.psd, blocks_cd, bound)
    owner_ab, first_b = np.array([(o, r[0]) for o, _, r, _ in blocks_ab]).T  # B group's 1st row
    owner_cd = np.array([b[0] for b in blocks_cd])
    found, key_hits = [np.empty((0, 5), dtype=np.int64)], 0
    for ab, cd in join_equal_keys(keys_a[ia] + keys_s[jb], -(keys_s[ic] + keys_s[jd])):
        x = np.searchsorted(ends_ab, ab, side="right")  # each pair's block
        b, c = jb[ab], ic[cd]
        keep = owner_ab[x] == owner_cd[np.searchsorted(ends_cd, cd, side="right")]
        keep &= (b <= c) | (c < first_b[x])  # b ≤ c unless c lies before B's group
        quads = np.stack([owner_ab[x], ia[ab], b, c, jd[cd]], axis=1)[keep]
        key_hits += len(quads)
        total = table_a.paf[quads[:, 1]] + sum(table_s.paf[quads[:, s]] for s in (2, 3, 4))
        found.append(quads[(total[:, 1:] == 0).all(axis=1)])
    stats.update(pairs_ab=len(ia), pairs_cd=len(ic), key_hits=key_hits)
    return np.concatenate(found)


def _screen_blocks(
    psd_l: np.ndarray, psd_r: np.ndarray, blocks: Sequence[tuple], bound: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (i, j) of table rows of each block whose summed PSD profile
    over the plane-major tables psd_l and psd_r stays within bound on every
    plane, block after block and row-major within a block; and the offset in
    that list where each block's pairs end.

    Each chunk of left rows meets the block's right rows on every plane in
    one broadcast, and the planes' bool masks are and-reduced over the
    leading axis.  With no planes, or the bound +inf, every pair is kept.
    """
    parts_i, parts_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    ends, total = [], 0
    for _, (lo_l, hi_l), (lo_r, hi_r), upper in blocks:
        right = psd_r[:, None, lo_r:hi_r]
        for lo in range(lo_l, hi_l, _PAIR_CHUNK):
            left = psd_l[:, lo : min(lo + _PAIR_CHUNK, hi_l), None]
            ii, jj = np.nonzero(np.logical_and.reduce(left + right <= bound, axis=0))
            if upper:  # i ≤ j counted from the block's first rows
                keep = jj >= ii + (lo - lo_l)
                ii, jj = ii[keep], jj[keep]
            parts_i.append(ii + lo)
            parts_j.append(jj + lo_r)
            total += len(ii)
        ends.append(total)
    return np.concatenate(parts_i), np.concatenate(parts_j), np.array(ends, dtype=np.int64)


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
    weights = radix ** np.arange(width, dtype=np.int64)
    return np.einsum("nk,k->n", paf[:, 1 : width + 1], weights, dtype=np.int64)  # no int64 copy


def join_equal_keys(keys_l: np.ndarray, keys_r: np.ndarray) -> Iterator[tuple]:
    """Every index pair (i, j) with keys_l[i] == keys_r[j], for 1-D int64 keys,
    in key order, as (i, j) arrays in chunks of about _EMIT_CHUNK pairs that
    never split one key's pairs (join_blocks' (cumsum − count) // size rule).

    A sort-merge join: both sides are argsorted, the sorted left keys are
    searched in the sorted right keys once, in order, and a run's end is
    looked up only for the left keys that matched.
    """
    order_l, order_r = np.argsort(keys_l), np.argsort(keys_r)
    keys_l, keys_r = keys_l[order_l], keys_r[order_r]  # the unsorted keys are freed
    lo = np.searchsorted(keys_r, keys_l)
    hit = np.flatnonzero(lo < len(keys_r))
    hit = hit[keys_r[lo[hit]] == keys_l[hit]]
    key, lo = keys_l[hit], lo[hit]
    count = np.searchsorted(keys_r, key, side="right") - lo
    before = np.cumsum(count) - count  # pairs ahead of each matched left row
    starts = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))  # each key's first row
    edges = starts[np.diff(before[starts] // _EMIT_CHUNK, prepend=-1) > 0].tolist() + [len(key)]
    for a, b in zip(edges, edges[1:]):
        shift = np.repeat(lo[a:b] - before[a:b] + before[a], count[a:b])  # slot → sorted slot
        yield np.repeat(order_l[hit[a:b]], count[a:b]), order_r[shift + np.arange(len(shift))]

