"""Compression-domain matching: the exact sort-join over PAF keys.

Oracle: a quadruple loop over the candidate sets applying the exact
compressed goodness conditions directly (pure Python PAF + rowsums).
"""

import bisect
import itertools
import weakref
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodmat import matching
from goodmat.candidates import generate_candidates
from goodmat.diophantine import signed_rowsums
from goodmat.errors import InvalidInputError
from goodmat.equiv import decode_quads, quad_key
from goodmat.matching import (
    JoinTable,
    _screen_blocks,
    join_blocks,
    join_equal_keys,
    match_codes,
    match_quadruples,
    packed_keys,
    paf_matrix,
)
from goodmat.pipeline import FilterConfig
from goodmat.seqcore import CompressedQuad
from goodmat.uncompress import preimage_table


def oracle_paf(x, k):
    n = len(x)
    return sum(x[j] * x[(j + k) % n] for j in range(n))


def oracle_match(cands, n):
    """All (a,b,c,d) with 1 + Σ rowsums² = 4n and Σ PAF'(k) = 0 for 1 ≤ k < m."""
    m = n // 3
    out = set()
    for a, b, c, d in itertools.product(
        sorted(cands.s_sk), *([sorted(cands.s_sy)] * 3)
    ):
        if 1 + sum(b) ** 2 + sum(c) ** 2 + sum(d) ** 2 != 4 * n:
            continue
        if all(
            sum(oracle_paf(row, k) for row in (a, b, c, d)) == 0
            for k in range(1, m)
        ):
            out.add(CompressedQuad(a, b, c, d))
    return out


@pytest.mark.parametrize("n", [3, 9, 15])
def test_matches_quadruple_loop_oracle(n):
    cands = generate_candidates(n, signed_rowsums(n))
    got = match_quadruples(cands, n)
    assert set(got) == oracle_match(cands, n)
    assert got == sorted(got, key=quad_key)


@pytest.mark.parametrize("n", [3, 9])
def test_unfiltered_match_matches_quadruple_loop_oracle(n):
    # every row in s_sy, whatever its rowsum: the partitions alone select
    cands = generate_candidates(n, signed_rowsums(n), psd_filter=False, rowsum_filter=False)
    got = match_quadruples(cands, n, pair_filter=False)
    assert set(got) == oracle_match(cands, n)
    assert got == sorted(got, key=quad_key)


@pytest.mark.parametrize("filters", [FilterConfig(), FilterConfig.no_filters()],
                         ids=["filters", "no_filters"])
@pytest.mark.parametrize("n", [9, 15, 21, 27])
def test_match_codes_returns_one_arrangement_per_multiset(n, filters):
    cands = generate_candidates(n, signed_rowsums(n), psd_filter=filters.psd_candidates,
                                rowsum_filter=filters.rowsum_candidates)
    codes = match_codes(cands, n, pair_filter=filters.psd_pairs)
    assert len(codes) and np.array_equal(codes, np.unique(codes, axis=0))
    for quad, row in zip(decode_quads(codes, n // 3), codes.tolist()):
        keys = [(sum(r), code) for r, code in zip(quad.rows()[1:], row[1:])]
        assert keys == sorted(keys)  # B′ ≤ C′ ≤ D′ by (rowsum, row code)
    assert len({(row[0], *sorted(row[1:])) for row in codes.tolist()}) == len(codes)


def test_frozen_sizes():
    # Confirmed by the quadruple-loop oracle above for n ≤ 15; recorded beyond.
    for n, size in ((3, 3), (9, 24), (15, 264), (21, 1380), (27, 6678), (33, 50280)):
        cands = generate_candidates(n, signed_rowsums(n))
        got = match_quadruples(cands, n)
        assert len(got) == size
        assert got == sorted(got, key=quad_key)


#: Strategy: a 1-D int64 key array with many repeated keys.
small_keys = st.lists(st.integers(-3, 3), max_size=12).map(
    lambda keys: np.array(keys, dtype=np.int64))


@given(small_keys, small_keys, st.sampled_from([1, 2, matching._EMIT_CHUNK]))
def test_join_equals_the_nested_loop(left, right, size):
    # the pairs come in key order, in chunks of about size pairs: each key's
    # pairs sit in one chunk, which holds at most size plus its longest key
    # run minus 1 pairs, and no pair repeats
    with mock.patch.object(matching, "_EMIT_CHUNK", size):
        chunks = [list(zip(i.tolist(), j.tolist())) for i, j in join_equal_keys(left, right)]
    got = [pair for chunk in chunks for pair in chunk]
    want = {(i, j) for i in range(len(left)) for j in range(len(right))
            if left[i] == right[j]}
    assert len(got) == len(want) and set(got) == want
    keys = [left[i] for i, _ in got]
    assert keys == sorted(keys)
    run = Counter(keys)  # the pairs of each key
    for chunk in chunks:
        assert chunk
        in_chunk = {left[i] for i, _ in chunk}
        assert sum(run[key] for key in in_chunk) == len(chunk)
        assert len(chunk) <= size + max(run[key] for key in in_chunk) - 1


def join_side(rows, length, offsets):
    """The JoinTable of rows of one length grouped by offsets, with its PSD
    on every plane."""
    table = np.array(rows, dtype=np.int64).reshape(len(rows), length)
    psd = np.abs(np.fft.fft(table, axis=1)).T ** 2
    return JoinTable(np.array(offsets, dtype=np.int64), table, psd, paf_matrix(table))


def draw_offsets(data, rows, label):
    """The CSR offsets of 1 to 4 groups of a table of rows rows, empty
    groups among them."""
    cuts = data.draw(st.lists(st.integers(0, rows), max_size=3), label=f"{label} cuts")
    return [0, *sorted(cuts), rows]


def draw_group_blocks(data, offsets_a, offsets_s):
    """The A×B and C×D blocks of join_blocks over an A and an S table grouped
    by offsets_a and offsets_s, in a drawn order, so owners interleave: 0 to
    2 blocks per side of owners 0 and 1, 1 or 2 of owner 2.  Left groups
    have rows, right groups may be empty."""

    def group(offsets, label, empty=True):
        rows = st.sampled_from(np.flatnonzero(np.diff(offsets)).tolist())
        every = st.integers(0, len(offsets) - 2)
        return data.draw(st.one_of(rows, every) if empty else rows, label=label)

    sides = []
    for side, offsets_l in (("ab", offsets_a), ("cd", offsets_s)):
        blocks = [(owner, group(offsets_l, f"{side} left", False),
                   group(offsets_s, f"{side} right"))
                  for owner in range(3)
                  for _ in range(data.draw(st.integers(owner // 2, 2),
                                           label=f"{side} {owner} blocks"))]
        sides.append(data.draw(st.permutations(blocks), label=f"{side} order"))
    return sides


def as_ranges(blocks, offsets_l, offsets_r, cd):
    """Group blocks as row-range blocks: group g is rows offsets[g]..offsets[g + 1],
    and a C×D block (cd) of one group with itself is upper."""
    return [(owner, (offsets_l[g_l], offsets_l[g_l + 1]), (offsets_r[g_r], offsets_r[g_r + 1]),
             cd and g_l == g_r) for owner, g_l, g_r in blocks]


def draw_blocks(data, rows_l, rows_r, label):
    """A few blocks of _screen_blocks over tables of rows_l and rows_r rows:
    owners from a small set, so they repeat (the simplest draw is 0, 1, 2,
    0), and empty ranges among them."""

    def span(rows, side):
        lo = data.draw(st.integers(0, max(rows - 1, 0)), label=f"{label} {side} lo")
        return lo, data.draw(st.integers(lo, rows), label=f"{label} {side} hi")

    return [((k + data.draw(st.integers(0, 2), label=f"{label} owner")) % 3,
             span(rows_l, "left"), span(rows_r, "right"),
             data.draw(st.booleans(), label=f"{label} upper"))
            for k in range(data.draw(st.integers(1, 4), label=f"{label} blocks"))]


def block_pairs(blocks, keep):
    """Each block's pairs (owner, i, j) by the nested loop, block after block
    and row-major within one: i ≤ j counted from the block's first rows with
    upper, and keep(i, j)."""
    return [(owner, i, j) for owner, (lo_l, hi_l), (lo_r, hi_r), upper in blocks
            for i in range(lo_l, hi_l) for j in range(lo_r, hi_r)
            if not (upper and i - lo_l > j - lo_r) and keep(i, j)]


@given(st.data())
def test_quad_join_equals_the_nested_loop(data):
    # several blocks per side, as uncompression passes one per instance and
    # matching one per rowsum group: hits only join pairs of one owner, come
    # back sorted by owner, and an owner without an A×B or a C×D product
    # counts no pairs; joined in batches of any size.  B, C and D come from
    # the one S table, and where they come from one group the join keeps one
    # arrangement: c ≤ d in a C×D block of a group with itself, b ≤ c for a
    # hit whose B and C rows lie in one group.  The A and S entries are drawn
    # from ±1 or from ±1, ±3 each, so their largest PAF(0) differ; with the
    # radix of both the keys are exact on their columns, and key_hits counts
    # exactly the kept quads whose PAF sums vanish there
    length = data.draw(st.integers(1, 7), label="length")
    rows, offsets = [], []
    for name in "as":
        entries = data.draw(st.sampled_from([[-1, 1], [-3, -1, 1, 3]]), label=f"{name} entries")
        row = st.lists(st.sampled_from(entries), min_size=length, max_size=length)
        rows.append(data.draw(st.lists(row, min_size=1, max_size=4), label=name))
        offsets.append(draw_offsets(data, len(rows[-1]), name))
    owner_4 = data.draw(st.booleans(), label="owner 4")
    if owner_4:  # one more group, empty, at the end of each table
        offsets = [[*o, o[-1]] for o in offsets]
    screen = data.draw(st.booleans(), label="screen")  # or the bound +inf
    bound = data.draw(st.floats(0, 400), label="bound") if screen else np.inf
    one_column = data.draw(st.booleans(), label="one-column keys")
    tables = [join_side(t, length, o) for t, o in zip(rows, offsets)]
    groups_a, groups_s = (len(o) - 1 for o in offsets)
    blocks_ab, blocks_cd = draw_group_blocks(data, *offsets)
    # owner 3 has blocks on one side only (its largest groups), owner 4 only
    # empty groups
    one_side = data.draw(st.sampled_from([None, 0, 1]), label="owner 3")
    if one_side is not None:
        largest = [int(np.argmax(np.diff(o))) for o in offsets]
        (blocks_ab, blocks_cd)[one_side].append((3, largest[one_side], largest[1]))
    if owner_4:
        blocks_ab.append((4, groups_a - 1, 0))
        blocks_cd.append((4, groups_s - 1, groups_s - 1))
    batch = data.draw(st.sampled_from([1, 5, matching._BATCH_PAIRS]), label="batch")
    stats = Counter()
    with mock.patch.object(matching, "_BATCH_PAIRS", batch), \
            mock.patch.object(matching, "packed_keys", wide_keys if one_column else packed_keys):
        got = join_blocks(tables, blocks_ab, blocks_cd, bound, stats)
    assert got.shape[1] == 5
    assert (np.diff(got[:, 0]) >= 0).all()  # sorted by owner
    ranges_ab = as_ranges(blocks_ab, offsets[0], offsets[1], False)
    ranges_cd = as_ranges(blocks_cd, offsets[1], offsets[1], True)

    def products(blocks):
        work = Counter()
        for owner, (lo_l, hi_l), (lo_r, hi_r), _ in blocks:
            work[owner] += (hi_l - lo_l) * (hi_r - lo_r)
        return {owner for owner, size in work.items() if size}

    live = products(ranges_ab) & products(ranges_cd)
    assert not live & {3, 4}  # so neither counts a pair nor gives a hit

    def screened(blocks, x):
        return block_pairs([b for b in blocks if b[0] in live],
                           lambda i, j: not (tables[x].psd[:, i] + tables[1].psd[:, j]
                                             > bound).any())

    def group(row):  # the S group of a row: the one with offsets[g] ≤ row < offsets[g + 1]
        return bisect.bisect_right(offsets[1], row) - 1

    def hits(columns):
        """The quads of one owner and kept arrangement whose PAF sums vanish on columns."""
        return Counter(
            (o, a, b, c, d) for (o, a, b), (p, c, d) in itertools.product(ab, cd)
            if o == p and (group(b) != group(c) or b <= c)
            and all(sum(oracle_paf(r, s) for r in (rows[0][a], *(rows[1][x] for x in (b, c, d))))
                    == 0 for s in columns))

    ab, cd = screened(ranges_ab, 0), screened(ranges_cd, 1)
    columns = range(1, length // 2 + 1)
    want = hits(columns)
    assert Counter(map(tuple, got.tolist())) == want  # a repeated group pair repeats its hits
    assert (stats["pairs_ab"], stats["pairs_cd"]) == (len(ab), len(cd))
    # keys cover every column (R ≤ 4·63 + 1, R³ < 2^62), or column 1 only
    assert stats["key_hits"] == sum(hits(columns[:1] if one_column else columns).values())
    # all-zero PAF tables make every pair of one owner a hit, however rare
    # cancelling rows are: the owner and block bookkeeping alone decide
    zero = [t._replace(paf=0 * t.paf) for t in tables]
    every = join_blocks(zero, blocks_ab, blocks_cd, bound, Counter())
    assert Counter(map(tuple, every.tolist())) == hits(())


def wide_keys(paf, bound):
    """packed_keys with bound 10⁹: R² > 2^62, so keys cover column 1 only and
    the exact check confirms the rest."""
    return packed_keys(paf, 10**9)


def test_join_keys_take_the_radix_of_both_tables():
    # A of ±1 rows (PAF(0) = 6), S of ±1, ±3 rows (PAF(0) up to 46): with the
    # radix 4·6 + 1 of A alone the PAF sums (0, 100, −4) of this quad pack to
    # 100·25 − 4·625 = 0 and would match; with 4·46 + 1 the keys cover every
    # column exactly, so every key hit is a hit
    a = [[1, -1, -1, -1, -1, -1]]
    s = [[1, -3, -1, -3, -1, -3], [1, -3, 3, -3, 3, -3], [1, 1, 3, 3, 3, 3]]
    tables = [join_side(a, 6, [0, 1]), join_side(s, 6, [0, 1, 2, 3])]
    stats = Counter()
    got = join_blocks(tables, [(0, 0, 0)], [(0, 1, 2)], np.inf, stats)
    assert len(got) == stats["key_hits"] == 0
    assert stats["pairs_ab"] == stats["pairs_cd"] == 1


def capture_join(monkeypatch):
    """The tables and blocks of each join_blocks call, which then joins nothing."""
    calls = []

    def join(tables, blocks_ab, blocks_cd, bound, stats):
        calls.append((tables, blocks_ab, blocks_cd))
        return np.empty((0, 5), dtype=np.int64)

    monkeypatch.setattr(matching, "join_blocks", join)
    return calls


@pytest.mark.parametrize("n,filters", [
    *((n, FilterConfig()) for n in (9, 15, 21, 27, 33, 39, 45)),
    *((n, FilterConfig.no_filters()) for n in (9, 15, 21, 27)),
], ids=lambda x: {FilterConfig(): "filters", FilterConfig.no_filters(): "no_filters"}.get(x))
def test_cd_blocks_are_the_signed_rowsum_triples_present(n, filters, monkeypatch):
    # the C′×D′ blocks are the triples r_B ≤ r_C ≤ r_D of s_sy's rowsums with
    # 1 + r_B² + r_C² + r_D² = 4n (the cubic loop they replace): every
    # rowsum of s_sy is ≡ n (mod 4), the residue of signed_rowsums
    cands = generate_candidates(n, signed_rowsums(n), psd_filter=filters.psd_candidates,
                                rowsum_filter=filters.rowsum_candidates)
    calls = capture_join(monkeypatch)
    match_codes(cands, n, pair_filter=filters.psd_pairs)
    (((_, sy), blocks_ab, blocks_cd),) = calls
    present = sorted({sum(row) for row in cands.s_sy})
    assert all((r - n) % 4 == 0 for r in present)
    group_sum = [int(sy.rows[lo].sum()) for lo in sy.offsets[:-1].tolist()]
    assert group_sum == present  # one group per rowsum, in rowsum order
    assert blocks_ab == [(g, 0, g) for g in range(len(present))]
    want = [(x, y, z) for x in present for y in present for z in present
            if x <= y <= z and 1 + x * x + y * y + z * z == 4 * n]
    assert want and [tuple(group_sum[g] for g in block) for block in blocks_cd] == want
    # one C′×D′ group, which the join pairs c ≤ d, exactly when r_C = r_D
    assert [g_c == g_d for _, g_c, g_d in blocks_cd] == [y == z for _, y, z in want]


@pytest.mark.parametrize("n", [9, 21])
def test_join_tables_are_grouped_join_tables(n, monkeypatch):
    # every table of both lengths is a JoinTable whose offsets partition its
    # rows; matching joins two, s_sk and s_sy
    cands = generate_candidates(n, signed_rowsums(n))
    crows = np.array(sorted(cands.s_sk))
    calls = capture_join(monkeypatch)
    match_codes(cands, n)
    ((tables, _, _),) = calls
    preimages = preimage_table(crows, True, bound=np.inf)
    assert len(tables) == 2
    for table in (*tables, preimages):
        assert isinstance(table, JoinTable)
        assert table.offsets[0] == 0 and (np.diff(table.offsets) >= 0).all()
        assert table.offsets[-1] == len(table.rows) == len(table.paf)
        assert table.psd.shape[1] == len(table.rows)
    assert len(tables[0].offsets) == 2  # s_sk is one group
    assert len(preimages.offsets) == len(crows) + 1  # one group per compressed row


def test_join_blocks_frees_each_batch_before_the_next(monkeypatch):
    # A batch's pairs and key hits are gone when the next batch screens: at
    # n = 57 each of matching's batches holds about 22M C′×D′ pairs and as
    # many key hits, and keeping one batch's arrays raised the peak by 0.3 GB.
    refs, joined, screens = [], [], itertools.count()
    screen, join = matching._screen_blocks, matching.join_equal_keys

    def watch_screen(*args):
        if next(screens) % 2 == 0:  # the A×B screen: nothing of the last batch is left
            assert all(ref() is None for ref in refs)
        out = screen(*args)
        refs.extend(map(weakref.ref, out))
        return out

    def watch_join(keys_l, keys_r):
        chunks = join(keys_l, keys_r)
        for chunk in chunks:  # each chunk, and the sorted arrays the join holds
            held = chunks.gi_frame.f_locals.values()
            joined.append(len(chunk[0]))
            refs.extend(weakref.ref(x) for x in (*chunk, *held) if isinstance(x, np.ndarray))
            yield chunk

    monkeypatch.setattr(matching, "_screen_blocks", watch_screen)
    monkeypatch.setattr(matching, "join_equal_keys", watch_join)
    monkeypatch.setattr(matching, "_BATCH_PAIRS", 1)  # one batch per rowsum group
    assert len(match_codes(generate_candidates(27, signed_rowsums(27)), 27)) > 0
    assert next(screens) >= 4  # two batches or more
    assert sum(joined) > 0  # the join yielded key hits


@given(st.data())
def test_screen_pairs_equals_the_nested_loop(data):
    # the pair screen of join_blocks; small integer PSD values and bounds, so
    # sums land on the bound often
    planes = data.draw(st.integers(0, 3), label="planes")

    def table(label):
        rows = data.draw(st.integers(0, 6), label=f"{label} rows")
        values = st.lists(st.integers(0, 20), min_size=planes * rows, max_size=planes * rows)
        return np.array(data.draw(values, label=label), dtype=float).reshape(planes, rows)

    left = table("left")
    right = left if data.draw(st.booleans(), label="one table") else table("right")
    blocks = draw_blocks(data, left.shape[1], right.shape[1], "blocks")
    bound = data.draw(st.one_of(st.integers(0, 40).map(float), st.just(np.inf)), label="bound")
    chunk = data.draw(st.sampled_from([1, 2, matching._PAIR_CHUNK]), label="chunk")
    with mock.patch.object(matching, "_PAIR_CHUNK", chunk):
        ii, jj, ends = _screen_blocks(left, right, blocks, bound)
    got = list(zip(ii.tolist(), jj.tolist()))
    want = block_pairs(blocks, lambda i, j: (left[:, i] + right[:, j] <= bound).all())
    assert got == [(i, j) for _, i, j in want]
    sizes = [len(block_pairs([block], lambda i, j: (left[:, i] + right[:, j] <= bound).all()))
             for block in blocks]
    assert ends.tolist() == np.cumsum(sizes, dtype=np.int64).tolist()
    if bound == np.inf:
        assert want == block_pairs(blocks, lambda i, j: True)


def balanced_digits(value, radix, width):
    """The width digits in [−radix//2, radix//2] of value, least significant first."""
    digits = []
    for _ in range(width):
        digit = value % radix
        digit -= radix if digit > radix // 2 else 0
        digits.append(digit)
        value = (value - digit) // radix
    assert value == 0  # nothing left above the top digit
    return digits


@given(st.data())
def test_packed_pair_keys_are_the_exact_prefix_columns(data):
    bound = data.draw(st.sampled_from([1, 2, 45, 1000, 10**6]), label="bound")
    half = data.draw(st.integers(0, 8), label="half")  # 0: the m = 1 table, all keys equal
    entry = st.one_of(st.sampled_from([-bound, bound]), st.integers(-bound, bound))
    rows = data.draw(st.lists(st.lists(entry, min_size=half, max_size=half),
                              min_size=1, max_size=6), label="rows")
    paf = np.array([[bound] + r for r in rows], dtype=np.int64).reshape(len(rows), half + 1)
    key = packed_keys(paf, bound)
    radix = 4 * bound + 1
    width = min(half, max(k for k in range(64) if radix**k < 2**62))  # wider tables: a prefix
    sums = {}
    for i, j in itertools.product(range(len(rows)), repeat=2):
        columns = (paf[i, 1 : width + 1] + paf[j, 1 : width + 1]).tolist()
        packed = int(key[i]) + int(key[j])
        assert balanced_digits(packed, radix, width) == columns
        assert balanced_digits(-packed, radix, width) == [-c for c in columns]
        sums.setdefault(packed, set()).add(tuple(columns))
    assert all(len(columns) == 1 for columns in sums.values())  # injective on the prefix


def test_paf_matrix_is_the_half_table():
    rows = np.array([[1, 3, -1, 1, 3, -1, 1], [1, -1, -1, 1, 1, -1, -1]], dtype=np.int64)
    want = [[oracle_paf(r, k) for k in range(7 // 2 + 1)] for r in rows.tolist()]
    assert paf_matrix(rows).tolist() == want


def test_members_satisfy_exact_conditions():
    n = 21
    cands = generate_candidates(n, signed_rowsums(n))
    for quad in match_quadruples(cands, n):
        assert 1 + sum(sum(r) ** 2 for r in quad.rows()[1:]) == 4 * n
        for k in range(1, n // 3):
            assert sum(oracle_paf(row, k) for row in quad.rows()) == 0


def test_both_orientations_present():
    n = 15
    cands = generate_candidates(n, signed_rowsums(n))
    got = set(match_quadruples(cands, n))
    for quad in got:
        assert CompressedQuad(quad.ac, quad.bc, quad.dc, quad.cc) in got


@pytest.mark.parametrize("n", [9, 15, 21])
def test_pair_filter_changes_nothing(n):
    cands = generate_candidates(n, signed_rowsums(n))
    with_filter = match_quadruples(cands, n)
    without = match_quadruples(cands, n, pair_filter=False)
    assert with_filter == without


def test_rejects_mismatched_order():
    cands = generate_candidates(9, signed_rowsums(9))
    with pytest.raises(InvalidInputError):
        match_quadruples(cands, 15)


def test_empty_candidates_give_empty_match():
    cands = generate_candidates(9, frozenset())
    assert match_quadruples(cands, 9) == []
    # one empty side: the join finds no owner with both products
    full = generate_candidates(15, signed_rowsums(15))
    for one_side in (replace(full, sk=full.sk[:0]), replace(full, sy=full.sy[:0])):
        assert match_codes(one_side, 15).shape == (0, 4)
