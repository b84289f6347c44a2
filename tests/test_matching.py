"""Compression-domain matching: the exact sort-join over PAF keys.

Oracle: a quadruple loop over the candidate sets applying the exact
compressed goodness conditions directly (pure Python PAF + rowsums).
"""

import itertools
from collections import Counter
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
    _join_pairs,
    _screen_pairs,
    join_equal_keys,
    match_codes,
    match_quadruples,
    packed_keys,
    paf_matrix,
)
from goodmat.pipeline import FilterConfig
from goodmat.seqcore import CompressedQuad


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


@given(small_keys, small_keys)
def test_join_equals_the_nested_loop(left, right):
    li, ri = join_equal_keys(left, right)
    got = list(zip(li.tolist(), ri.tolist()))
    want = {(i, j) for i in range(len(left)) for j in range(len(right))
            if left[i] == right[j]}
    assert len(got) == len(want) and set(got) == want


def join_side(rows, length, paf_bound):
    """One table's plane-major PSD and its _join_pairs side (PAF table,
    packed keys), for rows of one length."""
    table = np.array(rows, dtype=np.int64).reshape(len(rows), length)
    paf = paf_matrix(table)
    return np.abs(np.fft.fft(table, axis=1)).T ** 2, (paf, packed_keys(paf, paf_bound))


@given(st.data())
def test_quad_join_equals_the_nested_loop(data):
    # the screen and the join as uncompression runs them: every pair may
    # carry an instance id (owners), and hits across instances are dropped
    length = data.draw(st.integers(1, 7), label="length")
    row = st.lists(st.sampled_from([-3, -1, 1, 3]), min_size=length, max_size=length)
    tables = [data.draw(st.lists(row, max_size=4), label=name) for name in "abcd"]
    if data.draw(st.booleans(), label="d is c"):
        tables[3] = tables[2]  # as in uncompression when C′ = D′
    bound = data.draw(st.one_of(st.floats(0, 200), st.just(np.inf)), label="bound")
    paf_bound = max((sum(e * e for e in r) for t in tables for r in t), default=1)
    if data.draw(st.booleans(), label="one-column keys"):
        paf_bound = 10**9  # R² > 2^62: keys cover column 1 only, the rest is confirmed
    psd, sides = zip(*(join_side(t, length, paf_bound) for t in tables))
    ab, cd = _screen_pairs(psd[0], psd[1], bound), _screen_pairs(psd[2], psd[3], bound)
    owners = None
    if data.draw(st.booleans(), label="owners"):
        ids = st.integers(0, 2)
        owners = tuple(np.array(data.draw(st.lists(ids, min_size=len(p[0]), max_size=len(p[0]))),
                                dtype=np.int64) for p in (ab, cd))
    stats = Counter()
    hit_ab, hit_cd = _join_pairs(*sides, ab, cd, owners=owners, stats=stats)
    got = list(zip(hit_ab.tolist(), hit_cd.tolist()))

    def pairs(x, y):
        return [(i, j) for i in range(len(tables[x])) for j in range(len(tables[y]))
                if not (psd[x][:, i] + psd[y][:, j] > bound).any()]

    assert list(zip(*(p.tolist() for p in ab))) == pairs(0, 1)
    assert list(zip(*(p.tolist() for p in cd))) == pairs(2, 3)
    want = {(p, q) for p, q in itertools.product(range(len(ab[0])), range(len(cd[0])))
            if (owners is None or owners[0][p] == owners[1][q])
            and all(sum(oracle_paf(t[x], s) for t, x in
                        zip(tables, (ab[0][p], ab[1][p], cd[0][q], cd[1][q]))) == 0
                    for s in range(1, length // 2 + 1))}
    assert len(got) == len(want) and set(got) == want
    assert (stats["pairs_ab"], stats["pairs_cd"]) == (len(ab[0]), len(cd[0]))
    assert stats["key_hits"] >= len(want)


@given(st.data())
def test_screen_pairs_equals_the_nested_loop(data):
    # small integer PSD values and bounds, so sums land on the bound often
    planes = data.draw(st.integers(0, 3), label="planes")

    def table(label):
        rows = data.draw(st.integers(0, 6), label=f"{label} rows")
        values = st.lists(st.integers(0, 20), min_size=planes * rows, max_size=planes * rows)
        return np.array(data.draw(values, label=label), dtype=float).reshape(planes, rows)

    left = table("left")
    upper = data.draw(st.booleans(), label="upper")
    right = left if upper and data.draw(st.booleans(), label="one table") else table("right")
    bound = data.draw(st.one_of(st.integers(0, 40).map(float), st.just(np.inf)), label="bound")
    chunk = data.draw(st.sampled_from([1, 2, matching._PAIR_CHUNK]), label="chunk")
    with mock.patch.object(matching, "_PAIR_CHUNK", chunk):
        got = list(zip(*(idx.tolist() for idx in _screen_pairs(left, right, bound, upper=upper))))
    product = [(i, j) for i in range(left.shape[1]) for j in range(right.shape[1])
               if not (upper and i > j)]  # row-major
    assert got == [(i, j) for i, j in product if (left[:, i] + right[:, j] <= bound).all()]
    if bound == np.inf:
        assert got == product


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
