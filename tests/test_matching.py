"""Compression-domain matching: the exact sort-join over PAF keys.

Oracle: a quadruple loop over the candidate sets applying the exact
compressed goodness conditions directly (pure Python PAF + rowsums).
"""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodmat.candidates import generate_candidates
from goodmat.diophantine import signed_rowsums
from goodmat.errors import InvalidInputError, ParseError
from goodmat.equiv import quad_key
from goodmat.matching import (
    join_equal_keys,
    match_quadruples,
    paf_key,
    read_quadruples,
    write_quadruples,
)
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


def test_frozen_sizes():
    # Confirmed by the quadruple-loop oracle above for n ≤ 15; recorded beyond.
    for n, size in ((3, 3), (9, 24), (15, 264), (21, 1380), (27, 6678), (33, 50280)):
        cands = generate_candidates(n, signed_rowsums(n))
        got = match_quadruples(cands, n)
        assert len(got) == size
        assert got == sorted(got, key=quad_key)


def small_keys(width):
    """Strategy: a (rows × width) int key array with many repeated keys."""
    return st.lists(st.tuples(*[st.integers(-2, 2)] * width), max_size=12).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), width))


@given(st.data())
def test_join_equals_the_nested_loop(data):
    width = data.draw(st.integers(0, 3))  # width 0: the m = 1 keys, all equal
    left, right = data.draw(small_keys(width)), data.draw(small_keys(width))
    li, ri = join_equal_keys(left, right)
    got = list(zip(li.tolist(), ri.tolist()))
    want = {(i, j) for i in range(len(left)) for j in range(len(right))
            if (left[i] == right[j]).all()}
    assert len(got) == len(want) and set(got) == want


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


def test_paf_key_is_exact_prefix():
    row = (1, 3, -1, 1, 3, -1, 1)  # m = 7
    key = paf_key(row, row)
    assert len(key) == 7 // 2
    assert key == tuple(2 * oracle_paf(row, k) for k in range(1, 4))


def test_quadruple_file_round_trip():
    quads = [
        CompressedQuad((1,), (3,), (-1,), (-1,)),
        CompressedQuad((1,), (-1,), (3,), (-1,)),
    ]
    buf = io.StringIO()
    write_quadruples(buf, quads)
    buf.seek(0)
    assert read_quadruples(buf) == quads


def test_read_quadruples_rejects_ragged():
    with pytest.raises(ParseError):
        read_quadruples(io.StringIO("1\n3\n-1\n\n"))
