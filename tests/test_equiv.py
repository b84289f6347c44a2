"""Equivalence operations and canonical forms, full and compressed."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodmat import equiv
from goodmat.candidates import generate_candidates
from goodmat.diophantine import signed_rowsums
from goodmat.equiv import (
    CanonicalQuad,
    apply_automorphism,
    canonical_codes,
    canonical_compressed,
    canonical_form,
    canonical_forms,
    compression_units,
    decode_quads,
    dedup,
    negate_row,
    normalize_signs_and_order,
    orbit_minimal,
    permute_row,
    quad_key,
    row_codes,
    row_key,
    unique_rows,
    unit_images,
    units,
)
from goodmat.errors import InvalidInputError
from goodmat.matching import match_codes, match_quadruples
from goodmat.seqcore import (
    CompressedQuad,
    DefiningQuad,
    compress3,
    iter_halves,
    make_skew,
    make_symmetric,
)
from goodmat.spectral import paf_certificate, paf_vector


# ── ordering convention: +1 before −1 ────────────────────────────────────────

def test_row_order_prefers_plus():
    assert sorted([(-1,), (1,)], key=row_key) == [(1,), (-1,)]


@given(st.lists(st.tuples(*[st.sampled_from((3, 1, -1, -3))] * 5), min_size=4, max_size=20))
def test_row_codes_realize_row_key_order(rows):
    codes = row_codes(rows).tolist()
    by_code = [row for _, row in sorted(zip(codes, rows))]
    assert by_code == sorted(rows, key=row_key)
    quads = np.array(codes[: len(codes) // 4 * 4]).reshape(-1, 4)
    assert [r for q in decode_quads(quads, 5) for r in q] == rows[: quads.size]
    shared = [0, 1, 0, 0, 1, 1, 0, 1]  # repeated codes: quads sharing rows
    got = decode_quads(np.array([codes[i] for i in shared]).reshape(2, 4), 5)
    assert [r for q in got for r in q] == [rows[i] for i in shared]


def test_row_codes_refuse_rows_longer_than_31():
    assert row_codes([[-3] * 31]) == 4 ** 31 - 1
    with pytest.raises(InvalidInputError):
        row_codes([[1] * 32])
    with pytest.raises(InvalidInputError):
        canonical_codes(np.zeros((1, 4), dtype=np.int64), 32)


def test_row_key_orders_magnitudes():
    # Compressed alphabet: +3 < +1 < −1 < −3 at each position.
    got = sorted([(-3,), (-1,), (1,), (3,)], key=row_key)
    assert got == [(3,), (1,), (-1,), (-3,)]


# ── elementary moves ─────────────────────────────────────────────────────────

def test_negate_and_permute():
    assert negate_row((1, -1, 1)) == (-1, 1, -1)
    assert permute_row((1, 2, 3, 4, 5), 2) == (1, 3, 5, 2, 4)


def test_units_small():
    assert units(1) == (1,)
    assert units(9) == (1, 2, 4, 5, 7, 8)
    assert units(15) == (1, 2, 4, 7, 8, 11, 13, 14)


def test_automorphism_requires_unit(known3):
    with pytest.raises(InvalidInputError):
        apply_automorphism(known3, 0)
    with pytest.raises(InvalidInputError):
        apply_automorphism(known3, 3)  # gcd(3,3) ≠ 1


def test_automorphism_composition(known27):
    one = apply_automorphism(apply_automorphism(known27, 2), 5)
    both = apply_automorphism(known27, 10)
    assert one == both


def test_normalize_signs_and_order(known3):
    a, b, c, d = known3
    scrambled = DefiningQuad(a, negate_row(d), b, negate_row(c))
    fixed = normalize_signs_and_order(scrambled)
    assert fixed.a == a
    assert all(row[0] == 1 for row in fixed.rows())
    assert sorted(fixed.rows()[1:], key=row_key) == list(fixed.rows()[1:])


# ── canonical form ───────────────────────────────────────────────────────────

def quad_transforms(n):
    """Strategy: a random equivalence move (permutation, signs, automorphism)."""
    return st.tuples(
        st.permutations([0, 1, 2]),
        st.tuples(*([st.sampled_from((1, -1))] * 3)),
        st.sampled_from(units(n)),
    )


def transformed(quad, move):
    perm, signs, u = move
    bcd = [quad.b, quad.c, quad.d]
    bcd = [bcd[i] for i in perm]
    bcd = [negate_row(r) if s < 0 else r for r, s in zip(bcd, signs)]
    return apply_automorphism(DefiningQuad(quad.a, *bcd), u)


@given(st.data())
def test_canonical_form_orbit_invariance(known27, data):
    move = data.draw(quad_transforms(27))
    assert canonical_form(transformed(known27, move)) == canonical_form(known27)


def test_canonical_form_idempotent(known27):
    canon = canonical_form(known27)
    assert canonical_form(canon.quad) == canon
    assert isinstance(canon, CanonicalQuad) and paf_certificate(canon.quad)


def test_canonical_forms_distinguish_classes(known3, known27, known57):
    keys = {canonical_form(q) for q in (known3, known27, known57)}
    assert len(keys) == 3


def full_orbit_minimum(quad):
    """canonical_form by brute force: every unit, then signs and order."""
    return min((normalize_signs_and_order(apply_automorphism(quad, u)) for u in units(quad.n)),
               key=quad_key)


@given(st.data())
def test_canonical_forms_equal_the_orbit_minimum(data):
    # n ≥ 63: rows longer than one int64 word of 63 bits
    n = data.draw(st.sampled_from((9, 27, 63, 69, 93)), label="n")
    row = st.tuples(*[st.sampled_from((1, -1))] * n)
    pool = data.draw(st.lists(row, min_size=1, max_size=3), label="pool")
    # B, C, D from a small pool, each possibly negated: repeated and negated rows tie
    bcd = st.tuples(st.sampled_from(pool), st.sampled_from((1, -1))).map(
        lambda pick: tuple(pick[1] * e for e in pick[0]))
    quads = data.draw(st.lists(st.builds(DefiningQuad, row, bcd, bcd, bcd),
                               min_size=1, max_size=6), label="quads")
    got = canonical_forms(quads)
    assert [c.quad for c in got] == [full_orbit_minimum(q) for q in quads]
    assert all(isinstance(c, CanonicalQuad) for c in got)
    assert [paf_certificate(c.quad) for c in got] == [paf_certificate(q) for q in quads]
    assert [canonical_form(q) for q in quads] == got


def test_canonical_forms_across_blocks(monkeypatch, known3, known27):
    quads = [transformed(known27, (perm, (1, -1, 1), u))
             for perm in ((0, 1, 2), (2, 0, 1)) for u in units(27)[:5]]
    monkeypatch.setattr(equiv, "_FORMS_CHUNK", 3)  # 10 quads: four blocks, a ragged last one
    assert canonical_forms(quads) == [canonical_form(known27)] * len(quads)
    assert canonical_forms([]) == []
    with pytest.raises(InvalidInputError):
        canonical_forms([known3, known27])


# ── compressed canonical form ────────────────────────────────────────────────

def test_canonical_compressed_tracks_full_moves(known27):
    n = 27
    cq = CompressedQuad(*(compress3(r) for r in known27.rows()))
    for u in units(n):
        img = apply_automorphism(known27, u)
        cq_img = CompressedQuad(*(compress3(r) for r in img.rows()))
        assert canonical_compressed(cq_img, n) == canonical_compressed(cq, n)


def test_canonical_compressed_reorder_invariance():
    cq = CompressedQuad((1,), (3,), (-1,), (-1,))
    flipped = CompressedQuad((1,), (-1,), (3,), (-1,))
    assert canonical_compressed(cq, 3) == canonical_compressed(flipped, 3)


def orbit_minimum(cq):
    """canonical_compressed by brute force: every unit, B, C, D sorted."""
    return min(
        (CompressedQuad(permute_row(cq.ac, u),
                        *sorted((permute_row(r, u) for r in cq.rows()[1:]), key=row_key))
         for u in units(cq.m)),
        key=quad_key,
    )


@given(st.data())
def test_canonical_codes_equal_the_orbit_minimum(data):
    m = data.draw(st.sampled_from((1, 3, 5, 7, 9, 11, 13)))
    row = st.tuples(*[st.sampled_from((3, 1, -1, -3))] * m)
    quads = data.draw(st.lists(st.builds(CompressedQuad, row, row, row, row),
                               min_size=1, max_size=12))
    got = decode_quads(canonical_codes(row_codes([q.rows() for q in quads]), m), m)
    assert got == [orbit_minimum(q) for q in quads]
    assert [canonical_compressed(q, 3 * m) for q in quads] == got


def test_canonical_codes_across_blocks(monkeypatch):
    n = 15
    s_q = match_quadruples(generate_candidates(n, signed_rowsums(n)), n)
    monkeypatch.setattr(equiv, "_CANON_CHUNK", 7)  # 264 quads: many blocks, a ragged last one
    got = decode_quads(canonical_codes(row_codes([q.rows() for q in s_q]), 5), 5)
    assert got == [orbit_minimum(q) for q in s_q]


@given(st.data())
def test_unit_images_are_the_permuted_rows(data):
    m = data.draw(st.sampled_from((1, 3, 5, 7, 9, 11, 13)))
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from((3, 1, -1, -3))] * m),
                              min_size=1, max_size=8))
    images = unit_images(row_codes(rows), m)
    assert images.tolist() == [row_codes([permute_row(r, u) for r in rows]).tolist()
                               for u in units(m)]


@given(st.data())
def test_orbit_minimal_rows_are_their_orbit_minimum(data):
    m = data.draw(st.sampled_from((1, 3, 5, 7, 9, 11, 13)))
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from((3, 1, -1, -3))] * m),
                              max_size=8))
    want = [r == min((permute_row(r, u) for u in units(m)), key=row_key) for r in rows]
    got = orbit_minimal(np.array(rows, dtype=np.int64).reshape(len(rows), m), units(m))
    assert got.tolist() == want


@pytest.mark.parametrize("n", [3, 9, 15, 21])
def test_compression_units_fix_every_compressed_row(n):
    m = n // 3
    group = compression_units(n)
    assert group[0] == 1 and len(group) == (3 if n % 9 == 0 else 2)
    assert set(group) == {u for u in units(n) if u % m == 1 % m}
    for u in group:
        assert (u * u) % n in group  # closed: a group, not just a set
        cols = sorted({min(u * k % n, -u * k % n) for k in range(1, n // 2 + 1)})
        assert cols == list(range(1, n // 2 + 1))  # PAF columns permuted
        for make, sign in ((make_skew, -1), (make_symmetric, 1)):
            for half in iter_halves(n // 2):
                row = make(half, n)
                image = permute_row(row, u)
                assert compress3(image) == compress3(row)
                assert image[0] == row[0] == 1
                assert all(image[n - j] == sign * image[j] for j in range(1, n))
                # PAF_{X∘u}(k) = PAF_X(u·k), and PAF is even in k
                paf, paf_image = paf_vector(row), paf_vector(image)  # k = 0..⌊n/2⌋
                assert all(paf_image[k] == paf[min(u * k % n, -u * k % n)]
                           for k in range(1, n // 2 + 1))


@given(st.data())
def test_compression_minimal_rows_are_their_orbit_minimum(data):
    n = data.draw(st.sampled_from((3, 9, 15, 21, 27)))
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from((1, -1))] * n), max_size=8))
    want = [r == min((permute_row(r, u) for u in compression_units(n)), key=row_key)
            for r in rows]
    got = orbit_minimal(np.array(rows, dtype=np.int8).reshape(len(rows), n), compression_units(n))
    assert got.tolist() == want


@pytest.mark.parametrize("n", [9, 15, 21, 27, 33])
def test_canonical_quads_have_orbit_minimal_a(n):
    # what lets match_codes join only orbit-minimal A′ rows; its own cut
    # (multipliers) equals matching the cut candidate sets
    cands = generate_candidates(n, signed_rowsums(n))
    a = {q.ac for q in decode_quads(canonical_codes(match_codes(cands, n), n // 3), n // 3)}
    cut = cands.sk[orbit_minimal(cands.sk, units(n // 3))]
    assert a and a <= set(map(tuple, cut.tolist()))
    assert np.array_equal(match_codes(cands, n, multipliers=units(n // 3)),
                          match_codes(replace(cands, sk=cut), n))


code_arrays = st.one_of(
    st.integers(0, 40).flatmap(lambda rows: st.lists(
        st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=rows, max_size=rows)),
    st.integers(1, 30).flatmap(lambda rows: st.lists(
        st.integers(0, 4**5 - 1), min_size=4, max_size=4).map(lambda row: [row] * rows)),
).map(lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), 4))


@given(code_arrays)
def test_unique_rows_equals_np_unique(codes):
    got = unique_rows(codes)
    want = np.unique(codes, axis=0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


def test_canonical_compressed_checks_order():
    with pytest.raises(InvalidInputError):
        canonical_compressed(CompressedQuad((1,), (3,), (-1,), (-1,)), 5)


# ── dedup ────────────────────────────────────────────────────────────────────

def test_dedup_collapses_equivalent_variants(known3):
    variants = [transformed(known3, ((1, 0, 2), (1, -1, 1), 2)), known3]
    out = dedup(variants, canonical_form)
    assert out == [canonical_form(known3)]
    assert isinstance(out[0], CanonicalQuad)


def test_dedup_multiple_classes(known3, known27):
    out = dedup([known27, known3, known3], canonical_form)
    assert len(out) == 2
    assert sorted(out, key=lambda c: c.sort_key()) == out
