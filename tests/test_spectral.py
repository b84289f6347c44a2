"""Power spectral density, periodic autocorrelation, and the exact certificate.

The oracle here is a from-scratch O(n²) DFT using cmath — no shared code with
the numpy implementation under test.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodmat.seqcore import DefiningQuad
from goodmat.spectral import (
    EPS,
    dft_basis,
    full_psd_sum,
    half_basis,
    mirror_psd,
    paf,
    paf_certificate,
    paf_matrix,
    paf_sums,
    paf_vector,
    psd_values,
)

rows = st.integers(1, 40).flatmap(
    lambda n: st.tuples(*([st.sampled_from((1, -1))] * n))
)
int_rows = st.integers(1, 24).flatmap(
    lambda n: st.tuples(*([st.integers(-3, 3)] * n))
)


def oracle_psd(x, k):
    n = len(x)
    f = sum(v * cmath.exp(2j * cmath.pi * j * k / n) for j, v in enumerate(x))
    return abs(f) ** 2


def oracle_paf(x, k):
    n = len(x)
    return sum(x[j] * x[(j + k) % n] for j in range(n))


# ── PSD ──────────────────────────────────────────────────────────────────────

@given(int_rows)
def test_psd_values_match_dft_oracle(x):
    vals = psd_values(x)
    assert len(vals) == len(x) // 2 + 1
    for k, got in enumerate(vals):
        assert got == pytest.approx(oracle_psd(x, k), abs=1e-6)


@given(rows)
def test_psd_conjugate_symmetry(x):
    n = len(x)
    for k in range(n):
        assert oracle_psd(x, k) == pytest.approx(oracle_psd(x, (n - k) % n), abs=1e-6)


def test_psd_zero_is_rowsum_squared(known27):
    for row in known27.rows():
        assert psd_values(row)[0] == pytest.approx(sum(row) ** 2, abs=1e-9)


@given(rows)
def test_parseval(x):
    n = len(x)
    assert full_psd_sum(x) == pytest.approx(n * n, abs=EPS)


def test_dft_basis_cached_and_shaped():
    assert dft_basis(9) is dft_basis(9)
    assert dft_basis(9).shape == (9, 5)


def test_half_basis_cached_and_shaped():
    assert half_basis(9) is half_basis(9)
    assert half_basis(9).shape == (4, 10)
    assert half_basis(1).shape == (0, 2)


@given(st.integers(1, 22), st.booleans(), st.data())
def test_mirror_psd_matches_psd_values(h, skew, data):
    # a mirror row of odd length 2h + 1 (±1 entries, or ±1/±3 as after
    # 3-compression): x_{n-j} = ±x_j for j = 1..h
    first = data.draw(st.sampled_from((1, -1, 3, -3)))
    half = data.draw(st.tuples(*([st.sampled_from((1, -1, 3, -3))] * h)))
    sign = -1 if skew else 1
    row = (first,) + half + tuple(sign * v for v in reversed(half))
    got = mirror_psd(np.array([row]), skew)
    assert got.shape == (1, h + 1)
    assert np.allclose(got[0], psd_values(row), rtol=0, atol=1e-9)


# ── PAF ──────────────────────────────────────────────────────────────────────

@given(int_rows, st.integers(0, 30))
def test_paf_matches_oracle(x, k):
    assert paf(x, k % len(x)) == oracle_paf(x, k % len(x))


@given(int_rows)
def test_paf_reflection_symmetry(x):
    n = len(x)
    for k in range(n):
        assert paf(x, k) == paf(x, (n - k) % n)


def test_paf_vector_shape_and_zero_lag(known27):
    vec = paf_vector(known27.b)
    assert len(vec) == 27 // 2 + 1
    assert vec[0] == 27  # ±1 row: zero-lag autocorrelation is n


# ── the exact goodness certificate ───────────────────────────────────────────

def test_certificate_on_known_quads(known3, known27, known57):
    for quad in (known3, known27, known57):
        assert paf_certificate(quad)


def test_certificate_rejects_single_flip(known27):
    a = list(known27.a)
    a[3] = -a[3]
    a[27 - 3] = -a[27 - 3]  # keep the row skew so only goodness breaks
    broken = DefiningQuad(tuple(a), known27.b, known27.c, known27.d)
    assert not paf_certificate(broken)


def test_paf_matrix_widens_int8_rows():
    # compressed rows are int8; fifteen entries of 3 give PAF values of 135 > 127
    assert paf_matrix(np.full((1, 15), 3, dtype=np.int8)).tolist() == [[135] * 8]


def test_paf_sums_agree_with_paf_certificate(known27, known57):
    # every one-entry flip of each known quad, and the quads themselves
    for quad in (known27, known57):
        quads = [quad]
        for r, row in enumerate(quad.rows()):
            for j in range(quad.n):
                rows = list(quad.rows())
                rows[r] = row[:j] + (-row[j],) + row[j + 1:]
                quads.append(DefiningQuad(*rows))
        sums = paf_sums(np.array(quads, dtype=np.int8))
        assert sums.tolist() == [[sum(paf(x, k) for x in q.rows())
                                  for k in range(1, quad.n // 2 + 1)] for q in quads]
        certified = ~sums.any(axis=1)
        assert certified.tolist() == [paf_certificate(q) for q in quads]
        # flipping a_0 keeps every PAF of a skew row (a_{-k} = -a_k); the rest break it
        assert certified[:2].all() and not certified[2:].any()


def test_certificate_is_exact_integer_arithmetic(known3):
    # The certificate must not depend on the float epsilon at all.
    assert paf_certificate(known3)
    bad = DefiningQuad(known3.a, known3.b, known3.c, (1, 1, 1))
    assert not paf_certificate(bad)


# ── the PSD bound ────────────────────────────────────────────────────────────

def test_good_quad_rows_saturate_filter(known27):
    # For a good quad the four PSDs sum to exactly 4n at every k, so the
    # filters' bound 4n + EPS keeps it with the slack EPS to spare.
    a, *bcd = (np.array([r]) for r in known27.rows())
    total = mirror_psd(a, skew=True) + sum(mirror_psd(r, skew=False) for r in bcd)
    assert total[0] == pytest.approx([4 * 27] * 14, abs=1e-6)
    assert (total <= 4 * 27 + EPS).all()


def test_filter_rejects_overshooting_row():
    n = 9
    psd = mirror_psd(np.ones((1, n)), skew=False)
    assert psd[0, 0] == pytest.approx(81)  # PSD(0) = rowsum² = 81 > 36 + EPS
    assert not (psd <= 4 * n + EPS).all()
