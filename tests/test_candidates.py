"""Candidate generation: the compressed sweep with PSD and rowsum screens.

Oracle: a pure-Python re-derivation over all 2^d full rows (no numpy, no
shared helpers beyond the row constructors) of the compressed candidate sets.
"""

import cmath
import hashlib

import numpy as np
import pytest

from goodmat import candidates
from goodmat.candidates import CandidateSets, generate_candidates
from goodmat.diophantine import rowsum_components, signed_rowsums
from goodmat.errors import InvalidInputError
from goodmat.pipeline import prepare_instances
from goodmat.seqcore import compress3, iter_halves, make_skew, make_symmetric
from goodmat.spectral import psd_bound
from goodmat.uncompress import preimage_table


def psd_ok(row, slack=1e-2):
    n = len(row)
    return all(
        abs(sum(v * cmath.exp(2j * cmath.pi * j * k / n)
                for j, v in enumerate(row))) ** 2 <= 4 * n + slack
        for k in range(n)
    )


def oracle_candidates(n, rowsums, psd_filter=True, rowsum_filter=True, slack=1e-2):
    d = n // 2
    allowed = rowsum_components(rowsums)
    s_sk, s_sy = set(), set()
    for half in iter_halves(d):
        row = make_skew(half, n)
        if not psd_filter or psd_ok(row, slack):
            s_sk.add(compress3(row))
        row = make_symmetric(half, n)
        if rowsum_filter and sum(row) not in allowed:
            continue
        if not psd_filter or psd_ok(row, slack):
            s_sy.add(compress3(row))
    return s_sk, s_sy


@pytest.mark.parametrize("n", [3, 9, 15, 21])
def test_matches_pure_python_oracle(n):
    rowsums = signed_rowsums(n)
    got = generate_candidates(n, rowsums)
    want_sk, want_sy = oracle_candidates(n, rowsums)
    assert got.s_sk == want_sk
    assert got.s_sy == want_sy
    assert (got.n, got.m) == (n, n // 3)


def test_frozen_counts_n9_n15():
    # Counts independently confirmed by oracle_candidates above.
    c9 = generate_candidates(9, signed_rowsums(9))
    assert (len(c9.s_sk), len(c9.s_sy)) == (4, 6)
    c15 = generate_candidates(15, signed_rowsums(15))
    assert (len(c15.s_sk), len(c15.s_sy)) == (12, 20)


def test_filters_only_shrink():
    n = 15
    rowsums = signed_rowsums(n)
    full = generate_candidates(n, rowsums, psd_filter=False, rowsum_filter=False)
    filt = generate_candidates(n, rowsums)
    assert filt.s_sk < full.s_sk
    assert filt.s_sy < full.s_sy


def test_unfiltered_oracle_agreement():
    n = 9
    rowsums = signed_rowsums(n)
    got = generate_candidates(n, rowsums, psd_filter=False, rowsum_filter=False)
    want_sk, want_sy = oracle_candidates(n, rowsums, psd_filter=False,
                                         rowsum_filter=False)
    assert got.s_sk == want_sk and got.s_sy == want_sy


def test_compressed_alphabet_and_first_entries():
    n = 15
    cands = generate_candidates(n, signed_rowsums(n))
    for row in cands.s_sk | cands.s_sy:
        assert len(row) == n // 3
        assert set(row) <= {-3, -1, 1, 3}
    # Skew rows always compress to first entry exactly 1; symmetric rows to
    # 1 + 2·x_m ∈ {3, -1}.
    assert {row[0] for row in cands.s_sk} == {1}
    assert {row[0] for row in cands.s_sy} <= {3, -1}


@pytest.mark.parametrize("n, filters", [
    *[(n, True) for n in (9, 15, 21, 27, 33, 39, 45)],
    *[(n, False) for n in (9, 15, 21, 27)],
])
def test_candidate_arrays_hold_distinct_rows(n, filters):
    # the sweep's kept rows stay int8 arrays in sweep order; the set views
    # are built from them on each call
    got = generate_candidates(n, signed_rowsums(n), psd_filter=filters, rowsum_filter=filters)
    for rows, view in ((got.sk, got.s_sk), (got.sy, got.s_sy)):
        assert rows.dtype == np.int8 and rows.ndim == 2 and rows.shape[1] == n // 3
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert view == frozenset(map(tuple, rows.tolist()))


def test_empty_rowsums_short_circuits():
    got = generate_candidates(9, frozenset())
    assert got.sk.shape == got.sy.shape == (0, 3)
    assert got.s_sk == frozenset() and got.s_sy == frozenset()


def test_order_validation():
    rowsums = signed_rowsums(9)
    with pytest.raises(InvalidInputError):
        generate_candidates(8, rowsums)
    with pytest.raises(InvalidInputError):
        generate_candidates(5, rowsums)   # odd but not divisible by 3
    with pytest.raises(InvalidInputError):
        generate_candidates(1, rowsums)


# ── blocks, bounds and frozen sets ─────────────────────────────────────────

def sets_digest(cands):
    """SHA-256 of sorted s_sk then sorted s_sy, one row per line, a blank
    line after each set (the benchmark's sweep digest)."""
    h = hashlib.sha256()
    for rows in (sorted(cands.s_sk), sorted(cands.s_sy)):
        for row in rows:
            h.update(",".join(map(str, row)).encode() + b"\n")
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("n", [15, 21])
@pytest.mark.parametrize("filters", [(True, True), (False, False), (True, False), (False, True)],
                         ids=["True", "False", "psd_only", "rowsum_only"])
def test_many_high_blocks_match_oracle(monkeypatch, n, filters):
    # the sweep splits a row's number into L = ⌊log₄ _ROW_BLOCK⌋ low digits
    # and a high index: L = 0 (one line per high index), 1, 2, and every free
    # digit (n = 15 has 2, n = 21 has 3), where only B′_0's choice is high
    psd_filter, rowsum_filter = filters
    rowsums = signed_rowsums(n)
    want_sk, want_sy = oracle_candidates(n, rowsums, psd_filter=psd_filter,
                                         rowsum_filter=rowsum_filter)
    for block in (1, 4, 16, 4096):
        monkeypatch.setattr(candidates, "_ROW_BLOCK", block)
        got = generate_candidates(n, rowsums, psd_filter=psd_filter, rowsum_filter=rowsum_filter)
        assert got.s_sk == want_sk and got.s_sy == want_sy, block


@pytest.mark.parametrize("allowed", [[], [-100, -46, 46, 100]], ids=["none", "beyond_3m"])
def test_sweep_without_an_allowed_rowsum_keeps_nothing(allowed):
    # n = 45: every rowsum of a compressed row lies within ±3m = ±45
    got = candidates._sweep(15, False, psd_bound(45, True), allowed)
    assert got.shape == (0, 15) and got.dtype == np.int8


@pytest.mark.parametrize("n", [15, 21])
@pytest.mark.parametrize("slack", [-30.0, -40.0])
def test_tight_bounds_match_oracle(n, slack):
    # under 4n − 30 or 4n − 40 some compressed rows pass their own PSD and
    # rowsum screen but have no preimage within the bound: the sweep keeps
    # them, uncompression gives them an empty preimage group, and the rows
    # with a nonempty group are the oracle's sets
    rowsums = signed_rowsums(n)
    want = oracle_candidates(n, rowsums, slack=slack)
    swept = got = 0
    for skew, allowed, want_rows in ((True, None, want[0]),
                                     (False, sorted(rowsum_components(rowsums)), want[1])):
        rows = candidates._sweep(n // 3, skew, 4 * n + slack, allowed)
        table = preimage_table(rows, skew, bound=4 * n + slack)
        kept = {tuple(row) for row, c in zip(rows.tolist(), np.diff(table.offsets)) if c}
        assert kept == want_rows
        swept, got = swept + len(rows), got + len(kept)
    assert got < swept


def test_every_row_has_a_preimage_within_the_bound():
    n = 21
    got = generate_candidates(n, signed_rowsums(n))
    for rows, make in ((got.s_sk, make_skew), (got.s_sy, make_symmetric)):
        above: dict = {}
        for half in iter_halves(n // 2):
            row = make(half, n)
            above.setdefault(compress3(row), []).append(row)
        for crow in rows:
            assert any(psd_ok(row) for row in above.get(crow, [])), crow


@pytest.mark.parametrize("n", [27, 33, 39])
def test_every_row_has_a_nonempty_preimage_group(n):
    # the sweep screens compressed rows only; the full-length row bound of
    # uncompression leaves every row it keeps at least one preimage.  With the
    # rowsum filter on, test_frozen_sets_n27_to_n57 already pins this: its sets
    # were recorded from full-length sweeps that kept only such rows.
    got = generate_candidates(n, signed_rowsums(n), rowsum_filter=False)
    for rows, skew in ((got.s_sk, True), (got.s_sy, False)):
        table = preimage_table(np.array(sorted(rows)), skew, bound=psd_bound(n, True))
        assert np.diff(table.offsets).all()


@pytest.mark.parametrize("n, sizes, digest", [
    # n = 27 … 45 recorded from the complex-DFT sweep, n = 51 and 57 from the
    # 2^d half-basis sweep, both of which the compressed-first sweep replaced
    (27, (128, 197), "e223847992c62804d3cf62382aaf1f6313d7776552327c267f75b14dffd875ce"),
    (33, (404, 678), "ab3a499ccd926a411d22d1714a9823cc7653cc48565d28d0f39cd98e9e652e46"),
    (39, (1344, 1721), "726e6f48b73e992f0c6785368696ae7194fd33b0059b10d3e9c54c9e3b598f4c"),
    (45, (4712, 6233), "b81fe1b983ec0e386a0bf79b735bf91fd86b747390d830b2e1b6177158125eaf"),
    (51, (15008, 19333), "a582f8932c1c2a997617979e00e12e72769bfcdf3efbe9d6254dbf44669f746d"),
    (57, (49348, 80323), "0164969a0cf40c067b48866ab79271ae08807afedaebc3485f65542ad2989074"),
    # recorded from the compressed sweep that screened _ROW_BLOCK built rows
    # at a time, which the two-digit-table sweep replaced
    (63, (173604, 245097), "1ab24cedf5ea4ddb94ba868f7401285d3bb55b02ddf6751a9209dab53834b76e"),
])
def test_frozen_sets_n27_to_n57(n, sizes, digest):
    got = generate_candidates(n, signed_rowsums(n))
    assert (len(got.s_sk), len(got.s_sy)) == sizes
    assert sets_digest(got) == digest


def test_row_codes_past_int64_refused_before_sweeping(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(candidates, "_sweep", no_sweep)
    with pytest.raises(InvalidInputError, match="exceeds 31"):
        generate_candidates(99, signed_rowsums(99))  # m = 33
    with pytest.raises(InvalidInputError, match="exceeds 31"):  # the same rule at both entries
        prepare_instances(99, allow_large=True)
