"""Candidate generation: the 2^d sweep with PSD and rowsum screens.

Oracle: a pure-Python re-derivation (no numpy, no shared helpers beyond the
row constructors) of the compressed candidate sets.
"""

import cmath
import hashlib
import io

import pytest

from goodmat import candidates
from goodmat.candidates import CandidateSets, generate_candidates, write_compressed_rows
from goodmat.diophantine import rowsum_components, signed_rowsums
from goodmat.errors import InvalidInputError
from goodmat.seqcore import compress3, iter_halves, make_skew, make_symmetric


def oracle_candidates(n, rowsums, psd_filter=True, rowsum_filter=True):
    d = n // 2
    bound = 4 * n + 1e-2
    allowed = rowsum_components(rowsums)

    def psd_ok(row):
        return all(
            abs(sum(v * cmath.exp(2j * cmath.pi * j * k / n)
                    for j, v in enumerate(row))) ** 2 <= bound
            for k in range(n)
        )

    s_sk, s_sy = set(), set()
    for half in iter_halves(d):
        row = make_skew(half, n)
        if not psd_filter or psd_ok(row):
            s_sk.add(compress3(row))
        row = make_symmetric(half, n)
        if rowsum_filter and sum(row) not in allowed:
            continue
        if not psd_filter or psd_ok(row):
            s_sy.add(compress3(row))
    return s_sk, s_sy


@pytest.mark.parametrize("n", [3, 9, 15, 21])
def test_matches_pure_python_oracle(n):
    rowsums = signed_rowsums(n)
    got = generate_candidates(n, rowsums)
    want_sk, want_sy = oracle_candidates(n, rowsums)
    assert got.s_sk == want_sk
    assert got.s_sy == want_sy
    assert (got.n, got.m, got.d) == (n, n // 3, n // 2)


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


def test_empty_rowsums_short_circuits():
    got = generate_candidates(9, frozenset())
    assert got.s_sk == frozenset() and got.s_sy == frozenset()


def test_order_validation():
    rowsums = signed_rowsums(9)
    with pytest.raises(InvalidInputError):
        generate_candidates(8, rowsums)
    with pytest.raises(InvalidInputError):
        generate_candidates(5, rowsums)   # odd but not divisible by 3
    with pytest.raises(InvalidInputError):
        generate_candidates(1, rowsums)


def test_compressed_rows_round_trip():
    rows = [(1, 3, -1), (1, -3, 1)]
    buf = io.StringIO()
    write_compressed_rows(buf, rows)
    assert buf.getvalue() == "1,3,-1\n1,-3,1\n"


# ── the low-pattern table and its high blocks ───────────────────────────────

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
@pytest.mark.parametrize("filters", [True, False])
def test_many_high_blocks_match_oracle(monkeypatch, n, filters):
    # 3 low bits leave 2^(d-3) high blocks (16 at n = 15, 128 at n = 21), and
    # a merge after every 5 blocks, so the block offsets and merges all run
    monkeypatch.setattr(candidates, "_LOW_BITS", 3)
    monkeypatch.setattr(candidates, "_MERGE_EVERY", 5)
    rowsums = signed_rowsums(n)
    got = generate_candidates(n, rowsums, psd_filter=filters, rowsum_filter=filters)
    want_sk, want_sy = oracle_candidates(n, rowsums, psd_filter=filters,
                                         rowsum_filter=filters)
    assert got.s_sk == want_sk and got.s_sy == want_sy


@pytest.mark.parametrize("n, sizes, digest", [
    # recorded from the complex-DFT sweep this kernel replaced
    (27, (128, 197), "e223847992c62804d3cf62382aaf1f6313d7776552327c267f75b14dffd875ce"),
    (33, (404, 678), "ab3a499ccd926a411d22d1714a9823cc7653cc48565d28d0f39cd98e9e652e46"),
    (39, (1344, 1721), "726e6f48b73e992f0c6785368696ae7194fd33b0059b10d3e9c54c9e3b598f4c"),
    (45, (4712, 6233), "b81fe1b983ec0e386a0bf79b735bf91fd86b747390d830b2e1b6177158125eaf"),
])
def test_frozen_sets_n27_to_n45(n, sizes, digest):
    got = generate_candidates(n, signed_rowsums(n))
    assert (len(got.s_sk), len(got.s_sy)) == sizes
    assert sets_digest(got) == digest


def test_high_signs_follow_the_counter_bits():
    # d = 34 (n = 69): counter bits 32 and 33 lie past a uint32
    d, low = 34, 15
    for high in (0, 1, (1 << 17) | 5, (1 << 18) | (1 << 17), (1 << (d - low)) - 1):
        counter = high << low
        want = [1 - 2 * ((counter >> i) & 1) for i in range(low, d)]
        assert candidates._high_signs(high, d, low).tolist() == want


def test_row_codes_past_int64_refused_before_sweeping(monkeypatch):
    def no_sweep(n):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(candidates, "half_basis", no_sweep)
    with pytest.raises(InvalidInputError, match="exceeds 31"):
        generate_candidates(99, signed_rowsums(99))  # m = 33
