"""Candidate generation: the compressed-first sweep with PSD and rowsum screens.

Oracle: a pure-Python re-derivation over all 2^d full rows (no numpy, no
shared helpers beyond the row constructors) of the compressed candidate sets.
"""

import cmath
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from goodmat import candidates
from goodmat.candidates import CandidateSets, generate_candidates
from goodmat.diophantine import rowsum_components, signed_rowsums
from goodmat.errors import InvalidInputError
from goodmat.pipeline import prepare_instances
from goodmat.seqcore import compress3, iter_halves, make_skew, make_symmetric
from goodmat.spectral import EPS, mirror_psd


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


# ── blocks, witness rounds and frozen sets ─────────────────────────────────

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
    # one compressed row per screen block, one preimage line per block and a
    # first witness round of one preimage, so every block and round boundary runs
    monkeypatch.setattr(candidates, "_ROW_BLOCK", 1)
    monkeypatch.setattr(candidates, "_FIRST_ROUND", 1)
    psd_filter, rowsum_filter = filters
    rowsums = signed_rowsums(n)
    got = generate_candidates(n, rowsums, psd_filter=psd_filter, rowsum_filter=rowsum_filter)
    want_sk, want_sy = oracle_candidates(n, rowsums, psd_filter=psd_filter,
                                         rowsum_filter=rowsum_filter)
    assert got.s_sk == want_sk and got.s_sy == want_sy


@pytest.mark.parametrize("n", [15, 21])
@pytest.mark.parametrize("slack", [-30.0, -40.0])
def test_tight_bounds_match_oracle(n, slack):
    # under 4n − 30 or 4n − 40 some compressed rows pass their own PSD and
    # rowsum screen but have no preimage within the bound
    rowsums = signed_rowsums(n)
    allowed = sorted(rowsum_components(rowsums))
    s_sk = candidates._sweep(n // 3, True, 4 * n + slack, None)
    s_sy = candidates._sweep(n // 3, False, 4 * n + slack, allowed)
    want_sk, want_sy = oracle_candidates(n, rowsums, slack=slack)
    assert s_sk == want_sk and s_sy == want_sy
    full = generate_candidates(n, rowsums)  # a tighter bound only shrinks the sets
    assert s_sk < full.s_sk and s_sy <= full.s_sy


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


@pytest.mark.parametrize("n, sizes, digest", [
    # n = 27 … 45 recorded from the complex-DFT sweep, n = 51 and 57 from the
    # 2^d half-basis sweep, both of which the compressed-first sweep replaced
    (27, (128, 197), "e223847992c62804d3cf62382aaf1f6313d7776552327c267f75b14dffd875ce"),
    (33, (404, 678), "ab3a499ccd926a411d22d1714a9823cc7653cc48565d28d0f39cd98e9e652e46"),
    (39, (1344, 1721), "726e6f48b73e992f0c6785368696ae7194fd33b0059b10d3e9c54c9e3b598f4c"),
    (45, (4712, 6233), "b81fe1b983ec0e386a0bf79b735bf91fd86b747390d830b2e1b6177158125eaf"),
    (51, (15008, 19333), "a582f8932c1c2a997617979e00e12e72769bfcdf3efbe9d6254dbf44669f746d"),
    (57, (49348, 80323), "0164969a0cf40c067b48866ab79271ae08807afedaebc3485f65542ad2989074"),
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


# ── the preimage screen: choice triples, gathered rows, witness order ──────

def scatter_rows(layout, skew, owner, local):
    """Preimage number local[i] of compressed row owner[i] of a _layout as an
    int8 row, by the construction the gathered rows replaced: mixed-radix
    digits, a [value, digit] triple lookup and two column scatters."""
    value, stride, _ = layout
    free = value.shape[1]
    m = 2 * free - 1
    value = value[owner]
    digit = local[:, None] // stride[owner] % candidates._CHOICE_COUNTS[value]
    triples = candidates._CHOICES.reshape(12, 3, 3)[value, digit]  # [line, group, 3]
    pos = np.arange(free)[:, None] + m * np.arange(3)  # group k: k, k + m, k + 2m
    rows = np.empty((len(owner), 3 * m), dtype=np.int8)
    rows[:, pos.ravel()] = triples.reshape(len(owner), pos.size)
    # group m − k mirrors group k: x_{n−j} = ±x_j; group 0 mirrors itself
    rows[:, (3 * m - pos[1:]).ravel()] = (-1 if skew else 1) * triples[:, 1:].reshape(
        len(owner), pos.size - 3)
    return rows


def image_rows(n, skew, sample=None):
    """Every compressed image row of order n and one skewness, or `sample`
    of them drawn without replacement."""
    m = n // 3
    total = (1 if skew else 2) << 2 * ((m - 1) // 2)
    index = np.arange(total)
    if sample is not None:
        index = np.sort(np.random.default_rng(n).choice(total, sample, replace=False))
    return candidates._image_rows(index, m, skew)


def every_line(layout, skew, bound=np.inf):
    """(owner, triples) of every preimage of a _layout's rows in order, kept
    against bound."""
    owners = np.arange(len(layout[2]))
    blocks = list(candidates._preimage_blocks(layout, skew, bound, owners, layout[2], 0 * owners))
    return np.concatenate([o for o, _ in blocks]), np.concatenate([c for _, c in blocks])


@pytest.mark.parametrize("n, sample", [(9, None), (15, None), (21, None), (27, None),
                                       (45, 12), (57, 4)])
@pytest.mark.parametrize("skew", [True, False], ids=["skew", "symmetric"])
def test_choice_screen_equals_mirror_psd(n, sample, skew):
    layout = candidates._layout(image_rows(n, skew, sample), skew)
    owner, triples = every_line(layout, skew)
    assert len(owner) == layout[2].sum()
    proj = triples.astype(float) @ candidates._choice_maps(n // 3, skew)[0]
    got = 1 + proj**2 if skew else (1 + proj) ** 2
    want = mirror_psd(candidates._preimage_rows(triples, skew), skew)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    # the screen keeps exactly the lines whose built row is within the bound
    bound = 4 * n + EPS
    assert np.abs(want.max(axis=1) - bound).min() > 1e-6
    kept = every_line(layout, skew, bound)
    passes = (want <= bound).all(axis=1)
    assert np.array_equal(kept[0], owner[passes])
    assert np.array_equal(kept[1], triples[passes])


@pytest.mark.parametrize("n", [3, 9, 15, 21])
@pytest.mark.parametrize("skew", [True, False], ids=["skew", "symmetric"])
def test_gathered_rows_equal_the_scatter_construction(n, skew):
    layout = candidates._layout(image_rows(n, skew), skew)
    count = layout[2]
    owner, triples = every_line(layout, skew)
    local = np.concatenate([np.arange(c) for c in count])
    want = scatter_rows(layout, skew, np.repeat(np.arange(len(count)), count), local)
    assert np.array_equal(candidates._preimage_rows(triples, skew), want)


@pytest.mark.parametrize("n", [45, 57])
@pytest.mark.parametrize("skew", [True, False], ids=["skew", "symmetric"])
def test_gathered_rows_equal_the_scatter_construction_sampled(n, skew):
    # sampled rows, each from a random first preimage for a random number of
    # lines that may wrap round past its last preimage
    layout = candidates._layout(image_rows(n, skew, 64), skew)
    count = layout[2]
    rng = np.random.default_rng(n + skew)
    first = rng.integers(0, count)
    take = rng.integers(1, 2 * count + 1)
    blocks = list(candidates._preimage_blocks(layout, skew, np.inf, np.arange(64), take, first))
    owner = np.concatenate([o for o, _ in blocks])
    triples = np.concatenate([t for _, t in blocks])
    assert np.array_equal(owner, np.repeat(np.arange(64), take))
    local = np.concatenate([(f + np.arange(t)) % c for f, t, c in zip(first, take, count)])
    assert np.array_equal(candidates._preimage_rows(triples, skew),
                          scatter_rows(layout, skew, owner, local))


def worst_psd(layout, skew):
    """Per row of a _layout, the largest PSD of each of its preimages in
    order, from a DFT of the scatter-built rows."""
    count = layout[2]
    rows = scatter_rows(layout, skew, np.repeat(np.arange(len(count)), count),
                        np.concatenate([np.arange(c) for c in count]))
    worst = (np.abs(np.fft.fft(rows, axis=1)) ** 2).max(axis=1)
    return np.split(worst, np.cumsum(count)[:-1])


@pytest.mark.parametrize("n", [15, 21])
@given(data=st.data())
def test_witness_search_equals_the_brute_force(n, data):
    # one line per block and a first round of one preimage, so the wrap from
    # count // 2 crosses every block and round edge; the batch mixes image
    # rows (1 and 2 preimages among them) with rows that have none
    skew = data.draw(st.booleans(), label="skew")
    m = n // 3
    pool = np.concatenate([image_rows(n, skew), [(1,) * m, (3,) + (-1,) * (m - 1)]])
    pick = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=24))
    crows = pool[pick]
    layout = candidates._layout(crows, skew)
    worst = worst_psd(layout, skew)
    bound = data.draw(st.floats(4 * n - 40, 4 * n + EPS), label="bound")
    assume(all(np.abs(w - bound).min() > 1e-6 for w in worst if len(w)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(candidates, "_ROW_BLOCK", 1)
        patch.setattr(candidates, "_FIRST_ROUND", 1)
        got = candidates._witnessed(crows, skew, bound)
    assert got.tolist() == [bool((w <= bound).any()) for w in worst]


@pytest.mark.parametrize("n", [15, 21])
@given(data=st.data())
def test_witness_search_finds_a_lone_passing_preimage(n, data):
    # the real PSD rarely singles out one preimage (the compression units
    # permute a row's preimages and keep their largest PSD), so the screen
    # is replaced by one that passes only drawn preimages: none, the first,
    # the last or a few others of each row
    skew = data.draw(st.booleans(), label="skew")
    pool = image_rows(n, skew)
    crows = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=24))]
    layout = candidates._layout(crows, skew)
    count = layout[2]
    owner, triples = every_line(layout, skew)
    number = {(o, tuple(t)): i
              for o, t, i in zip(owner.tolist(), triples.tolist(),
                                 np.concatenate([np.arange(c) for c in count]).tolist())}
    passing = [data.draw(st.one_of(st.just(set()), st.just({0}), st.just({c - 1}),
                                   st.sets(st.integers(0, c - 1), max_size=3)))
               for c in count.tolist()]
    screen, tried = candidates._preimage_blocks, []

    def drawn_screen(layout, skew, bound, owners, take, first):
        for o, c in screen(layout, skew, np.inf, owners, take, first):
            lines = [(r, number[r, tuple(t)]) for r, t in zip(o.tolist(), c.tolist())]
            tried.extend(lines)
            keep = np.array([i in passing[r] for r, i in lines], dtype=bool)
            yield o[keep], c[keep]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(candidates, "_ROW_BLOCK", 1)
        patch.setattr(candidates, "_FIRST_ROUND", 1)
        patch.setattr(candidates, "_preimage_blocks", drawn_screen)
        got = candidates._witnessed(crows, skew, 0.0)
    assert got.tolist() == [bool(p) for p in passing]
    assert len(set(tried)) == len(tried)  # no preimage is tried twice
    for r, c in enumerate(count.tolist()):
        # from the middle preimage, wrapping round, up to the end of the round
        # (1, 3, 7, … lines) that meets the first passing one, or every line
        wrap = [(c // 2 + j) % c for j in range(c)]
        hit = next((j for j, i in enumerate(wrap) if i in passing[r]), c)
        edge = 1
        while edge <= hit and edge < c:
            edge = 2 * edge + 1
        assert [i for row, i in tried if row == r] == wrap[:edge]
