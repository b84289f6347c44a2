"""Uncompression by the full-length PAF-key join, against a brute force over the
preimage product and against the SAT reference."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from goodmat import matching
from goodmat import uncompress as uncompress_module
from goodmat.candidates import generate_candidates
from goodmat.diophantine import signed_rowsums
from goodmat.equiv import (
    apply_automorphism,
    canonical_compressed,
    canonical_form,
    compression_units,
    orbit_minimal,
    permute_row,
    row_key,
    units,
)
from goodmat.errors import InternalError
from goodmat.matching import match_codes, packed_keys
from goodmat.pipeline import FilterConfig, SearchReport, enumerate_good_matrices, prepare_instances
from goodmat.satsearch import build_instance, solve_all
from goodmat.seqcore import (
    CompressedQuad,
    DefiningQuad,
    compress3,
    iter_halves,
    make_skew,
    make_symmetric,
)
from goodmat.spectral import EPS, paf_certificate
from goodmat.uncompress import preimage_table, uncompress_all

DIGEST_15 = "81a5dcfcc5c92095cffd418d577a391e7d14f92962fa6238d20db1c8ca066146"


def preimages(crow, skew):
    """Every skew (or symmetric) ±1 row with first entry +1 that 3-compresses
    to crow: the unfiltered, uncut preimage table of crow alone."""
    return preimage_table(np.array([crow]), skew, bound=np.inf).rows


@pytest.mark.parametrize("n", [3, 9, 15])
def test_preimages_are_exactly_the_rows_that_compress(n):
    for skew, make in ((True, make_skew), (False, make_symmetric)):
        by_compression: dict = {}
        for half in iter_halves(n // 2):
            row = make(half, n)
            by_compression.setdefault(compress3(row), set()).add(row)
        for crow, rows in by_compression.items():
            got = preimages(crow, skew)
            assert {tuple(r) for r in got.tolist()} == rows
            assert len(got) == len(rows)  # no row twice
            assert len(got) <= (2 if skew else 1) * 3 ** ((n // 3 - 1) // 2)


def test_preimages_of_an_impossible_compression_are_empty():
    assert len(preimages((1, 1, 1), skew=True)) == 0      # a skew c′ has c′_2 = −c′_1
    assert len(preimages((1, -1, -1), skew=False)) == 0  # c′_0 = 1 is odd for symmetric rows


@pytest.mark.parametrize("n", [9, 15])
def test_preimage_table_slices_one_mixed_batch(n):
    m = n // 3
    want: dict = {True: {}, False: {}}
    for skew, make in ((True, make_skew), (False, make_symmetric)):
        for half in iter_halves(n // 2):
            row = make(half, n)
            want[skew].setdefault(compress3(row), set()).add(row)
    # skew and symmetric compressions together, each at least twice, and rows
    # that are impossible for both (c′_{m−1} = c′_1, c′_0 = 1) among them
    sk, sy = sorted(want[True]), sorted(want[False])
    batch = [sk[0], sy[0], (1,) * m, (1,) + (-1,) * (m - 1), sk[1], sy[1]] + sk + sy[::-1]
    for skew in (True, False):
        table = preimage_table(np.array(batch), skew, bound=np.inf)
        assert table.offsets[0] == 0 and len(table.offsets) == len(batch) + 1
        assert table.offsets[-1] == len(table.rows) == len(table.paf) == table.psd.shape[1]
        for r, crow in enumerate(batch):
            got = table.rows[table.offsets[r] : table.offsets[r + 1]].tolist()
            assert len(set(map(tuple, got))) == len(got)  # no row twice
            assert set(map(tuple, got)) == want[skew].get(crow, set()), (skew, crow)
        sizes = np.diff(table.offsets)
        assert sizes[2] == sizes[3] == 0 and sizes[:2].any() and sizes[4:6].any()


@pytest.mark.parametrize("n", [9, 15, 21])
def test_preimage_table_cut_is_the_orbit_minimal_mask(n):
    # no multipliers keep every preimage (at bound +inf, all 2^⌊n/2⌋ skew
    # rows); the cut inside the table equals the uncut table cut afterwards:
    # the same rows in the same order, CSR offsets and join columns, and the
    # same packed keys with the radix of PAF(0) = n, which join_blocks picks
    crows = np.array(sorted({compress3(make_skew(half, n)) for half in iter_halves(n // 2)}))
    bound = 4 * n + EPS
    assert len(preimage_table(crows, True, bound=np.inf, multipliers=()).rows) == 2 ** (n // 2)
    full = preimage_table(crows, True, bound=bound)
    cut = preimage_table(crows, True, bound=bound, multipliers=compression_units(n))
    keep = orbit_minimal(full.rows, compression_units(n))
    assert 0 < keep.sum() < len(keep)
    owner = np.repeat(np.arange(len(crows)), np.diff(full.offsets))[keep]
    kept = np.bincount(owner, minlength=len(crows))
    assert np.array_equal(cut.offsets, np.concatenate([[0], np.cumsum(kept)]))
    assert np.array_equal(cut.rows, full.rows[keep])
    assert np.array_equal(cut.psd, full.psd[:, keep])
    assert np.array_equal(cut.paf, full.paf[keep])
    assert (full.paf[:, 0] == n).all()
    assert np.array_equal(packed_keys(cut.paf, n), packed_keys(full.paf, n)[keep])


def closure(quads):
    """The quads, their reorderings of the B, C, D rows whose compressed rows
    coincide, and the images of these under every compression unit; and a
    check that each quad's A is the minimum of its orbit, as uncompress_all
    keeps."""
    reordered = set()
    for q in quads:
        assert q.a == min((permute_row(q.a, u) for u in compression_units(q.n)), key=row_key)
        bcd = (q.b, q.c, q.d)
        for order in itertools.permutations(range(3)):
            if all(compress3(bcd[i]) == compress3(row) for i, row in zip(order, bcd)):
                reordered.add(DefiningQuad(q.a, *(bcd[i] for i in order)))
    return {apply_automorphism(q, u) for q in reordered for u in compression_units(q.n)}


@pytest.mark.parametrize("cfg", [FilterConfig(), FilterConfig.no_filters()],
                         ids=["filters", "no_filters"])
@pytest.mark.parametrize("n", [9, 15, 21])
def test_join_equals_sat_per_instance(n, cfg):
    # uncompress_all keeps one quad per orbit of the maps that fix every
    # compressed row; their closure is every SAT model
    instances = prepare_instances(n, filters=cfg)[0]
    joined, _ = uncompress_all(instances, row_filter=cfg.psd_candidates,
                               pair_filter=cfg.psd_pairs)
    assert len(joined) == len(instances)
    for cq, got in zip(instances, joined):
        inst = build_instance(cq, parity=cfg.parity_clauses)
        solve_all(inst, prefix_checks=cfg.prefix_checks)
        assert closure(got) == set(inst.solutions), f"instance {cq}"
        assert len(set(inst.solutions)) == len(inst.solutions)


@pytest.mark.parametrize("n, ids", [(3, [0]), (27, [14]), (33, [213, 290, 351, 594])])
def test_join_equals_sat_where_compressed_rows_coincide(n, ids):
    # every instance up to n = 45 with B′ = C′ or C′ = D′: the join keeps
    # b ≤ c ≤ d of their preimages, and the reorderings in closure restore
    # every SAT model; n = 3's models have C = D
    instances = prepare_instances(n)[0]
    for i in ids:
        cq = instances[i]
        assert cq.bc == cq.cc or cq.cc == cq.dc, f"instance {i}"
        inst = build_instance(cq)
        solve_all(inst)
        assert closure(uncompress_all([cq])[0][0]) == set(inst.solutions), f"instance {i}"
    if n == 3:
        assert inst.solutions and all(q.c == q.d for q in inst.solutions)


def full_paf(rows):
    """PAF at every lag 1..n−1 of each row, by the definition."""
    return np.stack([(rows * np.roll(rows, -k, axis=1)).sum(axis=1)
                     for k in range(1, rows.shape[1])], axis=1)


@pytest.mark.parametrize("filters", [True, False], ids=["filters", "no_filters"])
@pytest.mark.parametrize("n", [9, 15, 21])
def test_join_equals_the_preimage_product_per_instance(n, filters):
    # The reference: every quad of the four preimage sets whose PAF sums
    # vanish at every lag — the PAF certificate, over the whole product at
    # once.  No packing, no pair or row filter, no join, no orbit cut.
    for cq in prepare_instances(n)[0]:
        tables = [preimages(crow, r == 0) for r, crow in enumerate(cq.rows())]
        pa, pb, pc, pd = map(full_paf, tables)
        total = (pa[:, None, None, None] + pb[None, :, None, None]
                 + pc[None, None, :, None] + pd[None, None, None, :])
        want = [DefiningQuad(*(tuple(t[i].tolist()) for t, i in zip(tables, idx)))
                for idx in np.argwhere((total == 0).all(axis=-1))]
        assert all(paf_certificate(quad) for quad in want)
        got = uncompress_all([cq], row_filter=filters, pair_filter=filters)[0][0]
        assert closure(got) == set(want) and len(set(want)) == len(want), f"instance {cq}"


#: Raw models per instance index (the others have none), recorded before the
#: join keys were packed into one integer and before the A preimages were cut
#: to one per orbit of compression_units (so they now count the closure of
#: what uncompress_all returns), and the join counters (pairs_ab, pairs_cd,
#: key_hits) with the full-length pair screen on the PSD planes k ≢ 0 (mod 3)
#: only and the cut A table: the cut leaves pairs_cd as it was and shrinks
#: pairs_ab and key_hits (36486 and 39 at n = 27, 470272 and 248 at n = 33
#: without it).  n = 39 was recorded with all of these in place.  The join
#: pairs only c ≤ d of a C′ = D′ instance (n = 33: #213, #290, #594), which
#: took pairs_cd at n = 33 from 152413 to 152218; those instances have no model.
RAW_MODELS = {
    27: (186, {1: 3, 10: 6, 32: 3, 60: 3, 66: 3, 68: 3, 72: 3, 75: 3, 83: 3, 85: 3,
               135: 3, 168: 3}, (12262, 12081, 13)),
    33: (840, {134: 2, 169: 2, 301: 2, 405: 2, 473: 2, 499: 2, 504: 2, 549: 2, 575: 2,
               664: 2, 719: 2, 722: 2, 811: 2, 819: 2, 835: 2}, (235136, 152218, 138)),
    39: (1934, {129: 2, 404: 2, 694: 2, 1051: 2, 1859: 2}, (1598851, 981523, 1248)),
}


@pytest.mark.parametrize("n", sorted(RAW_MODELS))
def test_frozen_raw_models_per_instance(n):
    count, raw, counters = RAW_MODELS[n]
    instances = prepare_instances(n)[0]
    found, stats = uncompress_all(instances)
    assert len(found) == count
    assert {i: len(closure(quads)) for i, quads in enumerate(found) if quads} == raw
    assert (stats["pairs_ab"], stats["pairs_cd"], stats["key_hits"]) == counters


def test_known_57_instance_uncompresses_to_its_class(known57):
    # the order-57 instance alone, without the n = 57 sweep or matching
    instance = canonical_compressed(CompressedQuad(*map(compress3, known57.rows())), 57)
    found = {canonical_form(q) for q in uncompress_all([instance])[0][0]}
    assert canonical_form(known57) in found


def test_prefix_only_key_matches_are_dropped_not_raised(monkeypatch):
    # Keys of width 0 match every A×B pair with every C×D pair of a batch, as
    # a packed prefix does when the pairs differ only past its last column —
    # the pairs of other instances included, which must never reach the output.
    instances = prepare_instances(15)[0]
    want, stats = uncompress_all(instances)
    monkeypatch.setattr(matching, "packed_keys",
                        lambda paf, bound: np.zeros(len(paf), dtype=np.int64))
    owners = []  # per screen inside join_blocks: the instances of its batch

    def spy(psd_l, psd_r, blocks, bound):
        owners.append(len({owner for owner, *_ in blocks}))
        return screen(psd_l, psd_r, blocks, bound)

    screen = matching._screen_blocks
    monkeypatch.setattr(matching, "_screen_blocks", spy)
    got, wide = uncompress_all(instances)
    assert max(owners) > 1  # some batch joined pairs of several instances
    assert got == want
    assert wide["key_hits"] > stats["key_hits"] >= sum(map(len, want))


@pytest.mark.parametrize("filters", [True, False], ids=["filters", "no_filters"])
@pytest.mark.parametrize("n", [15, 21, 27, 33])
def test_batch_size_changes_nothing(n, filters, monkeypatch):
    # join_blocks batches owners: rowsum groups in match_codes, instances in
    # uncompress_all (not at n = 33, where that takes seconds per size); and
    # join_equal_keys emits key hits in chunks, one key per chunk with size 1
    cands = generate_candidates(n, signed_rowsums(n), psd_filter=filters, rowsum_filter=filters)
    instances = prepare_instances(n)[0] if n < 33 else []
    runs = []
    batch, emit = matching._BATCH_PAIRS, matching._EMIT_CHUNK  # the defaults
    for sizes in ((1, emit), (batch, emit), (1 << 40, emit), (batch, 1)):
        monkeypatch.setattr(matching, "_BATCH_PAIRS", sizes[0])
        monkeypatch.setattr(matching, "_EMIT_CHUNK", sizes[1])
        runs.append((match_codes(cands, n, pair_filter=filters, multipliers=units(n // 3)),
                     uncompress_all(instances, row_filter=filters, pair_filter=filters)))
    for codes, found in runs[1:]:
        assert np.array_equal(codes, runs[0][0]) and found == runs[0][1]
    assert len(runs[0][0]) and (n == 33 or sum(map(len, runs[0][1][0])) > 0)


def test_failed_certificate_raises_internal_error(monkeypatch):
    monkeypatch.setattr(uncompress_module, "paf_sums",
                        lambda quads: np.ones((len(quads), 1), dtype=np.int64))
    with pytest.raises(InternalError, match=r"fails the PAF certificate: DefiningQuad\(a="):
        enumerate_good_matrices(15)


def test_enumerate_under_python_O(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; from goodmat.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))",
         "enumerate", "15", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = SearchReport.from_json((tmp_path / "report-n15.json").read_text())
    assert report.exhaustive and report.inequivalent_count == 11
    assert report.digest == DIGEST_15
