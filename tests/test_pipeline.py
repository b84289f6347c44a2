"""End-to-end enumeration, matrix verification, oracle, and reporting."""

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import pytest

from goodmat import pipeline
from goodmat.cli import run_cli
from goodmat.candidates import CandidateSets, generate_candidates
from goodmat.diophantine import signed_rowsums
from goodmat.equiv import canonical_codes, canonical_form, decode_quads, quad_key
from goodmat.errors import ConstructionError, InternalError, InvalidInputError, ParseError
from goodmat.matching import all_arrangements, match_codes
from goodmat.pipeline import (
    FilterConfig,
    SearchReport,
    brute_force_oracle,
    build_skew_hadamard,
    circulant,
    enumerate_good_matrices,
    prepare_instances,
    recover_amicable,
    solution_digest,
    verify_definition,
)
from goodmat.seqcore import DefiningQuad
from goodmat.spectral import paf_certificate


# ── matrix-level verification ────────────────────────────────────────────────

def test_circulant_layout():
    got = circulant((1, 2, 3))
    assert got.tolist() == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]


def test_verify_definition_known(known3, known27, known57):
    assert verify_definition(known3)
    assert verify_definition(known27)
    assert verify_definition(known57)


def test_verify_definition_order_one():
    assert verify_definition(DefiningQuad((1,), (1,), (1,), (1,)))


def test_verify_definition_rejects_bad_quads(known3):
    a, b, c, d = known3
    assert not verify_definition(DefiningQuad(a, b, c, (1, 1, 1)))   # not good
    assert not verify_definition(DefiningQuad(b, b, c, d))           # A not skew
    assert not verify_definition(DefiningQuad(a, a, c, d))           # B not symmetric
    assert not verify_definition(DefiningQuad(a, (1, 0, 1), c, d))   # not ±1


def test_recover_amicable_known27(known27):
    mats = recover_amicable(known27)
    assert len(mats) == 4
    n = 27
    total = sum(m @ m.T for m in mats)
    assert np.array_equal(total, 4 * n * np.eye(n, dtype=np.int64))
    for i, x in enumerate(mats):
        for y in mats[i + 1 :]:
            assert np.array_equal(x @ y.T, y @ x.T)


def test_recover_amicable_rejects_non_good(known3):
    bad = DefiningQuad(known3.a, known3.b, known3.c, (1, 1, 1))
    with pytest.raises(InvalidInputError):
        recover_amicable(bad)


def test_hadamard_construction_known(known3, known27, known57):
    for quad, order in ((known3, 12), (known27, 108), (known57, 228)):
        h = build_skew_hadamard(quad)
        assert h.shape == (order, order)
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
        assert np.array_equal(h + h.T, 2 * np.eye(order, dtype=np.int64))
        assert set(np.unique(h)) == {-1, 1}


def test_hadamard_rejects_non_good(known3):
    bad = DefiningQuad(known3.a, known3.b, known3.c, (1, 1, 1))
    with pytest.raises((InvalidInputError, ConstructionError)):
        build_skew_hadamard(bad)


# ── brute-force oracle ───────────────────────────────────────────────────────

def test_oracle_counts():
    assert len(brute_force_oracle(3)) == 1
    assert len(brute_force_oracle(9)) == 1
    assert len(brute_force_oracle(15)) == 11


def test_oracle_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        brute_force_oracle(17)  # > 15
    with pytest.raises(InvalidInputError):
        brute_force_oracle(6)


def test_oracle_certificate_failure_raises_internal_error(monkeypatch):
    # an exception, not an assert, so the check also holds under python -O
    monkeypatch.setattr(pipeline, "paf_certificate", lambda quad: False)
    with pytest.raises(InternalError):
        brute_force_oracle(9)


def test_oracle_results_are_certified():
    for canon in brute_force_oracle(9):
        assert paf_certificate(canon.quad)
        assert verify_definition(canon.quad)


# ── the full pipeline ────────────────────────────────────────────────────────

@pytest.mark.parametrize("n", [3, 9, 15])
def test_pipeline_equals_oracle(n):
    got, report = enumerate_good_matrices(n)
    assert got == brute_force_oracle(n)
    assert report.exhaustive
    assert report.inequivalent_count == len(got)


def test_pipeline_n15_count_and_verification():
    got, report = enumerate_good_matrices(15)
    assert len(got) == 11
    assert report.solutions_found >= 11
    for canon in got:
        assert verify_definition(canon.quad)


def test_prepare_instances_counts():
    # the front end once returned its candidate sets as well, and this test
    # asserted cands.n == 9 of them
    instances, timings = prepare_instances(9)
    assert len(instances) == 2
    assert set(timings) == {"rowsums", "candidates", "matching", "instance_dedup"}


def instances_fingerprint(instances):
    """SHA-256 of the sorted instances, one row per line as comma-separated
    integers and a blank line after each quad (the benchmark's fingerprint)."""
    h = hashlib.sha256()
    for quad in sorted(instances):
        for row in quad:
            h.update(",".join(map(str, row)).encode() + b"\n")
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("n,count,fingerprint", [
    (15, 11, "80a6efe26234c75890b0e4f419d144dc16de9ccc5fe00355070641fd9a1ff19e"),
    (33, 840, "0ef23faa60cef4b79dc9826c276da3c0abb73cc4564bbf0f61ba94a75b90ce38"),
    (45, 19205, "1a72b6d174a6b4991322fccdf1a6b86aa0d7f5c65c71eee3467eddd223f416ac"),
    (51, 23611, "f8f5ac4ce0b2a07c8558e54505714e45035afedd09a19348bb75f46b0e13e2fa"),
])
def test_prepare_instances_fingerprint(n, count, fingerprint):
    instances = prepare_instances(n, allow_large=True)[0]
    assert len(instances) == count
    assert instances == sorted(instances, key=quad_key)
    assert instances_fingerprint(instances) == fingerprint


def test_pipeline_reads_candidate_arrays_not_sets(monkeypatch):
    # the set views cost a tuple per row; no pipeline path may build them
    def refuse(self):
        raise AssertionError("a pipeline path built a candidate set")

    for name in ("s_sk", "s_sy"):
        monkeypatch.setattr(CandidateSets, name, property(refuse))
    instances = prepare_instances(27)[0]
    assert instances_fingerprint(instances) == (
        "140c0b498fd848c79e080f9449c0c06bd9de76d26601cbeb1f6b58f6364f042d")
    assert enumerate_good_matrices(15)[1].digest == (
        "81a5dcfcc5c92095cffd418d577a391e7d14f92962fa6238d20db1c8ca066146")


@pytest.mark.parametrize("filters", [FilterConfig(), FilterConfig.no_filters()],
                         ids=["filters", "no_filters"])
@pytest.mark.parametrize("n", [9, 15, 21, 27, 33])
def test_instances_equal_the_dedup_of_the_full_s_q(n, filters):
    # the orbit-minimal A′ cut, the rowsum partition and the one (B′, C′, D′)
    # arrangement per quad leave the instances as they are; no_filters puts
    # rows whose rowsum is in no triple into s_sy.  The front end once
    # returned its candidate sets too, and this test asserted cands == full
    instances, _ = prepare_instances(n, filters=filters)
    full = generate_candidates(n, signed_rowsums(n), psd_filter=filters.psd_candidates,
                               rowsum_filter=filters.rowsum_candidates)
    s_q = all_arrangements(match_codes(full, n, pair_filter=filters.psd_pairs))
    assert instances == decode_quads(np.unique(canonical_codes(s_q, full.m), axis=0), full.m)


def test_report_fingerprints_the_whole_instance_list():
    instances = prepare_instances(15)[0]
    fingerprints = {enumerate_good_matrices(15, shard=shard)[1].instances_fingerprint
                    for shard in (None, (0, 2), (1, 2))}
    assert fingerprints == {instances_fingerprint(instances)}


def test_sharded_union_equals_full():
    n = 15
    full, _ = enumerate_good_matrices(n)
    for total in (2, 3, 5):
        union = set()
        for i in range(total):
            part, report = enumerate_good_matrices(n, shard=(i, total))
            assert not report.exhaustive  # a single shard never claims it all
            assert report.shard == (i, total)
            union.update(part)
        assert union == set(full)


def test_one_shard_split_is_exhaustive():
    # shard 0 of 1 uncompresses every id, as an unsharded run does
    whole = enumerate_good_matrices(15)
    part, report = enumerate_good_matrices(15, shard=(0, 1))
    assert report.exhaustive and report.shard == (0, 1)
    assert part == whole[0] and report.digest == whole[1].digest


def test_shard_validation():
    with pytest.raises(InvalidInputError):
        enumerate_good_matrices(9, shard=(2, 2))
    with pytest.raises(InvalidInputError):
        enumerate_good_matrices(9, shard=(0, 0))


def test_filters_do_not_change_solutions_n9():
    base, _ = enumerate_good_matrices(9)
    got, _ = enumerate_good_matrices(9, filters=FilterConfig.no_filters())
    assert got == base


def test_filter_config_sets_only_the_three_filters():
    # one switch; the five names perfbench/tracing.py reads are read-only
    assert [f.name for f in fields(FilterConfig)] == ["enabled"]
    aliases = ("psd_candidates", "rowsum_candidates", "psd_pairs", "prefix_checks")
    for name in aliases:
        with pytest.raises(TypeError):
            FilterConfig(**{name: False})
    on, off = FilterConfig(), FilterConfig.no_filters()
    assert off == FilterConfig(enabled=False) and on.enabled and not off.enabled
    assert [getattr(on, name) for name in (*aliases, "parity_clauses")] == [True] * 5
    assert [getattr(off, name) for name in (*aliases, "parity_clauses")] == [False] * 4 + [True]


def test_seed_independence_n9():
    base, base_report = enumerate_good_matrices(9, seed=0)
    for seed in (1, 7, 123):
        got, report = enumerate_good_matrices(9, seed=seed)
        assert got == base
        assert report.digest == base_report.digest


def test_determinism_same_seed():
    r1 = enumerate_good_matrices(15, seed=5)
    r2 = enumerate_good_matrices(15, seed=5)
    assert r1[0] == r2[0]
    assert r1[1].digest == r2[1].digest
    assert r1[1].solutions_found == r2[1].solutions_found


def test_frozen_digest_n3():
    _, report = enumerate_good_matrices(3)
    assert report.digest == (
        "98e55533e578a0225178418bb1fd41bcb05d7429ba45115d3b644df436989851"
    )


def test_parallel_jobs_match_sequential():
    seq, seq_report = enumerate_good_matrices(15, jobs=1)
    par, par_report = enumerate_good_matrices(15, jobs=2)
    assert seq == par
    assert par_report.solver_stats == seq_report.solver_stats


@pytest.mark.parametrize("run", [{"jobs": 0}, {"jobs": -2}, {"shard": (2, 2)}],
                         ids=["0", "-2", "shard2of2"])
def test_jobs_below_one_rejected(run, monkeypatch):
    # rejected before the front end runs (about 90 s and 1.9 GB at n = 57)
    def front_end(*args, **kwargs):
        raise AssertionError("prepare_instances ran before the arguments were checked")

    monkeypatch.setattr(pipeline, "prepare_instances", front_end)
    with pytest.raises(InvalidInputError):
        enumerate_good_matrices(9, **run)


def test_order_validation():
    for bad in (6, 25, 0, -9):
        with pytest.raises(InvalidInputError):
            enumerate_good_matrices(bad)
    with pytest.raises(InvalidInputError):
        enumerate_good_matrices(51)  # beyond the desk-scale limit without opt-in


def test_report_json_round_trip():
    _, report = enumerate_good_matrices(9)
    loaded = SearchReport.from_json(report.to_json())
    # Times are rounded to milliseconds on serialization; everything else is
    # preserved exactly, and a second round trip is the identity.
    assert loaded.wall_time_s == pytest.approx(report.wall_time_s, abs=1e-3)
    assert loaded == SearchReport.from_json(loaded.to_json())
    for field in ("n", "instance_count", "solutions_found",
                  "inequivalent_count", "solver_stats", "shard",
                  "exhaustive", "digest", "instances_fingerprint"):
        assert getattr(loaded, field) == getattr(report, field)
    assert report.solver_stats["raw_models"] >= report.solutions_found > 0
    stats = report.solver_stats
    assert stats["key_hits"] >= stats["raw_models"]
    assert min(stats["pairs_ab"], stats["pairs_cd"]) > 0
    data = json.loads(report.to_json())
    assert data["schema_version"] == 2
    assert data["exhaustive"] is True


#: A report with every field set, and the bytes to_json writes for it: one
#: key per field, schema_version first, in the order the class declares.
FIXED_REPORT = SearchReport(
    n=27, wall_time_s=1.25, instance_count=13, solutions_found=40, inequivalent_count=13,
    stage_seconds={"rowsums": 0.001, "solving": 0.5}, solver_stats={"pairs_ab": 12262},
    shard=(1, 3), exhaustive=False, digest="11db3f20", instances_fingerprint="140c0b49")
FIXED_JSON = """{
 "schema_version": 2,
 "n": 27,
 "wall_time_s": 1.25,
 "instance_count": 13,
 "solutions_found": 40,
 "inequivalent_count": 13,
 "stage_seconds": {
  "rowsums": 0.001,
  "solving": 0.5
 },
 "solver_stats": {
  "pairs_ab": 12262
 },
 "shard": [
  1,
  3
 ],
 "exhaustive": false,
 "digest": "11db3f20",
 "instances_fingerprint": "140c0b49"
}
"""


def test_report_json_bytes_are_fixed():
    assert FIXED_REPORT.to_json() == FIXED_JSON
    assert SearchReport.from_json(FIXED_REPORT.to_json()) == FIXED_REPORT


#: The merge of FIXED_REPORT with a second shard of the same split: sums
#: key-wise, keys in order of first appearance, times rounded again.
MERGED_JSON = """{
 "schema_version": 2,
 "n": 27,
 "wall_time_s": 2.0,
 "instance_count": 20,
 "solutions_found": 45,
 "inequivalent_count": 0,
 "stage_seconds": {
  "rowsums": 0.003,
  "candidates": 0.1,
  "solving": 0.75
 },
 "solver_stats": {
  "pairs_ab": 12300,
  "key_hits": 7
 },
 "shard": null,
 "exhaustive": false,
 "digest": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
 "instances_fingerprint": ""
}
"""


def test_merged_report_json_bytes_are_fixed(tmp_path, capsys):
    second = replace(FIXED_REPORT, wall_time_s=0.75, instance_count=7, solutions_found=5,
                     stage_seconds={"rowsums": 0.002, "candidates": 0.1, "solving": 0.25},
                     solver_stats={"pairs_ab": 38, "key_hits": 7}, shard=(0, 3))
    for i, report in ((1, FIXED_REPORT), (0, second)):
        (tmp_path / f"report-n27-shard{i}of3.json").write_text(report.to_json())
        (tmp_path / f"solutions-n27-shard{i}of3.rows").write_text("")
    assert run_cli(["report", str(tmp_path)]) == 0
    assert "coverage INCOMPLETE" in capsys.readouterr().out
    assert (tmp_path / "report-n27-merged.json").read_text() == MERGED_JSON


@pytest.mark.parametrize("text", [
    '{"n": 9', '{"n": 9}', "[]", "null",
    FIXED_JSON.replace('"wall_time_s": 1.25', '"wall_time_s": "x"'),
    FIXED_JSON.replace('"n": 27', '"n": 27.5'),
    FIXED_JSON.replace('"instance_count": 13', '"instance_count": true'),
    FIXED_JSON.replace("1,\n  3", "1,\n  3,\n  5"),
    FIXED_JSON.replace("1,\n  3", "1,\n  3.5"),
    FIXED_JSON.replace('"shard": [', '"shard": 7, "unused": ['),
    FIXED_JSON.replace('"solving": 0.5', '"solving": "0.5"'),
    FIXED_JSON.replace('"pairs_ab": 12262\n }', '"pairs_ab": [12262]\n }'),
    FIXED_JSON.replace('"exhaustive": false', '"exhaustive": 0'),
    FIXED_JSON.replace('"instances_fingerprint": "140c0b49"', '"instances_fingerprint": []'),
], ids=["truncated", "missing_count", "list", "null", "string_wall_time", "fractional_n",
        "bool_count", "three_element_shard", "float_shard", "number_shard", "string_seconds",
        "list_stat", "number_exhaustive", "list_fingerprint"])
def test_malformed_report_is_a_parse_error(text):
    with pytest.raises(ParseError):
        SearchReport.from_json(text)


@dataclass
class VersionedReport(SearchReport):
    """A report with more fields: two of JSON types no SearchReport field
    has, and a second tuple."""

    version: str = ""
    rate: float = 0.0
    pair: tuple[int, int] = (0, 0)


def test_a_new_report_field_is_one_declaration():
    # from_json checks each field against its declared type, so a str, a
    # float and a tuple field round-trip without a word elsewhere, and keep
    # their types
    report = VersionedReport(**asdict(FIXED_REPORT), version="0.1.0", rate=0.5, pair=(2, 3))
    assert VersionedReport.from_json(report.to_json()) == report
    with pytest.raises(ParseError):
        VersionedReport.from_json(report.to_json().replace('"0.1.0"', "1"))
    with pytest.raises(ParseError):
        VersionedReport.from_json(report.to_json().replace('"rate": 0.5', '"rate": "0.5"'))


def test_solution_digest_is_order_insensitive_input(known3):
    single = solution_digest([canonical_form(known3)])
    assert len(single) == 64 and int(single, 16) >= 0
