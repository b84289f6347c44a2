"""Acceptance gate: the published results this package must reproduce.

Each criterion is one test (criterion 6 is six property suites, 6a-6f) and
reports a [PASS]/[FAIL] line in the terminal summary via the conftest hook.
Tolerances are pinned: float spectral comparisons use ε = 10⁻²; counting and
matrix identities are exact integer checks with no tolerance.

Every order up to n = 39 runs unconditionally; n = 39 takes about 15 s on
one core (measured; see README).
"""

import cmath
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodmat.diophantine import signed_rowsums, three_squares
from goodmat.equiv import apply_automorphism, canonical_form, negate_row, units
from goodmat.pipeline import (
    FilterConfig,
    brute_force_oracle,
    build_skew_hadamard,
    enumerate_good_matrices,
    prepare_instances,
    product_rule_holds,
    recover_amicable,
    verify_definition,
)
from goodmat.satsearch import build_instance, solve_all, var_id
from goodmat.seqcore import DefiningQuad, compress3
from goodmat.spectral import EPS, full_psd_sum, paf_certificate, psd_values

EXPECTED_COUNTS = {3: 1, 9: 1, 15: 11, 21: 10, 27: 13}
N33_DIGEST = "82a6c54109525704ddffd06904a8df1a5e2fa9c511878d15ce42aff9bf83461a"
N39_DIGEST = "d1433136432a469b84ecca585153fed2f4c42105a4a48f5a966d00134b23e40f"

_ENUM_CACHE: dict[int, tuple] = {}


def enumerate_cached(n):
    if n not in _ENUM_CACHE:
        _ENUM_CACHE[n] = enumerate_good_matrices(n)
    return _ENUM_CACHE[n]


# ── criterion 1: inequivalent counts, n ≤ 27 ────────────────────────────────

@pytest.mark.criterion("1", "inequivalent counts 1,1,11,10,13 for n=3,9,15,21,27")
def test_criterion_1_inequivalent_counts():
    got = {}
    for n, expected in EXPECTED_COUNTS.items():
        quads, report = enumerate_cached(n)
        got[n] = len(quads)
        assert report.exhaustive
        assert len(quads) == expected, f"n={n}: found {len(quads)}, expected {expected}"
        assert report.inequivalent_count == expected
    print(f"[PASS] criterion 1: counts {got}")


# ── criterion 2: counts 15, 5 for n = 33, 39 ────────────────────────────────

@pytest.mark.criterion("2a", "15 inequivalent classes for n=33")
def test_criterion_2a_n33_count():
    quads, report = enumerate_cached(33)
    assert report.exhaustive
    assert len(quads) == 15, f"n=33: found {len(quads)}, expected 15"
    assert report.digest == N33_DIGEST
    print("[PASS] criterion 2a: 15 classes at n=33")


@pytest.mark.criterion("2b", "5 inequivalent classes for n=39")
def test_criterion_2b_n39_count():
    quads, report = enumerate_cached(39)
    assert report.exhaustive
    assert len(quads) == 5, f"n=39: found {len(quads)}, expected 5"
    assert report.digest == N39_DIGEST
    print("[PASS] criterion 2b: 5 classes at n=39")


# ── criterion 3: published solutions verify end to end ──────────────────────

@pytest.mark.criterion("3", "published order-27/57 quads pass all five checks < 1 s")
def test_criterion_3_published_solutions(known27, known57):
    start = time.perf_counter()
    for quad, order in ((known27, 108), (known57, 228)):
        assert verify_definition(quad)
        assert paf_certificate(quad)
        assert product_rule_holds(quad)
        recover_amicable(quad)  # raises on failure
        h = build_skew_hadamard(quad)  # exact integer checks inside
        assert h.shape == (order, order)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"verification took {elapsed:.2f}s"
    print(f"[PASS] criterion 3: both quads verified in {elapsed:.3f}s")


# ── criterion 4: rowsum reproduction ─────────────────────────────────────────

@pytest.mark.criterion("4", "three_squares(69) and signed rowsums, cross-checked ≤ 100")
def test_criterion_4_rowsums():
    assert three_squares(69) == {(1, 7, 15), (5, 5, 15), (5, 9, 13)}
    signed = signed_rowsums(69)
    assert {tuple(sorted(map(abs, t))) for t in signed} == three_squares(69)
    for n in range(3, 101, 2):
        target = 4 * n - 1
        oracle = {
            (x, y, z)
            for x in range(1, target)
            for y in range(x, target)
            for z in range(y, target)
            if x * x + y * y + z * z == target
            and x * x + y * y <= target and x * x <= target
        }
        assert three_squares(n) == oracle, f"mismatch at n={n}"
        for t in signed_rowsums(n):
            assert all(v % 4 == n % 4 for v in t)  # the sign rule
    print("[PASS] criterion 4: rowsum triples match the triple loop for all odd n ≤ 99")


# ── criterion 5: oracle equivalence ──────────────────────────────────────────

@pytest.mark.criterion("5", "brute-force oracle = pipeline for n = 3, 9, 15")
def test_criterion_5_oracle_equivalence():
    for n in (3, 9, 15):
        oracle = brute_force_oracle(n)
        pipeline, _ = enumerate_cached(n)
        assert pipeline == oracle, f"n={n}: pipeline and oracle disagree"
    print("[PASS] criterion 5: pipeline matches the brute-force oracle at 3, 9, 15")


# ── criterion 6: property suites (≥ 1000 cases each, or exhaustive) ──────────

pm_rows = st.integers(1, 64).flatmap(
    lambda n: st.tuples(*([st.sampled_from((1, -1))] * n))
)


@pytest.mark.criterion("6a", "Parseval identity within ε = 10⁻² (1000 cases)")
@settings(max_examples=1000)
@given(pm_rows)
def test_criterion_6a_parseval(row):
    n = len(row)
    assert abs(full_psd_sum(row) - n * n) <= EPS


compressible = st.integers(1, 21).flatmap(
    lambda m: st.tuples(*([st.sampled_from((1, -1))] * (3 * m)))
)


@pytest.mark.criterion("6b", "compression/DFT commutation PSD_X'(k)=PSD_X(3k mod n)")
@settings(max_examples=1000)
@given(compressible)
def test_criterion_6b_compression_commutes_with_dft(row):
    n = len(row)
    m = n // 3
    comp = compress3(row)
    psd_full = psd_values(row)
    psd_comp = psd_values(comp)

    def lookup(values, length, k):
        k %= length
        return values[min(k, length - k)]

    for k in range(m):
        lhs = lookup(psd_comp, m, k)
        rhs = lookup(psd_full, n, (3 * k) % n)
        assert abs(lhs - rhs) <= EPS


@pytest.fixture(scope="module")
def class_pool():
    pool = []
    for n in (3, 9, 15, 21):
        pool.extend(canon.quad for canon in enumerate_cached(n)[0])
    return pool


@pytest.mark.criterion("6c", "canonical form: orbit invariance and idempotence")
@settings(max_examples=1000)
@given(data=st.data())
def test_criterion_6c_canonical_invariance(class_pool, data):
    quad = data.draw(st.sampled_from(class_pool))
    n = quad.n
    perm = data.draw(st.permutations([0, 1, 2]))
    signs = data.draw(st.tuples(*([st.sampled_from((1, -1))] * 3)))
    u = data.draw(st.sampled_from(units(n)))
    bcd = [quad.b, quad.c, quad.d]
    bcd = [bcd[i] for i in perm]
    bcd = [negate_row(r) if s < 0 else r for r, s in zip(bcd, signs)]
    moved = apply_automorphism(DefiningQuad(quad.a, *bcd), u)
    canon = canonical_form(quad)
    assert canonical_form(moved) == canon
    assert canonical_form(canon.quad) == canon  # idempotent


@pytest.mark.criterion("6d", "sharded union = full enumeration (exhaustive at n=15)")
def test_criterion_6d_sharded_union():
    n = 15
    full = set(enumerate_cached(n)[0])
    instance_count = len(prepare_instances(n)[0])
    cases = 0
    for total in range(1, instance_count + 1):  # every stride partition
        union = set()
        for i in range(total):
            part, _ = enumerate_good_matrices(n, shard=(i, total))
            union.update(part)
            cases += 1
        assert union == full, f"shard stride {total} lost solutions"
    full21 = set(enumerate_cached(21)[0])
    for total in (2, 5):
        union = set()
        for i in range(total):
            part, _ = enumerate_good_matrices(21, shard=(i, total))
            union.update(part)
            cases += 1
        assert union == full21
    print(f"[PASS] criterion 6d: {cases} shard runs, all unions exact")


@pytest.mark.criterion("6e", "solution set independent of RNG seed (>1000 runs)")
def test_criterion_6e_seed_independence():
    instances = [build_instance(cq) for cq in prepare_instances(15)[0]]
    baselines = [
        {canonical_form(q) for q in solve_all(build_instance(inst.source))}
        for inst in instances
    ]
    runs = 0
    for seed in range(1, 93):
        for inst, base in zip(instances, baselines):
            got = {
                canonical_form(q)
                for q in solve_all(build_instance(inst.source), seed=seed)
            }
            assert got == base, f"seed {seed} changed the solution set"
            runs += 1
    assert runs >= 1000
    print(f"[PASS] criterion 6e: {runs} seeded runs, identical class sets")


@pytest.mark.criterion("6f", "callback clauses: falsified at creation, never block "
                             "a certified model")
def test_criterion_6f_callback_soundness():
    checked_records = 0
    checked_pairs = 0
    for n in (9, 15, 21):
        for cq in prepare_instances(n)[0]:
            inst = build_instance(cq)
            audit = []
            solve_all(inst, audit=audit)
            for rec in audit:
                assert rec.falsified_at_creation, (
                    f"clause {rec.origin} not falsified by its own assignment"
                )
                if rec.origin == "blocking" and rec.certified:
                    assert rec.recorded, "certified model was not recorded"
            checked_records += len(audit)
            violation_clauses = [
                rec.lits for rec in audit if rec.origin.startswith("psd_prefix")
            ]
            d = inst.d
            for quad in inst.solutions:  # every paf-certified model found
                true_vars = {
                    var_id(r, i, d)
                    for r, row in enumerate(quad.rows())
                    for i in range(d + 1)
                    if row[i] == 1
                }
                for lits in violation_clauses:
                    assert any(
                        (l > 0) == (abs(l) in true_vars) for l in lits
                    ), "a PSD-violation clause blocks a certified model"
                    checked_pairs += 1
    assert checked_records >= 1000
    print(f"[PASS] criterion 6f: {checked_records} audit records, "
          f"{checked_pairs} clause/model pairs")


# ── criterion 7: filters never change the answer ─────────────────────────────

@pytest.mark.criterion("7", "n=21 with all filters disabled = filtered run")
def test_criterion_7_filters_preserve_solutions():
    base, base_report = enumerate_cached(21)
    unfiltered, report = enumerate_good_matrices(
        21, filters=FilterConfig.no_filters()
    )
    assert report.exhaustive
    assert unfiltered == base, "disabling the filters changed the solution set"
    assert base_report.digest == report.digest
    print(f"[PASS] criterion 7: identical {len(base)} classes with filters off at n=21")
