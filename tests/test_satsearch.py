"""CNF encoding, DIMACS interchange, and the one-instance uncompression.

Key oracles:
  * truth-table semantics of the folded encoding at n = 3 (256 assignments);
  * semantic equivalence of the product-rule clauses with the product rule
    itself, per shift, over all 2^5 local assignments;
  * the models of an n = 9 instance's DIMACS text, by evaluating its clauses
    on all 2^16 free assignments, against the preimage quads that satisfy
    the product rule.
"""

import itertools

import numpy as np
import pytest

from goodmat.candidates import generate_candidates
from goodmat.diophantine import signed_rowsums
from goodmat.equiv import canonical_form
from goodmat.errors import InfeasibleInstanceError, InvalidInputError, ParseError
from goodmat.matching import match_quadruples
from goodmat.pipeline import product_rule_holds
from goodmat.satsearch import (
    build_instance,
    encode_compression,
    encode_parity,
    export_dimacs,
    fold_index,
    parse_dimacs,
    solve_all,
    var_id,
)
from goodmat.seqcore import CompressedQuad, DefiningQuad, compress3, make_skew, make_symmetric
from goodmat.spectral import paf_certificate
from goodmat.uncompress import preimage_table


def instance_for(n, idx=0, parity=True):
    cands = generate_candidates(n, signed_rowsums(n))
    quads = match_quadruples(cands, n)
    return build_instance(quads[idx], parity=parity)


def decode(model, n):
    """Rows A,B,C,D from a signed-literal model of the folded encoding.

    Index 0 is taken from the model as-is (not forced to +1), so the result
    reflects exactly what the assignment says.
    """
    d = n // 2
    pos = set(l for l in model if l > 0)
    rows = []
    for r in range(4):
        vals = [1 if var_id(r, i, d) in pos else -1 for i in range(d + 1)]
        half = tuple(vals[1:])
        mirrored = tuple(-v for v in reversed(half)) if r == 0 else tuple(reversed(half))
        rows.append((vals[0],) + half + mirrored)
    return DefiningQuad(*rows)


# ── variable layout and folding ──────────────────────────────────────────────

def test_var_id_layout():
    d = 4
    assert var_id(0, 0, d) == 1
    assert var_id(0, d, d) == d + 1
    assert var_id(1, 0, d) == d + 2
    assert var_id(3, d, d) == 4 * (d + 1)
    ids = [var_id(r, i, d) for r in range(4) for i in range(d + 1)]
    assert ids == list(range(1, 4 * (d + 1) + 1))


def test_fold_index():
    n = 9  # d = 4
    assert fold_index(0, 3, n) == (3, 1)      # in range: identity
    assert fold_index(0, 5, n) == (4, -1)     # skew row: a_5 = -a_4
    assert fold_index(1, 5, n) == (4, 1)      # symmetric row: b_5 = b_4
    assert fold_index(0, 8, n) == (1, -1)
    assert fold_index(1, 8, n) == (1, 1)
    assert fold_index(2, 0, n) == (0, 1)


# ── compression clauses: semantics by truth table ────────────────────────────

def eval_clauses(clauses, true_vars):
    return all(any((l > 0) == (abs(l) in true_vars) for l in cl) for cl in clauses)


def _assignment_agrees(source, n, true_vars, clauses, unit0):
    nv = 4 * (n // 2 + 1)
    model = [v if v in true_vars else -v for v in range(1, nv + 1)]
    quad = decode(model, n)
    satisfied = eval_clauses(clauses + unit0, true_vars)
    compresses = CompressedQuad(
        *(compress3(r) for r in quad.rows())
    ) == source and all(r[0] == 1 for r in quad.rows())
    return satisfied == compresses, satisfied


def test_compression_clauses_semantics_exhaustive_n3():
    """CNF models ≡ quads whose 3-compression equals the source: full table."""
    n, d = 3, 1
    cands = generate_candidates(n, signed_rowsums(n))
    source = match_quadruples(cands, n)[0]
    clauses = encode_compression(source)
    unit0 = [(var_id(r, 0, d),) for r in range(4)]
    nv = 4 * (d + 1)
    hits = 0
    for bits in itertools.product((1, -1), repeat=nv):
        true_vars = {v + 1 for v in range(nv) if bits[v] == 1}
        agrees, satisfied = _assignment_agrees(source, n, true_vars, clauses, unit0)
        assert agrees
        hits += satisfied
    assert hits > 0


def test_compression_clauses_semantics_sampled_n9():
    import random

    rng = random.Random(9)
    n, d = 9, 4
    cands = generate_candidates(n, signed_rowsums(n))
    source = match_quadruples(cands, n)[0]
    clauses = encode_compression(source)
    unit0 = [(var_id(r, 0, d),) for r in range(4)]
    nv = 4 * (d + 1)
    for _ in range(2000):
        true_vars = {v for v in range(1, nv + 1) if rng.random() < 0.5}
        agrees, _ = _assignment_agrees(source, n, true_vars, clauses, unit0)
        assert agrees


def test_infeasible_first_entry():
    with pytest.raises(InfeasibleInstanceError):
        encode_compression(CompressedQuad((-1,), (3,), (-1,), (-1,)))
    with pytest.raises(InvalidInputError):
        encode_compression(CompressedQuad((2,), (3,), (-1,), (-1,)))


# ── product-rule clauses: semantics per shift ────────────────────────────────

def test_parity_clause_counts():
    # k = m contributes 4 clauses, every other shift 16.
    assert len(encode_parity(9)) == 3 * 16 + 4
    assert len(encode_parity(15)) == 6 * 16 + 4


@pytest.mark.parametrize("n", [9, 15, 21])
def test_parity_clauses_iff_product_rule(n):
    """For random quads: clauses satisfied ⟺ the product rule holds."""
    import random

    rng = random.Random(n)
    d = n // 2
    clauses = encode_parity(n)
    for _ in range(200):
        a = make_skew(tuple(rng.choice((1, -1)) for _ in range(d)), n)
        b, c, dd = (
            make_symmetric(tuple(rng.choice((1, -1)) for _ in range(d)), n)
            for _ in range(3)
        )
        quad = DefiningQuad(a, b, c, dd)
        true_vars = {
            var_id(r, i, d)
            for r, row in enumerate(quad.rows())
            for i in range(d + 1)
            if row[i] == 1
        }
        assert eval_clauses(clauses, true_vars) == product_rule_holds(quad)


def test_product_rule_on_known(known3, known27, known57):
    assert product_rule_holds(known3)
    assert product_rule_holds(known27)
    assert product_rule_holds(known57)
    bad = DefiningQuad(known3.a, known3.b, known3.c, (1, 1, 1))
    assert not product_rule_holds(bad)


def test_parity_requires_multiple_of_three():
    with pytest.raises(InvalidInputError):
        encode_parity(25)


# ── instance assembly ────────────────────────────────────────────────────────

def test_build_instance_shape():
    inst = instance_for(9)
    assert (inst.n, inst.m, inst.d) == (9, 3, 4)
    assert inst.num_vars == 20
    units = [cl for cl in inst.clauses if len(cl) == 1]
    assert {cl[0] for cl in units} >= {var_id(r, 0, 4) for r in range(4)}
    no_parity = instance_for(9, parity=False)
    assert len(no_parity.clauses) < len(inst.clauses)


# ── one-instance uncompression ───────────────────────────────────────────────

def test_solve_all_n3():
    inst = instance_for(3)
    classes = solve_all(inst)
    assert len(classes) == 1
    assert paf_certificate(canonical_form(classes[0]).quad)
    assert inst.stats["raw_models"] == len(inst.solutions) >= 1
    assert inst.stats["pairs_ab"] >= 1 and inst.stats["pairs_cd"] >= 1
    assert inst.stats["key_hits"] >= inst.stats["raw_models"]


def test_solve_all_union_matches_pipeline_oracle():
    from goodmat.pipeline import brute_force_oracle

    n = 9
    cands = generate_candidates(n, signed_rowsums(n))
    quads = match_quadruples(cands, n)
    found = []
    for cq in quads:
        found.extend(solve_all(build_instance(cq)))
    got = {canonical_form(q) for q in found}
    assert got == set(brute_force_oracle(n))


def test_solve_all_models_decode_to_source():
    n = 15
    cands = generate_candidates(n, signed_rowsums(n))
    source = match_quadruples(cands, n)[2]
    inst = build_instance(source)
    solve_all(inst)
    for quad in inst.solutions:
        assert CompressedQuad(*(compress3(r) for r in quad.rows())) == source
        assert product_rule_holds(quad)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_solve_all_seed_independent_classes(seed):
    inst0 = instance_for(15, idx=5)
    base = {canonical_form(q) for q in solve_all(inst0)}
    inst = instance_for(15, idx=5)
    got = {canonical_form(q) for q in solve_all(inst, seed=seed)}
    assert got == base


def test_solve_all_prefix_checks_off_same_classes():
    inst_on = instance_for(15, idx=3)
    inst_off = instance_for(15, idx=3)
    on = {canonical_form(q) for q in solve_all(inst_on)}
    off = {canonical_form(q) for q in solve_all(inst_off, prefix_checks=False)}
    assert on == off


# ── DIMACS interchange ───────────────────────────────────────────────────────

def test_dimacs_round_trip():
    inst = instance_for(9)
    text = export_dimacs(inst)
    nvars, clauses = parse_dimacs(text)
    assert nvars == inst.num_vars
    assert sorted(clauses) == sorted(inst.clauses)
    assert text.splitlines()[0] == f"p cnf {inst.num_vars} {len(inst.clauses)}"


def test_dimacs_models_are_the_product_rule_preimage_quads():
    """Every model of the DIMACS text, by evaluating its clauses on all 2^16
    assignments of the free variables, decodes to a preimage quad of the
    source that satisfies the product rule, and every such quad is a model."""
    n, d = 9, 4
    inst = instance_for(n, idx=1)
    nvars, clauses = parse_dimacs(export_dimacs(inst))
    free = [var_id(r, i, d) for r in range(4) for i in range(1, d + 1)]
    assert nvars == 20 and len(free) == 16
    value = np.zeros((1 << 16, nvars + 1), dtype=bool)  # column v: variable v true
    value[:, [var_id(r, 0, d) for r in range(4)]] = True
    value[:, free] = (np.arange(1 << 16)[:, None] >> np.arange(16)) & 1
    satisfied = np.ones(len(value), dtype=bool)
    for clause in clauses:
        lits = np.array(clause)
        satisfied &= (value[:, np.abs(lits)] == (lits > 0)).any(axis=1)
    models = [decode([v if row[v] else -v for v in range(1, nvars + 1)], n)
              for row in value[satisfied]]
    tables = [preimage_table(np.array([crow]), r == 0, bound=np.inf).rows.tolist()
              for r, crow in enumerate(inst.source.rows())]
    want = {DefiningQuad(*map(tuple, rows)) for rows in itertools.product(*tables)}
    want = {quad for quad in want if product_rule_holds(quad)}
    assert want and len(set(models)) == len(models)
    assert set(models) == want


def test_parse_dimacs_validation():
    with pytest.raises(ParseError):
        parse_dimacs("c no header\n1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n3 0\n")  # literal out of range
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # clause count mismatch

