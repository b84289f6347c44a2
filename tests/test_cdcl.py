"""The CDCL solver: decisions vs. an exhaustive truth-table oracle.

No search path runs the solver; these tests describe it on its own:
random CNFs checked for SAT/UNSAT agreement and model validity, pigeonhole
instances, determinism under a fixed seed, and its statistics.
"""

import itertools
import random

import pytest

from goodmat.cdcl import Solver, luby


def random_cnf(rng, nvars, nclauses, width=3):
    cnf = []
    for _ in range(nclauses):
        k = rng.randint(1, width)
        lits = []
        for v in rng.sample(range(1, nvars + 1), min(k, nvars)):
            lits.append(v if rng.random() < 0.5 else -v)
        cnf.append(tuple(lits))
    return cnf


def brute_force_models(nvars, cnf):
    models = []
    for bits in itertools.product((False, True), repeat=nvars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in cnf):
            models.append(bits)
    return models


def check_model(solver, nvars, cnf):
    model = solver.model()
    assert sorted(abs(l) for l in model) == list(range(1, nvars + 1))
    for cl in cnf:
        assert any((l in model) for l in cl), f"clause {cl} unsatisfied"


# ── SAT/UNSAT agreement with the truth table ─────────────────────────────────

@pytest.mark.parametrize("trial", range(60))
def test_random_cnf_against_truth_table(trial):
    rng = random.Random(1000 + trial)
    nvars = rng.randint(1, 10)
    cnf = random_cnf(rng, nvars, rng.randint(1, 5 * nvars))
    expect = bool(brute_force_models(nvars, cnf))
    solver = Solver(nvars, cnf, seed=trial)
    got = solver.solve()
    assert got == expect
    if got:
        check_model(solver, nvars, cnf)


def test_empty_cnf_and_trivial_cases():
    s = Solver(3, [])
    assert s.solve()
    assert sorted(abs(l) for l in s.model()) == [1, 2, 3]

    s = Solver(1, [(1,), (-1,)])
    assert not s.solve()

    s = Solver(2, [()])  # empty clause: immediately unsatisfiable
    assert not s.solve()


def test_tautology_and_duplicates_ignored():
    s = Solver(2, [(1, -1), (2, 2, 2)])
    assert s.solve()
    assert 2 in s.model()


def test_unit_propagation_chain():
    n = 30
    cnf = [(1,)] + [(-i, i + 1) for i in range(1, n)]
    s = Solver(n, cnf)
    assert s.solve()
    assert all(i in s.model() for i in range(1, n + 1))
    assert s.decisions == 0  # pure propagation, no guessing needed


def pigeonhole(holes):
    """PHP(holes+1, holes): unsatisfiable by counting."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    cnf = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.append((-var(p1, h), -var(p2, h)))
    return pigeons * holes, cnf


@pytest.mark.parametrize("holes", [2, 3, 4, 5])
def test_pigeonhole_unsat(holes):
    nvars, cnf = pigeonhole(holes)
    assert not Solver(nvars, cnf, seed=7).solve()


def test_seeds_agree_on_satisfiability():
    rng = random.Random(99)
    nvars = 9
    cnf = random_cnf(rng, nvars, 30)
    expect = bool(brute_force_models(nvars, cnf))
    for seed in range(10):
        assert Solver(nvars, cnf, seed=seed).solve() == expect


# ── determinism and statistics ───────────────────────────────────────────────

def test_same_seed_same_run():
    # random 3-SAT at clause ratio 4: satisfiable, but only after conflicts
    rng = random.Random(2)
    nvars = 40
    cnf = [tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 3))
           for _ in range(4 * nvars)]
    runs = []
    for _ in range(2):
        s = Solver(nvars, cnf, seed=42)
        assert s.solve()
        check_model(s, nvars, cnf)
        runs.append((s.model(), s.conflicts, s.decisions, s.propagations))
    assert runs[0] == runs[1] and runs[0][1] > 0


def test_stats_are_populated():
    nvars, cnf = pigeonhole(4)
    s = Solver(nvars, cnf, seed=1)
    s.solve()
    assert s.conflicts > 0
    assert s.propagations > 0


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
    ]
