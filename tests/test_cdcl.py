"""The CDCL solver: decisions vs. an exhaustive truth-table oracle.

The solver is the engine under the enumeration, so it gets adversarial
coverage: random CNFs checked for SAT/UNSAT agreement and model validity,
full model enumeration through a blocking theory, pigeonhole instances,
and theory-clause edge cases.
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


# ── all-solutions enumeration through a blocking theory ──────────────────────

class BlockEverything:
    """Theory callback: record each full assignment, then block it."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.models = []

    def __call__(self, solver):
        lits = []
        for v in range(1, self.nvars + 1):
            b = solver.value_of(v)
            if b is None:
                return None
            lits.append(-v if b else v)
        self.models.append(tuple(b for b in self._bits(solver)))
        return lits

    def _bits(self, solver):
        return (solver.value_of(v) for v in range(1, self.nvars + 1))


@pytest.mark.parametrize("trial", range(30))
def test_enumeration_matches_truth_table(trial):
    rng = random.Random(4000 + trial)
    nvars = rng.randint(1, 8)
    cnf = random_cnf(rng, nvars, rng.randint(1, 4 * nvars))
    theory = BlockEverything(nvars)
    solver = Solver(nvars, cnf, seed=trial, theory=theory)
    assert not solver.solve()  # blocking everything ends in UNSAT
    assert sorted(theory.models) == sorted(brute_force_models(nvars, cnf))
    assert len(set(theory.models)) == len(theory.models)  # no repeats


def test_enumeration_of_free_space():
    nvars = 6
    theory = BlockEverything(nvars)
    solver = Solver(nvars, [], seed=3, theory=theory)
    assert not solver.solve()
    assert len(theory.models) == 2 ** nvars


def test_level_zero_theory_clause_is_unsat():
    # All variables forced at level 0; the theory rejects that assignment.
    nvars = 3
    cnf = [(1,), (2,), (3,)]
    theory = BlockEverything(nvars)
    solver = Solver(nvars, cnf, theory=theory)
    assert not solver.solve()
    assert theory.models == [(True, True, True)]


# ── determinism and statistics ───────────────────────────────────────────────

def test_same_seed_same_run():
    rng = random.Random(5)
    nvars, cnf = 10, random_cnf(random.Random(5), 10, 40)
    runs = []
    for _ in range(2):
        theory = BlockEverything(nvars)
        s = Solver(nvars, cnf, seed=42, theory=theory)
        s.solve()
        runs.append((theory.models, s.conflicts, s.decisions, s.propagations))
    assert runs[0] == runs[1]


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
