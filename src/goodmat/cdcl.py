"""A conflict-driven clause-learning SAT solver.

Standard architecture: two watched literals per clause, first-UIP conflict
analysis, VSIDS branching with phase saving, Luby-scheduled restarts, and a
seeded RNG for initial phases plus occasional random decisions.  Learned
clauses are never deleted.

Literals are nonzero signed integers with |lit| in 1..nvars, DIMACS style.

No module of the package imports the solver; the join in `uncompress` does
the uncompression.  It is a plain CDCL solver that only its own tests run.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

_ACTIVITY_RESCALE = 1e100
_VAR_DECAY = 0.95
_RESTART_BASE = 100
_RANDOM_DECISION_FREQ = 0.02


def luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """CDCL solver over variables 1..nvars."""

    def __init__(self, nvars: int, clauses: Iterable[Sequence[int]] = (), *, seed: int = 0):
        self.nvars = nvars
        self.rng = random.Random(seed)

        v = nvars
        self.val = [0] * (2 * v + 1)  # index lit+nvars → 0 / 1 / -1
        self.levels = [0] * (v + 1)
        self.reasons: list = [None] * (v + 1)
        self.watches: list[list] = [[] for _ in range(2 * v + 1)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0

        self.activity = [0.0] * (v + 1)
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = []
        for var in range(1, v + 1):
            heappush(self.heap, (0.0, var))
        self.saved_phase = [self.rng.random() < 0.5 for _ in range(v + 1)]
        self._seen = bytearray(v + 1)

        self.ok = True
        self.clauses: list[list[int]] = []
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self._conflicts_since_restart = 0

        for c in clauses:
            self.add_clause(c)

    # ── assignment primitives ───────────────────────────────────────────────

    @property
    def level(self) -> int:
        return len(self.trail_lim)

    def _assign(self, lit: int, reason) -> None:
        v = self.nvars
        self.val[lit + v] = 1
        self.val[-lit + v] = -1
        var = abs(lit)
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add an input clause at level 0. Returns False if it is conflicting."""
        assert self.level == 0
        out: list[int] = []
        for lit in lits:
            if -lit in out:
                return True  # tautology: trivially satisfied
            if lit not in out:
                out.append(int(lit))
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            lit = out[0]
            state = self.val[lit + self.nvars]
            if state == -1:
                self.ok = False
                return False
            if state == 0:
                self._assign(lit, None)
            return True
        self.clauses.append(out)
        self._attach(out)
        return True

    def _attach(self, c: list[int]) -> None:
        v = self.nvars
        self.watches[c[0] + v].append(c)
        self.watches[c[1] + v].append(c)

    # ── unit propagation (two watched literals) ─────────────────────────────

    def propagate(self) -> Optional[list[int]]:
        """Propagate until fixpoint; return a falsified clause, or None."""
        val = self.val
        nv = self.nvars
        watches = self.watches
        trail = self.trail
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            wl = watches[-p + nv]
            out = []
            idx = 0
            wl_len = len(wl)
            while idx < wl_len:
                c = wl[idx]
                idx += 1
                if c[0] == -p:
                    c[0], c[1] = c[1], -p
                first = c[0]
                if val[first + nv] == 1:
                    out.append(c)
                    continue
                moved = False
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk + nv] != -1:
                        c[1], c[k] = lk, -p
                        watches[lk + nv].append(c)
                        moved = True
                        break
                if moved:
                    continue
                out.append(c)
                if val[first + nv] == -1:
                    out.extend(wl[idx:])
                    watches[-p + nv] = out
                    return c
                self._assign(first, c)
            watches[-p + nv] = out
        return None

    # ── conflict analysis (first UIP) ───────────────────────────────────────

    def _bump(self, var: int) -> None:
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > _ACTIVITY_RESCALE:
            scale = 1.0 / _ACTIVITY_RESCALE
            for u in range(1, self.nvars + 1):
                self.activity[u] *= scale
            self.var_inc *= scale
            self.heap = [(-self.activity[u], u) for u in range(1, self.nvars + 1)]
            heapify(self.heap)
        else:
            heappush(self.heap, (-act, var))

    def analyze(self, conflict: Sequence[int]) -> tuple[list[int], int]:
        """First-UIP resolution; returns (learnt clause, backjump level).

        learnt[0] is the asserting literal.  The conflict clause must be
        falsified by the current assignment and contain at least one literal
        from the current decision level.
        """
        seen = self._seen
        levels = self.levels
        trail = self.trail
        cur = self.level
        learnt: list[int] = []
        touched: list[int] = []
        counter = 0
        p = 0
        c = conflict
        idx = len(trail) - 1
        while True:
            for q in c:
                if q == p:
                    continue
                var = abs(q)
                lv = levels[var]
                if not seen[var] and lv > 0:
                    seen[var] = 1
                    touched.append(var)
                    self._bump(var)
                    if lv >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            c = self.reasons[abs(p)]
        learnt.insert(0, -p)
        bt = 0
        if len(learnt) > 1:
            bt = max(levels[abs(q)] for q in learnt[1:])
        for var in touched:
            seen[var] = 0
        return learnt, bt

    def backtrack(self, target_level: int) -> None:
        if self.level <= target_level:
            return
        limit = self.trail_lim[target_level]
        val = self.val
        nv = self.nvars
        for lit in reversed(self.trail[limit:]):
            var = abs(lit)
            val[lit + nv] = 0
            val[-lit + nv] = 0
            self.saved_phase[var] = lit > 0
            self.reasons[var] = None
            heappush(self.heap, (-self.activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    def _assert_learnt(self, learnt: list[int]) -> None:
        """Attach a learnt clause (already backjumped) and assert learnt[0]."""
        if len(learnt) > 1:
            # watch the asserting literal and a deepest literal of the rest
            best = 1
            for k in range(2, len(learnt)):
                if self.levels[abs(learnt[k])] > self.levels[abs(learnt[best])]:
                    best = k
            learnt[1], learnt[best] = learnt[best], learnt[1]
            self.clauses.append(learnt)
            self._attach(learnt)
            self._assign(learnt[0], learnt)
        else:
            assert self.level == 0
            self._assign(learnt[0], None)

    # ── branching ───────────────────────────────────────────────────────────

    def _pick_branch_var(self) -> int:
        val = self.val
        nv = self.nvars
        if self.rng.random() < _RANDOM_DECISION_FREQ:
            unassigned = [v for v in range(1, nv + 1) if val[v + nv] == 0]
            if unassigned:
                return self.rng.choice(unassigned)
        heap = self.heap
        while heap:
            _, var = heappop(heap)
            if val[var + nv] == 0:
                return var
        for var in range(1, nv + 1):  # pragma: no cover - heap never starves
            if val[var + nv] == 0:
                return var
        raise AssertionError("no unassigned variable to branch on")

    def _decide(self) -> None:
        var = self._pick_branch_var()
        self.decisions += 1
        self.trail_lim.append(len(self.trail))
        self._assign(var if self.saved_phase[var] else -var, None)

    # ── main search loop ────────────────────────────────────────────────────

    def solve(self) -> bool:
        """Run to completion: True = satisfying assignment found;
        False = clause database unsatisfiable.
        """
        if not self.ok:
            return False
        while True:
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                self._conflicts_since_restart += 1
                if self.level == 0:
                    self.ok = False
                    return False
                learnt, bt = self.analyze(confl)
                self.backtrack(bt)
                self._assert_learnt(learnt)
                self.var_inc /= _VAR_DECAY
                continue
            if len(self.trail) == self.nvars:
                return True
            if self._conflicts_since_restart >= _RESTART_BASE * luby(self.restarts + 1):
                self.restarts += 1
                self._conflicts_since_restart = 0
                self.backtrack(0)
                continue
            self._decide()

    def model(self) -> list[int]:
        """The satisfying assignment as a list of literals, one per variable."""
        return [v if self.val[v + self.nvars] == 1 else -v
                for v in range(1, self.nvars + 1)]
