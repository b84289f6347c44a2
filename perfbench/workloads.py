"""The benchmark's workloads: what each one times and how its output is checked.

Every workload is one order n of the search, run through a public entry point
of ``goodmat``.  The program receives only n and the filter configuration;
the run's seed goes into the solver's ``seed=`` argument, where it can change
the SAT search path but never the certified output.  Expected outputs are
recorded constants, so a wrong answer counts as a failed operation.

Importing this module imports ``goodmat``: the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from goodmat import (
    FilterConfig,
    build_skew_hadamard,
    canonical_form,
    enumerate_good_matrices,
    generate_candidates,
    paf_certificate,
    prepare_instances,
    product_rule_holds,
    recover_amicable,
    signed_rowsums,
    verify_definition,
)
from goodmat.equiv import units
from goodmat.known_solutions import KNOWN_27
from goodmat.satsearch import encode_parity
from goodmat.spectral import dft_basis

#: Digest of the ten classes of order 21.  The filtered run and the
#: exact-only run (every float filter off) must both give it.
DIGEST_21 = "26644902b9816029dd86f828b1d73cf03545a89b6571dd081182a7b358782651"


@dataclass(frozen=True)
class Workload:
    """One order of the search, the entry point that runs it and its answer.

    ``kind`` is ``enumerate`` (the full pipeline), ``prepare`` (the front end
    up to instance dedup) or ``sweep`` (the 2^d candidate sweep).  ``expect``
    holds the recorded summary of a correct answer; every key of it is
    compared with the summary of each operation's output.
    """

    name: str
    kind: str
    n: int
    expect: dict[str, Any]
    exact: bool = False
    known: tuple = ()

    @property
    def filters(self) -> FilterConfig:
        return FilterConfig.no_filters() if self.exact else FilterConfig()


WORKLOADS = {w.name: w for w in (
    # The full pipeline; SAT uncompression is ~97 % of its time, so a solver
    # or uncompression change shows here.
    Workload(
        "enumerate-27", "enumerate", 27,
        {"classes": 13, "exhaustive": True,
         "digest": "11db3f20927c36031cf51515163069cc01228b15d6fc4708b682471828189529"},
        known=(KNOWN_27,),
    ),
    # The front end every sharded solve repeats: instance dedup ~75 %,
    # matching ~15-20 %.  No SAT runs, so a solver change must show nothing.
    Workload(
        "prepare-33", "prepare", 33,
        {"instances": 840,
         "fingerprint": "0ef23faa60cef4b79dc9826c276da3c0abb73cc4564bbf0f61ba94a75b90ce38"},
    ),
    # The 2 x 2^22-row candidate sweep, the layer that limits n >= 45, and
    # the memory cost of keeping rows.
    Workload(
        "sweep-45", "sweep", 45,
        {"s_sk": 4712, "s_sy": 6233,
         "digest": "b81fe1b983ec0e386a0bf79b735bf91fd86b747390d830b2e1b6177158125eaf"},
    ),
    # The exact-only audit path: every float filter off, so certification and
    # per-model blocking dominate, and the pair filter is off in matching.
    # Runnable by name; BENCHMARK.json leaves it out to fit the time budget.
    Workload(
        "exact-21", "enumerate", 21,
        {"classes": 10, "exhaustive": True, "digest": DIGEST_21},
        exact=True,
    ),
)}

#: Small orders with the same code paths, for the benchmark's own tests.
SMOKE = {w.name: w for w in (
    Workload("enumerate-15", "enumerate", 15, {
        "classes": 11, "exhaustive": True,
        "digest": "81a5dcfcc5c92095cffd418d577a391e7d14f92962fa6238d20db1c8ca066146"}),
    Workload("prepare-15", "prepare", 15, {
        "instances": 11,
        "fingerprint": "80a6efe26234c75890b0e4f419d144dc16de9ccc5fe00355070641fd9a1ff19e"}),
    Workload("sweep-15", "sweep", 15, {
        "s_sk": 12, "s_sy": 20,
        "digest": "553a33c6262bd3b7d37b11fd73427e220f8b959eb8a62df0d4955d2c0b08cad4"}),
    Workload("exact-9", "enumerate", 9, {
        "classes": 1, "exhaustive": True,
        "digest": "9e40a6175be8ef65613bf20fad3c34320adc4795a0d5e57a5e896d3153839240"},
        exact=True),
)}


# ── the timed operations ────────────────────────────────────────────────────

def warm(n: int) -> None:
    """Fill the lazy caches an order-n operation uses, before any timing."""
    for k in (n, n // 3):
        dft_basis(k)
        units(k)
    encode_parity(n)


def operation(w: Workload, seed: int) -> Callable[[], Any]:
    """The call into the public entry point that one timed operation makes."""
    if w.kind == "enumerate":
        return lambda: enumerate_good_matrices(w.n, filters=w.filters, seed=seed, jobs=1)
    if w.kind == "prepare":
        return lambda: prepare_instances(w.n, filters=w.filters)
    if w.kind == "sweep":
        return lambda: generate_candidates(w.n, signed_rowsums(w.n))
    raise ValueError(f"unknown workload kind {w.kind!r}")


def summarize(w: Workload, result) -> dict[str, Any]:
    """The checked facts about one operation's output (outside the timing)."""
    if w.kind == "enumerate":
        classes, report = result
        return {
            "classes": len(classes),
            "exhaustive": report.exhaustive,
            "digest": report.digest,
            "certified": all(certify(cq.quad) for cq in classes),
            "known_found": all(canonical_form(k) in classes for k in w.known),
        }
    if w.kind == "prepare":
        instances = result[0]
        return {"instances": len(instances), "fingerprint": rows_digest(sorted(instances))}
    return {
        "s_sk": len(result.s_sk),
        "s_sy": len(result.s_sy),
        "digest": rows_digest([sorted(result.s_sk), sorted(result.s_sy)]),
    }


def certify(quad) -> bool:
    """The five independent certifiers; recover_amicable and
    build_skew_hadamard raise when the quad fails them."""
    if not (verify_definition(quad) and paf_certificate(quad) and product_rule_holds(quad)):
        return False
    recover_amicable(quad)
    build_skew_hadamard(quad)
    return True


def rows_digest(groups) -> str:
    """SHA-256 of groups of rows: one row per line as comma-separated
    integers, and a blank line after each group."""
    h = hashlib.sha256()
    for group in groups:
        for row in group:
            h.update(",".join(map(str, row)).encode() + b"\n")
        h.update(b"\n")
    return h.hexdigest()


def problems(w: Workload, summary: dict[str, Any]) -> list[str]:
    """Every way the summary differs from a correct answer (empty: correct)."""
    out = [f"{key}: got {summary.get(key)!r}, expected {want!r}"
           for key, want in w.expect.items() if summary.get(key) != want]
    for flag in ("certified", "known_found"):
        if summary.get(flag) is False:
            out.append(f"{flag} is false")
    return out
