"""The traced run: the pipeline recomposed from each layer's public function,
with a span around every call.

The spans are recorded here, in the benchmark, around calls into the
layers; nothing inside ``goodmat`` is instrumented.  The recomposition
mirrors ``enumerate_good_matrices`` / ``prepare_instances`` step by step,
and the traced run checks that it gives the same answer as the untraced
entry point, so both measure one program.  Spans stay in memory and are
written out with the run's results.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace

from goodmat import (
    build_instance,
    canonical_compressed,
    canonical_form,
    dedup,
    generate_candidates,
    match_quadruples,
    signed_rowsums,
    solve_all,
)
from goodmat.pipeline import solution_digest

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "diophantine.s": "s",
    "diophantine.triples": "count",
    "candidates.s": "s",
    "candidates.rows_per_s": "1/s",
    "candidates.kept_sk": "count",
    "candidates.kept_sy": "count",
    "candidates.keep_ratio": "ratio",
    "matching.s": "s",
    "matching.quads": "count",
    "equiv.instance_dedup.s": "s",
    "equiv.instance_dedup.in": "count",
    "equiv.instance_dedup.out": "count",
    "equiv.canonical_compressed_us": "us",
    "equiv.postprocess.s": "s",
    "equiv.canonical_form_us": "us",
    "satsearch.build_instance.s": "s",
    "satsearch.clauses": "count",
    "satsearch.solve.s": "s",
    "satsearch.instance_ms.p50": "ms",
    "satsearch.instance_ms.max": "ms",
    "satsearch.raw_models": "count",
    "satsearch.productive_ratio": "ratio",
    "satsearch.models_per_theory_clause": "ratio",
    "cdcl.conflicts": "count",
    "cdcl.decisions": "count",
    "cdcl.propagations": "count",
    "cdcl.theory_clauses": "count",
    "pipeline.verify_ms_per_quad": "ms",
    "op.s": "s",
    "op.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans of one traced operation, kept in memory.

    Each span records its name, start and end (``perf_counter`` seconds),
    the id of the span that was open when it began, and the counts recorded
    at that boundary.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span's dict of counts to fill in."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        return sum(_duration(s) for s in self.named(name))

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.named(name))

    def self_seconds(self, span: dict) -> float:
        """The span's duration minus the part its child spans cover."""
        children = [s for s in self.spans if s["parent"] == span["id"]]
        return _duration(span) - sum(_duration(c) for c in children)

    def layers(self) -> dict[str, dict]:
        """Per span name: total seconds, self seconds and number of calls."""
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += _duration(s)
            agg["self_s"] += self.self_seconds(s)
            agg["calls"] += 1
        return out


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def traced_operation(w, seed: int, tr: Tracer):
    """One operation of workload ``w``, layer by layer, inside span ``op``.

    Returns a result of the same shape as the untraced entry point's, so the
    same summary and checks apply to both.
    """
    n, f = w.n, w.filters
    with tr.span("op"):
        with tr.span("diophantine") as c:
            rowsums = signed_rowsums(n)
            c["triples"] = len(rowsums)
        with tr.span("candidates") as c:
            cands = generate_candidates(
                n, rowsums,
                psd_filter=f.psd_candidates, rowsum_filter=f.rowsum_candidates,
            )
            c.update(rows=2 << (n // 2), kept_sk=len(cands.s_sk), kept_sy=len(cands.s_sy))
        if w.kind == "sweep":
            return cands
        with tr.span("matching") as c:
            s_q = match_quadruples(cands, n, pair_filter=f.psd_pairs)
            c["quads"] = len(s_q)
        with tr.span("equiv.instance_dedup") as c:
            instances = dedup(s_q, lambda cq: canonical_compressed(cq, n))
            c.update({"in": len(s_q), "out": len(instances)})
        if w.kind == "prepare":
            return instances, cands, {}

        raw = []
        with tr.span("satsearch"):
            for cq in instances:
                with tr.span("satsearch.instance"):
                    with tr.span("satsearch.build_instance") as c:
                        instance = build_instance(cq, parity=f.parity_clauses)
                        c["clauses"] = len(instance.clauses)
                    with tr.span("satsearch.solve") as c:
                        raw.extend(solve_all(instance, seed=seed,
                                             prefix_checks=f.prefix_checks))
                        c.update(instance.stats)
        with tr.span("equiv.postprocess") as c:
            classes = dedup(raw, canonical_form)
            c.update({"in": len(raw), "out": len(classes)})
        report = SimpleNamespace(exhaustive=True, digest=solution_digest(classes))
    return classes, report


def layer_metrics(tr: Tracer, untraced_s: float) -> dict[str, float]:
    """Every metric of ``PER_LAYER_UNITS`` from the spans of one operation.

    A layer the workload does not run reports 0.
    """
    (op,) = tr.named("op")
    sec, cnt = tr.seconds, tr.count
    rows = cnt("candidates", "rows")
    kept = cnt("candidates", "kept_sk") + cnt("candidates", "kept_sy")
    dedup_in = cnt("equiv.instance_dedup", "in")
    raw = cnt("satsearch.solve", "raw_models")
    theory = cnt("satsearch.solve", "theory_clauses")
    per_instance = [_duration(s) * 1e3 for s in tr.named("satsearch.instance")]
    productive = sum(1 for s in tr.named("satsearch.solve") if s["counts"].get("raw_models"))
    classes = cnt("equiv.postprocess", "out")
    return {
        "diophantine.s": sec("diophantine"),
        "diophantine.triples": cnt("diophantine", "triples"),
        "candidates.s": sec("candidates"),
        "candidates.rows_per_s": _ratio(rows, sec("candidates")),
        "candidates.kept_sk": cnt("candidates", "kept_sk"),
        "candidates.kept_sy": cnt("candidates", "kept_sy"),
        "candidates.keep_ratio": _ratio(kept, rows),
        "matching.s": sec("matching"),
        "matching.quads": cnt("matching", "quads"),
        "equiv.instance_dedup.s": sec("equiv.instance_dedup"),
        "equiv.instance_dedup.in": dedup_in,
        "equiv.instance_dedup.out": cnt("equiv.instance_dedup", "out"),
        "equiv.canonical_compressed_us": _ratio(sec("equiv.instance_dedup") * 1e6, dedup_in),
        "equiv.postprocess.s": sec("equiv.postprocess"),
        "equiv.canonical_form_us": _ratio(sec("equiv.postprocess") * 1e6,
                                          cnt("equiv.postprocess", "in")),
        "satsearch.build_instance.s": sec("satsearch.build_instance"),
        "satsearch.clauses": cnt("satsearch.build_instance", "clauses"),
        "satsearch.solve.s": sec("satsearch.solve"),
        "satsearch.instance_ms.p50": statistics.median(per_instance) if per_instance else 0.0,
        "satsearch.instance_ms.max": max(per_instance, default=0.0),
        "satsearch.raw_models": raw,
        "satsearch.productive_ratio": _ratio(productive, len(per_instance)),
        "satsearch.models_per_theory_clause": _ratio(raw, theory),
        "cdcl.conflicts": cnt("satsearch.solve", "conflicts"),
        "cdcl.decisions": cnt("satsearch.solve", "decisions"),
        "cdcl.propagations": cnt("satsearch.solve", "propagations"),
        "cdcl.theory_clauses": theory,
        "pipeline.verify_ms_per_quad": _ratio(sec("pipeline.verify") * 1e3, classes),
        "op.s": _duration(op),
        "op.self_s": tr.self_seconds(op),
        "trace.overhead_s": _duration(op) - untraced_s,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
