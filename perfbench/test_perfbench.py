"""The benchmark's own fast tests, on small orders; they take seconds.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import bench  # noqa: E402  (needs the checkout's src/ on sys.path)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(wl.SMOKE))
def test_smoke_workload_passes_its_checks(name, trace):
    record = bench.run(wl.SMOKE[name], seed=3, seconds=0, trace=trace, setup_repeats=1)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    units = tracing.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in record["metrics"].items()} == units


def test_wrong_expected_count_is_reported_as_a_failure():
    good = wl.SMOKE["enumerate-15"]
    wrong = dataclasses.replace(good, expect={**good.expect, "classes": 12})
    for trace in (False, True):
        record = bench.run(wrong, seed=0, seconds=0, trace=trace, setup_repeats=1)
        assert not record["correct"]
        assert record["failed"] == record["attempted"]
        assert any("classes" in p for problems in record["problems"] for p in problems)


def test_traced_run_spans_every_instance():
    tr = tracing.Tracer()
    tracing.traced_operation(wl.SMOKE["enumerate-15"], 0, tr)
    layers = tr.layers()
    assert layers["satsearch.instance"]["calls"] == wl.SMOKE["prepare-15"].expect["instances"]
    (op,) = tr.named("op")
    assert 0 <= tr.self_seconds(op) < layers["op"]["s"]


def test_tail_leaves_ten_samples_above_it():
    assert bench.tail([1.0] * 10) is None
    t = bench.tail([float(i) for i in range(40)])
    assert t == {"percentile": 75.0, "value": 29.0, "samples": 40}


def test_smoke_command_ends_with_a_json_line():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {"correct": True}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-21", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
