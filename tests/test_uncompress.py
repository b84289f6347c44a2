"""Uncompression by the full-length PAF-key join, against the SAT reference."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from goodmat import uncompress as uncompress_module
from goodmat.errors import InternalError
from goodmat.pipeline import FilterConfig, SearchReport, enumerate_good_matrices, prepare_instances
from goodmat.satsearch import build_instance, solve_all
from goodmat.seqcore import compress3, iter_halves, make_skew, make_symmetric
from goodmat.uncompress import preimages, uncompress_all

DIGEST_15 = "81a5dcfcc5c92095cffd418d577a391e7d14f92962fa6238d20db1c8ca066146"


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


@pytest.mark.parametrize("cfg", [FilterConfig(), FilterConfig.no_filters()],
                         ids=["filters", "no_filters"])
@pytest.mark.parametrize("n", [9, 15, 21])
def test_join_equals_sat_per_instance(n, cfg):
    instances = prepare_instances(n, filters=cfg)[0]
    joined = uncompress_all(instances, row_filter=cfg.psd_candidates,
                            pair_filter=cfg.psd_pairs)
    assert len(joined) == len(instances)
    for cq, got in zip(instances, joined):
        inst = build_instance(cq, parity=cfg.parity_clauses)
        solve_all(inst, prefix_checks=cfg.prefix_checks)
        assert sorted(got) == sorted(inst.solutions), f"instance {cq}"


def test_failed_certificate_raises_internal_error(monkeypatch):
    monkeypatch.setattr(uncompress_module, "paf_certificate", lambda quad: False)
    with pytest.raises(InternalError):
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
