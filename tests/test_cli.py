"""The goodmat command line: outputs, exit codes, sharding, and merging."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from goodmat import cli, pipeline
from goodmat.cli import run_cli
from goodmat.pipeline import SearchReport
from goodmat.satsearch import parse_dimacs
from goodmat.seqcore import read_quads, write_quads


def run(capsys, *argv):
    code = run_cli([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── happy paths ──────────────────────────────────────────────────────────────

def test_rowsums(capsys):
    code, out, _ = run(capsys, "rowsums", 15)
    assert code == 0
    assert out.splitlines() == ["-5 -5 3", "-1 3 7"]


def test_candidates_writes_files(tmp_path, capsys):
    code, out, _ = run(capsys, "candidates", 21, "--out", tmp_path)
    assert code == 0
    assert "|s_sk|=34 |s_sy|=64" in out
    lines = (tmp_path / "s_sk.txt").read_text().splitlines()
    assert len(lines) == 34 and all(len(line.split(",")) == 7 for line in lines)
    # the files' bytes, recorded when the candidate sets were frozensets
    for name, digest in (
        ("s_sk.txt", "50c06dd85e48a72ed689de2f165661cec6d994df2b428108e757613a1319eb57"),
        ("s_sy.txt", "38e9f1f3c208501ed8adeb285c1ef95c17cefdccbf2c4c3bae4ed37d4bceaefb"),
    ):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_match_writes_file(tmp_path, capsys):
    code, out, _ = run(capsys, "match", 9, "--out", tmp_path)
    assert code == 0
    assert "|S_q|=24" in out
    assert (tmp_path / "s_q.txt").exists()


def test_enumerate_full_run(tmp_path, capsys):
    code, out, _ = run(capsys, "enumerate", 9, "--out", tmp_path)
    assert code == 0
    assert "inequivalent=1" in out
    rows = tmp_path / "solutions-n9.rows"
    report = tmp_path / "report-n9.json"
    manifest = tmp_path / "manifest-n9.json"
    assert rows.exists() and report.exists() and manifest.exists()
    with open(rows) as fp:
        assert len(read_quads(fp)) == 1
    loaded = SearchReport.from_json(report.read_text())
    assert loaded.n == 9 and loaded.exhaustive
    assert len(json.loads(manifest.read_text())) == 2


def test_enumerate_builds_no_cnf_without_dimacs(tmp_path, capsys, monkeypatch):
    def refuse(cq, **kwargs):
        raise AssertionError("CNF built without --dimacs")

    monkeypatch.setattr(cli, "build_instance", refuse)
    code, _, _ = run(capsys, "enumerate", 15, "--out", tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "manifest-n15.json").read_text())
    instances = pipeline.prepare_instances(15)[0]
    assert manifest == [{"id": idx, "quad": [list(row) for row in cq.rows()]}
                        for idx, cq in enumerate(instances)]


def test_shard_manifest_ids_index_the_full_instance_list(tmp_path, capsys):
    code, _, _ = run(capsys, "solve", 15, "--shard", "1/2", "--out", tmp_path, "--dimacs")
    assert code == 0
    manifest = json.loads((tmp_path / "manifest-n15-shard1of2.json").read_text())
    instances = pipeline.prepare_instances(15)[0]
    assert [entry["id"] for entry in manifest] == [1, 3, 5, 7, 9]
    for entry in manifest:
        assert entry["quad"] == [list(row) for row in instances[entry["id"]].rows()]
    cnfs = {p.name for p in tmp_path.glob("instance-n15-shard1of2-*.cnf")}
    assert cnfs == {f"instance-n15-shard1of2-{i}.cnf" for i in (1, 3, 5, 7, 9)}


def test_enumerate_dimacs_export(tmp_path, capsys):
    code, _, _ = run(capsys, "enumerate", 9, "--out", tmp_path, "--dimacs")
    assert code == 0
    cnfs = sorted(tmp_path.glob("instance-n9-*.cnf"))
    assert len(cnfs) == 2
    nvars, clauses = parse_dimacs(cnfs[0].read_text())
    assert nvars == 20 and clauses


def test_verify_good_file(tmp_path, capsys, known27):
    path = tmp_path / "q.rows"
    with open(path, "w") as fp:
        write_quads(fp, [known27])
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert "definition=OK" in out and "hadamard=OK" in out
    assert "all 1 quads verified" in out


def test_hadamard_outputs_rows(tmp_path, capsys, known3):
    path = tmp_path / "q.rows"
    with open(path, "w") as fp:
        write_quads(fp, [known3])
    out_path = tmp_path / "h.rows"
    code, out, _ = run(capsys, "hadamard", path, "--out", out_path)
    assert code == 0
    assert "order 12" in out
    lines = [l for l in out_path.read_text().splitlines() if l]
    assert len(lines) == 12 and all(len(l) == 12 for l in lines)


def test_oracle(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", 9, "--out", tmp_path)
    assert code == 0
    assert "1 inequivalent" in out
    assert (tmp_path / "oracle-n9.rows").exists()


def test_solve_shards_and_report_merge(tmp_path, capsys):
    for i in range(3):
        code, _, _ = run(capsys, "solve", 15, "--shard", f"{i}/3", "--out", tmp_path)
        assert code == 0
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0
    assert "inequivalent=11" in out and "coverage complete" in out
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert merged.exhaustive and merged.inequivalent_count == 11
    _, whole = pipeline.enumerate_good_matrices(15)
    assert merged.solver_stats == whole.solver_stats  # shard counters sum to the whole
    assert merged.instances_fingerprint == whole.instances_fingerprint
    with open(tmp_path / "solutions-n15-merged.rows") as fp:
        assert len(read_quads(fp)) == 11


def test_report_flags_missing_shard(tmp_path, capsys):
    for i in (0, 2):
        run(capsys, "solve", 15, "--shard", f"{i}/3", "--out", tmp_path)
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0
    assert "INCOMPLETE" in out
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert not merged.exhaustive


def test_report_ignores_an_earlier_merge(tmp_path, capsys):
    for i in range(3):
        run(capsys, "solve", 15, "--shard", f"{i}/3", "--out", tmp_path)
    assert run(capsys, "report", tmp_path)[0] == 0
    for path in tmp_path.glob("*-shard1of3.*"):
        path.unlink()
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0
    assert "merged 2 reports" in out and "INCOMPLETE" in out
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert not merged.exhaustive


def test_report_flags_a_duplicate_shard_index(tmp_path, capsys):
    for i in range(2):
        run(capsys, "solve", 15, "--shard", f"{i}/2", "--out", tmp_path)
    for kind, ext in (("report", "json"), ("solutions", "rows")):  # a rerun writes both
        shard0 = (tmp_path / f"{kind}-n15-shard0of2.{ext}").read_text()
        (tmp_path / f"{kind}-n15-shard0of2-rerun.{ext}").write_text(shard0)
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0
    assert "merged 3 reports" in out
    assert "INCOMPLETE" in out and "duplicate shard index 0" in out
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert not merged.exhaustive and merged.inequivalent_count == 11


def test_report_flags_an_unsharded_run_next_to_shards(tmp_path, capsys):
    run(capsys, "enumerate", 15, "--out", tmp_path)
    run(capsys, "solve", 15, "--shard", "0/2", "--out", tmp_path)
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0
    assert "INCOMPLETE" in out  # the unsharded run already covers shard 0 of 2
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert not merged.exhaustive and merged.inequivalent_count == 11


def test_report_flags_shards_of_different_instance_lists(tmp_path, capsys):
    # two shards of one split, drawn from different instance lists, do not
    # cover one search between them
    for i in range(2):
        run(capsys, "solve", 15, "--shard", f"{i}/2", "--out", tmp_path)
    path = tmp_path / "report-n15-shard1of2.json"
    data = json.loads(path.read_text())
    data["instances_fingerprint"] = "0" * 64  # as a run over another instance list reads
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0
    assert "INCOMPLETE (2 different instance fingerprints)" in out
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert not merged.exhaustive and merged.instances_fingerprint == ""


def test_report_flags_a_shard_without_fingerprint(tmp_path, capsys):
    for i in range(2):
        run(capsys, "solve", 15, "--shard", f"{i}/2", "--out", tmp_path)
    path = tmp_path / "report-n15-shard1of2.json"
    data = json.loads(path.read_text())
    del data["instances_fingerprint"]  # as a report of schema version 1 reads
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0
    assert "INCOMPLETE (a report without an instance fingerprint)" in out
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert not merged.exhaustive


def test_report_ignores_a_stray_rows_file(tmp_path, capsys):
    # a rows file without a report of its own is not part of the merge
    run(capsys, "enumerate", 15, "--out", tmp_path)
    _, whole = pipeline.enumerate_good_matrices(15)
    stray = tmp_path / "stray"
    run(capsys, "enumerate", 9, "--out", stray)
    (stray / "solutions-n9.rows").rename(tmp_path / "solutions-n9.rows")
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0 and "coverage complete" in out
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert merged.exhaustive and merged.inequivalent_count == 11
    assert merged.digest == whole.digest


def test_report_exits_2_on_a_missing_rows_file(tmp_path, capsys):
    run(capsys, "enumerate", 15, "--out", tmp_path)
    (tmp_path / "solutions-n15.rows").unlink()
    code, _, err = run(capsys, "report", tmp_path)
    assert code == 2 and "solutions-n15.rows" in err
    assert not (tmp_path / "report-n15-merged.json").exists()


def test_report_flags_a_rows_file_that_is_not_its_reports(tmp_path, capsys):
    for i in range(2):
        run(capsys, "solve", 15, "--shard", f"{i}/2", "--out", tmp_path)
    path = tmp_path / "solutions-n15-shard1of2.rows"
    with open(path) as fp:
        quads = read_quads(fp)
    with open(path, "w") as fp:
        write_quads(fp, quads[1:])  # one class lost after the run
    code, out, _ = run(capsys, "report", tmp_path)
    assert code == 0
    assert "INCOMPLETE (solutions-n15-shard1of2.rows does not match its report's digest)" in out
    merged = SearchReport.from_json((tmp_path / "report-n15-merged.json").read_text())
    assert not merged.exhaustive and merged.inequivalent_count == 10


def test_a_report_without_exhaustive_reads_as_not_exhaustive():
    data = json.loads(pipeline.SearchReport(n=9, wall_time_s=0.0, instance_count=2,
                                            solutions_found=1, inequivalent_count=1).to_json())
    del data["exhaustive"]
    assert not SearchReport.from_json(json.dumps(data)).exhaustive


def test_search_prepares_instances_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = pipeline.prepare_instances

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "prepare_instances", counting)
    monkeypatch.setattr(cli, "prepare_instances", counting)
    code, out, _ = run(capsys, "enumerate", 9, "--out", tmp_path)
    assert code == 0 and "inequivalent=1" in out
    assert len(calls) == 1
    assert len(json.loads((tmp_path / "manifest-n9.json").read_text())) == 2


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("goodmat ")


# ── failure paths ────────────────────────────────────────────────────────────

def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "rowsums", 14)[0] == 2          # even order
    assert run(capsys, "enumerate", 51)[0] == 2        # needs --allow-large
    assert run(capsys, "verify", tmp_path / "nope")[0] == 2
    assert run(capsys, "solve", 15, "--shard", "3/3")[0] == 2
    assert run(capsys, "solve", 15, "--shard", "x")[0] == 2
    for jobs in (0, -2):
        code, _, err = run(capsys, "enumerate", 9, "--jobs", jobs, "--out", tmp_path)
        assert code == 2 and "--jobs" in err
    assert run(capsys, "definitely-not-a-command")[0] == 2
    assert run(capsys, "report", tmp_path)[0] == 2     # no reports in dir


@pytest.mark.parametrize("module", ["goodmat", "goodmat.cli"])
def test_python_m_runs_the_cli(module, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", module, "enumerate", "9", "--jobs", "-2",
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "--jobs" in proc.stderr


def test_verification_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.rows"
    bad.write_text("+++\n+-+\n++-\n+--\n\n")
    code, out, err = run(capsys, "verify", bad)
    assert code == 1
    assert "FAIL" in out
    assert "failed verification" in err


@pytest.mark.parametrize("text", [
    '{"n": 9', '{"n": 9}', {"wall_time_s": "x"}, {"shard": [0, 2, 1]},
], ids=["truncated", "missing_count", "string_wall_time", "three_element_shard"])
def test_malformed_report_exits_2_and_names_it(text, tmp_path, capsys):
    # a dict edits a copy of a real report that has its own rows file
    run(capsys, "enumerate", 9, "--out", tmp_path)
    bad = tmp_path / "report-n9-shard0of2.json"
    if isinstance(text, dict):
        text = json.dumps({**json.loads((tmp_path / "report-n9.json").read_text()), **text})
        (tmp_path / "solutions-n9-shard0of2.rows").write_bytes(
            (tmp_path / "solutions-n9.rows").read_bytes())
    bad.write_text(text)
    code, _, err = run(capsys, "report", tmp_path)
    assert code == 2
    assert str(bad) in err


@pytest.mark.parametrize("command", ["verify", "hadamard"])
def test_a_row_file_without_quads_exits_2(command, tmp_path, capsys):
    empty = tmp_path / "empty.rows"
    empty.write_text("\n")
    code, _, err = run(capsys, command, empty)
    assert code == 2
    assert err == f"error: no quads in {empty}\n"


def test_reports_are_written_whole(tmp_path, capsys, monkeypatch):
    # every file reaches its name by one os.replace of a finished file whose
    # temporary name `goodmat report` does not read, rows before report
    moved = {}

    def spy(src, dst):
        assert not Path(dst).exists() and Path(src).name == f".{Path(dst).name}.partial"
        moved[Path(dst).name] = Path(src).read_bytes()
        real(src, dst)

    real = os.replace
    monkeypatch.setattr(os, "replace", spy)
    run(capsys, "enumerate", 9, "--dimacs", "--out", tmp_path)
    assert list(moved) == ["manifest-n9.json", "instance-n9-0.cnf", "instance-n9-1.cnf",
                           "solutions-n9.rows", "report-n9.json"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == moved
    assert SearchReport.from_json(moved["report-n9.json"]).n == 9


def test_mixed_order_report_dir_exits_2(tmp_path, capsys):
    run(capsys, "enumerate", 9, "--out", tmp_path)
    run(capsys, "enumerate", 15, "--out", tmp_path)
    code, _, err = run(capsys, "report", tmp_path)
    assert code == 2
    assert "mixed orders" in err
