"""The scripts under scripts/ run end to end on small orders."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=600)


def test_reproduce_counts(tmp_path):
    proc = run_script("reproduce_counts.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "all counts reproduced" in proc.stdout
    assert (tmp_path / "solutions-n27.rows").exists() and (tmp_path / "report-n27.json").exists()


def test_bench(tmp_path):
    proc = run_script("bench.py", "--label", "smoke", "--orders", 9, 15, "--repeats", 1,
                      "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert sorted(record["orders"]) == ["15", "9"]
    assert [record["orders"][n]["inequivalent"] for n in ("9", "15")] == [1, 11]
