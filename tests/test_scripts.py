"""The command-line scripts under scripts/, each run once at a tiny size."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_run_verification(tmp_path):
    out = tmp_path / "reports.json"
    proc = run_script(
        "run_verification.py", "lemma-3.6", "lemma-3.7", "--json", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["lemma-3.6", "pass"],
        ["lemma-3.7", "pass"],
    ]
    reports = json.loads(out.read_text())
    assert [r["pass"] for r in reports] == [True, True]


def test_kl_survey():
    proc = run_script("kl_survey.py", "--r", "3", "--max-length", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("trivial pairs: ")


def test_dump_structure_tables(tmp_path):
    out = tmp_path / "tables.json"
    proc = run_script(
        "dump_structure_tables.py", "--n", "2", "--r", "2", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    tables = json.loads(out.read_text())
    assert (tables["n"], tables["r"]) == (2, 2)
    assert len(tables["g"]) > 100
    assert {t["kind"] for t in tables["g"]} == {"g"}
    assert all(t["kind"] == "h" for t in tables["h"])


def test_bench_compare_smoke(tmp_path):
    proc = run_script(
        "bench_compare.py", "--parent", str(ROOT), "--change", str(ROOT),
        "--label", "smoke", "--size", "smoke", "--pairs", "2",
        "--workloads", "kl-survey", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    result = report["workloads"]["kl-survey"]
    assert result["failed"] == {"parent": 0, "change": 0}
    wall = result["end_to_end"]["wall_s"]
    assert len(wall["parent"]) == len(wall["change"]) == 2
    assert wall["parent_quartiles"][0] <= wall["parent_median"]
    assert 0 <= wall["change_wins"] <= 2
    # one traced run per side at each of the first min(3, --pairs) seeds
    calls = result["layers"]["heckekl.mul_basis_calls"]
    assert set(calls) == {"parent", "change", "parent_median", "change_median"}
    for side in ("parent", "change"):
        assert len(calls[side]) == 2
        assert calls[side + "_median"] == sum(calls[side]) / 2


def test_bench_compare_refuses_unknown_workload_before_running(tmp_path):
    # each tree's benchmark command would leave a marker file if it ran
    trees = []
    for side in ("parent", "change"):
        tree = tmp_path / side
        tree.mkdir()
        marker = str(tree / "ran")
        bench = {
            "command": [sys.executable, "-c", "open(%r, 'w')" % marker],
            "run_seconds": 0,
            "workloads": [{"name": "kl-survey"}],
        }
        (tree / "BENCHMARK.json").write_text(json.dumps(bench))
        trees.append(tree)
    proc = run_script(
        "bench_compare.py", "--parent", str(trees[0]), "--change",
        str(trees[1]), "--label", "x", "--workloads", "kl-survey", "nosuch",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "unknown workload nosuch" in proc.stderr
    assert not any((tree / "ran").exists() for tree in trees)
    assert not (tmp_path / "BENCH_x.json").exists()
