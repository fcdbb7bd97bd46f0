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
