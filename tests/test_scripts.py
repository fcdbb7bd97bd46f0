"""The command-line scripts under scripts/, each run once at a tiny size."""

import errno
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

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


def load_script(name):
    """The script scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / (name + ".py")
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


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


def test_run_verification_checks_every_target_before_running():
    proc = run_script("run_verification.py", "lemma-3.6", "nosuch")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "nosuch" in proc.stderr


def test_run_verification_refuses_an_unwritable_json_path(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    proc = run_script("run_verification.py", "lemma-3.1", "--json", str(missing))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--json" in proc.stderr


def test_run_verification_ends_an_internal_failure_with_exit_2(
    tmp_path, monkeypatch, capsys
):
    from affschur import verify

    def fail():
        raise AssertionError("Hall polynomials fail the Riedtmann sum")

    script = load_script("run_verification")
    monkeypatch.setitem(verify.DRIVERS, "lemma-3.7", fail)
    out = tmp_path / "reports.json"
    monkeypatch.setattr(
        sys, "argv",
        ["run_verification.py", "lemma-3.6", "lemma-3.7", "lemma-3.1",
         "--json", str(out)],
    )
    assert script.main() == 2
    captured = capsys.readouterr()
    assert [line.split()[:2] for line in captured.out.splitlines()] == [
        ["lemma-3.6", "pass"]
    ]
    assert captured.err == (
        "error: lemma-3.7: Hall polynomials fail the Riedtmann sum\n"
    )
    assert not out.exists()


def test_run_verification_ends_a_failed_json_write_with_exit_2(
    tmp_path, monkeypatch, capsys
):
    def disk_full(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    script = load_script("run_verification")
    monkeypatch.setattr(pathlib.Path, "write_text", disk_full)
    out = tmp_path / "reports.json"
    monkeypatch.setattr(
        sys, "argv", ["run_verification.py", "lemma-3.7", "--json", str(out)]
    )
    assert script.main() == 2
    captured = capsys.readouterr()
    assert [line.split()[:2] for line in captured.out.splitlines()] == [
        ["lemma-3.7", "pass"]
    ]
    assert captured.err == (
        "error: --json %s: No space left on device\n" % out
    )


def test_kl_survey():
    proc = run_script("kl_survey.py", "--r", "3", "--max-length", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("trivial pairs: ")


def test_kl_survey_saves_its_cache_only_when_the_table_grows(tmp_path):
    path = tmp_path / "kl.txt"
    args = ("--r", "3", "--max-length", "3", "--cache", str(path))
    first = run_script("kl_survey.py", *args)
    assert first.returncode == 0, first.stderr
    text, inode = path.read_text(), path.stat().st_ino
    again = run_script("kl_survey.py", *args)
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout
    # a save replaces the file by a new one, so the inode would change
    assert path.stat().st_ino == inode and path.read_text() == text
    grown = run_script("kl_survey.py", *args[:3], "4", *args[4:])
    assert grown.returncode == 0, grown.stderr
    assert path.stat().st_ino != inode
    assert len(path.read_text()) > len(text)


def test_kl_survey_reports_the_same_with_a_larger_cache(tmp_path):
    """Records the --cache file brings in for other levels or longer w
    stay out of the report."""
    path = str(tmp_path / "kl.txt")
    fill = run_script("kl_survey.py", "--r", "4", "--max-length", "4",
                      "--cache", path)
    assert fill.returncode == 0, fill.stderr
    args = ("--r", "3", "--max-length", "2")
    cached = run_script("kl_survey.py", *args, "--cache", path)
    plain = run_script("kl_survey.py", *args)
    assert cached.returncode == plain.returncode == 0, cached.stderr
    assert cached.stdout == plain.stdout == "trivial pairs: 31\n"


@pytest.mark.parametrize(
    "name, text, named",
    [
        ("missing/kl.txt", None, "--cache"),
        ("", None, "--cache"),  # the directory itself: refused at load
        ("kl.txt", "3|1,2,3|1,2,3|1\n3|1,2,3|2,1,3\n", "line 2: expected 4"),
    ],
    ids=["in-missing-dir", "is-a-dir", "malformed"],
)
def test_kl_survey_refuses_an_unusable_cache(tmp_path, name, text, named):
    path = tmp_path / name
    if text:
        path.write_text(text)
    proc = run_script(
        "kl_survey.py", "--r", "3", "--max-length", "2", "--cache", str(path)
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.rglob("*.tmp")) == []
    if text:
        assert path.read_text() == text


def test_kl_survey_reports_only_the_pairs_the_recursion_produces(tmp_path):
    """A cached record for a surveyed w with y not below w stays out of
    the report: P is read through kl_poly for the support of C'_w."""
    path = tmp_path / "kl.txt"
    path.write_text("3|2,1,3|-1,3,4|1\n")
    args = ("--r", "3", "--max-length", "3")
    cached = run_script("kl_survey.py", *args, "--cache", str(path))
    plain = run_script("kl_survey.py", *args)
    assert cached.returncode == plain.returncode == 0, cached.stderr
    assert cached.stdout == plain.stdout
    assert plain.stdout.endswith("trivial pairs: 97\n")


def test_kl_survey_refuses_a_cache_the_recursion_contradicts(tmp_path):
    path = tmp_path / "kl.txt"
    text = b"3|1,2,3|2,1,3|2\n"
    path.write_bytes(text)
    proc = run_script(
        "kl_survey.py", "--r", "3", "--max-length", "3", "--cache", str(path)
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "computed as 1, stored as 2" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert path.read_bytes() == text
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "args, named",
    [
        (("--r", "1"), "r must be >= 2"),
        (("--r", "0"), "r must be >= 2"),
        (("--max-length", "-1"), "max-length must be >= 0"),
    ],
    ids=["r1", "r0", "negative-max-length"],
)
def test_kl_survey_refuses_bad_input(tmp_path, args, named):
    proc = run_script(
        "kl_survey.py", *args, "--cache", str(tmp_path / "kl.txt")
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_kl_survey_golden_digest(tmp_path):
    """Every full KL column of W_4 up to length 7, pinned by the sha256
    of the printed survey and of the saved file (the same under any
    PYTHONHASHSEED)."""
    path = tmp_path / "kl.txt"
    proc = run_script(
        "kl_survey.py", "--r", "4", "--max-length", "7", "--cache", str(path)
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "5b0f8c717eb152bb0f59067b6ee41b3c38988e1d89683c54ef3eadb730d6200c"
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1f097d518121cf97fce574d7fff2fa62d4a350181a3a9e9da13c28d37a808ecb"
    )


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
    printed = run_script("dump_structure_tables.py", "--n", "2", "--r", "2")
    assert printed.stdout == out.read_text()


STRUCTURE_DIGESTS = {
    (2, 4): "186bd6cddbcd9145de1a3f5250944eda3c4175d8ce52e36402baecb063a576e5",
    (2, 3): "55ba6cc62505b35355b855e36b7808f0ac8663a05e88610c37da500851372592",
    (3, 3): "35d18ff68e4335aa873c2c12ae303f7547410685dc38d73d0a6dad15ad3d548e",
}


@pytest.mark.parametrize(
    "n, r, digest",
    [(n, r, d) for (n, r), d in STRUCTURE_DIGESTS.items()],
    ids=["n%d-r%d" % nr for nr in STRUCTURE_DIGESTS],
)
def test_dump_structure_tables_golden_digest(n, r, digest):
    """Every g- and h-table of a whole scope, pinned by the sha256 of
    the printed document (the same under any PYTHONHASHSEED)."""
    proc = run_script("dump_structure_tables.py", "--n", str(n), "--r", str(r))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_dump_structure_tables_keeps_ranks_apart_in_one_process(
    monkeypatch, capsys
):
    """The pinned scopes, built one after the other in one process with
    every memo kept in between, print their pinned documents: no memo
    hands a result of one rank n to another.  (2, 3) and (3, 3) share
    the level, so the same jdelta_key cells name matrices at both ranks."""
    from affschur import schur

    script = load_script("dump_structure_tables")
    schur.clear_caches()
    for (n, r), digest in STRUCTURE_DIGESTS.items():
        monkeypatch.setattr(
            sys, "argv", ["dump_structure_tables.py", "--n", str(n), "--r", str(r)]
        )
        assert script.main() == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, r)


@pytest.mark.parametrize(
    "args, named",
    [
        (("--r", "0"), "r must be >= 2"),
        (("--n", "1"), "n must be >= 2"),
        (("--n", "0"), "n must be >= 2"),
        (("--out", "missing/tables.json"), "--out"),
    ],
    ids=["r0", "n1", "n0", "out-in-missing-dir"],
)
def test_dump_structure_tables_refuses_bad_input(tmp_path, args, named):
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    proc = run_script("dump_structure_tables.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "script, flag",
    [("dump_structure_tables", "--out"), ("run_verification", "--json")],
)
@pytest.mark.parametrize(
    "make_path",
    [lambda tmp: tmp / "missing" / "out.json", lambda tmp: tmp],
    ids=["in-missing-dir", "a-dir"],
)
def test_unusable_out_is_refused_before_any_table(
    tmp_path, monkeypatch, capsys, script, flag, make_path
):
    from affschur import transfer, verify

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("ran")

    monkeypatch.setattr(transfer, "g_table", spy)
    for name in verify.DRIVERS:
        monkeypatch.setitem(verify.DRIVERS, name, spy)
    path = make_path(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, flag, str(path)])
    try:
        code = load_script(script).main()
    except SystemExit as exc:  # argparse's parser.error
        code = exc.code
    assert (code, calls) == (2, [])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s %s: " % (flag, path) in captured.err
    assert list(tmp_path.rglob("*")) == []


def test_bench_compare_smoke(tmp_path):
    out_dir = tmp_path / "new" / "dir"  # created by the script
    proc = run_script(
        "bench_compare.py", "--parent", str(ROOT), "--change", str(ROOT),
        "--label", "smoke", "--size", "smoke", "--pairs", "2",
        "--workloads", "kl-survey", "--out-dir", str(out_dir),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out_dir / "BENCH_smoke.json").read_text())
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


def _marker_trees(tmp_path):
    """A parent and a change tree whose benchmark command leaves a file
    ran in its tree if it runs."""
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
    return trees


def test_bench_compare_refuses_unknown_workload_before_running(tmp_path):
    trees = _marker_trees(tmp_path)
    proc = run_script(
        "bench_compare.py", "--parent", str(trees[0]), "--change",
        str(trees[1]), "--label", "x", "--workloads", "kl-survey", "nosuch",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "unknown workload nosuch" in proc.stderr
    assert not any((tree / "ran").exists() for tree in trees)
    assert not (tmp_path / "BENCH_x.json").exists()


@pytest.mark.parametrize(
    "out_dir", ["file", "file/sub"], ids=["is-a-file", "below-a-file"]
)
def test_bench_compare_refuses_an_unusable_out_dir_before_running(
    tmp_path, out_dir
):
    trees = _marker_trees(tmp_path)
    (tmp_path / "file").write_text("")
    proc = run_script(
        "bench_compare.py", "--parent", str(trees[0]), "--change",
        str(trees[1]), "--label", "x", "--out-dir", str(tmp_path / out_dir),
    )
    assert proc.returncode == 2
    assert "--out-dir" in proc.stderr
    assert not any((tree / "ran").exists() for tree in trees)
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "BENCHMARK.json", "BENCHMARK.json", "change", "file", "parent"
    ]
