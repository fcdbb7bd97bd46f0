import functools
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from affschur import cli
from affschur.verify import DRIVERS

CROSS = '{"n": 2, "entries": [[1, 2, 1], [2, 1, 1]]}'
DIAG = '{"n": 2, "entries": [[1, 1, 1], [2, 2, 1]]}'
SEG = '{"n": 2, "entries": [[1, 2, 1]]}'
SEG2 = '{"n": 2, "entries": [[1, 2, 2]]}'


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kl_diagonal(capsys):
    code, out, _ = run(capsys, "kl", "--r", "2", "--y", "2,1", "--w", "2,1")
    assert code == 0
    report = json.loads(out)
    assert report["P"] == ["1"]


def test_kl_rejects_bad_window(capsys):
    code, _, err = run(capsys, "kl", "--r", "2", "--y", "2,x", "--w", "2,1")
    assert code == 2
    assert "window" in err


def test_kl_rejects_window_length(capsys):
    code, _, err = run(capsys, "kl", "--r", "3", "--y", "2,1", "--w", "2,1")
    assert code == 2
    assert "window length" in err


def test_theta_worked_report(capsys):
    code, out, _ = run(
        capsys, "theta", "--n", "2", "--r", "2", "--a", CROSS
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["theta"]) == 2
    coeffs = {
        tuple(tuple(e) for e in mat["entries"]): dict(
            (exp, c) for exp, c in val
        )
        for mat, val in report["theta"]
    }
    assert coeffs[((1, 1, 1), (2, 2, 1))] == {-1: "1"}
    assert coeffs[((1, 2, 1), (2, 1, 1))] == {0: "1"}


def test_theta_sigma_mismatch(capsys):
    code, _, err = run(capsys, "theta", "--n", "2", "--r", "3", "--a", CROSS)
    assert code == 2
    assert "sigma" in err


def test_theta_requires_r(capsys):
    code, _, err = run(capsys, "theta", "--n", "2", "--a", CROSS)
    assert code == 2
    assert "--r is required" in err


def test_theta_rejects_small_rank(capsys):
    code, _, err = run(capsys, "theta", "--n", "1", "--r", "2", "--a", CROSS)
    assert code == 2
    assert "n must be" in err


def test_theta_rejects_negative_entry(capsys):
    bad = '{"n": 2, "entries": [[1, 2, -1]]}'
    code, _, err = run(capsys, "theta", "--n", "2", "--r", "2", "--a", bad)
    assert code == 2
    assert "negative" in err


def test_theta_rejects_malformed_json(capsys):
    code, _, err = run(capsys, "theta", "--n", "2", "--r", "2", "--a", "{oops")
    assert code == 2
    assert "JSON" in err


def test_mult_bracket_product(capsys):
    code, out, _ = run(
        capsys, "mult", "--n", "2", "--r", "2", "--a", CROSS, "--b", CROSS
    )
    assert code == 0
    report = json.loads(out)
    assert report["basis"] == "bracket"
    assert len(report["product"]) == 2


def test_mult_theta_basis(capsys):
    code, out, _ = run(
        capsys,
        "mult",
        "--n", "2", "--r", "2",
        "--a", CROSS, "--b", CROSS,
        "--basis", "theta",
    )
    assert code == 0
    json.loads(out)


def test_g_table_report(capsys):
    code, out, _ = run(
        capsys, "g-table", "--n", "2", "--r", "2", "--a", CROSS, "--b", CROSS
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "g"
    assert len(report["entries"]) == 1


def test_f_table_report(capsys):
    code, out, _ = run(
        capsys, "f-table", "--n", "2", "--a", SEG, "--b", SEG
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "f"
    assert len(report["entries"]) == 1


def test_f_table_rejects_diagonal_input(capsys):
    code, _, err = run(capsys, "f-table", "--n", "2", "--a", DIAG, "--b", SEG)
    assert code == 2
    assert "upper" in err


def test_h_table_report(capsys):
    code, out, _ = run(
        capsys, "h-table", "--n", "2", "--a", CROSS, "--b", CROSS
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "h"
    assert len(report["entries"]) == 2


def test_h_table_stabilizing_past_level_9(capsys):
    code, out, err = run(
        capsys,
        "h-table",
        "--n",
        "2",
        "--a",
        '{"n": 2, "entries": [[1, 0, 3]]}',
        "--b",
        '{"n": 2, "entries": [[2, 3, 3]]}',
    )
    assert (code, err) == (0, "")
    assert len(json.loads(out)["entries"]) == 4


def test_hall_report(capsys):
    two = '{"n": 2, "entries": [[1, 2, 2]]}'
    code, out, _ = run(
        capsys, "hall", "--n", "2", "--a", SEG, "--b", SEG, "--c", two
    )
    assert code == 0
    report = json.loads(out)
    assert report["phi"] == ["1", "1"]


def test_hall_reports_the_matrices_n_without_flag(capsys):
    one = '{"n": 3, "entries": [[1, 2, 1]]}'
    two = '{"n": 3, "entries": [[1, 2, 2]]}'
    code, out, _ = run(capsys, "hall", "--a", one, "--b", one, "--c", two)
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 3
    assert report["phi"] == ["1", "1"]


def test_hall_answers_a_negative_riedtmann_bound_without_counting(
    capsys, monkeypatch
):
    from affschur import hall, schur

    def count(*args, **kwargs):
        raise AssertionError("hall_count called")

    # the submodules of dimension 2 of the uniserial M^{1,4} are uniserial,
    # so none is semisimple; no path rank of C forbids the triple
    semisimple = '{"n": 2, "entries": [[1, 2, 1], [2, 3, 1]]}'
    uniserial = '{"n": 2, "entries": [[1, 4, 1]]}'
    schur.clear_caches()
    monkeypatch.setattr(hall, "hall_count", count)
    code, out, err = run(
        capsys, "hall", "--a", SEG, "--b", semisimple, "--c", uniserial
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["phi"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--r", "2", "--a", CROSS],
        ["mult", "--r", "2", "--a", CROSS, "--b", CROSS],
    ],
    ids=["theta", "mult"],
)
def test_level_commands_report_the_matrix_n_without_flag(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["n"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--r", "2", "--a", '{"n": 1, "entries": [[1, 1, 2]]}'],
        [
            "hall",
            "--a", '{"n": 1, "entries": [[1, 2, 1]]}',
            "--b", '{"n": 1, "entries": [[1, 2, 1]]}',
            "--c", '{"n": 1, "entries": [[1, 2, 2]]}',
        ],
    ],
    ids=["theta", "hall"],
)
def test_matrix_of_rank_one_is_refused_without_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "n must be >= 2" in err


def test_hall_rejects_matrices_of_different_n(capsys):
    b3 = '{"n": 3, "entries": [[1, 2, 1]]}'
    two = '{"n": 2, "entries": [[1, 2, 2]]}'
    code, out, err = run(capsys, "hall", "--a", SEG, "--b", b3, "--c", two)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "differ in n" in err
    # co(A) and ro(B) have different lengths, so no product term matches
    cross3 = '{"n": 3, "entries": [[1, 2, 1], [2, 1, 1]]}'
    code, out, err = run(
        capsys, "g-table", "--r", "2", "--a", CROSS, "--b", cross3
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "differ in n" in err


def test_kl_requires_r(capsys):
    code, out, err = run(capsys, "kl", "--y", "1,2", "--w", "2,1")
    assert code == 2
    assert out == ""
    assert "--r is required" in err


def test_verify_fast_target(capsys):
    code, out, _ = run(capsys, "verify", "lemma-3.7", "--n", "2", "--r", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["violations"] == []


def test_verify_unknown_target(capsys):
    code, _, err = run(capsys, "verify", "lemma-9.9")
    assert code == 2
    assert "unknown verification target" in err


def test_reports_are_deterministic(capsys):
    _, out1, _ = run(
        capsys, "g-table", "--n", "2", "--r", "2", "--a", CROSS, "--b", CROSS
    )
    _, out2, _ = run(
        capsys, "g-table", "--n", "2", "--r", "2", "--a", CROSS, "--b", CROSS
    )
    assert out1 == out2


def test_out_file_and_cache(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    cache_path = tmp_path / "kl.txt"
    code = cli.main(
        [
            "kl",
            "--r", "2", "--y", "1,2", "--w", "2,1",
            "--out", str(out_path),
            "--cache", str(cache_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text())["command"] == "kl"
    assert cache_path.exists()


def test_cache_is_not_rewritten_without_new_entries(tmp_path, capsys):
    path = tmp_path / "kl.txt"
    argv = ["kl", "--r", "3", "--y", "1,2,3", "--w", "2,3,1"]
    argv += ["--cache", str(path)]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    text, inode = path.read_bytes(), path.stat().st_ino
    code, second, _ = run(capsys, *argv)
    assert code == 0
    assert second == first
    # a save replaces the file by a new one, so the inode would change
    assert path.stat().st_ino == inode and path.read_bytes() == text


@pytest.mark.parametrize(
    "flag, make_path",
    [
        ("--out", lambda tmp: tmp / "missing" / "report.json"),
        ("--cache", lambda tmp: tmp / "missing" / "kl.txt"),
        ("--cache", lambda tmp: tmp),  # a directory: refused at load
    ],
    ids=["out-in-missing-dir", "cache-in-missing-dir", "cache-is-a-dir"],
)
def test_unusable_out_or_cache_path_exits_2(tmp_path, capsys, flag, make_path):
    path = make_path(tmp_path)
    code, out, err = run(
        capsys, "kl", "--r", "2", "--y", "1,2", "--w", "2,1", flag, str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s %s: " % (flag, path))
    assert err.count("\n") == 1
    assert list(tmp_path.rglob("*.tmp")) == []


def test_matrix_from_file(tmp_path, capsys):
    mat_path = tmp_path / "a.json"
    mat_path.write_text(CROSS)
    code, out, _ = run(
        capsys, "theta", "--n", "2", "--r", "2", "--a", str(mat_path)
    )
    assert code == 0
    json.loads(out)


def test_missing_matrix_file(capsys):
    code, _, err = run(
        capsys, "theta", "--n", "2", "--r", "2", "--a", "/no/such/file.json"
    )
    assert code == 2
    assert "not found" in err


def test_matrix_path_to_a_directory(tmp_path, capsys):
    code, _, err = run(capsys, "theta", "--n", "2", "--r", "2", "--a", str(tmp_path))
    assert code == 2
    assert "not found" in err


def test_library_value_error_exits_2(capsys):
    # h_constants, not the CLI, refuses a matrix with an E-multiple
    code, out, err = run(capsys, "h-table", "--n", "2", "--a", DIAG, "--b", DIAG)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "E-multiple" in err


@pytest.mark.parametrize(
    "bad",
    [
        '{"entries": [[1, 2]]}',  # an entry without its value
        '{"n": 0, "entries": []}',
        '{"n": 2, "entries": [[1, 2, "1"]]}',
        '{"n": 2, "entries": {"1": 2}}',
    ],
)
def test_malformed_matrix_names_flag_and_format(capsys, bad):
    code, out, err = run(capsys, "theta", "--n", "2", "--r", "2", "--a", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "--a" in err and "[i, j, a]" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "--r", "2", "--y", "1,2", "--w", "2,1"],
        ["theta", "--n", "2", "--r", "2", "--a", CROSS],
        ["mult", "--n", "2", "--r", "2", "--a", DIAG, "--b", CROSS],
        ["g-table", "--n", "2", "--r", "2", "--a", CROSS, "--b", DIAG],
        ["f-table", "--n", "2", "--a", '{"n": 2, "entries": [[1, 2, 2]]}',
         "--b", SEG],
        ["h-table", "--n", "2", "--a", CROSS, "--b", CROSS],
    ],
)
def test_cap_length_applies_to_every_command(capsys, argv):
    code, out, err = run(capsys, *argv, "--cap-length", "0")
    assert code == 2
    assert out == ""
    assert "above --cap-length 0" in err


def test_cap_length_refuses_without_enumerating(capsys, monkeypatch):
    # y_A+ of diag(7, 0) has length 21; building its coset of 7! * 7!
    # products first takes minutes
    def enumerate_coset(*args):
        raise RuntimeError("double coset enumerated")

    # every module binding of the name, not only the defining one
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.startswith("affschur") and hasattr(mod, "double_coset"):
            monkeypatch.setattr(mod, "double_coset", enumerate_coset)
    a = '{"n": 2, "entries": [[1, 1, 7]]}'
    code, _, err = run(
        capsys, "theta", "--n", "2", "--r", "7", "--a", a, "--cap-length", "1"
    )
    assert code == 2
    assert "length 21, above --cap-length 1" in err


@pytest.mark.parametrize(
    "record",
    [
        "2|1,2|2,1",  # truncated: three fields
        "3|1,2|2,1|1",  # r = 3 but windows of length 2
    ],
)
def test_bad_cache_file_exits_2_and_is_kept(tmp_path, capsys, record):
    path = tmp_path / "kl.txt"
    text = "2|1,2|1,2|1\n" + record + "\n"
    path.write_text(text)
    code, _, err = run(
        capsys, "kl", "--r", "2", "--y", "1,2", "--w", "2,1",
        "--cache", str(path),
    )
    assert code == 2
    assert err.startswith("error: ") and "line 2" in err
    assert path.read_text() == text


@pytest.mark.parametrize("first, second", [("1", "1,1"), ("1,1", "1")])
def test_cache_key_repeated_with_another_p_exits_2(
    tmp_path, capsys, first, second
):
    """Neither record of a repeated key wins over the other."""
    path = tmp_path / "kl.txt"
    text = "3|1,2,3|3,2,1|%s\n3|1,2,3|3,2,1|%s\n" % (first, second)
    path.write_text(text)
    code, out, err = run(
        capsys, "kl", "--r", "3", "--y", "1,2,3", "--w", "3,2,1",
        "--cache", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "line 2: P_{y,w}" in err
    assert path.read_text() == text


# a command line of each command besides kl that takes --cache
_CACHE_IGNORED = [
    ["theta", "--n", "2", "--r", "2", "--a", CROSS],
    ["mult", "--n", "2", "--r", "2", "--basis", "theta",
     "--a", CROSS, "--b", CROSS],
    ["g-table", "--n", "2", "--r", "2", "--a", CROSS, "--b", CROSS],
    ["f-table", "--n", "2", "--a", SEG, "--b", SEG],
    ["hall", "--n", "2", "--a", SEG, "--b", SEG, "--c", SEG2],
]


def test_commands_without_kl_step_leave_the_cache_file_alone(
    tmp_path, capsys, monkeypatch
):
    """The commands besides kl that take --cache never read, check or
    create the file: the KL recursion reads columns, never a P record."""
    path = tmp_path / "kl.txt"
    data = b"2|1,2|2,1\n\xff\n"  # truncated record, then not text
    path.write_bytes(data)
    missing = tmp_path / "missing.txt"

    def refuse(*args):
        raise AssertionError("--cache file opened")

    monkeypatch.setattr(cli, "KLCache", refuse)
    for argv in _CACHE_IGNORED:
        code, out, err = run(capsys, *argv, "--cache", str(path))
        assert code == 0 and err == "", argv
        assert json.loads(out)["command"] == argv[0]
        code, _, err = run(capsys, *argv, "--cache", str(missing))
        assert code == 0 and err == "", argv
    assert path.read_bytes() == data
    assert not missing.exists()


def test_verify_refuses_cache_before_reading_the_file(tmp_path, capsys):
    """verify takes no --cache, for any target or an unknown one, and
    refuses it before a malformed --cache file is read."""
    path = tmp_path / "kl.txt"
    data = b"2|1,2|2,1\n"  # truncated record
    path.write_bytes(data)
    for target in ("lemma-3.1", "prop-3.8", "lemma-3.6", "no-such"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", target, "--cache", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cache" in captured.err
    assert path.read_bytes() == data


def test_kl_checks_its_flags_before_opening_the_cache(
    tmp_path, capsys, monkeypatch
):
    """A missing --r is refused before a malformed --cache file is read."""
    path = tmp_path / "kl.txt"
    data = b"2|1,2|2,1\n"  # truncated record
    path.write_bytes(data)

    def refuse(*args):
        raise AssertionError("--cache file opened")

    monkeypatch.setattr(cli, "KLCache", refuse)
    code, out, err = run(
        capsys, "kl", "--y=1,2,3", "--w=3,2,1", "--cache", str(path)
    )
    assert code == 2 and out == ""
    assert err == "error: --r is required for this command\n"
    assert path.read_bytes() == data


def test_cache_record_outside_w_r_exits_2_and_is_kept(tmp_path, capsys):
    """P_{y,w} is 0 when the rho-parts of y and w differ; a record keyed
    on such a pair is refused at load, not read back as the answer."""
    argv = ["kl", "--r", "3", "--y", "1,2,3", "--w", "4,2,3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["P"] == []
    path = tmp_path / "kl.txt"
    text = "3|1,2,3|4,2,3|1\n"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1: window (4, 2, 3) is outside W_3" in err
    assert path.read_text() == text


def test_non_utf8_cache_file_exits_2_and_is_kept(tmp_path, capsys):
    path = tmp_path / "kl.txt"
    data = b"\xff\xfe"
    path.write_bytes(data)
    code, out, err = run(
        capsys, "kl", "--r", "2", "--y", "1,2", "--w", "2,1",
        "--cache", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert path.read_bytes() == data


def test_cache_record_for_y_not_below_w_exits_2_and_is_kept(
    tmp_path, capsys
):
    """s_1 is not below s_2 s_3, so P = 0; a loaded record that says
    otherwise is refused, naming y and w, not answered."""
    argv = ["kl", "--r", "3", "--y=2,1,3", "--w=-1,3,4"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["P"] == []
    path = tmp_path / "kl.txt"
    data = b"3|2,1,3|-1,3,4|1\n"
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "y = (2, 1, 3), w = (-1, 3, 4)" in err
    assert path.read_bytes() == data


def test_tampered_cache_entry_exits_2_and_is_kept(tmp_path, capsys):
    """A P record that passes the load checks but differs from the value
    kl recomputes is refused, naming y and w, not overwritten."""
    path = tmp_path / "kl.txt"
    argv = ["kl", "--r", "3", "--y=1,2,3", "--w=3,2,1", "--cache", str(path)]
    assert run(capsys, *argv)[0] == 0
    records = [line.split("|") for line in path.read_text().splitlines()]
    queried = ["3", "1,2,3", "3,2,1"]
    rec = next(
        rec for rec in records
        if rec[2] == "3,2,1" and rec[1] not in ("1,2,3", "3,2,1")
    )  # another y != w of the queried column
    first, *rest = rec[3].split(",")
    rec[3] = ",".join([str(int(first) + 1)] + rest)  # same degree
    # without the queried record, kl recomputes the column
    records = [r for r in records if r[:3] != queried]
    text = "".join("|".join(rec) + "\n" for rec in records)
    path.write_text(text)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    y, w = (tuple(map(int, win.split(","))) for win in rec[1:3])
    assert "y = %s, w = %s" % (y, w) in err
    assert path.read_text() == text


@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_refuses_samples_below_one(capsys, value):
    code, out, err = run(capsys, "verify", "thm-5.4", "--samples", value)
    assert code == 2
    assert out == ""
    assert "--samples must be >= 1" in err


# (flag, its text, the driver keyword, the value the driver receives)
VERIFY_FLAGS = [
    ("--n", "3", "n", 3),
    ("--r", "3", "r", 3),
    ("--N", "4", "big_n", 4),
    ("--k", "2", "ks", (2,)),
    ("--samples", "5", "samples", 5),
    ("--cap-dim", "7", "cap_dim", 7),
]


@pytest.mark.parametrize("target", sorted(DRIVERS))
def test_verify_passes_exactly_the_flags_a_driver_takes(
    target, monkeypatch, capsys
):
    real = DRIVERS[target]
    calls = []

    @functools.wraps(real)  # keeps the signature the CLI inspects
    def fake(**kwargs):
        calls.append(kwargs)
        return {"name": target, "violations": [], "pass": True}

    monkeypatch.setitem(DRIVERS, target, fake)
    params = inspect.signature(real).parameters
    # a driver parameter that no verify flag sets would be a dead knob
    assert set(params) <= set(cli._VERIFY_KWARGS.values())
    flags = [f for f in VERIFY_FLAGS if f[2] in params]
    argv = ["verify", target] + [x for f in flags for x in f[:2]]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    (kwargs,) = calls
    assert kwargs == {kw: value for _, _, kw, value in flags}

    refused = [f[:2] for f in VERIFY_FLAGS if f[2] not in params]
    for flag, text in refused:
        code, _, err = run(capsys, "verify", target, flag, text)
        assert code == 2
        assert "does not take %s" % flag in err
    # no driver takes --cap-length, so verify has no such flag
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", target, "--cap-length", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-length 5" in capsys.readouterr().err
    assert len(calls) == 1


# the flags more than one command reads, each with a value to pass
SHARED_FLAGS = {
    "--n": "2",
    "--r": "3",
    "--N": "3",
    "--k": "1",
    "--cap-length": "40",
    "--cap-dim": "10",
    "--samples": "1",
}

# (a command line, the shared flags its command reads); the first six
# are the command shapes of the benchmark's cli-warm workload
COMMAND_FLAGS = [
    (["kl", "--r", "3", "--y=1,2,3", "--w=-1,3,4"], {"--r", "--cap-length"}),
    (
        ["theta", "--n", "2", "--r", "2", "--a", CROSS],
        {"--n", "--r", "--cap-length"},
    ),
    (
        ["mult", "--n", "2", "--r", "2", "--basis", "theta",
         "--a", CROSS, "--b", DIAG],
        {"--n", "--r", "--cap-length"},
    ),
    (
        ["g-table", "--n", "2", "--r", "2", "--a", CROSS, "--b", CROSS],
        {"--n", "--r", "--cap-length"},
    ),
    (["f-table", "--n", "2", "--a", SEG, "--b", SEG], {"--n", "--cap-length"}),
    (
        ["hall", "--n", "2", "--a", SEG, "--b", SEG, "--c", SEG2],
        {"--n", "--cap-dim"},
    ),
    (["h-table", "--n", "2", "--a", CROSS, "--b", CROSS], {"--n", "--cap-length"}),
    (
        ["verify", "lemma-3.1"],
        {"--n", "--r", "--N", "--k", "--samples", "--cap-dim"},
    ),
]


@pytest.mark.parametrize(
    "argv, reads", COMMAND_FLAGS, ids=[argv[0] for argv, _ in COMMAND_FLAGS]
)
def test_each_command_takes_only_the_flags_it_reads(
    tmp_path, capsys, argv, reads
):
    cache = ["--cache", str(tmp_path / "kl.txt")]
    if argv[0] in ("verify", "h-table"):
        # the two commands that cli-warm never passes --cache to
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + cache)
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        cache = []
    code, out, err = run(capsys, *argv, *cache)
    assert code == 0, err
    assert json.loads(out)["violations"] == []

    given = [x for flag in sorted(reads) for x in (flag, SHARED_FLAGS[flag])]
    args = cli.build_parser().parse_args(argv + given + ["--out", "r.json"])
    for flag in reads:
        dest = flag.lstrip("-").replace("-", "_")
        assert getattr(args, dest) == int(SHARED_FLAGS[flag])

    for flag in sorted(set(SHARED_FLAGS) - reads):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag, SHARED_FLAGS[flag]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: %s %s" % (flag, SHARED_FLAGS[flag]) in err


def test_readme_examples_run(capsys):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```\n(.*?)```", readme.read_text(), re.S)
    lines = [
        line
        for block in blocks
        for line in block.splitlines()
        if line.startswith("affschur ")
    ]
    assert len(lines) >= 6
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        json.loads(out)


def _fresh_python(code):
    """The standard output of code run by a new interpreter on the
    package sources."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_command_layer():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import affschur.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    added = set(_fresh_python(code).split())
    assert "affschur.cli" in added
    skipped = {
        "affschur.schur", "affschur.transfer", "affschur.hall",
        "affschur.verify", "dataclasses", "inspect", "fractions",
    }
    assert not added & skipped


_CLI_CORE = {
    "affschur", "affschur.cli", "affschur.affmat", "affschur.affweyl",
    "affschur.heckekl", "affschur.laurent",
}


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["kl", "--r", "3", "--y", "1,2,3", "--w", "3,2,1"], set()),
        (["theta", "--n", "2", "--r", "2", "--a", CROSS], {"schur"}),
        (
            ["g-table", "--n", "2", "--r", "2", "--a", CROSS, "--b", CROSS],
            {"schur", "transfer"},
        ),
        (
            ["hall", "--n", "2", "--a", SEG, "--b", SEG, "--c", SEG2],
            {"hall"},
        ),
    ],
    ids=["kl", "theta", "g-table", "hall"],
)
def test_each_command_imports_only_its_layers(tmp_path, argv, layers):
    argv = argv + ["--out", str(tmp_path / "report.json")]
    code = (
        "import sys\n"
        "from affschur import cli\n"
        "assert cli.main(%r) == 0\n"
        "print(' '.join(m for m in sys.modules if m.startswith('affschur')))\n"
        % argv
    )
    loaded = set(_fresh_python(code).split())
    assert loaded == _CLI_CORE | {"affschur." + m for m in layers}
