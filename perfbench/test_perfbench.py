"""Self-test of the benchmark at smoke size.

    python3 -m pytest perfbench

Checks that every workload emits exactly the metrics BENCHMARK.json
names, with their units, that the smoke answers match their reference
digests, that a perturbed answer is counted as a failure, and that the
benchmark refuses to run without the package sources.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def _smoke_ops(name, tmp_path):
    def timed(key, fn):
        ok, answer = fn()
        return key, ok, 0.0, None if answer is None else workloads.digest(answer)

    setup, batch = workloads.WORKLOADS[name]
    return batch(setup(random.Random(5), "smoke", str(tmp_path)), timed)


def _reference(name):
    with open(run.REFERENCE) as fh:
        return json.load(fh)["workloads"][name]["smoke"]


def test_perturbed_coefficient_is_a_failure(tmp_path, monkeypatch):
    from affschur import schur

    ref = _reference("struct-tables")
    attempted, failed = run.check(_smoke_ops("struct-tables", tmp_path), ref)
    assert failed == 0

    real = schur.g_constants

    def one_flipped(a, b, r):
        # still nonnegative, so only the digest can catch it
        g = dict(real(a, b, r))
        c = min(g, key=lambda m: m.entries())
        g[c] = g[c] + 1
        return g

    monkeypatch.setattr(schur, "g_constants", one_flipped)
    schur.clear_caches()
    attempted, failed = run.check(_smoke_ops("struct-tables", tmp_path), ref)
    g_ops = sum(1 for op in ref["items"] if op.startswith('["g"'))
    assert failed == g_ops + 1  # every g answer, plus the batch digest


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "kl-survey", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
