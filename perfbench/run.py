"""Benchmark of affschur: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats the workload's fixed batch, each repetition in a fresh
interpreter (worker.py) and in an order set by the seed and the
repetition's index, until S seconds have passed and at least three
repetitions (and, for cli-warm, 100 commands) are done.  Module memos
therefore start cold in every repetition.  Every operation is checked:
the library's own cross-checks run inside the batch, and each answer's
digest must match perfbench/reference.json.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (medians over repetitions; command latency
pooled over them) when --trace is 0.  Times are corrected for the speed
of the host's CPU (hostspeed.py).  With --trace 1 it alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead.

    python3 perfbench/run.py --record

rewrites reference.json from one repetition of every workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("kl-survey", "struct-tables", "hall-zeta", "cli-warm")
DEFAULT_SEED = 1
MIN_REPS = {"full": 3, "smoke": 1}
MIN_CMDS = {"full": 100, "smoke": 1}
DEADLINE_S = 150  # stop repeating here, whatever --seconds says
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cmd_p50_s": "s", "cmd_p90_s": "s"}


def _unit(name):
    if tracer.is_time(name):
        return "s"
    if name.endswith(("_ratio", "_factor")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def batch_digest(items):
    text = json.dumps(sorted(items.items()), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(ops, ref):
    """(attempted, failed) for one repetition against its reference.

    An operation fails on a failed cross-check or exception (ok false)
    or when its answer's digest differs from the reference; the batch
    digest over all answers is one more check.
    """
    items = {}
    failed = 0
    for key, ok, _, d in ops:
        bad = not ok
        if d is not None:
            items[key] = d
            bad = bad or ref["items"].get(key) != d
            if bad:
                sys.stderr.write("mismatch: %s\n" % key[:200])
        failed += bad
    failed += batch_digest(items) != ref["batch"]
    return len(ops) + 1, failed


def _worker(name, seed, rep, size, workdir, trace):
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), str(rep),
         size, repr(launch), workdir, "1" if trace else "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("worker for %s exited with %d" % (name, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def measure(name, seed, seconds, trace, size, workdir):
    """Run repetitions; returns (reps, traced flags).

    Repetition i orders the batch by (seed, i), so a run's pooled
    latencies cover several orders; an untraced/traced pair shares one.
    """
    start = time.monotonic()
    reps, traced = [], []
    while True:
        if trace:
            order = (False, True) if len(reps) % 4 == 0 else (True, False)
        else:
            order = (False,)
        i = len(reps) // len(order)
        for t in order:
            reps.append(_worker(name, seed, i, size, workdir, t))
            traced.append(t)
        elapsed = time.monotonic() - start
        commands = sum(len(r["ops"]) for r, t in zip(reps, traced) if not t)
        enough = (
            elapsed >= seconds
            and len(reps) >= (2 if trace else MIN_REPS[size])
            and (trace or name != "cli-warm" or commands >= MIN_CMDS[size])
        )
        if enough or elapsed >= DEADLINE_S:
            return reps, traced


def metrics_of(reps, traced, trace):
    plain = [r for r, t in zip(reps, traced) if not t]
    if not trace:
        lat = [op[2] for r in plain for op in r["ops"]]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "cmd_p50_s": statistics.median(lat),
            "cmd_p90_s": _percentile90(lat),
        }
        return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    with_trace = [r for r, t in zip(reps, traced) if t]
    # times are medians; counts come from repetition 0, so that they
    # repeat exactly for a seed however many repetitions a run makes
    values = {
        k: statistics.median(r["layers"][k] for r in with_trace)
        if tracer.is_time(k) else v
        for k, v in with_trace[0]["layers"].items()
    }
    traced_wall = statistics.median(r["wall_s"] for r in with_trace)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
    return {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}


def record(workdir):
    ref = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        for size in ("full", "smoke"):
            rep = _worker(name, DEFAULT_SEED, 0, size, workdir, False)
            bad = [op[0] for op in rep["ops"] if not op[1]]
            if bad:
                raise SystemExit("%s/%s: failed operations %s" % (name, size, bad[:3]))
            items = {op[0]: op[3] for op in rep["ops"] if op[3] is not None}
            ref["workloads"].setdefault(name, {})[size] = {
                "batch": batch_digest(items), "items": items,
            }
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "affschur", "__init__.py")):
        sys.stderr.write("error: no affschur sources under %s\n" % ROOT)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if args.record:
            record(workdir)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        with open(REFERENCE) as fh:
            ref = json.load(fh)["workloads"][args.workload][args.size]
        reps, traced = measure(
            args.workload, args.seed, args.seconds, args.trace == 1, args.size, workdir
        )
        attempted = failed = 0
        for r in reps:
            a, f = check(r["ops"], ref)
            attempted += a
            failed += f
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics_of(reps, traced, args.trace == 1),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
