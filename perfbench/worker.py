"""One repetition of one workload, in a fresh interpreter.

Usage (started by run.py, which passes its clock reading at launch):

    python3 perfbench/worker.py WORKLOAD SEED REP SIZE LAUNCH WORKDIR TRACE

The inputs depend on SEED and on REP, the repetition's index in its run.

Set-up (interpreter start, import, input generation and, for cli-warm,
filling the cache file) is timed from LAUNCH, a time.monotonic() reading
of the parent: CLOCK_MONOTONIC is shared by all processes of the host.
The batch is timed separately.  Every time is corrected for host speed
(see hostspeed.py).  The last line of stdout is one JSON object with the
timings, every operation's outcome and, when TRACE is 1, the per-layer
metrics of the batch.
"""

from __future__ import annotations

import glob
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402  (needs the package path above)


def _startup_s(reps=5):
    """Median time of a no-op CLI invocation: interpreter plus import."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import affschur.cli"], check=True, env=env, timeout=60
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv):
    name, seed, rep, size, launch, workdir, trace = argv
    trace = trace == "1"
    hostspeed.pin_to_one_cpu()
    speed = hostspeed.SpeedLog()
    speed.sample(5)
    setup, run = workloads.WORKLOADS[name]
    state = setup(random.Random("%d/%d" % (int(seed), int(rep))), size, workdir)
    setup_raw = time.monotonic() - float(launch)
    speed.sample(5)
    setup_s = setup_raw / (statistics.median(speed.durations) / hostspeed.PROBE_REF_S)

    trace_dir = os.path.join(workdir, "trace-%d" % os.getpid())
    state["root"] = ROOT
    state["trace_dir"] = trace_dir if trace else None
    tr = None
    if trace:
        os.makedirs(trace_dir)
        if name != "cli-warm":
            tr = tracer.install()

    def timed(key, fn):
        t0 = time.perf_counter()
        try:
            ok, answer = fn()
        except Exception as exc:  # a library failure is a result to count
            sys.stderr.write("operation %s failed: %r\n" % (key, exc))
            ok, answer = False, None
        t1 = time.perf_counter()
        speed.tick()
        return key, ok, t0, t1, answer

    speed.sample()
    spent0 = speed.spent
    t0 = time.perf_counter()
    ops = run(state, timed)
    wall_raw = time.perf_counter() - t0 - (speed.spent - spent0)
    raw = sum(t1 - t0 for _, _, t0, t1, _ in ops)
    fixed = [(t1 - t0) / speed.factor(t0, t1) for _, _, t0, t1, _ in ops]
    factor = raw / sum(fixed) if raw else 1.0

    who = resource.RUSAGE_CHILDREN if name == "cli-warm" else resource.RUSAGE_SELF
    out = {
        "setup_s": setup_s,
        "wall_s": wall_raw / factor,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ops": [
            [key, ok, dt, None if answer is None else workloads.digest(answer)]
            for (key, ok, _, _, answer), dt in zip(ops, fixed)
        ],
    }
    if trace:
        if tr is not None:
            tr.dump(os.path.join(trace_dir, "batch.json"))
        dumps = []
        for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
            with open(path) as fh:
                dumps.append(json.load(fh))
            os.remove(path)
        os.rmdir(trace_dir)
        layers, cmd_self = tracer.summarize(dumps)
        layers["cli.startup_s"] = _startup_s() if name == "cli-warm" else 0.0
        for cmd in workloads.CLI_COMMANDS:
            times = cmd_self.get(cmd)
            layers["cli.cmd_self_s." + cmd] = statistics.median(times) if times else 0.0
        for k in layers:
            if tracer.is_time(k):
                layers[k] /= factor
        layers["host.speed_factor"] = factor
        out["layers"] = layers
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
