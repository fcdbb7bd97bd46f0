#!/usr/bin/env python3
"""Compare two trees on the benchmark and write BENCH_<label>.json.

    python3 scripts/bench_compare.py --parent OLD --change NEW --label L

OLD and NEW are directories, each holding an exported tree with its own
BENCHMARK.json, perfbench/ and src/ (e.g. from `git archive REV | tar
-x -C DIR`).  For each workload the script runs perfbench/run.py
--pairs times on each tree, alternating which tree goes first; pair k
(counting from 1) uses seed k on both sides.  It then runs one --trace 1
repetition set per tree at each of the first min(3, --pairs) seeds,
again alternating which tree goes first.  Every run lasts BENCHMARK.json
run_seconds; at --size smoke it makes only perfbench's minimum number of
repetitions.  The output holds, per workload and end-to-end metric, both
sides' values, medians and quartiles and the number of pairs the change
won; per layer metric, both sides' traced values and their medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACED_SEEDS = 3  # single traced runs swing by more than 10% per layer


def run_bench(tree, workload, seed, seconds, size, trace):
    """The result line of one perfbench run in tree."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--size", size, "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            "%s in %s exited with %d:\n%s"
            % (workload, tree, proc.returncode, proc.stderr[-2000:])
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(trees, workload, seeds, seconds, size, trace):
    """One {side: result} pair per seed, alternating which side goes first."""
    wall = "trace.wall_s" if trace else "wall_s"
    pairs = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {}
        for s in order:
            pair[s] = run_bench(trees[s], workload, seed, seconds, size, trace)
            sys.stderr.write(
                "%s pair %d %s: %s %.3f\n"
                % (workload, k, s, wall, pair[s]["metrics"][wall]["value"])
            )
        pairs.append(pair)
    return pairs


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4)
    return [q[0], q[2]]


def compare(runs, bench):
    """Per-metric summary of the paired untraced runs of one workload."""
    out = {}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        vals = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in SIDES}
        lower = spec["better"] == "lower"
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(vals["parent"], vals["change"])
        )
        med = {s: statistics.median(vals[s]) for s in SIDES}
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": vals["parent"],
            "change": vals["change"],
            "parent_median": med["parent"],
            "change_median": med["change"],
            "parent_quartiles": quartiles(vals["parent"]),
            "change_quartiles": quartiles(vals["change"]),
            "rel_change": (med["change"] - med["parent"]) / med["parent"]
            if med["parent"] else None,
            "change_wins": wins,
        }
    return out


def layer_diff(traced):
    """Per-layer metrics of the traced runs: each side's values, one per
    traced seed, and their median."""
    names = sorted(
        {name for pair in traced for s in SIDES for name in pair[s]["metrics"]}
    )
    out = {}
    for name in names:
        out[name] = {}
        for s in SIDES:
            vals = [p[s]["metrics"].get(name, {}).get("value") for p in traced]
            present = [v for v in vals if v is not None]
            out[name][s] = vals
            out[name][s + "_median"] = (
                statistics.median(present) if present else None
            )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="tree of the parent")
    parser.add_argument("--change", required=True, help="tree of the change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", help="default: every workload")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out-dir", default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {s: os.path.abspath(getattr(args, s)) for s in SIDES}
    for s in SIDES:
        if not os.path.isfile(os.path.join(trees[s], "BENCHMARK.json")):
            parser.error("--%s %s: no BENCHMARK.json there" % (s, getattr(args, s)))

    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.size == "full" else 0
    seeds = list(range(1, args.pairs + 1))
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(
            "unknown workload %s (choose from: %s)"
            % (", ".join(unknown), ", ".join(known))
        )
    report = {
        "label": args.label,
        "trees": {s: os.path.basename(trees[s]) for s in SIDES},
        "host": {"python": sys.version.split()[0], "cpus": os.cpu_count()},
        "settings": {
            "pairs": args.pairs, "seeds": seeds,
            "seconds": seconds, "size": args.size,
        },
        "workloads": {},
    }
    for workload in workloads:
        runs = run_pairs(trees, workload, seeds, seconds, args.size, False)
        traced = run_pairs(
            trees, workload, seeds[:TRACED_SEEDS], seconds, args.size, True
        )
        report["workloads"][workload] = {
            "failed": {
                s: sum(r[s]["failed"] for r in runs + traced) for s in SIDES
            },
            "attempted": {
                s: sum(r[s]["attempted"] for r in runs + traced) for s in SIDES
            },
            "end_to_end": compare(runs, bench),
            "layers": layer_diff(traced),
        }
    path = os.path.join(args.out_dir, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
