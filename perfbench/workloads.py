"""The benchmark's four workloads: input generation and the timed batch.

Each workload draws a fixed universe of inputs once, from UNIVERSE_SEED,
and the run seed only orders it (and picks the oracle subset of
struct-tables, at equal cost).  Every module memo is complete and
unbounded at this commit, so the total work of a batch does not depend
on the order: the run-to-run spread is the host's, not the sampler's.
The order is what a bounded or shared cache (ROADMAP items 4 and 5)
would be sensitive to.

A batch runs each operation through `timed(key, fn)`, supplied by the
worker.  `fn` returns (ok, answer): `answer` is the JSON-able result the
reference digests cover, or None for a check that is only pass/fail.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

from affschur import affmat, affweyl, heckekl, schur, transfer, hall
from affschur.affmat import AffMatrix

UNIVERSE_SEED = 20140716
CLI_COMMANDS = ("kl", "theta", "mult", "g-table", "f-table", "hall")

# Batch sizes; "smoke" is the self-test size.
SIZES = {
    "full": {
        "kl_rl": (5, 7),
        "st_pairs": {(3, 4): 300, (2, 4): 80},
        "st_oracle": 40,
        "st_f": 16,
        "st_h": 8,
        "hz_pairs": {2: 24, 3: 24},
        "cli_survey": ((3, 5), (4, 5)),
        "cli_cmds": {"kl": 8, "theta": 6, "mult": 5, "g-table": 6, "f-table": 5, "hall": 5},
    },
    "smoke": {
        "kl_rl": (4, 4),
        "st_pairs": {(3, 4): 3, (2, 4): 2},
        "st_oracle": 2,
        "st_f": 2,
        "st_h": 2,
        "hz_pairs": {2: 2, 3: 1},
        "cli_survey": ((3, 4), (4, 3)),
        "cli_cmds": {"kl": 1, "theta": 1, "mult": 1, "g-table": 1, "f-table": 1, "hall": 1},
    },
}


def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canon(obj).encode()).hexdigest()[:16]


def _table_json(table):
    items = sorted(table.items(), key=lambda p: p[0].entries())
    return [[c.to_json(), v.to_json()] for c, v in items]


# ---------------------------------------------------------------------------
# kl-survey: C'_w for every w in W_r up to a length bound


def kl_setup(rng, size, workdir):
    r, max_len = SIZES[size]["kl_rl"]
    order = []
    for layer in affweyl.enumerate_wr(r, max_len):
        layer = sorted(layer, key=lambda w: w.window)
        rng.shuffle(layer)
        order.extend(layer)
    return {"order": order, "path": os.path.join(workdir, "kl-%d.txt" % os.getpid())}


def kl_run(state, timed):
    """One operation per C'_w: build it (every C'_v below it is built
    already, since the order is by length) and read each P_{y,w} of its
    support back through kl_poly.  Then save the P-table."""
    cache = heckekl.KLCache()
    table = []
    ops = []

    def build(w):
        c = heckekl.cprime(w, cache)
        lw = w.length()
        ok = True
        for y, coeff in c.terms.items():
            p = heckekl.kl_poly(y, w, cache)
            ok &= p.to_laurent().shift(-lw) == coeff
            table.append([list(y.window), list(w.window), p.to_json()])
        return ok, None

    for w in state["order"]:
        ops.append(timed("C'" + canon(list(w.window)), lambda w=w: build(w)))

    def save():
        cache.save(state["path"])
        return os.path.getsize(state["path"]) > 0, None

    ops.append(timed("save", save))
    ops.append(timed("p-table", lambda: (True, sorted(table))))
    os.remove(state["path"])
    return ops


# ---------------------------------------------------------------------------
# struct-tables: g-tables with positivity, the theta oracles, f and h tables


def _composable(n, r):
    mats = affmat.enumerate_theta_band(n, r, 1)
    by_ro = {}
    for b in mats:
        by_ro.setdefault(b.ro(), []).append(b)
    return [(a, b) for a in mats for b in by_ro.get(a.co(), [])]


def _upper_segments(n, max_len):
    return [
        AffMatrix(n, {(i, i + ln): 1})
        for ln in range(1, max_len + 1)
        for i in range(1, n + 1)
    ]


def st_setup(rng, size, workdir):
    cfg = SIZES[size]
    uni = random.Random(UNIVERSE_SEED)
    ops = []
    for (n, r), k in sorted(cfg["st_pairs"].items()):
        for a, b in uni.sample(_composable(n, r), k):
            ops.append(("g", a, b, r))
    segs = _upper_segments(2, 2)
    for a, b in list(itertools.product(segs, segs))[: cfg["st_f"]]:
        ops.append(("f", a, b, None))
    aper = [AffMatrix(2, {p: 1}) for p in ((1, 2), (2, 1), (1, 0), (2, 3))]
    for a, b in list(itertools.product(aper, aper))[: cfg["st_h"]]:
        ops.append(("h", a, b, None))
    # The oracle subset takes one matrix from each of st_oracle strata of
    # l(y_A+) = d_A + l(w_0,co(A)) (Lemma 3.7), which sets the cost of the
    # elimination oracle; so every seed checks a subset of the same cost.
    mats = sorted(
        {(m, r) for kind, a, b, r in ops if kind == "g" for m in (a, b)},
        key=lambda p: (
            p[0].n,
            p[0].d_exponent() + affweyl.Composition(p[0].co()).longest_length(),
            p[0].entries(),
        ),
    )
    k = cfg["st_oracle"]
    for i in range(k):
        a, r = rng.choice(mats[i * len(mats) // k : (i + 1) * len(mats) // k])
        ops.append(("oracle", a, None, r))
    rng.shuffle(ops)
    return {"ops": ops}


def _g_op(a, b, r):
    g = schur.g_constants(a, b, r)
    return all(v.is_nonneg() for v in g.values()), _table_json(g)


def _oracle_op(a, r):
    th = schur.theta(a, r)
    ok = schur.bar(th) == th and schur.theta_by_elimination(a, r) == th
    return ok, None


def _f_op(a, b):
    table = transfer.f_constants(a, b).table  # rechecks at a second padding
    return all(v.is_nonneg() for v in table.values()), _table_json(table)


def _h_op(a, b):
    table = transfer.h_constants(a, b).table
    return all(v.is_nonneg() for v in table.values()), _table_json(table)


def st_run(state, timed):
    ops = []
    for kind, a, b, r in state["ops"]:
        key = canon([kind, a.to_json(), b and b.to_json(), r])
        if kind == "g":
            fn = lambda a=a, b=b, r=r: _g_op(a, b, r)
        elif kind == "oracle":
            fn = lambda a=a, r=r: _oracle_op(a, r)
        elif kind == "f":
            fn = lambda a=a, b=b: _f_op(a, b)
        else:
            fn = lambda a=a, b=b: _h_op(a, b)
        ops.append(timed(key, fn))
    return ops


# ---------------------------------------------------------------------------
# hall-zeta: the Hall-to-Schur bridge at r = 2..4


def _zeta_pairs(n):
    """Pairs of the zeta suite (sigma(A) + sigma(B) <= 3, segments of
    length <= 2) whose modules have total dimension <= 5.  The dimension-6
    pairs take 2-5 s per level each and would crowd out every other pair."""
    from affschur.verify import enumerate_theta_plus

    mats = enumerate_theta_plus(n, 3, 2)
    return [
        (a, b)
        for a in mats
        for b in mats
        if a.sigma() + b.sigma() <= 3
        and sum(affmat.dim_vector(a)) + sum(affmat.dim_vector(b)) <= 5
    ]


def hz_setup(rng, size, workdir):
    uni = random.Random(UNIVERSE_SEED)
    pairs = []
    for n, k in sorted(SIZES[size]["hz_pairs"].items()):
        pairs.extend(uni.sample(_zeta_pairs(n), k))
    rng.shuffle(pairs)
    return {"pairs": pairs}


def hz_run(state, timed):
    ops = []
    for a, b in state["pairs"]:
        for r in (2, 3, 4):
            key = canon([a.to_json(), b.to_json(), r])
            ops.append(
                timed(key, lambda a=a, b=b, r=r: (hall.zeta_check(a, b, r),) * 2)
            )
    return ops


# ---------------------------------------------------------------------------
# cli-warm: one CLI process per command, all sharing one --cache file


def _cli_commands(size):
    """The fixed command list.  Windows are passed as --y=... because
    argparse takes "-2,3,4,5" in "--y -2,3,4,5" for an option and exits 2."""
    cfg = SIZES[size]
    uni = random.Random(UNIVERSE_SEED)
    want = cfg["cli_cmds"]
    cmds = []
    (r3, _), (r4, l4) = cfg["cli_survey"]
    layers = affweyl.enumerate_wr(r4, l4)
    tops = sorted(layers[-1], key=lambda w: w.window)
    negative = [w for w in tops if min(w.window) < 0]
    for i in range(want["kl"]):
        w = uni.choice(negative if i % 2 == 0 and negative else tops)
        lower = [y for layer in layers for y in layer if affweyl.bruhat_leq(y, w)]
        y = uni.choice(sorted(lower, key=lambda y: y.window))
        cmds.append(["kl", "--r", str(r4), "--y=" + ",".join(map(str, y.window)),
                     "--w=" + ",".join(map(str, w.window))])
    mats = affmat.enumerate_theta_band(2, r3, 1)
    for a in uni.sample(mats, want["theta"]):
        cmds.append(["theta", "--n", "2", "--r", str(r3), "--a", canon(a.to_json())])
    pairs = _composable(2, r3)
    for a, b in uni.sample(pairs, want["mult"]):
        cmds.append(["mult", "--n", "2", "--r", str(r3), "--basis", "theta",
                     "--a", canon(a.to_json()), "--b", canon(b.to_json())])
    for a, b in uni.sample(pairs, want["g-table"]):
        cmds.append(["g-table", "--n", "2", "--r", str(r3),
                     "--a", canon(a.to_json()), "--b", canon(b.to_json())])
    segs = _upper_segments(2, 2)
    for a, b in uni.sample(list(itertools.product(segs, segs)), want["f-table"]):
        cmds.append(["f-table", "--n", "2",
                     "--a", canon(a.to_json()), "--b", canon(b.to_json())])
    triples = []
    for a, b in itertools.product(segs, segs):
        d = tuple(x + y for x, y in zip(affmat.dim_vector(a), affmat.dim_vector(b)))
        triples.extend((a, b, c) for c in affmat.theta_plus_by_dim(2, d))
    for a, b, c in uni.sample(triples, want["hall"]):
        cmds.append(["hall", "--n", "2", "--a", canon(a.to_json()),
                     "--b", canon(b.to_json()), "--c", canon(c.to_json())])
    return cmds


def cli_setup(rng, size, workdir):
    """Fill the shared --cache file from a KL survey at both levels the
    commands use, so no command has to extend it."""
    cache = heckekl.KLCache()
    for r, max_len in SIZES[size]["cli_survey"]:
        for layer in affweyl.enumerate_wr(r, max_len):
            for w in sorted(layer, key=lambda w: w.window):
                heckekl.cprime(w, cache)
    path = os.path.join(workdir, "cli-cache-%d.txt" % os.getpid())
    cache.save(path)
    cmds = _cli_commands(size)
    rng.shuffle(cmds)
    return {"cmds": cmds, "path": path}


def cli_run(state, timed):
    """Run every command as its own process.  With state["trace_dir"]
    set, each process starts through cli_shim.py and leaves its trace
    dump there."""
    root, trace_dir = state["root"], state["trace_dir"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    ops = []
    for i, cmd in enumerate(state["cmds"]):
        if trace_dir is None:
            argv = [sys.executable, "-m", "affschur.cli"]
        else:
            dump = os.path.join(trace_dir, "cmd-%d.json" % i)
            argv = [sys.executable, os.path.join(root, "perfbench", "cli_shim.py"), dump]
        argv += cmd + ["--cache", state["path"]]

        def call(argv=argv):
            proc = subprocess.run(
                argv, capture_output=True, text=True, cwd=root, env=env, timeout=120
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                return False, None
            report = json.loads(proc.stdout)
            return not report.get("violations"), report

        ops.append(timed(canon(cmd), call))
    os.remove(state["path"])
    return ops


WORKLOADS = {
    "kl-survey": (kl_setup, kl_run),
    "struct-tables": (st_setup, st_run),
    "hall-zeta": (hz_setup, hz_run),
    "cli-warm": (cli_setup, cli_run),
}
