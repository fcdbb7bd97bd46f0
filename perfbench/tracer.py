"""Outside-in tracing of the affschur layers.

`install()` replaces public functions of the package with wrappers that
either record a span (name, start, end, parent) or only count calls.
Every module binding of a wrapped function is replaced, not only the
defining one: `schur`, `verify` and `cli` import `cprime`, `theta` or
`double_coset` by name, so patching the defining module alone would miss
most calls.  Spans are kept in memory and written out once, by `dump()`,
when the traced process ends; `summarize()` turns a dump into the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time

# Functions recorded as spans: (module, attribute or Class.method, span name).
TIMED = [
    ("heckekl", "cprime", "heckekl.cprime"),
    ("heckekl", "t_mul", "heckekl.t_mul"),
    ("heckekl", "t_bar", "heckekl.t_bar"),
    ("heckekl", "KLCache.load", "heckekl.cache_load"),
    ("heckekl", "KLCache.save", "heckekl.cache_save"),
    ("affweyl", "double_coset", "affweyl.double_coset"),
    ("affweyl", "jdelta", "affweyl.jdelta"),
    ("affmat", "theta_plus_by_dim", "affmat.theta_plus_by_dim"),
    ("laurent", "poly_interpolate", "laurent.interpolate"),
    ("schur", "theta", "schur.theta"),
    ("schur", "e_basis_mult", "schur.e_basis_mult"),
    ("schur", "mult", "schur.mult"),
    ("schur", "canonical_expand", "schur.canonical_expand"),
    ("schur", "bar", "schur.bar"),
    ("schur", "g_constants", "schur.g_constants"),
    ("hall", "hall_count", "hall.hall_count"),
    ("hall", "hall_poly", "hall.hall_poly"),
    ("hall", "utilde_exponent", "hall.utilde_exponent"),
    ("transfer", "f_constants", "transfer.f_constants"),
    ("transfer", "h_constants", "transfer.h_constants"),
]

# Functions and dunder methods that run too often for spans: calls only.
COUNTED = [
    ("laurent", "LaurentPoly.__mul__", "laurent.mul_calls"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul_calls"),
    ("laurent", "LaurentPoly.__add__", "laurent.add_calls"),
    ("laurent", "LaurentPoly.__radd__", "laurent.add_calls"),
    ("affweyl", "AffPerm.__mul__", "affweyl.perm_mul_calls"),
    ("affweyl", "AffPerm.length", "affweyl.length_calls"),
    ("affweyl", "reduced_word", "affweyl.reduced_word_calls"),
    ("affweyl", "jdelta_inv", "affweyl.jdelta_inv_calls"),
    ("heckekl", "mul_basis", "heckekl.mul_basis_calls"),
]

MEMO_MODULES = ("heckekl", "affweyl", "schur")


def is_time(metric):
    """True for a metric in seconds: one of its dotted parts ends in _s."""
    return any(part.endswith("_s") for part in metric.split("."))


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outermost of its name]
        self.stack = []
        self.active = {}
        self.counts = {}
        self.caches = {}  # id -> KLCache seen by cprime, load or save
        self.saved_bytes = 0
        self.seen = {"hall.hall_poly": set(), "schur.e_basis_mult": set()}

    def bump(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def timed(self, fn, name):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            depth = active.get(name, 0)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, depth == 0]
            spans.append(span)
            stack.append(idx)
            active[name] = depth + 1
            before = self._before(name, depth, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active[name] = depth
            self._after(name, depth, args, kwargs, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _cprime_cache(self, args, kwargs):
        from affschur import heckekl

        cache = args[1] if len(args) > 1 else kwargs.get("cache")
        return cache or heckekl.default_cache()

    def _before(self, name, depth, args, kwargs):
        if name == "heckekl.cprime" and depth == 0:
            cache = self._cprime_cache(args, kwargs)
            self.caches[id(cache)] = cache
            return len(cache.cprime_table)
        if name in ("heckekl.cache_load", "heckekl.cache_save"):
            self.caches[id(args[0])] = args[0]
        if name == "schur.g_constants" and self.active.get("transfer.h_constants"):
            self.bump("transfer.h_g_tables")
        if name in self.seen:
            key = tuple(args[:3]) if name == "hall.hall_poly" else tuple(args[:2])
            seen = self.seen[name]
            if key in seen:
                self.bump(name + ".repeat")
            seen.add(key)
        return None

    def _after(self, name, depth, args, kwargs, result, before):
        if name == "heckekl.cprime" and depth == 0:
            cache = self._cprime_cache(args, kwargs)
            self.bump("heckekl.cprime_built", len(cache.cprime_table) - before)
        elif name == "heckekl.cache_save":
            path = (args[1] if len(args) > 1 else None) or args[0].path
            self.saved_bytes = os.path.getsize(path)
        elif name == "hall.hall_poly" and result.is_zero():
            self.bump("hall.hall_poly.zero")

    def dump(self, path, extra=None):
        """Write spans, counters and end-of-run sizes as JSON."""
        memo = {}
        for mod_name in MEMO_MODULES:
            mod = sys.modules["affschur." + mod_name]
            memo[mod_name] = sum(
                len(v)
                for k, v in vars(mod).items()
                if k.startswith("_") and "memo" in k and isinstance(v, dict)
            )
        data = {
            "spans": self.spans,
            "counts": self.counts,
            "memo_len": memo,
            "cprime_table_len": sum(len(c.cprime_table) for c in self.caches.values()),
            "p_entries": sum(len(c.p_table) for c in self.caches.values()),
            "cache_bytes": self.saved_bytes,
        }
        data.update(extra or {})
        with open(path, "w") as fh:
            json.dump(data, fh)


def _resolve(obj, dotted):
    parts = dotted.split(".")
    for p in parts[:-1]:
        obj = getattr(obj, p)
    return obj, parts[-1]


def install():
    """Wrap the package's public functions; returns the Tracer."""
    import importlib

    tracer = Tracer()
    mods = {}
    for name in ("laurent", "affmat", "affweyl", "heckekl", "schur", "hall",
                 "transfer", "verify", "cli"):
        mods[name] = importlib.import_module("affschur." + name)
    originals = {}  # id(original function) -> (original, wrapper)
    for table, make in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for mod_name, attr, name in table:
            owner, last = _resolve(mods[mod_name], attr)
            fn = vars(owner)[last]
            if id(fn) not in originals:
                originals[id(fn)] = (fn, make(fn, name))
            setattr(owner, last, originals[id(fn)][1])
    # rebind every module-level alias, e.g. hall.schur_mult or cli.theta
    for mod in mods.values():
        for k, v in list(vars(mod).items()):
            hit = originals.get(id(v))
            if hit is not None and hit[0] is v:
                setattr(mod, k, hit[1])
    return tracer


def _self_and_outer(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl, self_t, calls = {}, {}, {}
    for i, (name, start, end, parent, outer) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        if outer:
            incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
    return incl, self_t, calls


def summarize(dumps):
    """Per-layer metrics from the dumps of one traced repetition.

    Counts and times add over processes; memo and cache sizes are per
    process, so the largest is kept.
    """
    incl, self_t, calls, counts = {}, {}, {}, {}
    memo = {m: 0 for m in MEMO_MODULES}
    sizes = {"cprime_table_len": 0, "p_entries": 0, "cache_bytes": 0}
    cmd_self = {}
    for d in dumps:
        i, s, c = _self_and_outer(d["spans"])
        for src, dst in ((i, incl), (s, self_t), (c, calls)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for m in MEMO_MODULES:
            memo[m] = max(memo[m], d["memo_len"][m])
        for k in sizes:
            sizes[k] = max(sizes[k], d[k])
        if "command" in d:
            cmd_self.setdefault(d["command"], []).append(s.get("cli.main", 0.0))

    def t(name):
        return incl.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    cp_calls = n("heckekl.cprime")
    cp_built = counts.get("heckekl.cprime_built", 0)
    out = {
        "heckekl.cprime_calls": cp_calls,
        "heckekl.cprime_built": cp_built,
        "heckekl.cprime_reuse_ratio": ratio(cp_calls - cp_built, cp_calls),
        "heckekl.cprime_s": t("heckekl.cprime"),
        "heckekl.cprime_self_s": self_t.get("heckekl.cprime", 0.0),
        "heckekl.t_mul_s": t("heckekl.t_mul"),
        "heckekl.t_mul_calls": n("heckekl.t_mul"),
        "heckekl.mul_basis_calls": counts.get("heckekl.mul_basis_calls", 0),
        "heckekl.t_bar_s": t("heckekl.t_bar"),
        "heckekl.cache_load_s": t("heckekl.cache_load"),
        "heckekl.cache_save_s": t("heckekl.cache_save"),
        "heckekl.cache_bytes": sizes["cache_bytes"],
        "heckekl.p_entries": sizes["p_entries"],
        "heckekl.cprime_table_len": sizes["cprime_table_len"],
        "affweyl.double_coset_s": t("affweyl.double_coset"),
        "affweyl.double_coset_calls": n("affweyl.double_coset"),
        "affweyl.jdelta_s": t("affweyl.jdelta"),
        "affweyl.jdelta_inv_calls": counts.get("affweyl.jdelta_inv_calls", 0),
        "affweyl.perm_mul_calls": counts.get("affweyl.perm_mul_calls", 0),
        "affweyl.length_calls": counts.get("affweyl.length_calls", 0),
        "affweyl.reduced_word_calls": counts.get("affweyl.reduced_word_calls", 0),
        "affweyl.memo_len": memo["affweyl"],
        "laurent.mul_calls": counts.get("laurent.mul_calls", 0),
        "laurent.add_calls": counts.get("laurent.add_calls", 0),
        "laurent.interpolate_s": t("laurent.interpolate"),
        "laurent.interpolate_calls": n("laurent.interpolate"),
        "affmat.theta_plus_by_dim_s": t("affmat.theta_plus_by_dim"),
        "schur.theta_s": t("schur.theta"),
        "schur.theta_calls": n("schur.theta"),
        "schur.e_basis_mult_s": t("schur.e_basis_mult"),
        "schur.e_basis_mult_calls": n("schur.e_basis_mult"),
        "schur.e_mult_reuse_ratio": ratio(
            counts.get("schur.e_basis_mult.repeat", 0), n("schur.e_basis_mult")
        ),
        "schur.mult_s": t("schur.mult"),
        "schur.canonical_expand_s": t("schur.canonical_expand"),
        "schur.bar_s": t("schur.bar"),
        "schur.memo_len": memo["schur"],
        "hall.hall_count_s": t("hall.hall_count"),
        "hall.hall_count_calls": n("hall.hall_count"),
        "hall.hall_poly_calls": n("hall.hall_poly"),
        "hall.hall_poly_repeat_ratio": ratio(
            counts.get("hall.hall_poly.repeat", 0), n("hall.hall_poly")
        ),
        "hall.hall_poly_zero_ratio": ratio(
            counts.get("hall.hall_poly.zero", 0), n("hall.hall_poly")
        ),
        "hall.utilde_exponent_s": t("hall.utilde_exponent"),
        "transfer.f_constants_s": t("transfer.f_constants"),
        "transfer.h_constants_s": t("transfer.h_constants"),
        "transfer.h_g_tables": ratio(
            counts.get("transfer.h_g_tables", 0), n("transfer.h_constants")
        ),
    }
    return out, cmd_self
