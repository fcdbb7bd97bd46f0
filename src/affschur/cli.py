"""Command-line interface: compute bases, products and structure
constant tables, and run the verification suites.

Every command emits one deterministic JSON report (sorted keys, fixed
enumeration order): main starts it as the command's name and an empty
"violations" list, and the command's body fills in the rest (a verify
report brings its own violations).  The exit code is 1 when a
verification fails and 2 when an input is rejected, a --cache or --out
path cannot be read or written, or a check inside the library fails,
with an "error:" line on stderr.  An --out path that cannot be written
is refused before the command runs.

Only kl opens the --cache file: the KL recursion behind theta, mult,
the tables and the verify targets reads KL columns, never a stored P
record, so for them the file could only be parsed and checked, never
used.  theta, mult, g-table, f-table and hall still accept --cache and
ignore it; verify and h-table refuse it.  kl always calls
KLCache.save, which creates the file when missing and rewrites it only
when the query added records, so a query the file answers leaves it
untouched.

Each command imports only the layers it runs: the module itself loads
the matrix, Weyl-group and KL layers every command's input needs, and
schur, transfer, hall and verify are imported by the commands that use
them, so a process pays the import of no layer its command skips.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import pathlib
import sys

from .affmat import AffMatrix
from .affweyl import AffPerm, Composition
from .heckekl import KLCache, kl_poly


class InputError(ValueError):
    """Malformed or out-of-range command input."""


def _load_matrix(args, name):
    """The matrix argument --name: inline JSON or a path to a JSON file."""
    _require(args, name)
    spec, n, flag = getattr(args, name), args.n, "--" + name
    text = spec
    if not spec.lstrip().startswith("{"):
        if not os.path.isfile(spec):
            raise InputError("matrix file not found: %s" % spec)
        with open(spec) as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("matrix is not valid JSON: %s" % exc)
    data = data if isinstance(data, dict) else {}
    data.setdefault("n", n)
    entries = data.get("entries")
    if not (
        type(data["n"]) is int
        and data["n"] >= 1
        and isinstance(entries, list)
        and all(isinstance(e, list) and len(e) == 3 for e in entries)
        and all(type(x) is int for e in entries for x in e)
    ):
        fmt = '{"n": n >= 1, "entries": [[i, j, a], ...]} with integer i, j, a'
        raise InputError("%s must be %s" % (flag, fmt))
    if data["n"] != n and n is not None:
        raise InputError("matrix n=%d does not match --n %d" % (data["n"], n))
    _check_rank(data["n"])
    mat = AffMatrix.from_json(data)
    if not mat.is_nonnegative():
        raise InputError("matrix has a negative entry")
    return mat


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise InputError("--%s is required for this command" % name)


def _check_rank(n=None, r=None):
    if n is not None and n < 2:
        raise InputError("n must be >= 2")
    if r is not None and r < 2:
        raise InputError("r must be >= 2")


def _check_length_cap(cap, *mats):
    """Refuse a matrix whose longest double-coset element y_A+ is longer
    than cap, by Lemma 3.7: l(y_A+) = d_A + l(w_{0,co(A)})."""
    for a_mat in mats:
        length = a_mat.d_exponent() + Composition(a_mat.co()).longest_length()
        if length > cap:
            raise InputError(
                "longest double-coset element has length %d, above "
                "--cap-length %d" % (length, cap)
            )


def _schur_terms_json(x):
    items = sorted(x.terms.items(), key=lambda p: p[0].entries())
    return [[a.to_json(), c.to_json()] for a, c in items]


def _parse_window(text):
    try:
        return AffPerm(tuple(int(t) for t in text.split(",")))
    except Exception as exc:
        raise InputError("bad window %r: %s" % (text, exc))


def cmd_kl(args):
    _require(args, "r", "y", "w")
    _check_rank(r=args.r)
    y = _parse_window(args.y)
    w = _parse_window(args.w)
    if y.r != args.r or w.r != args.r:
        raise InputError("window length must equal r")
    if w.length() > args.cap_length:
        msg = "w has length %d, above --cap-length %d"
        raise InputError(msg % (w.length(), args.cap_length))
    path = args.cache
    cache = _file_op("--cache", path, KLCache, path)
    p = kl_poly(y, w, cache)
    if path:
        _file_op("--cache", path, cache.save)
    return {
        "r": args.r,
        "y": list(y.window),
        "w": list(w.window),
        "P": p.to_json(),
    }


def _level_matrices(args, *names):
    """The matrix arguments of a fixed-level command: each in Theta(n, r)
    and within --cap-length."""
    _require(args, "r")
    _check_rank(args.n, args.r)
    mats = [_load_matrix(args, name) for name in names]
    for m in mats:
        if m.sigma() != args.r:
            raise InputError("matrix sigma %d != r %d" % (m.sigma(), args.r))
    _check_length_cap(args.cap_length, *mats)
    return mats


def cmd_theta(args):
    from .schur import theta

    (a_mat,) = _level_matrices(args, "a")
    th = theta(a_mat, args.r)
    return {
        "n": a_mat.n,
        "r": args.r,
        "A": a_mat.to_json(),
        "theta": _schur_terms_json(th),
    }


def cmd_mult(args):
    from .schur import SchurElt, theta, mult

    a_mat, b_mat = _level_matrices(args, "a", "b")
    if args.basis == "theta":
        x = mult(theta(a_mat, args.r), theta(b_mat, args.r))
    else:
        x = mult(
            SchurElt.bracket(a_mat, args.r), SchurElt.bracket(b_mat, args.r)
        )
    return {
        "n": a_mat.n,
        "r": args.r,
        "basis": args.basis,
        "A": a_mat.to_json(),
        "B": b_mat.to_json(),
        "product": _schur_terms_json(x),
    }


def cmd_g_table(args):
    from . import transfer

    a_mat, b_mat = _level_matrices(args, "a", "b")
    return transfer.g_table(a_mat, b_mat, args.r).to_json()


def cmd_f_table(args):
    from . import transfer

    a_mat = _load_matrix(args, "a")
    b_mat = _load_matrix(args, "b")
    if not (a_mat.is_upper() and b_mat.is_upper()):
        raise InputError("f-table inputs must be strictly upper matrices")
    _check_length_cap(args.cap_length, a_mat, b_mat)
    return transfer.f_constants(a_mat, b_mat).to_json()


def cmd_h_table(args):
    from . import transfer

    a_mat = _load_matrix(args, "a")
    b_mat = _load_matrix(args, "b")
    _check_length_cap(args.cap_length, a_mat, b_mat)
    return transfer.h_constants(a_mat, b_mat).to_json()


def cmd_hall(args):
    from . import hall

    a_mat = _load_matrix(args, "a")
    b_mat = _load_matrix(args, "b")
    c_mat = _load_matrix(args, "c")
    for m in (a_mat, b_mat, c_mat):
        if not m.is_upper():
            raise InputError("hall inputs must be strictly upper matrices")
    phi = hall.hall_poly(a_mat, b_mat, c_mat, cap_dim=args.cap_dim)
    return {
        "n": a_mat.n,
        "A": a_mat.to_json(),
        "B": b_mat.to_json(),
        "C": c_mat.to_json(),
        "phi": phi.to_json(),
    }


# verify flag -> driver keyword; a driver receives the flags its
# signature names, and an explicit flag it does not name is refused
_VERIFY_KWARGS = {
    "n": "n",
    "r": "r",
    "N": "big_n",
    "k": "ks",
    "samples": "samples",
    "cap_dim": "cap_dim",
}


def _verify_kwargs(args):
    """The driver keywords of the verify flags given; an unknown target,
    a flag the driver does not take or a bad value is an InputError."""
    import inspect

    from .verify import DRIVERS

    name = args.target
    if name not in DRIVERS:
        raise InputError(
            "unknown verification target %r (choose from: %s)"
            % (name, ", ".join(sorted(DRIVERS)))
        )
    params = inspect.signature(DRIVERS[name]).parameters
    kwargs = {}
    for flag, param in _VERIFY_KWARGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if param not in params:
            raise InputError(
                "verify %s does not take %s" % (name, _FLAGS[flag][0])
            )
        kwargs[param] = value
    if "ks" in kwargs:
        kwargs["ks"] = (kwargs["ks"],)
    _check_rank(kwargs.get("n"), kwargs.get("r"))
    if kwargs.get("samples", 1) < 1:
        raise InputError("--samples must be >= 1")
    return kwargs


def cmd_verify(args):
    from .verify import DRIVERS

    kwargs = _verify_kwargs(args)  # refuses an unknown target
    return DRIVERS[args.target](**kwargs)


# each flag a command may read: its option string and argparse keywords
_FLAGS = {
    "target": ("target", {"help": "name of the suite, e.g. lemma-3.7; an "
                          "unknown name exits 2 and lists every target"}),
    "n": ("--n", {"type": int, "help": "number of rows per period"}),
    "r": ("--r", {"type": int, "help": "level"}),
    "N": ("--N", {"type": int, "help": "target rank for transfer maps"}),
    "k": ("--k", {"type": int, "help": "eta shift"}),
    "y": ("--y", {"help": "window of y, comma separated"}),
    "w": ("--w", {"help": "window of w, comma separated"}),
    "a": ("--a", {"help": "matrix A (JSON or file)"}),
    "b": ("--b", {"help": "matrix B (JSON or file)"}),
    "c": ("--c", {"help": "matrix C (JSON or file)"}),
    "basis": ("--basis", {"choices": ("bracket", "theta"), "default": "bracket"}),
    "cap_length": ("--cap-length", {
        "type": int, "default": 40,
        "help": "refuse a matrix argument whose longest double-coset "
        "element, or a kl window w, is longer than this"}),
    "cap_dim": ("--cap-dim", {
        "type": int, "help": "refuse Hall counts beyond this total dimension"}),
    "samples": ("--samples", {"type": int, "help": "sample size for suites"}),
    "cache": ("--cache", {"help": "path of the persistent KL table (read by kl)"}),
    "out": ("--out", {"help": "write the JSON report to this file"}),
}

# command -> (its function, its help, the flags it takes besides --out).
# Only kl reads --cache; theta, mult, g-table, f-table and hall take it
# and ignore it, because the benchmark's cli-warm workload passes it to
# them (ROADMAP item 2).  A flag given as (name, default) takes that
# default, and a verify flag is unset unless given, so the driver's own
# default applies
COMMANDS = {
    "kl": (cmd_kl, "a Kazhdan-Lusztig polynomial",
           ("r", "y", "w", "cap_length", "cache")),
    "theta": (cmd_theta, "a canonical basis element",
              ("n", "r", "a", "cap_length", "cache")),
    "mult": (cmd_mult, "product of two basis elements",
             ("n", "r", "a", "b", "basis", "cap_length", "cache")),
    "g-table": (cmd_g_table, "canonical structure constants at fixed level",
                ("n", "r", "a", "b", "cap_length", "cache")),
    "f-table": (cmd_f_table, "Hall positive-part structure constants",
                ("n", "a", "b", "cap_length", "cache")),
    "h-table": (cmd_h_table, "modified-algebra structure constants",
                ("n", "a", "b", "cap_length")),
    "hall": (cmd_hall, "a Hall polynomial phi^C_{A,B}",
             ("n", "a", "b", "c", ("cap_dim", 10), "cache")),
    "verify": (cmd_verify, "run a verification suite",
               ("target", "n", "r", "N", "k", "samples", "cap_dim")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affschur",
        description="Canonical bases and structure constants of affine "
        "quantum Schur and Hall algebras, exactly over Z[v, v^-1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag in flags + ("out",):
            flag, default = flag if isinstance(flag, tuple) else (flag, None)
            option, kwargs = _FLAGS[flag]
            p.add_argument(option, **dict({"default": default}, **kwargs))
    return parser


def _check_out(flag, path):
    """Refuse, before any work, a path that flag's report cannot be
    written to: a directory, a file in a missing directory, or a path
    without write permission.  The write itself goes through _file_op."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = errno.EISDIR
    elif not os.path.isdir(parent):
        problem = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        problem = errno.EACCES
    else:
        return
    raise InputError("%s %s: %s" % (flag, path, os.strerror(problem)))


def _file_op(flag, path, action, *args):
    """action(*args), with an OSError turned into an InputError that
    names the flag and its path."""
    try:
        return action(*args)
    except OSError as exc:
        raise InputError("%s %s: %s" % (flag, path, exc.strerror or exc))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out("--out", args.out)
        report = {"command": args.command, "violations": []}
        report.update(COMMANDS[args.command][0](args))
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.out:
            _file_op("--out", args.out, pathlib.Path(args.out).write_text, text)
        else:
            sys.stdout.write(text)
    except (ValueError, AssertionError) as exc:
        # InputError, an unreadable or malformed --cache file, an
        # unwritable --cache or --out path, or a check inside the library
        sys.stderr.write("error: %s\n" % exc)
        return 2
    return 1 if report["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
