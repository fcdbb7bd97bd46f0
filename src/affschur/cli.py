"""Command-line interface: compute bases, products and structure
constant tables, and run the verification suites.

Every command emits one deterministic JSON report (sorted keys, fixed
enumeration order).  The exit code is 1 when a verification fails and 2
when an input is rejected, a --cache or --out path cannot be read or
written, or a check inside the library fails, with an "error:" line on
stderr.

Each command imports only the layers it runs: the module itself loads
the matrix, Weyl-group and KL layers every command's input needs, and
schur, transfer, hall and verify are imported by the commands that use
them, so a process pays the import of no layer its command skips.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from .affmat import AffMatrix
from .affweyl import AffPerm, Composition
from .heckekl import KLCache, kl_poly, default_cache


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


def cmd_kl(args, cache):
    _require(args, "r", "y", "w")
    _check_rank(r=args.r)
    y = _parse_window(args.y)
    w = _parse_window(args.w)
    if y.r != args.r or w.r != args.r:
        raise InputError("window length must equal r")
    if w.length() > args.cap_length:
        msg = "w has length %d, above --cap-length %d"
        raise InputError(msg % (w.length(), args.cap_length))
    p = kl_poly(y, w, cache)
    return {
        "command": "kl",
        "r": args.r,
        "y": list(y.window),
        "w": list(w.window),
        "P": p.to_json(),
        "violations": [],
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


def cmd_theta(args, cache):
    from .schur import theta

    (a_mat,) = _level_matrices(args, "a")
    th = theta(a_mat, args.r, cache)
    return {
        "command": "theta",
        "n": a_mat.n,
        "r": args.r,
        "A": a_mat.to_json(),
        "theta": _schur_terms_json(th),
        "violations": [],
    }


def cmd_mult(args, cache):
    from .schur import SchurElt, theta, mult

    a_mat, b_mat = _level_matrices(args, "a", "b")
    if args.basis == "theta":
        x = mult(theta(a_mat, args.r, cache), theta(b_mat, args.r, cache))
    else:
        x = mult(
            SchurElt.bracket(a_mat, args.r), SchurElt.bracket(b_mat, args.r)
        )
    return {
        "command": "mult",
        "n": a_mat.n,
        "r": args.r,
        "basis": args.basis,
        "A": a_mat.to_json(),
        "B": b_mat.to_json(),
        "product": _schur_terms_json(x),
        "violations": [],
    }


def cmd_g_table(args, cache):
    from . import transfer

    a_mat, b_mat = _level_matrices(args, "a", "b")
    return {
        "command": "g-table",
        "violations": [],
        **transfer.g_table(a_mat, b_mat, args.r).to_json(),
    }


def cmd_f_table(args, cache):
    from . import transfer

    a_mat = _load_matrix(args, "a")
    b_mat = _load_matrix(args, "b")
    if not (a_mat.is_upper() and b_mat.is_upper()):
        raise InputError("f-table inputs must be strictly upper matrices")
    _check_length_cap(args.cap_length, a_mat, b_mat)
    return {
        "command": "f-table",
        "violations": [],
        **transfer.f_constants(a_mat, b_mat).to_json(),
    }


def cmd_h_table(args, cache):
    from . import transfer

    a_mat = _load_matrix(args, "a")
    b_mat = _load_matrix(args, "b")
    _check_length_cap(args.cap_length, a_mat, b_mat)
    table = transfer.h_constants(a_mat, b_mat)
    return {"command": "h-table", "violations": [], **table.to_json()}


def cmd_hall(args, cache):
    from . import hall

    a_mat = _load_matrix(args, "a")
    b_mat = _load_matrix(args, "b")
    c_mat = _load_matrix(args, "c")
    for m in (a_mat, b_mat, c_mat):
        if not m.is_upper():
            raise InputError("hall inputs must be strictly upper matrices")
    phi = hall.hall_poly(a_mat, b_mat, c_mat, cap_dim=args.cap_dim)
    return {
        "command": "hall",
        "n": a_mat.n,
        "A": a_mat.to_json(),
        "B": b_mat.to_json(),
        "C": c_mat.to_json(),
        "phi": phi.to_json(),
        "violations": [],
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
    "cap_length": "cap_length",
    "cache": "cache",
}


def _verify_kwargs(args):
    """The driver keywords of the verify flags given, with the --cache
    path standing in for the cache; an unknown target, a flag the driver
    does not take or a bad value is an InputError."""
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
                "verify %s does not take --%s" % (name, flag.replace("_", "-"))
            )
        kwargs[param] = value
    if "ks" in kwargs:
        kwargs["ks"] = (kwargs["ks"],)
    _check_rank(kwargs.get("n"), kwargs.get("r"))
    if kwargs.get("samples", 1) < 1:
        raise InputError("--samples must be >= 1")
    return kwargs


def cmd_verify(args, cache):
    from .verify import DRIVERS

    kwargs = _verify_kwargs(args)
    if "cache" in kwargs:
        kwargs["cache"] = cache
    report = DRIVERS[args.target](**kwargs)
    report["command"] = "verify"
    return report


COMMANDS = {
    "kl": cmd_kl,
    "theta": cmd_theta,
    "mult": cmd_mult,
    "g-table": cmd_g_table,
    "f-table": cmd_f_table,
    "h-table": cmd_h_table,
    "hall": cmd_hall,
    "verify": cmd_verify,
}

# the commands that compute with the --cache file; the others accept the
# flag but never read, check or create the file
_CACHE_COMMANDS = ("kl", "theta", "mult", "verify")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affschur",
        description="Canonical bases and structure constants of affine "
        "quantum Schur and Hall algebras, exactly over Z[v, v^-1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, help="number of rows per period")
        p.add_argument("--r", type=int, help="level")
        p.add_argument("--N", type=int, help="target rank for transfer maps")
        p.add_argument("--k", type=int, help="eta shift")
        p.add_argument(
            "--cache",
            help="path of the persistent KL table (used by kl, theta, mult "
            "and verify)",
        )
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument(
            "--cap-length",
            type=int,
            default=40,
            help="refuse a matrix argument whose longest double-coset "
            "element, or a kl window w, is longer than this (not used by "
            "hall or verify)",
        )
        p.add_argument(
            "--cap-dim",
            type=int,
            default=10,
            help="refuse Hall counts beyond this total dimension",
        )
        p.add_argument("--samples", type=int, help="sample size for suites")

    p = sub.add_parser("kl", help="a Kazhdan-Lusztig polynomial")
    p.add_argument("--y", help="window of y, comma separated")
    p.add_argument("--w", help="window of w, comma separated")
    common(p)

    p = sub.add_parser("theta", help="a canonical basis element")
    p.add_argument("--a", help="matrix A (JSON or file)")
    common(p)

    p = sub.add_parser("mult", help="product of two basis elements")
    p.add_argument("--a", help="matrix A (JSON or file)")
    p.add_argument("--b", help="matrix B (JSON or file)")
    p.add_argument(
        "--basis", choices=("bracket", "theta"), default="bracket"
    )
    common(p)

    for name, helptext in (
        ("g-table", "canonical structure constants at fixed level"),
        ("f-table", "Hall positive-part structure constants"),
        ("h-table", "modified-algebra structure constants"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--a", help="matrix A (JSON or file)")
        p.add_argument("--b", help="matrix B (JSON or file)")
        common(p)

    p = sub.add_parser("hall", help="a Hall polynomial phi^C_{A,B}")
    p.add_argument("--a", help="matrix A (JSON or file)")
    p.add_argument("--b", help="matrix B (JSON or file)")
    p.add_argument("--c", help="matrix C (JSON or file)")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "target",
        help="name of the suite, e.g. lemma-3.7; an unknown name exits 2 "
        "and lists every target",
    )
    common(p)
    # unset unless given, so the driver's own default applies and a cap
    # the driver does not take is refused
    p.set_defaults(cap_dim=None, cap_length=None)
    return parser


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
    path = args.cache if args.command in _CACHE_COMMANDS else None
    try:
        if args.command == "verify":
            _verify_kwargs(args)  # refuse before the --cache file is read
        if path:
            fresh = not os.path.exists(path)
            cache = _file_op("--cache", path, KLCache, path)
            loaded = len(cache.p_table)
        else:
            cache = default_cache()
        report = COMMANDS[args.command](args, cache)
        # the file is written only when it is new or the command grew
        # the P-table, so a read-only command leaves it untouched
        if path and (fresh or len(cache.p_table) > loaded):
            _file_op("--cache", path, cache.save)
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
    return 1 if report.get("violations") else 0


if __name__ == "__main__":
    sys.exit(main())
