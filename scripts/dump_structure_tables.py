#!/usr/bin/env python3
"""Dump g- and h-tables at a fixed level r, as one JSON document.

"g": every composable pair (A, B) of enumerate_theta_band(n, r,
verify.BAND).  "h": each distinct pair (A0, B0) of their E-stripped
factors, both nonzero and aperiodic, with sigma(A0) = sigma(B0) mod n
and sigma(A0) + sigma(B0) <= verify.H_SIGMA_CAP.  The h-table suites
of affschur.verify differ: they sample pairs whose sigma is each at
most that cap.  n or r below 2 or an --out path that cannot be written,
both refused before any table is built, or a table that fails its own
check ends the run with exit code 2 and one line on stderr.

Example:
    python3 scripts/dump_structure_tables.py --n 2 --r 2 --out tables.json
"""

import argparse
import json
import pathlib
import sys

from affschur import transfer
from affschur.affmat import enumerate_theta_band
from affschur.cli import _check_out, _check_rank, _file_op
from affschur.verify import BAND, H_SIGMA_CAP, _composable_pairs


def tables(n, r):
    """The document: g-tables of the composable band pairs, h-tables of
    their distinct stripped factor pairs."""
    out = {"n": n, "r": r, "band": BAND, "g": [], "h": []}
    stripped = set()
    for a, b in _composable_pairs(enumerate_theta_band(n, r, BAND)):
        out["g"].append(transfer.g_table(a, b, r).to_json())
        a0, ma = transfer.strip_E(a)
        b0, mb = transfer.strip_E(b)
        if (
            a0.sigma()
            and b0.sigma()
            and a0.is_aperiodic()
            and b0.is_aperiodic()
            and a0.sigma() % n == b0.sigma() % n
            and a0.sigma() + b0.sigma() <= H_SIGMA_CAP
            and (a0, b0) not in stripped
        ):
            stripped.add((a0, b0))
            out["h"].append(transfer.h_constants(a0, b0).to_json())
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--out", help="output path (default: stdout)")
    args = parser.parse_args()

    try:
        _check_rank(args.n, args.r)
        if args.out:
            _check_out("--out", args.out)
        text = json.dumps(tables(args.n, args.r), indent=2, sort_keys=True)
        if args.out:
            write = pathlib.Path(args.out).write_text
            _file_op("--out", args.out, write, text + "\n")
    except (ValueError, AssertionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    if not args.out:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
