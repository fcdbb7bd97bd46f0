#!/usr/bin/env python3
"""Survey Kazhdan-Lusztig polynomials up to a length bound.

Prints every nontrivial P_{y,w} (those different from 0 and 1) found
while expanding C'_w for all w of W_r of length at most --max-length,
in key order, and a count of how many pairs were trivial.  With --cache
the P-table is read from that file first and written back when the file
is new or the table grew; the report covers only the surveyed w, so it
is the same with or without the file, whatever else the file holds.  A
file that cannot be read, parsed or written ends the run with exit code
2 and one line on stderr.
"""

import argparse
import os
import sys

from affschur.affweyl import enumerate_wr
from affschur.heckekl import KLCache, _sorted_rows, cprime


def refuse(path, exc):
    """Exit code 2 after one line naming the --cache file and the fault."""
    if isinstance(exc, OSError):
        exc = "--cache %s: %s" % (path, exc.strerror or exc)
    sys.stderr.write("error: %s\n" % exc)
    return 2


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, default=3)
    parser.add_argument("--max-length", type=int, default=6)
    parser.add_argument("--cache", help="persist the KL table here")
    args = parser.parse_args()

    fresh = args.cache and not os.path.exists(args.cache)
    try:
        cache = KLCache(args.cache)
    except (OSError, ValueError) as exc:
        return refuse(args.cache, exc)
    loaded = len(cache.p_table)
    lengths = {}  # window -> length, for every surveyed w
    for length, layer in enumerate(enumerate_wr(args.r, args.max_length)):
        for w in sorted(layer, key=lambda x: x.window):
            cprime(w, cache)
            lengths[w.window] = length
    if args.cache and (fresh or len(cache.p_table) > loaded):
        try:
            cache.save()
        except OSError as exc:
            return refuse(args.cache, exc)
    trivial = 0
    for r, ywin, row in _sorted_rows(cache.p_table):
        if r != args.r:
            continue
        for wwin, p in row:
            if wwin not in lengths:
                continue
            if p.degree() <= 0:
                trivial += 1
                continue
            print(
                "P[%s <= %s] = %r (lengths %d, %d)"
                % (
                    ",".join(map(str, ywin)),
                    ",".join(map(str, wwin)),
                    p,
                    lengths[ywin],
                    lengths[wwin],
                )
            )
    print("trivial pairs:", trivial)
    return 0


if __name__ == "__main__":
    sys.exit(main())
