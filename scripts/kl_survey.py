#!/usr/bin/env python3
"""Survey Kazhdan-Lusztig polynomials up to a length bound.

Prints every nontrivial P_{y,w} (those different from 0 and 1) of the
support of C'_w, for all w of W_r of length at most --max-length, in
key order, each read through kl_poly, and a count of how many pairs
were trivial.  Without --cache each P is the entry of its full KL
column, held once.  With --cache the records of that file are loaded
first, kl_poly answers from them, and the file is written back, its
records and the survey's column entries merged, if the survey added
records (KLCache.save).  The report covers only the pairs the recursion
produces, so it is the same with or without the file, whatever else the
file holds.  An --r below 2, a negative --max-length, or a file that
cannot be read, parsed or written, or that a recomputed P contradicts,
ends the run with exit code 2 and one line on stderr.
"""

import argparse
import sys

from affschur.affweyl import enumerate_wr
from affschur.cli import InputError, _check_rank
from affschur.heckekl import KLCache, cprime, kl_poly


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, default=3)
    parser.add_argument("--max-length", type=int, default=6)
    parser.add_argument("--cache", help="persist the KL table here")
    args = parser.parse_args()

    try:
        _check_rank(r=args.r)
        if args.max_length < 0:
            raise InputError("max-length must be >= 0")
        cache = KLCache(args.cache)
        lengths = {}  # window -> length, for every surveyed w
        records = []  # (y.window, w.window, P_{y,w})
        for length, layer in enumerate(enumerate_wr(args.r, args.max_length)):
            for w in sorted(layer, key=lambda x: x.window):
                lengths[w.window] = length
                records.extend(
                    (y.window, w.window, kl_poly(y, w, cache))
                    for y in cprime(w, cache).terms
                )
        if args.cache:
            cache.save()
    except (OSError, ValueError, AssertionError) as exc:
        if isinstance(exc, OSError):
            exc = "--cache %s: %s" % (args.cache, exc.strerror or exc)
        sys.stderr.write("error: %s\n" % exc)
        return 2
    trivial = 0
    for ywin, wwin, p in sorted(records, key=lambda t: t[:2]):
        if p.degree() <= 0:
            trivial += 1
            continue
        y, w = (",".join(map(str, win)) for win in (ywin, wwin))
        print("P[%s <= %s] = %r (lengths %d, %d)"
              % (y, w, p, lengths[ywin], lengths[wwin]))
    print("trivial pairs:", trivial)
    return 0


if __name__ == "__main__":
    sys.exit(main())
