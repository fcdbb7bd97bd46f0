#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per suite.

With --json the full reports are written to the given file.  Exits 1
when any suite reports a violation, and 2 when a suite raises
ValueError or AssertionError (an input it refuses, or an internal check
that fails): the summaries of the suites already run are printed, then
the error, and no report is written.  A --json path that cannot be
written is refused before any suite runs; a write that still fails
exits 2 after the summaries.
"""

import argparse
import json
import pathlib
import sys
import time

from affschur.cli import InputError, _check_out, _file_op
from affschur.verify import DRIVERS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "targets",
        nargs="*",
        default=list(DRIVERS),
        help="suite names (default: all)",
    )
    parser.add_argument("--json", help="write full reports to this file")
    args = parser.parse_args()

    targets = args.targets or list(DRIVERS)
    unknown = [name for name in targets if name not in DRIVERS]
    if unknown:
        parser.error(
            "unknown suite %s (choose from: %s)"
            % (", ".join(unknown), ", ".join(DRIVERS))
        )
    if args.json:
        try:
            _check_out("--json", args.json)
        except InputError as exc:
            parser.error(str(exc))
    reports = []
    failed = False
    for name in targets:
        t0 = time.monotonic()
        try:
            report = DRIVERS[name]()
        except (ValueError, AssertionError) as exc:
            sys.stdout.flush()
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 2
        elapsed = time.monotonic() - t0
        reports.append(report)
        status = "pass" if report["pass"] else "FAIL"
        print(
            "%-10s %s  %5d checks  %6.1fs"
            % (name, status, report["checked"], elapsed)
        )
        if not report["pass"]:
            failed = True
            for v in report["violations"][:3]:
                print("   ", json.dumps(v, sort_keys=True))
    if args.json:
        text = json.dumps(reports, indent=2, sort_keys=True)
        try:
            write = pathlib.Path(args.json).write_text
            _file_op("--json", args.json, write, text)
        except InputError as exc:
            sys.stdout.flush()
            print("error: %s" % exc, file=sys.stderr)
            return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
