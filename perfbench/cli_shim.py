"""Run one affschur CLI command with the tracer installed.

Usage: python3 perfbench/cli_shim.py DUMP COMMAND [ARGS...]

The whole of `cli.main` is one span, so the CLI layer's own time is that
span minus the library spans under it.  The trace is written to DUMP
when the command ends, whether or not it succeeded.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracer  # noqa: E402


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.install()
    from affschur import cli

    try:
        return tr.timed(cli.main, "cli.main")(argv)
    finally:
        tr.dump(dump, {"command": argv[0]})


if __name__ == "__main__":
    sys.exit(main())
