#!/usr/bin/env python3
"""Run the full verification bundle into ``verification_out/``.

Runs ``sharpmin report --out verification_out``: the report JSON goes to
stdout, then the exit code and the output directory as two lines to stderr,
and the script exits with the report's code.  Pass a graph file as the first
argument to append a clustering run, e.g.::

    python3 scripts/run_verification.py graphs/c4.txt 2
"""

import sys

from sharpmin.cli import run


def main(argv):
    args = ["report", "--out", "verification_out"]
    if argv:
        args += ["--graph", argv[0]]
        if len(argv) > 1:
            args += ["--k", argv[1]]
    code = run(args)
    print(f"\nexit code: {code} (0 = every observation matched its expectation)",
          file=sys.stderr)
    print("reports written to verification_out/", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
