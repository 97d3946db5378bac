#!/usr/bin/env python3
"""Sweep every verification scope over its full desk-scale range.

Prints one line per report (--verbose for every check) and exits nonzero if
anything fails.
"""

import argparse

from gelfand.cli import run_suite
from gelfand.errors import CAPS, SUITES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="print every check")
    args = parser.parse_args()

    reports = [
        run_suite(scope, n)
        for scope, suite in SUITES.items()
        for n in range(suite.smallest, CAPS[suite.cap][0] + 1)
    ]

    failed = 0
    for r in reports:
        print(r.text() if args.verbose else r.text().splitlines()[0])
        if not r.passed:
            failed += 1
    print(f"{len(reports) - failed}/{len(reports)} reports passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
