#!/usr/bin/env python3
"""Sweep every verification scope over its full desk-scale range.

Prints one line per report (--verbose for every check) and exits nonzero if
anything fails.  --slow adds the n=8 class sweep and the B_5 sweep.
"""

import argparse

from gelfand import model_hecke, model_sn, rsk, typeb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slow", action="store_true", help="include n=8 and B_5")
    parser.add_argument("--verbose", action="store_true", help="print every check")
    args = parser.parse_args()

    reports = []
    for n in range(2, 9 if args.slow else 8):
        reports.append(model_sn.verify_sn_model(n, slow=args.slow))
    for n in range(2, 7):
        reports.append(model_hecke.verify_hecke_model(n))
    for n in range(2, 9):
        reports.append(rsk.verify_rsk(n))
    for n in range(1, 6 if args.slow else 5):
        reports.append(typeb.verify_b_model(n, slow=args.slow))

    failed = 0
    for r in reports:
        print(r.text() if args.verbose else r.text().splitlines()[0])
        if not r.passed:
            failed += 1
    print(f"{len(reports) - failed}/{len(reports)} reports passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
