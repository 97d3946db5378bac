#!/usr/bin/env python3
"""Print the model character tables of S_n and its Hecke algebra, n = 2..--max-n.

Each n gets a header line and then the tables of ``gelfand characters`` with
``--kind sn`` and ``--kind hecke``.  Exits nonzero if any row mismatches.
"""

import argparse

from gelfand import cli, model_sn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()
    worst = 0
    for n in range(2, args.max_n + 1):
        print(f"n={n} (dimension {model_sn.model_basis(n).dim})")
        for kind in ("sn", "hecke"):
            worst = max(worst, cli.main(["characters", "--kind", kind, "--n", str(n)]))
        print()
    return worst


if __name__ == "__main__":
    import signal

    # As in ``cli.entry``: a reader that stops early ends the script quietly.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
