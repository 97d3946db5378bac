"""Record the expected exit code and stdout digest of every benchmark argv.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Run it only at a commit whose CLI output is trusted; ``run.py`` counts every
call whose exit code or stdout sha256 differs from this record as failed.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, Runner, all_invocations


def main() -> int:
    reference = {}
    with Runner(None) as runner:
        calls = [runner.invoke("record", args) for args in all_invocations()]
    for res in calls:
        args = res["args"]
        if res["timed_out"]:
            print(f"{args}: timed out", file=sys.stderr)
            return 1
        reference[args] = {"exit": res["exit"], "sha256": res["sha256"], "stdout_bytes": res["stdout_bytes"]}
        print(f"{res['wall_s']:7.2f} s  exit {res['exit']}  {res['sha256'][:12]}  {args}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
