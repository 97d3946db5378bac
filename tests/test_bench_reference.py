"""Replay every CLI call that ``perfbench/reference.json`` pins.

The benchmark counts a call as failed when its exit code or stdout sha256
differs from that record, so a change to any pinned output fails here
first.  Each argv runs in process with ``GELFAND_CAP`` unset: every pinned
``--n`` is within the fixed cap table, and the CLI reads no environment
variable, so the ``GELFAND_CAP`` that ``perfbench/run.py`` sets for its child
processes changes nothing.  The record is only read.  Nine of the ten seeded
``verify --scope sn`` calls differ only in their sampled pairs and take most
of the time, so they run under ``--runslow``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gelfand.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
)


def _case(args: str):
    slow = args.startswith("verify --scope sn") and not args.endswith("--seed 0")
    return pytest.param(args, id=args, marks=[pytest.mark.slow] if slow else [])


@pytest.mark.parametrize("args", [_case(args) for args in REFERENCE])
def test_pinned_benchmark_output(args, capsys, monkeypatch):
    monkeypatch.delenv("GELFAND_CAP", raising=False)
    code = main(args.split())
    out = capsys.readouterr().out.encode()
    expected = REFERENCE[args]
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
        expected["exit"],
        expected["stdout_bytes"],
        expected["sha256"],
    )
