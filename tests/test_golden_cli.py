"""Byte-level guard on the CLI: exit code, stdout digest and exact stderr.

Each case in ``data/golden_cli.json`` is one ``gelfand`` invocation, run in
process with the environment variables the case names.  The CLI reads none,
so the cases that set ``GELFAND_CAP`` pin that the variable changes nothing.
One refusal case per ``errors.CAPS`` command row, at its cap + 1, pins the
fixed cap table.  The expectations were first recorded before the cap table
and the shared relation checks replaced their per-module copies, so a
refactor that changes one output byte, exit code or refusal text fails here.

After an intended output change, re-record with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from gelfand.cli import main

DATA = Path(__file__).parent / "data" / "golden_cli.json"
CASES = json.loads(DATA.read_text())


def _case_id(case: dict) -> str:
    env = "".join(f"{k}={v} " for k, v in sorted(case["env"].items()))
    return env + " ".join(case["args"])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_cli(case, capsys, monkeypatch):
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    code = main(case["args"])
    out, err = capsys.readouterr()
    assert (code, _digest(out), err) == (case["exit"], case["stdout_sha256"], case["stderr"])


def _record() -> None:
    for case in CASES:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, case["env"]):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                case["exit"] = main(case["args"])
        case["stdout_sha256"] = _digest(out.getvalue())
        case["stderr"] = err.getvalue()
    DATA.write_text("[\n" + ",\n".join(json.dumps(case) for case in CASES) + "\n]\n")
    print(f"recorded {len(CASES)} cases to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    _record()
