"""Replay every CLI call that ``perfbench/reference.json`` pins.

The benchmark counts a call as failed when its exit code or stdout sha256
differs from that record, so a change to any pinned output fails here
first.  Each argv runs in process with ``GELFAND_CAP`` unset: every pinned
``--n`` is within the fixed cap table, and the CLI reads no environment
variable, so the ``GELFAND_CAP`` that ``perfbench/run.py`` sets for its child
processes changes nothing.  The record is only read.  Nine of the ten seeded
``verify --scope sn`` calls differ only in their sampled pairs and take most
of the time, so they run under ``--runslow``.

Under ``--runslow`` one short traced and one short untraced benchmark run per
workload also check that the last line ``perfbench/run.py`` prints is a
strict-JSON result with nothing failed that holds every per-layer (traced) or
end-to-end (untraced) metric ``BENCHMARK.json`` names: a run can exit 0 and
still end on a line that is no result.  ``BENCHMARK.json`` is only read.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gelfand.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _benchmark_result(workload: str, trace: int) -> dict:
    """The last line of a one-second benchmark run, checked to be a correct result."""
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout + proc.stderr
    return result


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["export", "verify"])
def test_traced_benchmark_run_ends_on_a_correct_result(workload):
    # Every per-layer name must be a key of the result, or the line is not
    # taken as one: a renamed or deleted lru_cache builder would drop its
    # ``cache.*`` metrics.
    metrics = _benchmark_result(workload, 1)["metrics"]
    assert [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in metrics] == []


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["export", "verify"])
def test_untraced_benchmark_run_ends_on_every_end_to_end_metric(workload):
    metrics = _benchmark_result(workload, 0)["metrics"]
    assert [m["name"] for m in BENCHMARK["end_to_end"] if m["name"] not in metrics] == []
