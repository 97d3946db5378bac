"""Smoke test: the sweeps in scripts/ run against the library as it is."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(*args):
    env = dict(os.environ)
    env.pop("GELFAND_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_all_verifications_passes_every_report():
    proc = _run_script("run_all_verifications.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "25/25 reports passed"


def test_character_tables_runs():
    proc = _run_script("character_tables.py", "--max-n", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n=2 (dimension 2)")
