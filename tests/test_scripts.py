"""Smoke test: the sweeps in scripts/ run against the library as it is."""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]], env


def _run_script(*args):
    argv, env = _script(*args)
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


def test_run_all_verifications_passes_every_report():
    proc = _run_script("run_all_verifications.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "28/28 reports passed"


def test_character_tables_runs():
    proc = _run_script("character_tables.py", "--max-n", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n=2 (dimension 2)")


def test_character_tables_ends_quietly_when_its_reader_closes():
    argv, env = _script("character_tables.py", "--max-n", "3")
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader stops before the first line, as ``| head -0`` would
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert stderr == b""
