"""Checks of the benchmark's own machinery: the correctness gate and the tracer.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Takes a few seconds; it runs only the cheapest benchmark call.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import unittest

import run

CHEAP = [("rsk_verify", "verify --scope rsk --n 6")]


class GateTest(unittest.TestCase):
    def setUp(self) -> None:
        self.reference = json.loads(run.REFERENCE.read_text())

    def run_pass(self, reference: dict) -> dict:
        with run.Runner(reference) as runner:
            return runner.run_pass(CHEAP)

    def corrupted(self, key: str, value) -> dict:
        ref = copy.deepcopy(self.reference)
        ref[CHEAP[0][1]][key] = value
        return ref

    def test_matching_reference_passes(self) -> None:
        self.assertEqual(self.run_pass(self.reference)["failed"], 0)

    def test_corrupted_digest_is_one_failed_op(self) -> None:
        ref = self.corrupted("sha256", "0" * 64)
        self.assertEqual(self.run_pass(ref)["failed"], 1)

    def test_unexpected_exit_code_is_one_failed_op(self) -> None:
        ref = self.corrupted("exit", 1)
        self.assertEqual(self.run_pass(ref)["failed"], 1)

    def test_unrecorded_argv_is_one_failed_op(self) -> None:
        ref = copy.deepcopy(self.reference)
        del ref[CHEAP[0][1]]
        self.assertEqual(self.run_pass(ref)["failed"], 1)

    def test_timeout_is_one_failed_op(self) -> None:
        saved = run.TIMEOUT_S
        run.TIMEOUT_S = 0.001
        try:
            p = self.run_pass(self.reference)
        finally:
            run.TIMEOUT_S = saved
        self.assertEqual(p["failed"], 1)
        self.assertTrue(p["calls"][0]["timed_out"])


REBINDING_PROBE = """
import gelfand.cli
from gelfand import cli, model_hecke, model_sn, qpoly, rsk, typeb
import tracer

t = tracer.Tracer("probe")
t.install()
assert t.unwrapped_bindings() == [], t.unwrapped_bindings()

def wrapped(f):
    return id(getattr(f, "__wrapped__", None)) in t.originals

assert model_hecke.model_basis is model_sn.model_basis and wrapped(model_sn.model_basis)
assert model_hecke.rho_generator_matrix is model_sn.rho_generator_matrix
assert wrapped(model_hecke.rho_generator_matrix)
assert rsk.mu_descent_number is model_hecke.mu_descent_number and wrapped(rsk.mu_descent_number)
assert model_hecke.minus_q_power is qpoly.minus_q_power and wrapped(qpoly.minus_q_power)
assert model_hecke.PolyMatrix is qpoly.PolyMatrix and wrapped(qpoly.PolyMatrix.__matmul__)
assert wrapped(model_sn.SignedPermMatrix.__matmul__)
assert typeb.SignedPermMatrix.__matmul__ is model_sn.SignedPermMatrix.__matmul__
assert qpoly.QPoly.__rmul__ is qpoly.QPoly.__mul__ and wrapped(qpoly.QPoly.__mul__)
assert wrapped(qpoly.QPoly.__init__) and wrapped(qpoly.QPoly.__dict__["constant"].__func__)
assert all(wrapped(f) for f in cli._DISPATCH.values())

# The check has teeth: an original bound again under any name is reported.
model_hecke.model_basis = model_sn.model_basis.__wrapped__
assert t.unwrapped_bindings() == ["gelfand.model_hecke.model_basis"], t.unwrapped_bindings()
print("ok")
"""


class TracerTest(unittest.TestCase):
    def test_every_binding_is_wrapped(self) -> None:
        env = run.child_env(None)
        env["PYTHONPATH"] = os.pathsep.join([str(run.SRC), str(run.BENCH_DIR)])
        proc = subprocess.run(
            [sys.executable, "-c", REBINDING_PROBE], env=env, capture_output=True, text=True,
            timeout=60,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.strip(), "ok")

    def test_traced_call_matches_reference_and_accounts_for_its_wall(self) -> None:
        reference = json.loads(run.REFERENCE.read_text())
        with run.Runner(reference) as runner:
            p = runner.run_pass(CHEAP, run.TRACE_DIR / "selftest")
        self.assertEqual(p["failed"], 0)
        self.assertEqual(run.accounting_errors(p), [])
        m = run.layer_metrics(p)
        self.assertGreater(m["rsk.self_s"][0], m["qpoly.self_s"][0])
        self.assertEqual(m["rsk.insertions"][0], 2 * 720)
        spans = p["calls"][0]["trace"]["spans"]
        root = [s for s in spans if s[3] == "cli.main"]
        self.assertEqual(len(root), 1)
        self.assertEqual(root[0][1], 0)
        ids = {s[0] for s in spans}
        self.assertTrue(all(s[1] in ids or s[1] == 0 for s in spans))


if __name__ == "__main__":
    unittest.main()
