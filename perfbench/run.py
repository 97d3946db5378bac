"""Benchmark of the ``gelfand`` CLI: cold-process invocations in a closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one real CLI call, ``python -m gelfand.cli ARGS`` with
``src`` on the path, in a fresh child process: the package's lru_cache'd
builders are per process, so every user call pays for them cold.  One client
runs the workload's invocation list again and again; the next call starts
when the previous one has exited.  The harness waits in ``os.wait4`` and
takes CPU time and peak RSS from the child's rusage.  Every call gets
GELFAND_CAP set to its own n, so the size caps cannot change which work runs.

Every call's exit code and stdout sha256 are checked against
``reference.json``, recorded at the commit that introduced the benchmark; a
mismatch or a timeout is a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run under ``tracer.py`` and prints the per-layer
metrics.  ``--workload all`` runs every workload in turn.  The last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
TRACER = BENCH_DIR / "tracer.py"
LAUNCHER = BENCH_DIR / "launcher.py"
TRACE_DIR = ROOT / ".perfbench_out"

TIMEOUT_S = 60.0
TRACED_TIMEOUT_S = 150.0
# The whole run, set-up included, must end well inside three minutes.
RUN_BUDGET_S = 150.0
SETUP_SAMPLES_PER_PASS = 3
# Largest allowed |sum of layer self times + time outside cli.main - traced
# wall| as a share of the traced wall of one call.
ACCOUNTING_TOLERANCE = 0.01

SN_VERIFY_SEEDS = tuple(range(10))


def partitions(n: int, top: int | None = None):
    """Partitions of n, largest part first; the harness never imports gelfand."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


LAMBDAS_9 = tuple(",".join(map(str, lam)) for lam in partitions(9))

# Each workload is its invocation list: (op id, CLI argv template, choices).
# A seeded rng fills the template's {} from the choices, which differ only in
# output, not in work.  "verify" runs the brute-force checks of every model
# (S_8 square-root sweeps, Z[q] products at dimension 764 with the BFS length
# oracle, B_5 class sweeps, the S_9 insertion table); "export" builds and
# serialises objects without verifying them, so it is the workload on which
# the cli encoders work and on which a verify-only shortcut must not lose.
WORKLOADS = {
    "verify": [
        ("sn_verify", "verify --scope sn --n 8 --slow --seed {}", SN_VERIFY_SEEDS),
        ("sn_characters", "characters --kind sn --n 8", None),
        ("hecke_verify", "verify --scope hecke --n 8", None),
        ("hecke_characters", "characters --kind hecke --n 7", None),
        ("typeb_verify", "verify --scope typeb --n 5 --slow", None),
        ("rsk_verify", "verify --scope rsk --n 6", None),
        ("lambda_characters", "characters --kind hecke --n 9 --lambda {}", LAMBDAS_9),
    ],
    "export": [
        ("involutions_json", "involutions --n 10 --format json", None),
        ("involutions_csv", "involutions --n 11 --format csv", None),
        ("poset", "poset --n 9", None),
        ("hecke_matrix", "matrix --kind hecke --n 9 --mu 3,3,2,1", None),
    ],
}
OP_IDS = tuple(op for ops in WORKLOADS.values() for op, _, _ in ops)


def invocations(workload: str, rng: random.Random) -> list[tuple[str, str]]:
    return [
        (op, template.format(rng.choice(choices)) if choices else template)
        for op, template, choices in WORKLOADS[workload]
    ]


def all_invocations() -> list[str]:
    """Every CLI argv any seed can choose, for recording the reference."""
    return [
        template.format(c)
        for ops in WORKLOADS.values()
        for _, template, choices in ops
        for c in (choices or [None])
    ]


def child_env(cap: int | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GELFAND_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    if cap is not None:
        env["GELFAND_CAP"] = str(cap)
    return env


class Runner:
    """Runs CLI calls through the launcher process and checks them.

    ``reference`` maps an argv string to its expected exit code and stdout
    sha256; with ``None`` nothing is checked.
    """

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, cmd: list[str], env: dict[str, str], timeout: float) -> dict:
        self.launcher.stdin.write(json.dumps({"cmd": cmd, "env": env, "timeout": timeout}) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def invoke(self, op: str, args: str, trace_path: Path | None = None) -> dict:
        """One CLI call, untraced or traced, checked against the reference."""
        argv = args.split()
        cap = int(argv[argv.index("--n") + 1])
        if trace_path is None:
            cmd = [sys.executable, "-m", "gelfand.cli", *argv]
            timeout = TIMEOUT_S
        else:
            cmd = [sys.executable, str(TRACER), str(trace_path), op, "--", *argv]
            timeout = TRACED_TIMEOUT_S
        res = self.spawn(cmd, child_env(cap), timeout)
        res["op"] = op
        res["args"] = args
        res["error"] = None
        if res["timed_out"]:
            res["error"] = f"timed out after {timeout:g} s"
        elif self.reference is None:
            pass
        elif args not in self.reference:
            res["error"] = "no reference recorded for this argv"
        elif res["exit"] != self.reference[args]["exit"]:
            res["error"] = f"exit {res['exit']}, expected {self.reference[args]['exit']}"
        elif res["sha256"] != self.reference[args]["sha256"]:
            res["error"] = (f"stdout sha256 {res['sha256'][:12]}, "
                            f"expected {self.reference[args]['sha256'][:12]}")
        if res["error"]:
            print(f"FAILED {op} [{args}]: {res['error']}\n{res['stderr']}", file=sys.stderr)
        return res

    def run_pass(self, ops: list[tuple[str, str]], trace_dir: Path | None = None) -> dict:
        """The workload's invocation list once, one call after another."""
        calls = []
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        for k, (op, args) in enumerate(ops):
            trace_path = trace_dir / f"{op}.{k}.json" if trace_dir is not None else None
            call = self.invoke(op, args, trace_path)
            if trace_path is not None and call["error"] is None:
                call["trace"] = json.loads(trace_path.read_text())
            calls.append(call)
        return {
            "wall_s": calls[-1]["t_exit"] - calls[0]["t_spawn"],
            "cpu_s": sum(c["cpu_s"] for c in calls),
            "peak_rss_mb": max(c["maxrss_kb"] for c in calls) * 1024 / 1e6,
            "stdout_bytes": sum(c["stdout_bytes"] for c in calls),
            "calls": calls,
            "failed": sum(1 for c in calls if c["error"]),
        }

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter that only imports the CLI module."""
        res = self.spawn([sys.executable, "-c", "import gelfand.cli"], child_env(None), TIMEOUT_S)
        if res["exit"] != 0:
            raise RuntimeError(f"import gelfand.cli failed:\n{res['stderr']}")
        return res["wall_s"]


def calibration_s() -> float:
    """A fixed stdlib-only loop, shaped like the permutation sweeps; drift diagnostic."""

    def once() -> float:
        t0 = time.perf_counter()
        counts: dict[tuple[int, ...], int] = {}
        for u in itertools.permutations(range(1, 8)):
            sq = tuple(u[x - 1] for x in u)
            counts[sq] = counts.get(sq, 0) + 1
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(7))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def outside_main_s(call: dict) -> float:
    """Traced call's time outside cli.main: interpreter start, import, patching, dump."""
    tr = call["trace"]
    return (tr["t_main0"] - call["t_spawn"]) + (call["t_exit"] - tr["t_main1"])


def layer_metrics(traced_pass: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, summed over its calls."""
    funcs: dict[str, list] = {}
    counters: dict[str, int] = {}
    gen_keys: dict[str, int] = {}
    caches: dict[str, list] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    outside = 0.0
    for call in traced_pass["calls"]:
        tr = call["trace"]
        for name, (count, incl) in tr["functions"].items():
            acc = funcs.setdefault(name, [0, 0.0])
            acc[0] += count
            acc[1] += incl
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in tr["generator_keys"].items():
            gen_keys[name] = gen_keys.get(name, 0) + value
        for name, (hits, misses) in tr["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        for layer in LAYERS:
            self_s[layer] += tr["layer_self_s"][layer]
        outside += outside_main_s(call)

    def calls(name):
        return funcs.get(name, [0, 0.0])[0]

    def cache_ratio(*names):
        hits = sum(caches[n][0] for n in names)
        return _ratio(hits, hits + sum(caches[n][1] for n in names))

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["outside.self_s"] = (outside, "s")
    m["perm.compose_calls"] = (calls("perm.compose"), "count")
    m["perm.perms_swept"] = (counters.get("perm.perms_swept", 0), "count")
    m["qpoly.polys_built"] = (calls("qpoly.QPoly.__init__"), "count")
    m["qpoly.poly_muls"] = (calls("qpoly.QPoly.__mul__"), "count")
    m["qpoly.matmuls"] = (calls("qpoly.PolyMatrix.__matmul__"), "count")
    m["qpoly.matmul_nnz_in"] = (counters.get("qpoly.matmul_nnz_in", 0), "count")
    m["model_sn.rho_matrix_calls"] = (calls("model_sn.rho_matrix"), "count")
    m["model_sn.signed_matmuls"] = (calls("model_sn.SignedPermMatrix.__matmul__"), "count")
    m["model_sn.cache_hit_ratio"] = (cache_ratio("model_sn.model_basis"), "ratio")
    builds = calls("model_hecke.rho_q_generator")
    m["model_hecke.generator_builds"] = (builds, "count")
    m["model_hecke.generator_reuse"] = (
        _ratio(gen_keys.get("model_hecke.rho_q_generator", 0), builds), "ratio")
    m["model_hecke.length_evals"] = (calls("model_hecke.involutive_length"), "count")
    m["model_hecke.oracle_s"] = (funcs.get("model_hecke.involutive_length_oracle", [0, 0.0])[1], "s")
    m["model_hecke.cache_hit_ratio"] = (
        cache_ratio("model_hecke.involutive_order", "model_hecke._conjugation_distances"), "ratio")
    m["rsk.insertions"] = (calls("rsk.rs_insert"), "count")
    m["rsk.cache_hit_ratio"] = (cache_ratio("rsk._insertion_table", "rsk.mn_character"), "ratio")
    builds = calls("typeb.rho_b_generator")
    m["typeb.b_compose_calls"] = (calls("typeb.b_compose"), "count")
    m["typeb.elements_swept"] = (counters.get("typeb.elements_swept", 0), "count")
    m["typeb.generator_builds"] = (builds, "count")
    m["typeb.generator_reuse"] = (_ratio(gen_keys.get("typeb.rho_b_generator", 0), builds), "ratio")
    m["cli.stdout_bytes"] = (traced_pass["stdout_bytes"], "B")
    for name in sorted(caches):
        hits, misses = caches[name]
        m[f"cache.{name}.lookups"] = (hits + misses, "count")
        m[f"cache.{name}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    return m


def accounting_errors(traced_pass: dict) -> list[str]:
    """Calls whose layer self times plus time outside cli.main miss the traced wall."""
    out = []
    for call in traced_pass["calls"]:
        outside = outside_main_s(call)
        total = sum(call["trace"]["layer_self_s"].values()) + outside
        if outside < 0 or abs(total - call["wall_s"]) > ACCOUNTING_TOLERANCE * call["wall_s"]:
            out.append(f"{call['op']}: self {total:.6f} s vs traced wall {call['wall_s']:.6f} s")
    return out


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    t_start = time.perf_counter()
    runner.setup_sample()  # untimed: compiles bytecode in a fresh checkout
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
    calib = [calibration_s()]
    untraced, traced = [], []
    trace_dir = TRACE_DIR / workload
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    while True:
        ops = invocations(workload, rng)
        untraced.append(runner.run_pass(ops))
        if trace:
            traced.append(runner.run_pass(ops, trace_dir / str(len(traced))))
        setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
        calib.append(calibration_s())
        # Stop when another round would more likely end past the deadline
        # than before it, so a run lasts about ``seconds`` on average.
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / len(untraced)
        if elapsed + per_round / 2 > min(seconds, RUN_BUDGET_S):
            break
    passes = untraced + traced
    failed = sum(p["failed"] for p in passes)
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "attempted": sum(len(p["calls"]) for p in passes),
        "failed": failed,
        "errors": [],
        "setup_samples": len(setup),
        "calib_s": _median(calib),
    }
    e2e = {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median([p["wall_s"] for p in untraced]), "s"),
        "cpu_s": (_median([p["cpu_s"] for p in untraced]), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in untraced), "MB"),
    }
    result["end_to_end"] = e2e
    result["samples"] = {
        "setup_s": setup,
        "wall_s": [p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }
    op_walls = {op: [] for op in OP_IDS}
    for p in untraced:
        for c in p["calls"]:
            op_walls[c["op"]].append(c["wall_s"])
    per_layer: dict[str, tuple[float, str]] = {}
    if trace and failed == 0:
        per_pass = [layer_metrics(p) for p in traced]
        for name, (_, unit) in per_pass[0].items():
            per_layer[name] = (_median([m[name][0] for m in per_pass]), unit)
        per_layer["trace_overhead"] = (
            _median([p["wall_s"] for p in traced]) / e2e["wall_s"][0], "ratio")
        for p in traced:
            result["errors"] += accounting_errors(p)
    result["traced_calls"] = traced[0]["calls"] if trace and failed == 0 else []
    for op in OP_IDS:
        per_layer[f"op.{op}.wall_s"] = (_median(op_walls[op]), "s")
    per_layer["calib_s"] = (result["calib_s"], "s")
    result["per_layer"] = per_layer
    return result


def machine() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"Python {platform.python_version()}, nproc {os.cpu_count()}, {model}"


def print_human(result: dict, trace: bool) -> None:
    r = result
    print(f"workload {r['workload']} seed {r['seed']}: {r['passes']} untraced passes, "
          f"{r['setup_samples']} set-up samples, calib_s {r['calib_s']:.4f} s")
    for name, (value, unit) in r["end_to_end"].items():
        samples = r["samples"][name]
        print(f"  {name:<28} {value:>14.4f} {unit:<5} ({len(samples)} samples, "
              f"min {min(samples):.4f}, max {max(samples):.4f})")
    print(f"  {'ops':<28} {r['attempted']:>14d} count")
    print(f"  {'failed_ops':<28} {r['failed']:>14d} count")
    if trace:
        traced_wall = sum(v for k, (v, _) in r["per_layer"].items() if k.endswith(".self_s"))
        for name, (value, unit) in r["per_layer"].items():
            share = ""
            if name.endswith(".self_s") and traced_wall:
                share = f"  ({100 * value / traced_wall:.1f}% of traced wall)"
            print(f"  {name:<28} {value:>14.6g} {unit}{share}")
    if trace and r["traced_calls"]:
        print("  layer share of each traced call's wall (outside = start-up, import, exit):")
        for call in r["traced_calls"]:
            tr = call["trace"]
            parts = [(layer, s) for layer, s in tr["layer_self_s"].items() if s > 0]
            parts.append(("outside", call["wall_s"] - sum(s for _, s in parts)))
            print(f"    {call['op']:<18} " + ", ".join(
                f"{layer} {100 * s / call['wall_s']:.0f}%" for layer, s in parts))
    for err in r["errors"]:
        print(f"  accounting error: {err}")


def result_line(result: dict, trace: bool) -> dict:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "gelfand" / "cli.py").is_file():
        print(f"no gelfand sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(machine())
    lines = []
    with Runner(reference) as runner:
        for name in names:
            result = measure(runner, name, args.seed, args.seconds, trace)
            print_human(result, trace)
            lines.append(result_line(result, trace))
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(l["correct"] for l in lines),
            "attempted": sum(l["attempted"] for l in lines),
            "failed": sum(l["failed"] for l in lines),
            "metrics": {f"{n}.{k}": v for n, l in zip(names, lines) for k, v in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
