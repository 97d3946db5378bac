import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gelfand import cli, model_hecke, model_sn, perm
from gelfand.cli import main
from gelfand.qpoly import QPoly, write_matrix
from references import cycle_notation, rho_q_of_word

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_involutions_table(capsys):
    code, out, _ = run(capsys, "involutions", "--n", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 11  # header plus ten rows


def test_involutions_listing_content(capsys):
    code, out, _ = run(capsys, "involutions", "--n", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10
    by_cycles = {r["cycles"]: r for r in rows}
    assert by_cycles["(1 4)(2 3)"]["length"] == 2
    assert by_cycles["(1 2)(3 4)"]["length"] == 0
    assert by_cycles["e"]["descents"] == []


def test_involutions_csv(capsys):
    code, out, _ = run(capsys, "involutions", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,window,cycles,length,descents,pairs"
    assert len(lines) == 3


def test_matrix_hecke_generator(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "hecke", "--n", "2", "--generator", "1")
    assert code == 0
    assert json.loads(out) == {"dim": 2, "entries": [[0, 0, [1]], [1, 1, [0, -1]]]}


def test_matrix_hecke_mu(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "hecke", "--n", "3", "--mu", "1,1,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == [[i, i, [1]] for i in range(4)]


def test_matrix_sn_identity(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "sn", "--n", "3", "--element", "1,2,3")
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == [[i, i, [1]] for i in range(4)]


def test_matrix_typeb_generator(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "typeb", "--n", "1", "--generator", "0")
    assert code == 0
    assert json.loads(out) == {"dim": 2, "entries": [[0, 0, [1]], [1, 1, [-1]]]}


def test_matrix_typeb_element_matches_generator(capsys):
    from gelfand.typeb import b_generator

    for i in range(3):
        window = ",".join(map(str, b_generator(3, i)))
        code, by_element, _ = run(capsys, "matrix", "--kind", "typeb", "--n", "3", f"--element={window}")
        assert code == 0
        _, by_generator, _ = run(capsys, "matrix", "--kind", "typeb", "--n", "3", "--generator", str(i))
        assert by_element == by_generator
    code, out, _ = run(capsys, "matrix", "--kind", "typeb", "--n", "3", "--element", "1,2,3")
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == [[i, i, [1]] for i in range(obj["dim"])]


def test_matrix_text_format(capsys):
    code, out, _ = run(
        capsys, "matrix", "--kind", "hecke", "--n", "2", "--generator", "1",
        "--format", "text",
    )
    assert code == 0
    assert out.splitlines() == ["dim 2", "(0,0) 1", "(1,1) -q"]


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "all", "--n", "2")
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "hecke", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["n"] == 3


def test_verify_failure_exit_code(capsys, monkeypatch):
    from gelfand import model_sn

    monkeypatch.setattr(model_sn, "fs_count_formula", lambda mult: -1)
    code, out, _ = run(capsys, "verify", "--scope", "sn", "--n", "2")
    assert code == 1
    assert "FAIL" in out


def test_characters_sn(capsys):
    code, out, _ = run(capsys, "characters", "--kind", "sn", "--n", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_class = {tuple(r["class"]): r for r in rows}
    assert by_class[(1, 1, 1, 1)]["trace"] == 10
    assert by_class[(4,)]["trace"] == 0
    assert by_class[(2, 2)]["trace"] == 2
    assert all(r["match"] for r in rows)


def test_characters_hecke(capsys):
    code, out, _ = run(capsys, "characters", "--kind", "hecke", "--n", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_mu = {tuple(r["mu"]): r for r in rows}
    assert by_mu[(3,)]["trace"] == "1 - q + q^2"
    assert by_mu[(1, 1, 1)]["trace"] == "4"
    assert all(r["match"] for r in rows)


def test_characters_hecke_lambda(capsys):
    code, out, _ = run(
        capsys, "characters", "--kind", "hecke", "--n", "3", "--lambda", "2,1",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["match"] for r in rows)
    by_mu = {tuple(r["mu"]): r for r in rows}
    assert by_mu[(1, 1, 1)]["classical_oracle"] == 2


def test_characters_lambda_builds_no_model_basis(capsys, fresh_caches):
    code, _, _ = run(capsys, "characters", "--kind", "hecke", "--n", "4", "--lambda", "3,1")
    assert code == 0
    assert model_sn.model_basis.cache_info().misses == 0


def test_characters_sn_refuses_lambda(capsys):
    code, out, err = run(capsys, "characters", "--kind", "sn", "--n", "3", "--lambda", "2,1")
    assert (code, out, err) == (2, "", "error: --lambda needs --kind hecke\n")


_WRONG_ORACLES = {
    "sn": ("model_sn", "rho_character", lambda p, basis: 999),
    "hecke": ("model_hecke", "mu_unimodal_character", lambda mu: QPoly.constant(999)),
    "lambda": ("rsk", "mn_character", lambda lam, mu: 999),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("table", ["sn", "hecke", "lambda"])
def test_characters_mismatch_exit(capsys, monkeypatch, table, fmt):
    module, name, wrong = _WRONG_ORACLES[table]
    monkeypatch.setattr(importlib.import_module(f"gelfand.{module}"), name, wrong)
    args = ["--kind", "sn"] if table == "sn" else ["--kind", "hecke"]
    if table == "lambda":
        args += ["--lambda", "2,1"]
    code, out, _ = run(capsys, "characters", "--n", "3", "--format", fmt, *args)
    assert code == 1
    assert ('"match": false' if fmt == "json" else "MISMATCH") in out


def test_characters_sn_refuses_the_square_root_cap_before_building_the_basis(capsys, fresh_caches):
    code, out, err = run(capsys, "characters", "--kind", "sn", "--n", "10")
    message = "error: square root enumeration in S_n is capped at n=9 (got n=10)\n"
    assert (code, out, err) == (2, "", message)
    assert model_sn.model_basis.cache_info().misses == 0


_ONE_CLASS = {
    "sn": (("--kind", "sn"), "model_sn", "rho_character"),
    "hecke": (("--kind", "hecke"), "model_hecke", "rho_q_trace"),
    "lambda": (("--kind", "hecke", "--lambda", "3,2"), "rsk", "irreducible_hecke_character"),
}


@pytest.mark.parametrize("table", list(_ONE_CLASS))
def test_characters_with_mu_computes_one_class(capsys, monkeypatch, table):
    args, module, name = _ONE_CLASS[table]
    mod = importlib.import_module(f"gelfand.{module}")
    original = getattr(mod, name)
    calls = []

    def counted(*a):
        calls.append(a)
        return original(*a)

    monkeypatch.setattr(mod, name, counted)
    code, out, _ = run(capsys, "characters", "--n", "5", "--mu", "3,2", "--format", "json", *args)
    assert code == 0
    assert [row["mu" if table != "sn" else "class"] for row in json.loads(out)] == [[3, 2]]
    assert len(calls) == 1


# Each trace generator, what ``characters`` needs to read it, and the checks
# of each verify suite that read it.
_TRACE_GENERATORS = {
    "sn": (
        "model_sn",
        "class_traces",
        ("--kind", "sn"),
        {"sn": ["trace = square-root count = product formula on every class"]},
    ),
    "hecke": (
        "model_hecke",
        "type_traces",
        ("--kind", "hecke"),
        {"hecke": ["trace equals the signed unimodal-involution sum for every type"]},
    ),
    "lambda": (
        "rsk",
        "lambda_traces",
        ("--kind", "hecke", "--lambda", "2,1"),
        {
            "rsk": [
                "irreducible characters sum to the model trace",
                "q=1 values match the border-strip recursion",
            ]
        },
    ),
}


@pytest.mark.parametrize("table", list(_TRACE_GENERATORS))
def test_one_wrong_trace_row_fails_verify_and_characters(capsys, monkeypatch, table):
    module, name, args, failing = _TRACE_GENERATORS[table]
    mod = importlib.import_module(f"gelfand.{module}")
    original = getattr(mod, name)

    def one_wrong_row(*a):
        rows = original(*a)
        mu, value, *oracles = next(rows)
        yield (mu, value + 1, *oracles)
        yield from rows

    monkeypatch.setattr(mod, name, one_wrong_row)
    for scope, names in failing.items():
        assert [c.name for c in cli.run_suite(scope, 3).checks if not c.passed] == names
    code, out, _ = run(capsys, "characters", "--n", "3", *args)
    assert code == 1
    assert out.count("MISMATCH") == 1


def test_one_wrong_hecke_trace_fails_both_suites_and_characters(capsys, monkeypatch):
    # type_traces and the rsk sum check both read the trace off the trie kernel
    # rho_q_trace; at n=3 the word [1, 2] is T_{w_mu} of mu=(3,) alone.
    original = model_hecke.rho_q_trace

    def wrong_at_3(words, *a):
        return [t + (list(w) == [1, 2]) for w, t in zip(words, original(words, *a))]

    monkeypatch.setattr(model_hecke, "rho_q_trace", wrong_at_3)
    for scope, name in [
        ("hecke", "trace equals the signed unimodal-involution sum for every type"),
        ("rsk", "irreducible characters sum to the model trace"),
    ]:
        failed = [c for c in cli.run_suite(scope, 3).checks if not c.passed]
        assert [c.name for c in failed] == [name] and failed[0].detail.startswith("mu=(3,)")
    code, out, _ = run(capsys, "characters", "--kind", "hecke", "--n", "3")
    assert code == 1
    assert out.count("MISMATCH") == 1


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every cold call pays for what ``import gelfand.cli`` loads; isolated
    # mode (-I -S) keeps site packages and environment variables out of it.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import gelfand.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "fmt, first", [("text", b"index"), ("csv", b"index"), ("json", b"[")],
    ids=["text", "csv", "json"],
)
def test_broken_pipe_exits_quietly(fmt, first):
    # csv and json write while they compute, so the reader closes mid-stream.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gelfand.cli", "involutions", "--n", "9", "--format", fmt],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(first)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code != 1


def _materialised_listing(n, fmt):
    """The listing as it was written before it streamed: every record, then every row."""
    records = [
        {
            "index": idx,
            "window": list(w),
            "cycles": cycle_notation(w),
            "length": model_hecke.involutive_length(w),
            "descents": sorted(perm.descent_set(w)),
            "pairs": [list(p) for p in perm.involution_pairs(w)],
        }
        for idx, w in enumerate(model_sn.model_basis(n).involutions)
    ]
    if fmt == "json":
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    header = list(records[0])
    rendered = {
        "descents": lambda v: " ".join(map(str, v)) or "-",
        "pairs": lambda v: "".join(f"({a},{b})" for a, b in v) or "-",
        "window": lambda v: ",".join(map(str, v)),
    }
    rows = [[rendered.get(k, str)(r[k]) for k in header] for r in records]
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(header)]
    for r in [header, *rows]:
        buf.write("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip() + "\n")
    return buf.getvalue()


@pytest.mark.parametrize(
    "n, fmt", [(n, fmt) for n in range(1, 11) for fmt in ("text", "csv", "json")]
)
def test_streamed_listing_matches_the_materialised_one(capsys, n, fmt):
    code, out, _ = run(capsys, "involutions", "--n", str(n), "--format", fmt)
    assert code == 0
    assert out == _materialised_listing(n, fmt)


def test_json_table_of_no_records_is_an_empty_list(capsys):
    cli._emit_table("json", iter([]))
    assert capsys.readouterr().out == json.dumps([], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", range(1, 10))
def test_listing_cycles_are_the_cycle_notation(capsys, n):
    code, out, _ = run(capsys, "involutions", "--n", str(n), "--format", "csv")
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        w = tuple(map(int, row["window"].split(",")))
        assert row["cycles"] == cycle_notation(w)
        assert row["descents"] == (" ".join(map(str, sorted(perm.descent_set(w)))) or "-")


def _traced_peak(monkeypatch, argv):
    """Exit code and tracemalloc peak of one CLI call, its stdout sent to the null device."""
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_streamed_listing_memory_stays_flat(monkeypatch, fmt):
    # Building every record before writing peaked at 14 MB (csv) and 42 MB
    # (json) on this call, and streaming records over the sorted involutions
    # at 2.0 and 1.4 MB; the walk holds only its stack and one row.  Text
    # sized its columns from every row, held at once: 4.7 MB.
    code, peak = _traced_peak(monkeypatch, ["involutions", "--n", "10", "--format", fmt])
    assert code == 0
    assert peak < 1_000_000


def test_matrix_json_is_written_without_the_whole_string(monkeypatch):
    # Building every entry as a QPoly and then the whole string peaked at
    # 12.2 MB on this call, and writing the cells of the product matrix row by
    # row at 4.8-5.7 MB; rows of the product made one at a time peak at
    # 0.5-0.9 MB, warm caches or cold.
    argv = ["matrix", "--kind", "hecke", "--n", "9", "--mu", "3,3,2,1"]
    code, peak = _traced_peak(monkeypatch, argv)
    assert code == 0
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["matrix", "--kind", "hecke", "--n", "9", "--mu", "3,3,2,1", "--format=text"], 2_000_000),
        (["poset", "--n", "9"], 1_500_000),
    ],
    ids=["matrix-text", "poset"],
)
def test_streamed_exports_hold_no_whole_product_or_text(monkeypatch, argv, bound):
    # The text matrix held every generator and partial product before the
    # first byte, 4.8-5.3 MB, and the DOT text was joined into one string,
    # 1.9-2.2 MB.  Row by row and line by line they peak at 0.2-0.5 and
    # 0.4-0.7 MB, warm caches or cold.
    code, peak = _traced_peak(monkeypatch, argv)
    assert code == 0
    assert peak < bound


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["verify", "--scope", "hecke", "--n", "8"], 1_500_000),
        (["characters", "--kind", "hecke", "--n", "9"], 2_000_000),
    ],
    ids=["verify", "characters"],
)
def test_hecke_suite_and_characters_hold_no_generator_matrix(
    monkeypatch, fresh_caches, argv, bound
):
    # Every T_i as a PolyMatrix, with the relation products, peaked at 3.0 MB
    # on the verify call and 6.2 MB on the characters call; as row words read
    # off the conjugation tables, with one trie walk for the traces, they peak
    # at about 0.8 MB each, cold caches.
    code, peak = _traced_peak(monkeypatch, argv)
    assert code == 0
    assert peak < bound


def test_typeb_element_matrix_searches_no_word_table(monkeypatch, fresh_caches):
    # A shortest word of every element of B_6, found by BFS before the one
    # element's word was read, peaked at 16.4 MB on this call; the element's
    # own left-descent word peaks at about 1 MB.
    argv = ["matrix", "--kind", "typeb", "--n", "6", "--element=-6,-5,-4,-3,-2,-1"]
    code, peak = _traced_peak(monkeypatch, argv)
    assert code == 0
    assert peak < 3_000_000


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("n", range(1, 8))
def test_streamed_word_product_is_the_written_matrix_product(capsys, n, fmt):
    basis = model_sn.model_basis(n)
    for mu in perm.partitions(n):
        code, out, _ = run(
            capsys, "matrix", "--kind", "hecke", "--n", str(n), "--mu", ",".join(map(str, mu)),
            "--format", fmt,
        )
        m = rho_q_of_word(model_hecke.t_mu_word(mu), basis)
        expected = io.StringIO()
        write_matrix(expected, fmt, m.dim, m.cells())
        assert (code, out) == (0, expected.getvalue()), mu


def test_word_past_the_packed_bound_is_refused_before_the_first_byte(capsys, monkeypatch):
    # With 8-bit digits the bound is dim * 3^L < 2^7: 10 * 3^3 is past it at n=4.
    monkeypatch.setattr(model_hecke, "SHIFT", 8)
    code, out, err = run(capsys, "matrix", "--kind", "hecke", "--n", "4", "--mu", "4")
    assert (code, out) == (2, "")
    assert err == "error: a word of 3 letters at dim 10 is past the packed bound\n"


def test_broken_grading_fails_the_word_product_before_the_first_byte(capsys, monkeypatch):
    # The 2-cycle count is constant under conjugation, so no case tag can be read.
    lengths = tuple(len(perm.involution_pairs(w)) for w in model_sn.model_basis(5).involutions)
    monkeypatch.setattr(model_hecke, "involutive_order", lambda n: lengths)
    code, out, err = run(capsys, "matrix", "--kind", "hecke", "--n", "5", "--mu", "5")
    assert (code, out) == (1, "")
    assert err.startswith("internal consistency error: conjugation by s_1 changes")


def test_characters_single_mu(capsys):
    code, out, _ = run(
        capsys, "characters", "--kind", "hecke", "--n", "3", "--mu", "3",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1


def test_mu_autosort_warns(capsys):
    code, out, err = run(capsys, "characters", "--kind", "hecke", "--n", "3", "--mu", "1,2")
    assert code == 0
    assert "sorting" in err
    assert "2,1" in out


def test_poset_output(capsys):
    code, out, _ = run(capsys, "poset", "--n", "3")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count(" -> ") == 2


def test_missing_n_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["involutions"])
    assert exc.value.code == 2


def test_bad_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--kind", "nope", "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [("--seed", "1"), ("--slow",)])
def test_seed_and_slow_belong_to_verify_only(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["involutions", "--n", "2", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args, reference",
    [
        (("--scope", "sn", "--n", "8"), "verify --scope sn --n 8 --slow --seed 0"),
        (("--scope", "typeb", "--n", "5"), "verify --scope typeb --n 5 --slow"),
    ],
)
@pytest.mark.parametrize("slow", [(), ("--slow",)], ids=["plain", "slow"])
def test_slow_flag_is_a_no_op(capsys, args, reference, slow):
    # Both match, with or without --slow, the stdout that perfbench pins for
    # its --slow argv.
    pinned = json.loads((ROOT / "perfbench" / "reference.json").read_text())[reference]
    code, out, err = run(capsys, "verify", *args, *slow)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, pinned["sha256"], "")


def test_over_cap_is_usage_error(capsys):
    code, _, err = run(capsys, "involutions", "--n", "99")
    assert code == 2
    assert "capped" in err


def test_bad_partition_is_usage_error(capsys):
    code, _, err = run(capsys, "characters", "--kind", "hecke", "--n", "3", "--mu", "9")
    assert code == 2
    assert "sum" in err


def test_matrix_requires_one_selector(capsys):
    code, _, err = run(capsys, "matrix", "--kind", "sn", "--n", "3")
    assert code == 2
    code, _, err = run(
        capsys, "matrix", "--kind", "sn", "--n", "3", "--generator", "1",
        "--element", "1,2,3",
    )
    assert code == 2


@pytest.mark.parametrize(
    "args, flag",
    [
        (("characters", "--kind", "hecke", "--n", "3", "--mu=", "--lambda="), "--mu"),
        (("matrix", "--kind", "sn", "--n", "3", "--generator", "1", "--element="), "--element"),
        (("matrix", "--kind", "hecke", "--n", "3", "--generator", "1", "--mu="), "--mu"),
        (("characters", "--kind", "hecke", "--n", "3", "--lambda="), "--lambda"),
    ],
)
def test_empty_flag_is_refused(capsys, args, flag):
    message = f"error: {flag} must be comma-separated integers, got ''\n"
    assert run(capsys, *args) == (2, "", message)


def test_bad_element_is_usage_error(capsys):
    code, _, err = run(capsys, "matrix", "--kind", "sn", "--n", "3", "--element", "3,3,1")
    assert code == 2
    assert "window" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (("--scope", "typeb", "--n", "6"), "square root enumeration in B_n is capped at n=5 (got n=6)"),
        (("--scope", "hecke", "--n", "9"), "involutive length oracle is capped at n=8 (got n=9)"),
        (("--scope", "sn", "--n", "10"), "square root enumeration in S_n is capped at n=9 (got n=10)"),
        (("--scope", "rsk", "--n", "9"), "fixed-point report is capped at n=8 (got n=9)"),
        (
            ("--scope", "typeb", "--n", "6", "--slow"),
            "square root enumeration in B_n is capped at n=5 (got n=6)",
        ),
    ],
)
def test_oracle_caps_refused_before_any_suite_runs(capsys, monkeypatch, args, message):
    from gelfand import model_hecke, model_sn, rsk, typeb

    def must_not_run(*_args, **_kwargs):
        raise AssertionError("a verification suite ran before every cap was checked")

    monkeypatch.setattr(model_sn, "verify_sn_model", must_not_run)
    monkeypatch.setattr(model_hecke, "verify_hecke_model", must_not_run)
    monkeypatch.setattr(rsk, "verify_rsk", must_not_run)
    monkeypatch.setattr(typeb, "verify_b_model", must_not_run)
    code, out, err = run(capsys, "verify", *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "n, sizes",
    [
        (6, {"sn": 6, "hecke": 6, "rsk": 6, "typeb": 5}),
        (9, {"sn": 9, "hecke": 8, "rsk": 8, "typeb": 5}),
    ],
)
def test_scope_all_runs_each_suite_within_its_oracle_cap(capsys, monkeypatch, n, sizes):
    from gelfand.report import Report

    monkeypatch.setattr(cli, "run_suite", lambda scope, m, seed=0: Report(scope, m, ()))
    code, out, err = run(capsys, "verify", "--scope", "all", "--n", str(n), "--format", "json")
    assert (code, err) == (0, "")
    assert [(r["scope"], r["n"]) for r in json.loads(out)] == list(sizes.items())


def test_involutions_csv_has_one_row_per_involution(capsys):
    code, out, _ = run(capsys, "involutions", "--n", "10", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 9497  # I(10) rows plus header


def test_repeated_runs_are_identical(capsys):
    first = run(capsys, "verify", "--scope", "all", "--n", "2", "--format", "json")
    second = run(capsys, "verify", "--scope", "all", "--n", "2", "--format", "json")
    assert first == second
