import ast
from pathlib import Path

import pytest

from gelfand import model_hecke, model_sn, rsk, typeb
from gelfand.errors import CAPS, SUITES, CapacityError, require

ORACLE_CAPS = {"square_roots": 9, "b_square_roots": 5, "length_oracle": 8, "fixedpoint_report": 8}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gelfand"


def test_library_refusals_use_the_table_text():
    with pytest.raises(CapacityError) as exc:
        typeb.verify_b_model(6)
    assert str(exc.value) == "square root enumeration in B_n is capped at n=5 (got n=6)"
    with pytest.raises(CapacityError) as exc:
        require("fixedpoint_report", 9)
    assert str(exc.value) == "fixed-point report is capped at n=8 (got n=9)"


def test_library_ignores_gelfand_cap(monkeypatch):
    monkeypatch.setenv("GELFAND_CAP", "12")
    with pytest.raises(CapacityError) as exc:
        model_hecke.verify_hecke_model(9)
    assert str(exc.value) == "involutive length oracle is capped at n=8 (got n=9)"
    with pytest.raises(CapacityError) as exc:
        require("poset", 12)
    assert str(exc.value) == "poset export is capped at n=11 (got n=12)"


def test_every_row_refuses_in_one_format():
    for name, (largest, what) in CAPS.items():
        require(name, largest)
        with pytest.raises(CapacityError) as exc:
            require(name, largest + 1)
        assert str(exc.value) == f"{what} is capped at n={largest} (got n={largest + 1})"


@pytest.mark.parametrize(
    "verify, n, message",
    [
        (model_sn.verify_sn_model, 1, "verify_sn_model needs 2 <= n <= 9, got 1"),
        (model_hecke.verify_hecke_model, 1, "verify_hecke_model needs 2 <= n <= 8, got 1"),
        (rsk.verify_rsk, 0, "verify_rsk needs 1 <= n <= 8, got 0"),
        (typeb.verify_b_model, 0, "verify_b_model needs 1 <= n <= 5, got 0"),
    ],
)
def test_library_refuses_an_n_below_each_suite(verify, n, message):
    with pytest.raises(CapacityError) as exc:
        verify(n)
    assert str(exc.value) == message


def test_suite_rows_name_table_caps():
    for scope, suite in SUITES.items():
        assert suite.cap in ORACLE_CAPS, scope
        assert suite.smallest <= CAPS[suite.cap][0], scope


def _required_rows(path: Path) -> list[str]:
    """The row named by each ``require("<row>", ...)`` call in the module at ``path``."""
    return [
        node.args[0].value
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "require"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


def test_the_library_reads_oracle_caps_and_the_cli_runtime_caps():
    named = {path.name: _required_rows(path) for path in SRC.glob("*.py")}
    cli_rows = set(named.pop("cli.py"))
    library_rows = {row for rows in named.values() for row in rows}
    suite_rows = {suite.cap for suite in SUITES.values()}
    assert library_rows and library_rows <= set(ORACLE_CAPS)
    assert cli_rows and cli_rows <= set(CAPS) - set(ORACLE_CAPS)
    assert suite_rows <= set(ORACLE_CAPS)
    assert library_rows | cli_rows | suite_rows == set(CAPS)


def _environment_reads(path: Path) -> list[str]:
    """Each ``os.environ`` / ``os.getenv`` use, or import of them, in the module at ``path``."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"{path.name}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in names]
    return found


def test_no_module_reads_the_environment():
    modules = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    assert len(modules) > 10
    assert [hit for path in modules for hit in _environment_reads(path)] == []
