"""Every name a module of ``src/gelfand`` imports is read in that module.

Annotations count, string annotations included.  The one exception is
``model_hecke.minus_q_power``: the rebinding probe of ``perfbench/selftest.py``
reads that binding, and no library code calls it.  So a dead import fails
here, and ``PROBE_ONLY`` lists the imports to delete once the benchmark no
longer reads them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gelfand"
MODULES = sorted(SRC.glob("*.py"))
PROBE_ONLY = {("model_hecke", "minus_q_power")}


def _imported(tree):
    """Every name bound by an import statement anywhere in the module, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree):
    """Every name loaded in the module, the names inside string annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and type(n.ctx) is ast.Load}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    unread = set(_imported(tree)) - _read(tree)
    assert unread == {name for module, name in PROBE_ONLY if module == path.stem}


def test_the_checks_see_string_annotations_and_dead_imports():
    tree = ast.parse("from a import B, C, D\nimport e.f\ndef g(x: 'B') -> 'list[C]': e.f\n")
    assert set(_imported(tree)) - _read(tree) == {"D"}
