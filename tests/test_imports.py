"""Every name a module of ``src/gelfand`` imports is read in that module, and
every module-level function of ``src/gelfand`` is read by library code.

Annotations count, string annotations included.  The one exception is
``model_hecke.minus_q_power``: the rebinding probe of ``perfbench/selftest.py``
reads that binding, and no library code calls it.  So a dead import fails
here, and ``PROBE_ONLY`` lists the imports to delete once the benchmark no
longer reads them.

A function is read when a module of the package loads it by name (in its own
module) or as a module attribute, imports it, or runs it as the verify
function of an ``errors.SUITES`` entry.  ``BENCH_ONLY`` lists the functions
that only the benchmark and the tests call, to delete when the benchmark is
revised; the check fails when another function goes unread, and when one of
them gains a library reader.
"""

import ast
from pathlib import Path

import pytest

from gelfand import cli
from gelfand.errors import SUITES

SRC = Path(__file__).resolve().parent.parent / "src" / "gelfand"
MODULES = sorted(SRC.glob("*.py"))
PROBE_ONLY = {("model_hecke", "minus_q_power")}
BENCH_ONLY = {
    ("perm", "square_roots_count"),
    ("perm", "bfs_word_lengths"),
    ("typeb", "b_square_roots_count"),
    ("typeb", "b_shortest_words"),
    ("model_hecke", "involutive_length"),
}


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


def _functions(trees):
    """(module, name) of every module-level function."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node.name


def _library_reads(trees):
    """(module, name) of every name a module loads in itself, reads off another module or imports."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and type(node.ctx) is ast.Load:
                yield module, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                yield node.value.id, node.attr
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield from ((node.module.split(".")[-1], alias.name) for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    unread = set(_imported(tree)) - _read(tree)
    assert unread == {name for module, name in PROBE_ONLY if module == path.stem}


def test_the_checks_see_string_annotations_and_dead_imports():
    tree = ast.parse("from a import B, C, D\nimport e.f\ndef g(x: 'B') -> 'list[C]': e.f\n")
    assert set(_imported(tree)) - _read(tree) == {"D"}


def test_every_function_is_read_by_library_code():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    suites = {
        (cli._SUITE_MODULES[scope].__name__.split(".")[-1], suite.function)
        for scope, suite in SUITES.items()
    }
    unread = set(_functions(trees)) - set(_library_reads(trees)) - suites
    assert unread == BENCH_ONLY


def test_the_function_check_sees_attributes_imports_and_own_names():
    trees = {
        "a": ast.parse("def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): f()\n"),
        "b": ast.parse("from .a import g\nfrom . import a\ndef m(): a.h\n"),
    }
    assert set(_functions(trees)) - set(_library_reads(trees)) == {("a", "k"), ("b", "m")}
