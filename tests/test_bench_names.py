"""Every function name the benchmark reads still exists in the library.

``perfbench/run.py`` and ``perfbench/tracer.py`` look functions up by their
dotted names only during a traced run, which pytest never starts; a renamed
function would otherwise surface as a KeyError or a silent zero there.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _call_args(tree, func):
    """String arguments of every call to the plain name ``func``."""
    return {
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == func
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }


def _assigned_strings(tree, target):
    """String constants in the value assigned to the module-level name ``target``."""
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and target in targets:
            value = node.value
            items = value.keys if isinstance(value, ast.Dict) else value.elts
            return {item.value for item in items}
    raise AssertionError(f"{target} not found")


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"gelfand.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


RUN = _tree("run.py")
TRACER = _tree("tracer.py")
CACHED = sorted(_call_args(RUN, "cache_ratio"))
NAMES = sorted(
    _call_args(RUN, "calls")
    | set(CACHED)
    | _assigned_strings(TRACER, "ARG_COUNTERS")
    | _assigned_strings(TRACER, "GENERATOR_BUILDERS")
)


def test_names_were_found():
    assert "perm.compose" in NAMES and "typeb.rho_b_generator" in NAMES
    assert "model_sn.model_basis" in CACHED


@pytest.mark.parametrize("name", NAMES)
def test_name_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", CACHED)
def test_cache_ratio_name_is_lru_cached(name):
    assert isinstance(_resolve(name), functools._lru_cache_wrapper)
