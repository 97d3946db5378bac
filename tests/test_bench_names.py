"""Every function name the benchmark reads still exists in the library.

``perfbench/run.py`` and ``perfbench/tracer.py`` look functions up by their
dotted names only during a traced run, which pytest never starts; a renamed
function would otherwise surface as a KeyError or a silent zero there.  The
rebinding probe of ``perfbench/selftest.py`` reads bindings such as
``model_hecke.minus_q_power``; deleting one would otherwise fail only that
selftest.
"""

import ast
import functools
import importlib
import json
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


def _assigned(tree, target):
    """The value assigned to the module-level name ``target``."""
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and target in targets:
            return node.value
    raise AssertionError(f"{target} not found")


def _assigned_strings(tree, target):
    """String constants in the value assigned to the module-level name ``target``."""
    value = _assigned(tree, target)
    items = value.keys if isinstance(value, ast.Dict) else value.elts
    return {item.value for item in items}


def _reads_module(node, modules):
    """True for an attribute or constant-key subscript chain rooted at one of ``modules``."""
    if isinstance(node, ast.Name):
        return node.id in modules
    if isinstance(node, ast.Attribute):
        return _reads_module(node.value, modules)
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        return _reads_module(node.value, modules)
    return False


def _probed_chains():
    """Every chain such as ``model_hecke.minus_q_power`` that selftest's rebinding probe reads.

    The probe is a script in a string, run in a child process by
    ``perfbench/selftest.py`` only; its chains start at the modules it imports
    with ``from gelfand import ...``.
    """
    probe = ast.parse(_assigned(_tree("selftest.py"), "REBINDING_PROBE").value)
    modules = {
        alias.name
        for node in ast.walk(probe)
        if isinstance(node, ast.ImportFrom) and node.module == "gelfand"
        for alias in node.names
    }
    chains = [node for node in ast.walk(probe) if isinstance(node, (ast.Attribute, ast.Subscript))]
    inner = {id(node.value) for node in chains}
    return sorted(
        {
            ast.unparse(node)
            for node in chains
            if id(node) not in inner and _reads_module(node, modules)
        }
    )


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"gelfand.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _evaluate_chain(node):
    if isinstance(node, ast.Name):
        return importlib.import_module(f"gelfand.{node.id}")
    if isinstance(node, ast.Attribute):
        return getattr(_evaluate_chain(node.value), node.attr)
    return _evaluate_chain(node.value)[node.slice.value]


RUN = _tree("run.py")
TRACER = _tree("tracer.py")
CACHED = sorted(_call_args(RUN, "cache_ratio"))
NAMES = sorted(
    _call_args(RUN, "calls")
    | set(CACHED)
    | _assigned_strings(TRACER, "ARG_COUNTERS")
    | _assigned_strings(TRACER, "GENERATOR_BUILDERS")
)
PROBED = _probed_chains()
# Each cache.<module>.<function>.<stat> metric of BENCHMARK.json is read off
# that function's lru_cache in a traced run; an uncached or deleted builder
# would leave the metric off the run's last line.
BENCH_CACHES = sorted(
    {
        ".".join(m["name"].split(".")[1:3])
        for m in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
        if m["name"].startswith("cache.")
    }
)


def test_names_were_found():
    assert "perm.compose" in NAMES and "typeb.rho_b_generator" in NAMES
    assert "model_sn.model_basis" in CACHED
    assert "model_hecke.minus_q_power" in PROBED
    assert "qpoly.QPoly.__dict__['constant'].__func__" in PROBED
    assert "typeb.b_shortest_words" in BENCH_CACHES


@pytest.mark.parametrize("name", NAMES)
def test_name_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", CACHED)
def test_cache_ratio_name_is_lru_cached(name):
    assert isinstance(_resolve(name), functools._lru_cache_wrapper)


@pytest.mark.parametrize("name", BENCH_CACHES)
def test_benchmark_cache_name_is_lru_cached(name):
    assert isinstance(_resolve(name), functools._lru_cache_wrapper)


@pytest.mark.parametrize("chain", PROBED)
def test_probed_chain_resolves(chain):
    _evaluate_chain(ast.parse(chain, mode="eval").body)
