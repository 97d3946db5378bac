"""Run one ``gelfand`` CLI call with every layer's functions wrapped in spans.

Usage: python tracer.py TRACE_OUT INVOCATION_ID -- CLI_ARGS...

The package sources are left untouched: after ``import gelfand.cli`` this
script replaces every module-level function, every class method and every
binding of them (including names imported into other modules and values of
module-level dicts) with a timing wrapper.  The CLI call's stdout and exit
code are those of ``python -m gelfand.cli CLI_ARGS``.

Per call each wrapper adds to its function's count and inclusive time, and
to its layer's self time: the span's duration minus the part covered by
nested spans.  Spans of at least SPAN_MIN_S are also kept individually
(id, parent id, invocation id, name, start, end); shorter ones, including
the hot leaves called millions of times, exist only in the aggregates, so
memory stays flat.  Everything is written as JSON to TRACE_OUT when the call
returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from math import factorial

LAYER_OF_MODULE = {
    "gelfand.perm": "perm",
    "gelfand.qpoly": "qpoly",
    "gelfand.model_sn": "model_sn",
    "gelfand.model_hecke": "model_hecke",
    "gelfand.rsk": "rsk",
    "gelfand.typeb": "typeb",
    "gelfand.cli": "cli",
    "gelfand.report": "cli",
    "gelfand.errors": "cli",
}
LAYERS = ("perm", "qpoly", "model_sn", "model_hecke", "rsk", "typeb", "cli")
SPAN_MIN_S = 1e-3

_FUNCTION_TYPES = (type(lambda: None), functools._lru_cache_wrapper)


def _perms_swept(args, result):
    return "perm.perms_swept", factorial(len(args[0]))


def _bfs_swept(args, result):
    return "perm.perms_swept", factorial(args[0])


def _b_roots_swept(args, result):
    n = len(args[0])
    return "typeb.elements_swept", factorial(n) * 2**n


def _b_classes_swept(args, result):
    # Every class representative is conjugated by every element of B_n.
    n = args[0]
    return "typeb.elements_swept", factorial(n) * 2**n * len(result)


def _matmul_nnz(args, result):
    return "qpoly.matmul_nnz_in", len(args[0].entries) + len(args[1].entries)


# Counts computed from the arguments (and result) of a boundary call.
ARG_COUNTERS = {
    "perm.square_roots_count": _perms_swept,
    "perm.bfs_word_lengths": _bfs_swept,
    "typeb.b_square_roots_count": _b_roots_swept,
    "typeb.b_conjugacy_class_reps": _b_classes_swept,
    "qpoly.PolyMatrix.__matmul__": _matmul_nnz,
}

# Generator-matrix builders: the distinct (n, i) pairs they were asked for.
GENERATOR_BUILDERS = ("model_hecke.rho_q_generator", "typeb.rho_b_generator")


class Tracer:
    """Span bookkeeping for one process; created once, before patching."""

    def __init__(self, invocation: str) -> None:
        self.invocation = invocation
        self.layer_self = [0.0] * len(LAYERS)
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.generator_keys: dict[str, set] = {name: set() for name in GENERATOR_BUILDERS}
        self.spans: list[tuple] = []
        self.next_id = 1
        # Frames are [time covered by nested spans, span id or None].  The
        # bottom frame (id 0) collects the duration of the outermost spans.
        self.stack: list[list] = [[0.0, 0]]
        self.originals: dict[int, object] = {}
        self.wrappers: dict[int, object] = {}
        self.caches: dict[str, object] = {}

    def wrap(self, fn, name: str, layer: str):
        key = id(fn)
        if key in self.wrappers:
            return self.wrappers[key]
        layer_idx = LAYERS.index(layer)
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        layer_self = self.layer_self
        spans = self.spans
        invocation = self.invocation
        pc = time.perf_counter
        counter = ARG_COUNTERS.get(name)
        generator_keys = self.generator_keys.get(name)
        tracer = self

        def frame_id(frame):
            if frame[1] is None:
                frame[1] = tracer.next_id
                tracer.next_id += 1
            return frame[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = pc()
            frame = [0.0, None]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    cname, amount = counter(args, result)
                    tracer.counters[cname] = tracer.counters.get(cname, 0) + amount
                if generator_keys is not None:
                    generator_keys.add((args[1].n, args[0]))
                return result
            finally:
                stack.pop()
                t1 = pc()
                stat[0] += 1
                stat[1] += t1 - t0
                if t1 - t0 >= SPAN_MIN_S:
                    spans.append(
                        (frame_id(frame), frame_id(stack[-1]), invocation, name, t0, t1)
                    )
                # Measured last, so the bookkeeping above counts for this span.
                dt = pc() - t0
                layer_self[layer_idx] += dt - frame[0]
                stack[-1][0] += dt

        self.wrappers[key] = traced
        self.originals[key] = fn
        if isinstance(fn, functools._lru_cache_wrapper):
            self.caches[name] = fn
        return traced

    def install(self) -> None:
        """Wrap every function of every layer module and rebind every name."""
        modules = [importlib.import_module(m) for m in LAYER_OF_MODULE]
        for mod in modules:
            layer = LAYER_OF_MODULE[mod.__name__]
            for attr, value in list(vars(mod).items()):
                if isinstance(value, _FUNCTION_TYPES) and value.__module__ == mod.__name__:
                    self.wrap(value, f"{layer}.{attr}", layer)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in self.wrappers:
                    setattr(mod, attr, self.wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in self.wrappers:
                            value[k] = self.wrappers[id(v)]

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, _FUNCTION_TYPES):
                setattr(cls, attr, self.wrap(value, name, layer))
            elif isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr, type(value)(self.wrap(value.__func__, name, layer)))
            elif isinstance(value, property) and value.fget is not None:
                setattr(cls, attr, property(self.wrap(value.fget, name, layer)))

    def unwrapped_bindings(self) -> list[str]:
        """Names in the layer modules that still refer to an unwrapped original."""
        out = []
        for modname in LAYER_OF_MODULE:
            mod = sys.modules[modname]
            for attr, value in vars(mod).items():
                if id(value) in self.originals:
                    out.append(f"{modname}.{attr}")
                elif isinstance(value, dict):
                    out += [f"{modname}.{attr}[{k!r}]" for k, v in value.items() if id(v) in self.originals]
                elif isinstance(value, type) and value.__module__ == modname:
                    for cattr, cvalue in vars(value).items():
                        inner = getattr(cvalue, "__func__", getattr(cvalue, "fget", cvalue))
                        if id(inner) in self.originals:
                            out.append(f"{modname}.{value.__name__}.{cattr}")
        return out

    def dump(self, path: str, t_main0: float, t_main1: float) -> None:
        payload = {
            "invocation": self.invocation,
            "t_main0": t_main0,
            "t_main1": t_main1,
            "layer_self_s": dict(zip(LAYERS, self.layer_self)),
            "functions": {k: v for k, v in self.stats.items() if v[0]},
            "counters": self.counters,
            "generator_keys": {k: len(v) for k, v in self.generator_keys.items()},
            "caches": {k: list(f.cache_info())[:2] for k, f in self.caches.items()},
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_OUT INVOCATION_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, invocation, cli_args = argv[0], argv[1], argv[3:]
    import gelfand.cli

    tracer = Tracer(invocation)
    tracer.install()
    missed = tracer.unwrapped_bindings()
    if missed:
        print(f"tracer left unwrapped bindings: {missed}", file=sys.stderr)
        return 3
    t_main0 = time.perf_counter()
    try:
        code = gelfand.cli.main(cli_args)
    finally:
        t_main1 = time.perf_counter()
        sys.stdout.flush()
        tracer.dump(out_path, t_main0, t_main1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
