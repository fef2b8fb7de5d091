"""Module-boundary tracer for the solvloop package.

Every module of the package is one layer.  Installing a Tracer finds the
public functions of each module at run time and rebinds every module-level
name that refers to one of them (the defining module's own name, and each
``from .x import f`` copy in the other modules) to a wrapper.  A
``FunctionSpec.__call__`` method, wherever that class lives, is wrapped the
same way.  Nothing in the package is edited, and a function that a later
version renames or deletes simply has no counter.

A call whose caller runs in the same layer is counted only.  A call that
enters the layer from another layer (or from the harness) is counted and
also opens a span: parent span, layer, function, start and end in
nanoseconds.  Spans are kept in compact in-memory columns and written to
one ``.npz`` file by ``dump``, with the trace id shared by all spans of the
command.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

import numpy as np

# Functions whose inclusive time is accumulated over every call, and the
# root solvers whose calls are counted while one of them is running.
INCLUSIVE = ("loops.loop_rdiv", "group.exp_alg")
ROOT_SOLVERS = ("numerics.root1d", "numerics.root2d")
# Functions that return None for a Newton start that did not converge.
NEWTON_STARTS = ("numerics.newton2d",)
SECTION_CALL = "FunctionSpec.__call__"


class Tracer:
    def __init__(self, package) -> None:
        self.layers: list[str] = []
        self.funcs: list[str] = []
        self.calls: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.inclusive_ns: dict[str, int] = {}
        self.solver_calls_within: dict[str, int] = {}
        self.converged: dict[str, int] = {}
        self.fn_points = 0
        self._layer_stack = [-1]
        self._span_stack = [-1]
        self._parent = array("q")
        self._layer = array("q")
        self._func = array("q")
        self._start = array("q")
        self._end = array("q")
        self._install(package)

    # ------------------------------------------------------------ discovery

    def _install(self, package) -> None:
        modules = {
            info.name: importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("_")
        }
        self.layers = sorted(modules)
        cls_name, method = SECTION_CALL.split(".")
        replaced: dict[int, object] = {}
        for layer_id, name in enumerate(self.layers):
            module = modules[name]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, layer_id, f"{name}.{attr}")
                elif attr == cls_name and inspect.isclass(obj) and method in vars(obj):
                    key = f"{name}.{SECTION_CALL}"
                    setattr(obj, method, self._wrap(vars(obj)[method], layer_id, key, points=True))
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])

    # ------------------------------------------------------------- wrappers

    def _wrap(self, fn, layer_id: int, key: str, points: bool = False):
        func_id = len(self.funcs)
        self.funcs.append(key)
        self.calls[key] = 0
        self.raised[key] = 0
        calls, raised = self.calls, self.raised
        layers, spans = self._layer_stack, self._span_stack
        parent, layer_col, func_col = self._parent, self._layer, self._func
        start, end = self._start, self._end
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if points:
                tracer.fn_points += max(getattr(a, "size", 1) for a in args[1:]) if len(args) > 1 else 1
            if layers[-1] == layer_id:
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    raised[key] += 1
                    raise
            index = len(start)
            parent.append(spans[-1])
            layer_col.append(layer_id)
            func_col.append(func_id)
            end.append(0)
            layers.append(layer_id)
            spans.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[key] += 1
                raise
            finally:
                end[index] = clock()
                layers.pop()
                spans.pop()

        if key in INCLUSIVE:
            return self._inclusive(traced, key)
        if key in NEWTON_STARTS:
            return self._convergence(traced, key)
        return traced

    def _inclusive(self, inner, key: str):
        calls, total_ns, within = self.calls, self.inclusive_ns, self.solver_calls_within
        total_ns[key] = 0
        within[key] = 0
        clock = time.perf_counter_ns

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            solves = sum(calls.get(s, 0) for s in ROOT_SOLVERS)
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                total_ns[key] += clock() - t0
                within[key] += sum(calls.get(s, 0) for s in ROOT_SOLVERS) - solves

        return timed

    def _convergence(self, inner, key: str):
        converged = self.converged
        converged[key] = 0

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            if result is not None:
                converged[key] += 1
            return result

        return counted

    # ---------------------------------------------------------------- output

    def dump(self, path: str, trace_id: str) -> None:
        """Write the spans and counters of one command to ``path`` (an .npz file)."""
        meta = {
            "trace_id": trace_id,
            "layers": self.layers,
            "funcs": self.funcs,
            "calls": self.calls,
            "raised": self.raised,
            "inclusive_ns": self.inclusive_ns,
            "solver_calls_within": self.solver_calls_within,
            "converged": self.converged,
            "fn_points": self.fn_points,
        }
        columns = {
            name: np.frombuffer(col, dtype=np.int64)
            for name, col in (
                ("parent", self._parent),
                ("layer", self._layer),
                ("func", self._func),
                ("start", self._start),
                ("end", self._end),
            )
        }
        np.savez(path, meta=np.array(json.dumps(meta)), **columns)
