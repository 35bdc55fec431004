"""Span recorder that wraps the public functions of the atomol modules.

Only the benchmark imports this file, and only for a traced run: the
program itself is not changed.  `Tracer.install` replaces every public
function defined in an `atomol.*` module by a wrapper that records one
span per call (name, start, end, parent span).  A function is rebound
in every atomol module namespace that binds it, because a module calls
a function through its own binding (`cli` binds `scan_plane`, `regimes`
binds `real_cubic_roots`, `experiments` binds `solve_adaptive`).

A callable argument named `f` passed to an `atomol.integrate` function
is the right-hand side of an ODE solve: it is wrapped as one
`model.rhs` span per evaluation.  When such a solver call returns a
tuple whose first item is the array of recorded times, the number of
samples and whether an event state came back are stored with its span.

Spans stay in memory in flat arrays and are written out by `dump` once
the run ends.  Every span of one run carries the run id stored in the
file header.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
import uuid
from array import array

RHS_NAME = "model.rhs"


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names: list[str] = []
        self.name_idx = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.solves: list[tuple[int, int, bool]] = []  # (span, samples, event)
        self.wrapped: list[str] = []
        self.solvers: list[str] = []

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span_wrapper(self, fn, name: str):
        idx = self._name_index(name)
        name_idx, parent, start, end = (self.name_idx, self.parent,
                                        self.start, self.end)
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_idx.append(idx)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        wrapper.__bench_traced__ = True
        return wrapper

    def _solver_wrapper(self, fn, name: str):
        """Span wrapper that also wraps the RHS argument `f`."""
        params = list(inspect.signature(fn).parameters)
        pos = params.index("f")
        inner = self._span_wrapper(fn, name)
        solves = self.solves
        start = self.start

        def wrap_rhs(f):
            if not callable(f) or getattr(f, "__bench_traced__", False):
                return f
            return self._span_wrapper(f, RHS_NAME)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(args) > pos:
                args = args[:pos] + (wrap_rhs(args[pos]),) + args[pos + 1:]
            elif "f" in kwargs:
                kwargs["f"] = wrap_rhs(kwargs["f"])
            sid = len(start)
            out = inner(*args, **kwargs)
            if isinstance(out, tuple) and len(out) == 3 and hasattr(out[0], "__len__"):
                solves.append((sid, len(out[0]), out[2] is not None))
            return out

        wrapper.__bench_traced__ = True
        return wrapper

    def install(self, package: str = "atomol") -> None:
        """Wrap every public atomol function in every namespace binding it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        replacement: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(package + "."):
                    continue
                if obj.__name__.startswith("_") or attr.startswith("_"):
                    continue
                if id(obj) not in replacement:
                    short = obj.__module__[len(package) + 1:]
                    name = f"{short}.{obj.__name__}"
                    is_solver = (short == "integrate"
                                 and "f" in inspect.signature(obj).parameters)
                    make = self._solver_wrapper if is_solver else self._span_wrapper
                    replacement[id(obj)] = make(obj, name)
                    self.wrapped.append(name)
                    if is_solver:
                        self.solvers.append(name)
                setattr(mod, attr, replacement[id(obj)])

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "wrapped": sorted(self.wrapped),
            "solvers": sorted(self.solvers),
            "n_spans": len(self.start),
            "solves": self.solves,
            "arrays": ["name_idx:i", "parent:q", "start:q", "end:q"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_idx, self.parent, self.start, self.end):
                arr.tofile(fh)
