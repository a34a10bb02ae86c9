"""Span tracer for the benchmark's traced run, kept outside the library.

`Tracer.install` wraps every public function of each layer module of
`orthoglide` and rebinds the wrapper wherever an `orthoglide.*` module binds
the original: as a module attribute and as a `from .x import y` name.  The
functions are found by inspection, so a function added or renamed inside a
layer is traced without a change here.  Public `read_*` / `write_*`
functions form the `io` layer instead of their module's layer, so that
formatting and parsing time is reported apart from the computation.

Spans stay in memory; `summary` reduces them to per-layer metrics and
`write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "synthesis", "workspace", "kinematics", "linalg3", "performance", "trajectory")
IO = "io"


def _leading(value, trailing: int) -> int:
    """Batch size of an array argument: product of all but `trailing` dims."""
    shape = np.shape(value)
    return int(np.prod(shape[: max(len(shape) - trailing, 0)]))


def _nodes(result) -> int:
    n = getattr(result, "n_points", None)
    if n is not None:
        return int(n)
    return len(result) if isinstance(result, list) else 1


def _waypoints(result) -> int:
    times = getattr(result, "times", None)
    return 1 if times is None else len(times)


# batch size passed into one call of each layer: matrices for linalg3, poses
# for kinematics, grid nodes for workspace, waypoints for trajectory,
# reports for performance (one per 3x3 matrix or pose), requests for
# synthesis, commands for cli
ITEMS = {
    "cli": lambda args, result: 1,
    "synthesis": lambda args, result: 1,
    "workspace": lambda args, result: _nodes(result),
    "kinematics": lambda args, result: _leading(args[0], 1) if args else 1,
    "linalg3": lambda args, result: _leading(args[0], 2) if args else 1,
    "performance": lambda args, result: _leading(args[0], 2) if args else 1,
    "trajectory": lambda args, result: _waypoints(result),
}


def _spectral(args, result) -> bool:
    """A linalg3 call is spectral when it returns 3 values per input matrix
    (eigen- or singular values), as opposed to one (a determinant)."""
    first = result[0] if isinstance(result, tuple) else result
    return bool(args) and np.ndim(first) == np.ndim(args[0]) - 1


def _file_bytes(args, kwargs) -> int:
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            return os.path.getsize(value)
    return 0


class Tracer:
    """Records one span per call into a layer while installed.

    A span is (layer, function, start_ns, end_ns, parent index, outermost,
    items, extra): `outermost` is set when no enclosing span belongs to the
    same layer; `extra` holds file bytes for io spans and the spectral flag
    for linalg3 spans.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._depth = dict.fromkeys((*LAYERS, IO), 0)
        self._hooks: dict = {}  # original function -> wrapper
        self._bindings: list = []  # (module, attribute, original)
        self.found = dict.fromkeys(LAYERS, 0)

    def discover(self) -> None:
        """Wrap the public functions defined in each layer module."""
        for layer in LAYERS:
            mod = importlib.import_module(f"orthoglide.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                io = name.startswith(("read_", "write_"))
                self._hooks[obj] = self._wrap(IO if io else layer, f"{layer}.{name}", obj)
                self.found[layer] += 1
        # the CLI has no plain public functions: its entry point is the
        # click group, which the worker calls through `span("cli", ...)`
        if hasattr(importlib.import_module("orthoglide.cli"), "main"):
            self.found["cli"] += 1

    def missing(self) -> list[str]:
        return [layer for layer, n in self.found.items() if n == 0]

    def install(self) -> None:
        """Rebind every `orthoglide.*` name that refers to a hooked function."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "orthoglide" or mod_name.startswith("orthoglide.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._hooks:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, self._hooks[value])

    def uninstall(self) -> None:
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    def _enter(self, layer: str) -> tuple[int, int, bool]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        self._depth[layer] += 1
        return idx, parent, self._depth[layer] == 1

    def _exit(self, layer: str) -> None:
        self._stack.pop()
        self._depth[layer] -= 1

    def _wrap(self, layer: str, qualname: str, fn):
        count = ITEMS.get(layer)

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            idx, parent, outer = self._enter(layer)
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                self._exit(layer)
                if layer == IO:
                    items, extra = 1, _file_bytes(args, kwargs)
                else:
                    items = count(args, result)
                    extra = _spectral(args, result) if layer == "linalg3" else 0
                self.spans[idx] = (layer, qualname, t0, t1, parent, outer, items, extra)

        return hook

    def span(self, layer: str, qualname: str, fn, *args, **kwargs):
        """Call fn inside a span of `layer` (used for the CLI entry point)."""
        return self._wrap(layer, qualname, fn)(*args, **kwargs)

    def summary(self, stop: int | None = None) -> dict:
        """Per-layer metrics over spans[:stop], which must end on a command.

        calls, items and busy_s count a layer's outermost spans only, so a
        call nested in the same layer is not counted twice.  self_s is the
        time in which the innermost open span belongs to the layer: busy_s
        minus the time its child spans in other layers cover.  A ratio
        whose denominator layer did not run is reported as 0.
        """
        spans = self.spans[:stop]
        names = (*LAYERS, IO)
        calls = dict.fromkeys(names, 0)
        items = dict.fromkeys(names, 0)
        busy = dict.fromkeys(names, 0)
        child = [0] * len(spans)
        for layer, _, t0, t1, parent, outer, n, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            if outer:
                calls[layer] += 1
                items[layer] += n
                busy[layer] += t1 - t0
        own = dict.fromkeys(names, 0)
        for k, (layer, _, t0, t1, *_rest) in enumerate(spans):
            own[layer] += t1 - t0 - child[k]

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.items"] = items[layer]
            out[f"{layer}.busy_s"] = busy[layer] * 1e-9
            out[f"{layer}.self_s"] = own[layer] * 1e-9
        out["io.busy_s"] = busy[IO] * 1e-9
        out["io.bytes"] = sum(s[7] for s in spans if s[0] == IO and s[5])

        def ratio(num, den):
            return num / den if den else 0.0

        out["linalg3.s_per_matrix"] = ratio(out["linalg3.busy_s"], items["linalg3"])
        out["linalg3.matrices_per_node"] = ratio(items["linalg3"], items["workspace"])
        # spectral kernel calls per transmission report: a report is an
        # outermost performance call that reaches the spectral kernel
        reports, kernel_calls = set(), 0
        for layer, _, _, _, parent, outer, _, spectral in spans:
            if layer != "linalg3" or not (outer and spectral):
                continue
            while parent >= 0 and not (spans[parent][0] == "performance" and spans[parent][5]):
                parent = spans[parent][4]
            if parent >= 0:
                reports.add(parent)
                kernel_calls += 1
        out["linalg3.calls_per_report"] = ratio(kernel_calls, len(reports))
        ik = sum(
            1 for s in spans if s[0] == "kinematics" and s[5] and "inverse_kinematics" in s[1]
        )
        out["kinematics.ik_calls_per_waypoint"] = ratio(ik, items["trajectory"])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("index,layer,function,start_ns,end_ns,parent,outermost,items,extra\n")
            for k, s in enumerate(self.spans):
                f.write(f"{k},{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{int(s[5])},{s[6]},{int(s[7])}\n")
