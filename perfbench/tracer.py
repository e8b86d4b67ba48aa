"""Span recorder for the traced run, installed from outside the program.

`instrument()` wraps every public function of the layer modules (cli, curve,
biarc, interpolate, energy, optimize) and rebinds each name that refers to it
in any loaded biarcs module, so calls across modules (`from .energy import
pair_quotients`) and dispatch tables (`cli.COMMANDS`) go through the wrapper.
geom only serves biarc construction and is not wrapped: its time counts
under biarc. The position/derivative callables of every CurveSpec that a
curve function returns are wrapped as `curve.spec_eval` spans whose size is
the number of points evaluated.

Each span is [name index, start ns, end ns, parent span index, size], where
size is the call's input size (n, grid, or points) or None. Spans stay in
memory and are written out once, by `Recorder.dump`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from biarcs import biarc, cli, curve, energy, interpolate, optimize

LAYERS = (cli, curve, biarc, interpolate, energy, optimize)
# argument names that give a call's input size, in order of preference
SIZE_PARAMS = ("grid", "points", "beta", "initial", "partition", "n")
SPEC_CALLABLES = ("position", "derivative", "second_derivative")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts = {"thickness.objective_evals": 0}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size_of):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0, 0, stack[-1] if stack else -1, size_of(args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.traced_by_perfbench = True
        return traced

    def dump(self, path, **extra) -> None:
        payload = {"names": self.names, "spans": self.spans, "counts": self.counts, **extra}
        Path(path).write_text(json.dumps(payload))


def _size(value):
    if value is None:
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    for attr in ("n_segments", "n"):  # BiarcCurve, Partition
        if hasattr(value, attr):
            return int(getattr(value, attr))
    return len(value)


def _no_size(args, kwargs):
    return None


def _points(args, kwargs):
    return int(np.size(args[0]))


def _size_getter(fn):
    params = list(inspect.signature(fn).parameters.values())
    for wanted in SIZE_PARAMS:
        for index, param in enumerate(params):
            if param.name != wanted:
                continue
            default = None if param.default is param.empty else param.default

            def get(args, kwargs, index=index, name=wanted, default=default):
                return _size(args[index] if index < len(args) else kwargs.get(name, default))

            return get
    return _no_size


def _traced_spec(recorder: Recorder, spec):
    fields = {}
    for field in SPEC_CALLABLES:
        fn = getattr(spec, field)
        if fn is not None and not getattr(fn, "traced_by_perfbench", False):
            fields[field] = recorder.wrap("curve.spec_eval", fn, _points)
    return dataclasses.replace(spec, **fields) if fields else spec


def _returning_traced_specs(recorder: Recorder, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        if isinstance(result, curve.CurveSpec):
            result = _traced_spec(recorder, result)
        return result

    return call


def _counting_nfev(recorder: Recorder, minimize):
    @functools.wraps(minimize)
    def call(*args, **kwargs):
        result = minimize(*args, **kwargs)
        recorder.counts["thickness.objective_evals"] += int(result.nfev)
        return result

    return call


def instrument() -> Recorder:
    recorder = Recorder()
    replaced = {}  # id(original) -> (original, wrapper)
    for module in LAYERS:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                fn = _returning_traced_specs(recorder, obj) if module is curve else obj
                wrapper = recorder.wrap(f"{layer}.{name}", fn, _size_getter(obj))
                replaced[id(obj)] = (obj, wrapper)
    # the thickness search's solver, while it is scipy's Nelder-Mead
    solver = getattr(energy, "minimize", None)
    if solver is not None:
        replaced[id(solver)] = (solver, _counting_nfev(recorder, solver))

    def swap(value):
        hit = replaced.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for modname, module in list(sys.modules.items()):
        if modname != "biarcs" and not modname.startswith("biarcs."):
            continue
        for name, obj in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    obj[key] = swap(value)
            elif swap(obj) is not obj:
                setattr(module, name, swap(obj))
    return recorder
