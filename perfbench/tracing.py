"""Layer tracing from outside the package.

`Tracer.install` wraps the public functions and public methods of every
weightcat layer module, and re-binds every name that points at a wrapped
function: the names bound by ``from .x import y`` (``degonemod.act_monomial``,
``cli.check_membership``) and function values held in module-level dicts
(``paperlab.LEMMAS``).  Private helpers are not wrapped; their time counts
toward the public caller.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of its child frames, so the self times of all
frames inside a job add up to the job's duration.  Coarse boundaries (the
job, module-level entry points of cli/categorio/extcoh/inducemod/paperlab and
every linalg call) are also recorded as spans: name, start, end, parent span
and job id.  Everything else (root and Weyl arithmetic, module methods,
``TruncatedVerma.act_root``) is kept as counts and times per (function,
parent function).  Everything stays in memory until the run writes it out.
"""
from __future__ import annotations

import functools
import gc
import inspect
import time
from collections import defaultdict
from typing import Dict, List, Optional

LAYERS = ("rootsys", "weylmod", "degonemod", "inducemod", "linalg", "categorio",
          "extcoh", "paperlab", "cli")
SPAN_LAYERS = ("cli", "categorio", "extcoh", "inducemod", "paperlab", "linalg")
# module-level functions of the span layers that are called per vector entry
HOT_FUNCTIONS = {"inducemod.vec_add", "inducemod.vec_scale", "inducemod.vec_combine"}
# methods recorded as spans although they are methods
SPAN_METHODS = {"inducemod.TruncatedVerma.kernel_data", "inducemod.TruncatedVerma.weight_space",
                "inducemod.TruncatedVerma.project"}
SPAN_LIMIT = 2_000_000


def _distinct_key_act_root(args, kwargs):
    return id(args[0]), tuple(args[1]), tuple(args[2])


def _distinct_key_kernel(args, kwargs):
    return id(args[0]), tuple(args[1])


DISTINCT = {"degonemod.DegreeOneModule.act_root": _distinct_key_act_root,
            "inducemod.TruncatedVerma.kernel_data": _distinct_key_kernel}


class Frame:
    """One active call.  `origin` is its own layer, or for a linalg call the
    nearest enclosing layer that is not linalg."""

    __slots__ = ("name", "layer", "parent", "child", "span", "origin")

    def __init__(self, name, layer, parent, span, origin):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child = 0.0
        self.span = span
        self.origin = origin


class Tracer:
    def __init__(self):
        self.root = Frame("bench", "bench", None, -1, "bench")
        self.stack: List[Frame] = [self.root]
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.calls: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.linalg_from: Dict[str, float] = defaultdict(float)
        self.distinct_sets: Dict[str, set] = {name: set() for name in DISTINCT}
        self.distinct_total: Dict[str, int] = defaultdict(int)
        self.nullspace = {"calls": 0, "rows": 0, "unique_rows": 0, "cells": 0}
        self.systems: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.gc_collections = 0
        self.gc_pause = 0.0
        self._gc_start: Optional[float] = None
        self.job_id = -1
        self.in_job = False
        self._undo: List[tuple] = []

    # -- installation ----------------------------------------------------------
    def install(self, modules: Dict[str, object], extra: List[object] = ()) -> None:
        """Wrap the public functions of `modules` (layer name -> module)."""
        wrapped: Dict[object, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(obj, layer, f"{layer}.{attr}", method=False)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for name, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not name.startswith("_"):
                            qual = f"{layer}.{obj.__name__}.{name}"
                            self._set(obj, name, self._wrap(fn, layer, qual, method=True))
        for mod in list(modules.values()) + list(extra):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._undo.append((obj.__setitem__, key, val))
                            obj[key] = wrapped[val]
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for setter, key, val in reversed(self._undo):
            setter(key, val)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _set(self, owner, attr, value) -> None:
        old = owner.__dict__[attr]
        self._undo.append((functools.partial(setattr, owner), attr, old))
        setattr(owner, attr, value)

    def _wrap(self, fn, layer: str, name: str, method: bool):
        span_kind = (name in SPAN_METHODS) if method else (
            layer in SPAN_LAYERS and name not in HOT_FUNCTIONS)
        key_fn = DISTINCT.get(name)
        stack = self.stack
        clock = time.perf_counter
        enter_hook = self._linalg_counts if layer == "linalg" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if key_fn is not None and tracer.in_job:
                tracer.distinct_sets[name].add(key_fn(args, kwargs))
            if enter_hook is not None and parent.layer != "linalg":
                enter_hook(name, parent.origin, args, kwargs)
            frame = Frame(name, layer, parent, -1, parent.origin if layer == "linalg" else layer)
            if span_kind:
                if len(tracer.spans) < SPAN_LIMIT:
                    frame.span = len(tracer.spans)
                    tracer.spans.append(None)
                else:
                    tracer.spans_dropped += 1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer._exit(frame, t0, t1)
        return wrapper

    def _exit(self, frame: Frame, t0: float, t1: float) -> None:
        dur = t1 - t0
        parent = frame.parent
        parent.child += dur
        own = dur - frame.child
        self.layer_self[frame.layer] += own
        if frame.layer == "linalg":
            self.linalg_from[frame.origin] += own
        rec = self.calls[(frame.name, parent.name)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += own
        if frame.span >= 0:
            self.spans[frame.span] = (frame.name, t0, t1, _span_of(parent), self.job_id)

    def _linalg_counts(self, name, origin, args, kwargs) -> None:
        mat = args[0] if args else kwargs.get("mat", kwargs.get("vec"))
        if name == "linalg.nullspace":
            ncols = args[1] if len(args) > 1 else kwargs["ncols"]
            ns = self.nullspace
            ns["calls"] += 1
            ns["rows"] += len(mat)
            ns["unique_rows"] += len({tuple(r) for r in mat})
            ns["cells"] += len(mat) * ncols
        if name in ("linalg.nullspace", "linalg.solve", "linalg.rref", "linalg.rank"):
            ncols = (args[1] if name == "linalg.nullspace" else (len(mat[0]) if mat else 0))
            rec = self.systems[origin]
            rec[0] += 1
            rec[1] += len(mat)
            rec[2] += ncols

    def _on_gc(self, phase, info) -> None:
        if not self.in_job:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- jobs ------------------------------------------------------------------
    def run_job(self, job_id: int, name: str, fn):
        """Run fn() as the root span of one job."""
        self.job_id = job_id
        frame = Frame(f"job.{name}", "job", self.root, len(self.spans), "job")
        self.spans.append(None)
        for s in self.distinct_sets.values():
            s.clear()
        self.stack.append(frame)
        self.in_job = True
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.in_job = False
            self.stack.pop()
            self._exit(frame, t0, t1)
            for key, s in self.distinct_sets.items():
                self.distinct_total[key] += len(s)

    # -- results ---------------------------------------------------------------
    def count(self, name: str) -> int:
        return sum(rec[0] for (fn, _), rec in self.calls.items() if fn == name)

    def self_time(self, name: str) -> float:
        return sum(rec[2] for (fn, _), rec in self.calls.items() if fn == name)

    def jobs_time(self) -> float:
        return sum(rec[1] for (fn, parent), rec in self.calls.items() if parent == "bench")

    def spans_dict(self) -> List[Dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4]}
                for s in self.spans if s is not None]

    def calls_dict(self) -> List[Dict]:
        return [{"function": fn, "parent": parent, "calls": rec[0], "total_s": rec[1],
                 "self_s": rec[2]} for (fn, parent), rec in sorted(self.calls.items())]


def _span_of(frame: Frame) -> int:
    while frame is not None and frame.span < 0:
        frame = frame.parent
    return -1 if frame is None else frame.span


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
