"""In-memory span tracer that wraps sharpmin's public functions from outside.

``Tracer.install()`` replaces every public function of the traced modules
with a wrapper that records one span per call: name, start, end, parent span
and job id.  ``cheeger`` and ``wsm`` import names from their siblings, so
each wrapper is written into every sharpmin module namespace that holds the
original function, which is where the call looks it up.  ``uninstall()``
puts the originals back.  ``Point`` and ``Tangent`` validations are counted
(no span) by wrapping ``__post_init__``.

A few results are also read off return values and exceptions as counters:
oracle assignments, refutations, skipped refuter samples, distance brackets
and alternation failures.  Spans stay in memory; ``write()`` saves them as
one compressed ``.npz`` file.  Self time is a span's duration minus the
durations of its direct children (calls are nested on one thread, so the
children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED_MODULES = ("cheeger", "stiefel", "wsm", "cones", "manifolds", "cli")
VALIDATED_CLASSES = (("manifolds", "Point"), ("manifolds", "Tangent"))


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the summed duration of the spans
    whose parent it is.  ``parents[i]`` is -1 for a root span."""
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    par = np.asarray(parents, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = par >= 0
    np.add.at(child, par[has_parent], dur[has_parent])
    return dur - child


class Tracer:
    def __init__(self, package: str = "sharpmin"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counters: dict[str, float] = {}
        self.bracket_gaps: list[float] = []
        self.job_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span named ``name``; ``observe``
        sees (args, kwargs, result, exception) after the call."""
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(math.nan)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            self.end[idx] = time.perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    # -- observers for counters read off results ---------------------------

    def _observe(self, name: str):
        if name == "cheeger.exact_cheeger":
            def obs(args, kwargs, result, exc):
                graph = args[0] if args else kwargs["graph"]
                k = args[1] if len(args) > 1 else kwargs["k"]
                if exc is None:
                    self.count(name + ".assignments", (k + 1) ** graph.n)
            return obs
        if name == "cheeger.dist_upper_estimate":
            def obs(args, kwargs, result, exc):
                if exc is not None:
                    if type(exc).__name__ == "AlternationError":
                        self.count(name + ".alternation_errors")
                else:
                    self.bracket_gaps.append(result.ub - result.lb)
            return obs
        if name == "wsm.verify_wsm_sampled":
            def obs(args, kwargs, result, exc):
                if exc is None:
                    self.count(f"{name}.status.{result.status}")
            return obs
        if name in ("cones.frechet_subdiff_refute", "cones.frechet_normal_refute"):
            def obs(args, kwargs, result, exc):
                if exc is None:
                    self.count(name + ".refuted", int(result.refuted))
                    self.count(name + ".skipped_samples", result.skipped_samples)
            return obs
        return None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {m: sys.modules[f"{self.package}.{m}"] for m in TRACED_MODULES}
        wrappers = {}  # id(original) -> (original, wrapper); namespaces hold unhashables
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # imported name: wrapped under its home module
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.span(name, obj, self._observe(name)))
        prefix = self.package + "."
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == self.package or key.startswith(prefix))]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        for short, cls_name in VALIDATED_CLASSES:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, "__post_init__",
                        self._counting(cls.__post_init__, f"{short}.{cls_name}.validations"))

    def _counting(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> dict:
        """{span name: {"calls": n, "self_s": seconds}} over all spans."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        own = self_times(self.start, self.end, self.parent)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def bracket_gap_median(self) -> float:
        return statistics.median(self.bracket_gaps) if self.bracket_gaps else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
        )
