"""Span tracing of the nrpbench layers from outside the package.

The package has no tracing of its own, so :class:`Tracer` rebinds every
public function of the layer modules (``generate``, ``model``,
``fileformat``, ``aco``, ``local_search``, ``baselines``, ``bench``) in
*every* package module that holds a reference to it: ``evaluate`` is bound
separately in ``model``, ``aco``, ``local_search``, ``baselines``,
``bench`` and the package namespace, ``sweep_improve`` in ``aco``, and so
on.  ``CoverTracker.add`` is wrapped on the class and ``Path.write_text``
too (``run_bench`` writes its dumps inline through it).  ``lundy_mees`` is
counted, not timed: it is a one-line formula called once per annealing
step.  Nothing under ``src/`` changes.

Spans live in memory (name, start, end, parent) until :meth:`Tracer.dump`
writes them once.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pathlib
import time
import tracemalloc
from array import array
from collections import defaultdict

import bootstrap  # noqa: F401  (before numpy: single-threaded BLAS, src/ on the path)
import nrpbench
from nrpbench import baselines, local_search, model

# by import path: the package attribute ``nrpbench.generate`` is the function
LAYERS = tuple(importlib.import_module(f"nrpbench.{name}") for name in (
    "generate", "model", "fileformat", "aco", "local_search", "baselines", "bench"))
# every module whose namespace may hold a reference to a layer function
HOLDERS = (nrpbench, *LAYERS, importlib.import_module("nrpbench.cli"),
           importlib.import_module("nrpbench.rng"))

_NO_PARENT = -1


class Tracer:
    """In-memory span recorder that installs itself around the package."""

    def __init__(self):
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        # per span: annealing steps, improved flags, retained bytes
        self.extra: dict[int, dict[str, float]] = {}
        self.lundy_mees_steps = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self._names)
            self._names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, outcome=None):
        """Span around ``fn``; ``outcome(idx, args, kwargs, result)`` adds extras."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if outcome is not None:
                outcome(idx, args, kwargs, result)
            return result
        return traced

    def _climb_outcome(self, fn):
        sig = inspect.signature(fn)

        def outcome(idx, args, kwargs, result):
            start = sig.bind(*args, **kwargs).arguments["start"]
            self.extra[idx] = {"improved": float(result.profit > start.profit)}
        return outcome

    def _sa(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps0 = self.lundy_mees_steps
            idx = self._open("baselines.sa")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            params = sig.bind(*args, **kwargs).arguments["params"]
            steps = self.lundy_mees_steps - steps0
            self.extra[idx] = {"attempts": float(steps * params.moves_per_temp)}
            return result
        return traced

    def _lundy_mees(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.lundy_mees_steps += 1
            return fn(*args, **kwargs)
        return counted

    def _make_instance(self, fn):
        """Span that also records the bytes a build retains, when tracemalloc runs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else None
            idx = self._open("model.make_instance")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if before is not None:
                self.extra[idx] = {"alloc_bytes": float(tracemalloc.get_traced_memory()[0] - before)}
            return result
        return traced

    # -- installation -------------------------------------------------------

    def _wrapper_for(self, layer: str, name: str, fn):
        if fn is baselines.lundy_mees:
            return self._lundy_mees(fn)
        if fn is baselines.sa:
            return self._sa(fn)
        if fn is model.make_instance:
            return self._make_instance(fn)
        if fn in (local_search.improve, local_search.sweep_improve):
            return self._wrap(f"{layer}.{name}", fn, self._climb_outcome(fn))
        return self._wrap(f"{layer}.{name}", fn)

    def install(self) -> None:
        """Rebind every public layer function wherever the package refers to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrapper_for(layer, name, fn))
        for mod in HOLDERS:
            for name, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, name, val))
                    setattr(mod, name, hit[1])
        for owner, attr, name in ((model.CoverTracker, "add", "model.cover_add"),
                                  (pathlib.Path, "write_text", "bench.write_file")):
            # None: the method was inherited, so undo deletes the override
            self._undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pairs of marks delimit a phase."""
        return len(self.starts)

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def aggregate(self, lo: int, hi: int, selfs: list[float]) -> dict[str, dict[str, float]]:
        """Per span name over spans [lo, hi): calls, self_s and summed extras."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(lo, hi):
            agg = out[self._names[self.name_ids[i]]]
            agg["calls"] += 1
            agg["self_s"] += selfs[i]
            for key, val in self.extra.get(i, {}).items():
                agg[key] += val
        return out

    def dump(self, path) -> None:
        """Write every span once, as gzipped JSON lines: name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps([self._names[self.name_ids[i]], self.starts[i],
                                     self.ends[i], self.parents[i]]) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Span duration minus the union of its children's intervals, clipped to it."""
    n = len(starts)
    covered = [0.0] * n
    reach: dict[int, float] = {}  # parent -> furthest child end counted so far
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p == _NO_PARENT:
            continue
        lo = max(starts[i], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]
