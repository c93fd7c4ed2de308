"""Spans around calls into bowlab, recorded from outside the library.

Tracing rebinds every public function of every bowlab module, in every
bowlab module that looks the name up.  `from .linalg import x` copies
the binding into the importing module, so each copy is rebound, and
calls between library functions (moment_jacobian -> unflatten_point,
subspace_sum -> image_basis) are traced too.  bowlab.linalg's view of
numpy is swapped for one whose linalg.svd counts its calls.

Spans (label, start, end, parent) are kept in flat arrays while the
benchmark runs and written out when it ends.  A span's self time is its
duration minus the time its child spans cover.  A name that the library
no longer has is simply not wrapped; the metrics built from it are then
absent rather than zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

CAP = 200  # candidate_lattice's default cap on the lattice size


def _mode_tag(sig):
    def tag(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        return str(bound.arguments.get("mode", sig.parameters["mode"].default))
    return tag


def _lattice_observer(tracer, result, exc):
    if exc is None:
        tracer.counters["graded.candidate_lattice.size"] += len(result)
        tracer.counters["graded.candidate_lattice.cap_hits"] += len(result) >= CAP


def _iterations_observer(tracer, result, exc):
    # SolveResult on success; MaxItersExceeded carries the count otherwise
    source = result if exc is None else exc
    tracer.counters["solve.iterations"] += getattr(source, "iterations", 0)


# qualified name -> what to record beyond the span
TAGGED = ("total_space.check_semistable", "quiver.rep_semistable")
OBSERVERS = {
    "graded.candidate_lattice": _lattice_observer,
    "solve.gauss_newton": _iterations_observer,
}


class _NumpyView(types.ModuleType):
    """numpy as seen by one module, with some attributes replaced."""

    def __init__(self, base, **overrides):
        super().__init__(base.__name__)
        self.__dict__.update(vars(base))
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self):
        self.modules = [sys.modules[name] for name in sorted(sys.modules)
                        if name == "bowlab" or name.startswith("bowlab.")]
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counters: defaultdict = defaultdict(float)
        self.wrapped: set = set()   # qualified names of the wrapped functions
        self._originals: dict = {}  # id(original) -> (original, wrapper)
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    qual = f"{short}.{name}"
                    self.wrapped.add(qual)
                    self._originals[id(fn)] = (fn, self._wrap(qual, fn))
        self._np = getattr(sys.modules.get("bowlab.linalg"), "np", None)
        self.counts_svd = self._np is not None
        self._rebound: list = []

    def _label(self, text: str) -> int:
        lid = self._label_ids.get(text)
        if lid is None:
            lid = self._label_ids[text] = len(self.labels)
            self.labels.append(text)
        return lid

    def _wrap(self, qual: str, fn):
        base_id = self._label(qual)
        tag = _mode_tag(inspect.signature(fn)) if qual in TAGGED else None
        observe = OBSERVERS.get(qual)
        stack, label_of, start, end, parent = (
            self._stack, self.label_of, self.start, self.end, self.parent)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lid = base_id if tag is None else self._label(f"{qual}:{tag(args, kwargs)}")
            idx = len(start)
            label_of.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(self, None, exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(self, result, None)
            return result

        return wrapper

    def _count_svd(self, *args, **kwargs):
        self.counters["linalg.svd.calls"] += 1
        return self._np.linalg.svd(*args, **kwargs)

    def install(self):
        for mod in self.modules:
            for name, val in list(vars(mod).items()):
                hit = self._originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._rebound.append((mod, name, val))
                    setattr(mod, name, hit[1])
        if self.counts_svd:
            linalg_view = _NumpyView(self._np.linalg, svd=self._count_svd)
            mod = sys.modules["bowlab.linalg"]
            self._rebound.append((mod, "np", self._np))
            mod.np = _NumpyView(self._np, linalg=linalg_view)

    def uninstall(self):
        for mod, name, val in reversed(self._rebound):
            setattr(mod, name, val)
        self._rebound.clear()

    # --- aggregation ----------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def by_label(self) -> dict:
        """label -> (calls, total seconds, self seconds)."""
        labels = np.asarray(self.label_of, dtype=np.int64)
        own = self.self_times()
        n = len(self.labels)
        calls = np.bincount(labels, minlength=n)
        total = np.bincount(labels, weights=np.asarray(self.end) - np.asarray(self.start),
                            minlength=n)
        selfs = np.bincount(labels, weights=own, minlength=n)
        return {self.labels[i]: (int(calls[i]), float(total[i]), float(selfs[i]))
                for i in range(n)}

    def write(self, path) -> None:
        """All spans as a compressed .npz: labels, label, start, end, parent."""
        np.savez_compressed(path, labels=np.asarray(self.labels),
                            label=np.asarray(self.label_of), start=np.asarray(self.start),
                            end=np.asarray(self.end), parent=np.asarray(self.parent))
