"""Span recorder for the traced run.

The public functions of each qclone module are wrapped in recorders, and
every wrapper is rebound in each ``qclone`` module namespace that holds the
function, so calls between modules are seen too.  The program's source is
not touched; :func:`uninstall` puts the original functions back.

Spans live in flat arrays (name id, parent index, start, end) for the whole
run and are written out once at its end.  A span's self time is its
duration minus the durations of its direct children.  Class methods are
not wrapped: their time counts as self time of the calling function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

#: qclone modules, each one layer.
LAYERS = ("qmath", "states", "cloners", "entanglement", "analysis", "cli")
QUAD = "analysis.integrate_adaptive_simpson"
MEANS = ("analysis.mean_entanglement", "analysis.mean_entanglement_acm")


class Recorder:
    """Spans of every wrapped call, plus the integrals the run took."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: (machine or (s1, s2), tol, value, evaluations) per mean integral.
        self.integrals: list[tuple] = []
        self.quad_evals = 0
        self._wrappers: dict = {}

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        names, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(qualname, fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return span

    def _observer(self, qualname: str, fn):
        if qualname == QUAD:
            def count(args, kwargs, result):
                self.quad_evals += result.evaluations
            return count
        if qualname in MEANS:
            signature = inspect.signature(fn)

            def record(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                given = bound.arguments
                what = given.get("machine") or (given["params"].s1, given["params"].s2)
                self.integrals.append((what, given["tol"], result.value, result.evaluations))
            return record
        return None

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per function over spans [lo, hi).

        The range must hold whole call trees, as one round of the workload
        does, so every parent of a span in it lies in it too.
        """
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        )
        has_parent = par >= 0
        child = np.bincount(par[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write every span of the run; names index the ``names`` array."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(recorder: Recorder) -> list[tuple]:
    """Rebind every public qclone function to a span recorder.

    Returns the (module, name, original) triples :func:`uninstall` needs.
    """
    wrappers = recorder._wrappers
    if not wrappers:
        for layer in LAYERS:
            module = importlib.import_module(f"qclone.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = recorder.wrap(f"{layer}.{name}", obj)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "qclone" and not modname.startswith("qclone."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
                patched.append((module, name, obj))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, name, obj in patched:
        setattr(module, name, obj)
