"""Outside-in span tracer for the codat benchmark.

`Tracer.install(modules)` replaces every plain function that a codat module
defines or imports (its module globals) with a wrapper that records one
span per call: name, start, end and the index of the enclosing span.
Because the wrapper is set in every namespace that holds the function,
both cross-module calls (`attacks` calling `nn_engine.backward`) and calls
inside one module (`worst_case_distribution` calling `oracle_worst_case`)
are seen.  Generator functions get one span per `next()`, so the time a
consumer waits for each item is measured.  Functions are found by walking
the module namespaces at install time, so a function a later version adds
or renames is traced under its own name and a removed one simply never
appears.

Spans are kept in flat in-memory arrays and summarised at the end:
self time is a span's duration minus the durations of its direct children,
and a span's caller module is the module of its nearest enclosing span
that lies in a different module (so `nn_engine.backward` called from
`attacks.pgd_attack` is attributed to `attacks`).
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

OUTSIDE = "bench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        # generator instance serial for per-item spans, -1 for plain calls
        self.instances = array("q")
        self._stack: list[int] = []
        self._instance_serial = 0
        self._patched: list[tuple[object, str, object]] = []
        # name -> hook(bound arguments, result), run after the span closes
        self.hooks: dict[str, object] = {}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, instance: int) -> int:
        idx = len(self.ids)
        self.ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.instances.append(instance)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """Return a wrapper of `fn` that records a span named `name` per call."""
        name_id = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name_id, fn)
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id, -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _wrap_generator(self, name_id: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._instance_serial += 1
            instance = self._instance_serial
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id, instance)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    def install(self, modules) -> None:
        """Wrap every codat function reachable from the given modules' globals."""
        module_names = {module.__name__ for module in modules}
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value.__module__ not in module_names:
                    continue
                if value not in wrappers:
                    short = value.__module__.rsplit(".", 1)[-1]
                    wrappers[value] = self.wrap(f"{short}.{value.__name__}", value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> "TraceSummary":
        return TraceSummary(
            self.names,
            np.frombuffer(self.ids, dtype=np.int32).copy(),
            np.frombuffer(self.parents, dtype=np.int64).copy(),
            np.frombuffer(self.starts, dtype=np.float64).copy(),
            np.frombuffer(self.ends, dtype=np.float64).copy(),
            np.frombuffer(self.instances, dtype=np.int64).copy(),
        )


class TraceSummary:
    """Derived per-span quantities: duration, self time and caller module."""

    def __init__(self, names, ids, parents, starts, ends, instances):
        self.names = list(names)
        self.ids = ids
        self.parents = parents
        self.starts = starts
        self.ends = ends
        self.instances = instances
        self.duration = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=self.duration[has_parent], minlength=ids.size
        )
        self.self_time = self.duration - covered
        modules = sorted({name.split(".", 1)[0] for name in self.names} | {OUTSIDE})
        self.modules = modules
        module_of_name = np.array(
            [modules.index(name.split(".", 1)[0]) for name in self.names], dtype=np.int64
        )
        self.module = module_of_name[ids]
        # walk each span's ancestor pointer up past spans of its own module
        ancestor = parents.copy()
        while True:
            climb = ancestor >= 0
            climb[climb] = self.module[ancestor[climb]] == self.module[climb]
            if not climb.any():
                break
            ancestor[climb] = parents[ancestor[climb]]
        self.caller = np.full(ids.size, modules.index(OUTSIDE), dtype=np.int64)
        found = ancestor >= 0
        self.caller[found] = self.module[ancestor[found]]

    def select(self, name: str | None = None, module: str | None = None, caller: str | None = None):
        mask = np.ones(self.ids.size, dtype=bool)
        if name is not None:
            if name not in self.names:
                return np.zeros(self.ids.size, dtype=bool)
            mask &= self.ids == self.names.index(name)
        if module is not None:
            if module not in self.modules:
                return np.zeros(self.ids.size, dtype=bool)
            mask &= self.module == self.modules.index(module)
        if caller is not None:
            if caller not in self.modules:
                return np.zeros(self.ids.size, dtype=bool)
            mask &= self.caller == self.modules.index(caller)
        return mask

    def calls(self, **where) -> int:
        return int(np.count_nonzero(self.select(**where)))

    def self_s(self, **where) -> float:
        return float(np.sum(self.self_time[self.select(**where)]))

    def total_s(self, **where) -> float:
        return float(np.sum(self.duration[self.select(**where)]))

    def durations_ms(self, **where) -> np.ndarray:
        return self.duration[self.select(**where)] * 1e3

    def item_intervals_ms(self, **where) -> np.ndarray:
        """Gaps between consecutive item requests of each generator instance."""
        mask = self.select(**where) & (self.instances >= 0)
        gaps = []
        for instance in np.unique(self.instances[mask]):
            starts = np.sort(self.starts[mask & (self.instances == instance)])
            gaps.append(np.diff(starts))
        return np.concatenate(gaps) * 1e3 if gaps else np.zeros(0)

    def table(self) -> list[dict]:
        """Per (function, caller module) row: calls, total and self seconds."""
        key = self.ids.astype(np.int64) * len(self.modules) + self.caller
        size = len(self.names) * len(self.modules)
        calls = np.bincount(key, minlength=size)
        total = np.bincount(key, weights=self.duration, minlength=size)
        own = np.bincount(key, weights=self.self_time, minlength=size)
        rows = [
            {
                "name": self.names[k // len(self.modules)],
                "caller": self.modules[k % len(self.modules)],
                "calls": int(calls[k]),
                "total_s": float(total[k]),
                "self_s": float(own[k]),
            }
            for k in np.nonzero(calls)[0]
        ]
        return sorted(rows, key=lambda row: -row["self_s"])


def tail_ms(samples) -> float:
    """Highest order statistic with at least ten samples beyond it (max if fewer than 11)."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    if values.size == 0:
        return 0.0
    return float(values[-11] if values.size >= 11 else values[-1])


def p50_ms(samples) -> float:
    values = np.asarray(samples, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0
