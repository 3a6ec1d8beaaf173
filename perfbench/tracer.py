"""In-memory span recorder that wraps the program's public functions.

The benchmark measures each layer from the outside:
:func:`perfbench.layers.install` replaces the program's functions and
methods at layer boundaries with wrappers that record one span (name,
start, end, parent) per call, plus a few counters read off arguments
and results.  Nothing under ``src/`` changes.

A module-level function is replaced in every loaded ``repro`` module
that binds it — 17 modules bind ``stream`` at import time through
``from repro.rng import stream``, so patching ``repro.rng`` alone would
miss most calls.
:func:`import_all_modules` runs first, and :func:`patch_function`
swaps each binding it finds.  Methods are replaced on their class.

Spans live in per-thread arrays (the service workload runs HTTP
handler and runner threads beside the client), so recording takes no
lock.  A span's parent is the innermost span open on the same thread
when it started; its self time is its duration minus its children's,
which never overlap because they nest on one thread.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np


class _ThreadSpans:
    """Spans recorded by one thread, as parallel arrays."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()


class Tracer:
    """Owns every thread's span arrays and the counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self.paused = False
        #: ``(mode, shard wall times)`` of each runtime call, in order.
        self.runtime_runs: list[tuple[str, list[float]]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def count(self, key: str, n: int = 1) -> None:
        if not self.paused:
            with self._lock:
                self.counters[key] += n

    def wrap(self, fn, name: str, on_result=None):
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``on_result(tracer, result, args, kwargs)`` runs after a call
        returns, outside the span, to update counters.
        """
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            spans = self.spans()
            index = spans.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(index)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return wrapper

    def wrap_iterator(self, fn, name: str, counter: str):
        """Wrap a function returning an iterator: one ``name`` span per
        item produced, so lazy reads are timed where they happen."""
        name_id = self.name_id(name)

        def timed(iterator):
            while True:
                if self.paused:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    yield item
                    continue
                spans = self.spans()
                index = spans.open(name_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    spans.close(index)
                self.count(counter)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes the flat arrays."""
        names, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        for thread_id, spans in enumerate(self._threads):
            n = len(spans.name)
            parent = np.frombuffer(spans.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            names.append(np.frombuffer(spans.name, dtype=np.int32))
            parents.append(parent)
            starts.append(np.frombuffer(spans.start, dtype=np.float64))
            ends.append(np.frombuffer(spans.end, dtype=np.float64))
            threads.append(np.full(n, thread_id, dtype=np.int32))
            offset += n
        if not names:
            empty = np.empty(0)
            return {
                "name": empty.astype(np.int32),
                "parent": empty.astype(np.int64),
                "start": empty,
                "end": empty,
                "thread": empty.astype(np.int32),
            }
        return {
            "name": np.concatenate(names),
            "parent": np.concatenate(parents),
            "start": np.concatenate(starts),
            "end": np.concatenate(ends),
            "thread": np.concatenate(threads),
        }

    def save(self, path: str) -> None:
        """Write every span and the name table to an ``.npz`` file."""
        np.savez(path, names=np.asarray(self.names, dtype=str), **self.arrays())


def import_all_modules(package: str = "repro") -> None:
    """Import every module of ``package`` so later patching sees each
    ``from X import name`` binding before any caller runs."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def patch_function(module_name: str, attr: str, wrapper_factory) -> int:
    """Replace ``module.attr`` and every other ``repro`` binding of the
    same object with one wrapper; returns how many bindings changed."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = wrapper_factory(original)
    patched = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                patched += 1
    return patched


def patch_method(cls, attr: str, wrapper_factory) -> None:
    """Replace a method on its class."""
    setattr(cls, attr, wrapper_factory(cls.__dict__[attr]))
