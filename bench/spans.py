"""In-memory spans around every public function of the lctw modules.

The library imports by ``from .x import y``, so a function is looked up under
its own name in every module that imported it.  ``Tracer.install`` replaces
each such binding (``lctw.harness.enumerate_longest_cycles``,
``lctw.transversal.cycle_posture``, ...) with a wrapper that records one span
per call: name, start, end, parent span and the index of the graph being
evaluated.  Spans live in flat arrays until ``summary`` or ``write`` reads
them at the end of the run; ``remove`` restores the original bindings.

A generator function gets one span per resumption, so that the caller's work
between two items is not counted as the generator's.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("generate", "graph", "decomposition", "cycles", "classify", "transversal", "harness")

# A root span marks the evaluation of one graph; its calls number the graphs.
ROOTS = ("harness.evaluate_task", "harness.evaluate_conjecture_task")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.counters: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.graph = array("l")
        self.outer = array("b")  # 1 unless an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._active: list[int] = []
        self._graph = -1
        self._graphs = 0
        self._saved: list[tuple[object, str, object]] = []
        # Results some layer metrics are computed from.
        self._on_result = {
            "cycles.enumerate_longest_cycles": self._count_cycles,
            "decomposition.full_tree_decomposition": self._count_nodes,
        }

    def _count_cycles(self, family):
        self._add("cycles.enum_steps", family.steps)
        self._add("cycles.longest_cycles", len(family))

    def _count_nodes(self, td):
        self._add("decomposition.full_tree_decomposition.nodes", td.node_count)

    def _add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def install(self) -> None:
        """Wrap every public function defined in the layer modules, wherever it is bound."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"lctw.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("lctw"))
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.graph.append(self._graph)
        self.outer.append(self._active[nid] == 0)
        self.end.append(0.0)
        self._stack.append(i)
        self._active[nid] += 1
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, nid: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self._active.append(0)
        on_result = self._on_result.get(qualname)
        is_root = qualname in ROOTS

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i, nid)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            if is_root:
                self._graph = self._graphs
                self._graphs += 1
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, nid)
                if is_root:
                    self._graph = -1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds.

        Inclusive time counts only spans not nested in a span of the same
        name; self time is a span's duration minus its direct children's.
        """
        n = len(self.name)
        start, end, parent, name, outer = self.start, self.end, self.parent, self.name, self.outer
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = name[i]
            dur = end[i] - start[i]
            if outer[i]:
                incl[nid] += dur
            self_s[nid] += dur - child[i]
        return {
            qual: {"calls": self.calls[nid], "s": incl[nid], "self_s": self_s[nid]}
            for nid, qual in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span, gzip-compressed, as one tab-separated line:
        parent line (-1 for none), graph index (-1 outside a graph), name,
        start and end in microseconds from the first span.  A span's id is its
        line number, counted from 0 after the header."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("parent\tgraph\tname\tstart_us\tend_us\n")
            fh.writelines(
                f"{p}\t{g}\t{names[nid]}\t{round((a - t0) * 1e6)}\t{round((b - t0) * 1e6)}\n"
                for p, g, nid, a, b in zip(self.parent, self.graph, self.name, self.start, self.end)
            )
