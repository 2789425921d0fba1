"""Spans around the public functions of each ``subtrees`` layer.

The tracer replaces every binding of a traced function in every
``subtrees`` module namespace (including the values of module-level
dicts, such as the CLI's dispatch table) with a wrapper that records a
span: name, start, end, parent span and op id.  Generator functions get
one span per resumption, so the time spent producing items lands on the
generator rather than on whoever happens to consume it.  Nothing in
``src/`` changes; ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# Layer (module) -> public functions traced in it.
TRACED = {
    "cli": ("main",),
    "trees": ("parse_edge_list", "tree_from_edges", "root_at", "canonical_code", "path_between"),
    "counting": ("count_rooted", "count_subtrees", "f_vector"),
    "oracle": ("prufer_sequences", "enumerate_trees", "extremal_by_enumeration"),
    "extremal": (
        "build_greedy_bfs",
        "decompose_path",
        "swap_components",
        "swap_path_edges",
        "local_search_optimize",
    ),
    "majorization": ("majorizes", "class_max_sequence"),
    "formulas": (
        "max_degree_extremal",
        "leaves_extremal",
        "independence_extremal",
        "matching_extremal",
    ),
}

NAME, START, END, PARENT, OP = range(5)


def layer_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Self and busy seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children.  Busy time sums the durations of the spans that have no
    ancestor of the same name, so a function that re-enters itself is not
    counted twice.
    """
    self_s: Counter = Counter()
    busy_s: Counter = Counter()
    for span in spans:
        dur = span[END] - span[START]
        name = span[NAME]
        self_s[name] += dur
        parent = span[PARENT]
        if parent >= 0:
            self_s[spans[parent][NAME]] -= dur
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            busy_s[name] += dur
    return self_s, busy_s


class Tracer:
    """Records spans and call counts; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.observers: dict[str, list] = {}

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._resumptions(fn(*args, **kwargs), name)

            return gen_wrapper

        observer = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observer is not None:
                observer.append(result)
            return result

        return wrapper

    def _resumptions(self, gen, name: str):
        try:
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.items[name] += 1
                yield item
        finally:
            gen.close()

    def install(self, package: str = "subtrees") -> None:
        """Wrap every binding of a traced function in the package's modules."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn):
                    wrappers[id(fn)] = self.wrap(fn, f"{layer}.{fname}")
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def take(self) -> tuple[list[list], Counter, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = (self.spans, self.calls, self.items)
        self.spans, self.calls, self.items = [], Counter(), Counter()
        return out
