"""Span tracer for the benchmark's traced runs.

The tracer sits outside the program: it replaces public kappatwist
functions and methods with wrappers that record a span (name, start, end,
parent) per call, or, for the scalar ring and the cached monomial product,
only bump a counter.  Spans stay in flat arrays in memory and are
aggregated (and optionally written out) when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[int] = []  # per name id: spans of that name now open
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        # 1 when an ancestor span has the same name (recursion); such
        # spans are left out of the name's total so time is not counted twice
        self.nested = array("b")
        self._stack = [-1]
        self.counters: dict[str, list[int]] = {}
        self.maxima: dict[str, int] = {}

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def counter(self, name: str) -> list[int]:
        """A one-element list that callers bump in place."""
        return self.counters.setdefault(name, [0])

    def add(self, name: str, amount: int) -> None:
        self.counter(name)[0] += amount

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def _enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.nested.append(1 if self._open[nid] else 0)
        self._open[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def _exit(self, idx: int, nid: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._open[nid] -= 1

    @contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        idx = self._enter(nid)
        try:
            yield
        finally:
            self._exit(idx, nid)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` runs
        once the span is closed, to record sizes."""
        nid = self.name_id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx, nid)
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name: str, fn):
        """`fn` bumping a call counter, with no span."""
        cell = self.counter(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans only) and self_s."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names
        }
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if not self.nested[i]:
                row["total_s"] += self.end[i] - self.start[i]
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON document: a name table plus
        parallel arrays (name id, start, end, parent index)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                },
                fh,
            )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans
    cover.  Children may overlap each other or stick out of the parent;
    only the union of their intervals inside the parent is subtracted."""
    n = len(start)
    children: list[list[int] | None] = [None] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            if children[p] is None:
                children[p] = []
            children[p].append(i)
    out = [0.0] * n
    for i in range(n):
        s, e = start[i], end[i]
        covered = 0.0
        kids = children[i]
        if kids:
            cur_s = cur_e = None
            for k in sorted(kids, key=lambda k: start[k]):
                ks, ke = max(start[k], s), min(end[k], e)
                if ke <= ks:
                    continue
                if cur_e is None or ks > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = ks, ke
                elif ke > cur_e:
                    cur_e = ke
            if cur_e is not None:
                covered += cur_e - cur_s
        out[i] = (e - s) - covered
    return out
