"""In-memory span recorder that wraps layer entry points from outside.

Every span is ``(name, start_ns, end_ns, parent, access)``: the layer
boundary it times, when it ran, the span that was open when it started
(-1 at top level) and the access it belongs to (-1 when it serves no
single access, e.g. a batched look-ahead or a transport flush).

Only synchronous callables are wrapped, so spans nest strictly even
under asyncio: nothing can interleave inside a synchronous call. A
layer's *self* time is its span time minus the time its child spans
cover, so self times partition the traced wall time and whatever is
left over ran in no traced layer at all (``unattributed``).
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np


class Recorder:
    """Spans of one traced window, kept in memory until written out."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One row per span across five flat int64 arrays: no per-span
        # Python object, so tracing adds no garbage-collector work.
        self.name_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.access_col = array("q")
        self.stack: List[int] = []
        self.access = -1
        #: Counters and samples recorded at the same boundaries.
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def count(self, key: str, amount: float = 1) -> None:
        if self.active:
            self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        if self.active:
            self.samples.setdefault(key, []).append(value)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        """*fn*, recording a span named *name* per call while active.
        *on_result(args, result)* may record counts."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        rec = self
        stack = self.stack
        name_col, start_col, end_col = self.name_col, self.start_col, self.end_col
        parent_col, access_col = self.parent_col, self.access_col

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            index = len(name_col)
            name_col.append(name_id)
            parent_col.append(stack[-1] if stack else -1)
            access_col.append(rec.access)
            end_col.append(0)
            stack.append(index)
            start_col.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[index] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Replace ``cls.attr`` with a traced wrapper. Objects that
        capture bound methods at construction (cache observers) only
        see it if it is installed before they are built."""
        setattr(cls, attr, self.wrap(getattr(cls, attr), name, on_result))

    def patch_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def wrap_generator(self, iterator, name: str):
        """Time every ``next()`` of *iterator* as a span *name*."""
        step = self.wrap(iterator.__next__, name)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    # -- aggregation -------------------------------------------------------

    def _columns(self):
        parents = np.frombuffer(self.parent_col, dtype=np.int64)
        duration = np.frombuffer(self.end_col, dtype=np.int64) - np.frombuffer(
            self.start_col, dtype=np.int64
        )
        return parents, duration

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds.

        Each wrapped callable has its own name and none recurses, so a
        span never nests inside a span of the same name and totals do
        not double count.
        """
        if not self.name_col:
            return {}
        names = np.frombuffer(self.name_col, dtype=np.int64)
        parents, duration = self._columns()
        child = np.zeros(len(names), dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        self_ns = duration - child
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            rows = names == name_id
            calls = int(rows.sum())
            if calls:
                out[name] = {
                    "calls": calls,
                    "total_s": float(duration[rows].sum()) / 1e9,
                    "self_s": float(self_ns[rows].sum()) / 1e9,
                }
        return out

    def top_level_s(self) -> float:
        """Seconds covered by top-level spans (= the sum of self times)."""
        parents, duration = self._columns()
        return float(duration[parents < 0].sum()) / 1e9

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\taccess\n")
            for name_id, start, end, parent, access in zip(
                self.name_col, self.start_col, self.end_col,
                self.parent_col, self.access_col,
            ):
                out.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\t{access}\n")
