"""Spans recorded around calls into a library's public functions.

The benchmark measures passband from the outside. It replaces a public
function with a wrapper at the place where its caller looks it up (a module
attribute such as ``passband.env.sample_fresh_group``, or a method on a
class) and records one span per call: layer name, start, end and parent
span. Spans stay in compact arrays in memory while the workload runs and are
saved to one file when it ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

NO_PARENT = -1


class Tracer:
    """Collects spans and per-layer counts for one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._clock = clock

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts[name] = Counter()
        return self._ids[name]

    def wrap(self, name: str, fn, count=None, before=None):
        """Return fn wrapped so that each call records a span named name.

        ``before(args, kwargs)`` runs ahead of the span; its value is passed
        to ``count(counter, args, kwargs, result, before_value)``, which runs
        after the span has ended. Return values and exceptions pass through
        unchanged.
        """
        nid = self._name_id(name)
        counter = self.counts[name]
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack, clock = self.starts, self.ends, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else NO_PARENT)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(counter, args, kwargs, result, pre)
            return result

        return traced

    def log(self) -> SpanLog:
        return SpanLog(
            names=list(self.names),
            name_ids=self.name_ids,
            parents=self.parents,
            starts=self.starts,
            ends=self.ends,
            counts={k: dict(v) for k, v in self.counts.items()},
        )


@dataclass
class SpanLog:
    """Spans of one process: parallel arrays indexed by span id."""

    names: list[str]
    name_ids: array
    parents: array
    starts: array
    ends: array
    counts: dict[str, dict[str, float]]

    def save(self, path) -> None:
        """Write a one-line JSON header followed by the four raw arrays."""
        header = {"names": self.names, "counts": self.counts, "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)

    @classmethod
    def load(cls, path) -> SpanLog:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            arrays = []
            for code in ("i", "i", "d", "d"):
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        return cls(header["names"], *arrays, counts=header["counts"])


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(log: SpanLog) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent in enumerate(log.parents):
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((log.starts[sid], log.ends[sid]))
    out = [end - start for start, end in zip(log.starts, log.ends)]
    for parent, intervals in children.items():
        out[parent] -= covered_length(intervals, log.starts[parent], log.ends[parent])
    return out


@dataclass(frozen=True)
class LayerTotals:
    calls: int
    busy_s: float
    self_s: float


def layer_totals(log: SpanLog) -> dict[str, LayerTotals]:
    """Calls, summed span time and summed self time per layer name."""
    selfs = self_times(log)
    calls = [0] * len(log.names)
    busy = [0.0] * len(log.names)
    own = [0.0] * len(log.names)
    for sid, nid in enumerate(log.name_ids):
        calls[nid] += 1
        busy[nid] += log.ends[sid] - log.starts[sid]
        own[nid] += selfs[sid]
    return {
        name: LayerTotals(calls[i], busy[i], own[i]) for i, name in enumerate(log.names)
    }


def _resolve(site: str):
    """Split 'pkg.mod:Attr.attr' into (holder object, attribute name)."""
    module_name, _, attr_path = site.partition(":")
    holder = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        holder = getattr(holder, part)
    return holder, attr


@contextmanager
def installed(tracer: Tracer, layers):
    """Wrap every call site of every layer for the duration of the block.

    A layer needs ``name``, ``sites`` (strings 'module:attribute'), ``count``
    and ``before``. The original attributes are put back on exit.
    """
    undo = []
    try:
        for layer in layers:
            for site in layer.sites:
                holder, attr = _resolve(site)
                original = getattr(holder, attr)
                undo.append((holder, attr, original))
                setattr(
                    holder,
                    attr,
                    tracer.wrap(layer.name, original, layer.count, layer.before),
                )
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
