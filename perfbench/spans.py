"""In-memory span recorder and the per-layer arithmetic built on it.

Spans are recorded from the benchmark's own files around calls into each
package layer; nothing inside ``src/`` is instrumented.  A span carries a
name, start, end, parent, thread and operation id, plus integer counts
recorded at the same boundary (points evaluated, bytes moved, ...).

Worker threads started by a library call have no open span of their own;
their spans are parented to the innermost open span of the thread that
created the tracer, which is the call that is waiting for them.  Children
of one span can therefore overlap in time, and self time subtracts the
union of the children's intervals, not their sum.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    thread: int
    op: object
    start: float = 0.0
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``spans`` is read once the traced work is done."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.op: object = None
        # Lattice support (flat bool mask) of the data the current call works on;
        # set by the caller so spectral evaluations can be split into useful/wasted.
        self.support = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main = threading.get_ident()

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **counts):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = next(self._ids)
        rec = Span(sid, name, parent, threading.get_ident(), self.op, counts=dict(counts))
        stack.append(sid)
        rec.start = self.clock()
        try:
            yield rec
        finally:
            rec.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name: str, fn, after=None):
        """``fn`` run inside a span; ``after(span, result, args, kwargs)`` adds counts."""

        def wrapped(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if after is not None:
                after(rec, result, args, kwargs)
            return result

        wrapped.__wrapped__ = fn
        return wrapped


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children_of(spans)
    return {
        s.sid: s.duration - union_length((c.start, c.end) for c in kids.get(s.sid, ()))
        for s in spans
    }


def nesting_error(spans: List[Span]) -> float:
    """Largest time by which a child sticks out of its parent's interval.

    Self time plus the union of the children equals the duration exactly
    when every child lies inside its parent, so this is the check on that
    identity.
    """
    by_id = {s.sid: s for s in spans}
    worst = 0.0
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            worst = max(worst, p.start - s.start, s.end - p.end)
    return worst


def layer_totals(spans: List[Span], ops) -> Dict[str, Dict[str, float]]:
    """Per span name: summed duration, summed self time, call count and counts.

    Only spans whose operation id is in ``ops`` take part.  Durations are
    summed over threads, so two workers busy for one second give two.
    Counts are summed, except those named ``max_*``, which keep the largest.
    """
    ops = set(ops)
    chosen = [s for s in spans if s.op in ops]
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in chosen:
        row = out.setdefault(s.name, {"busy": 0.0, "self": 0.0, "calls": 0})
        row["busy"] += s.duration
        row["self"] += selfs[s.sid]
        row["calls"] += 1
        for key, val in s.counts.items():
            if key.startswith("max_"):
                row[key] = max(row.get(key, val), val)
            else:
                row[key] = row.get(key, 0) + val
    return out
