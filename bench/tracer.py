"""Span tracer that wraps module-level functions from outside the program.

A span is ``(sid, parent, name, t0, t1, qty)``: an id, the id of the span
that was open when it started (0 for a root), the traced function's name,
``time.perf_counter`` start and end, and an optional count the function
produced (rows, bytes, parameters).  Spans stay in memory until read.

Wrapping replaces every attribute of the given modules that refers to the
original function, so a name imported with ``from x import f`` is covered
as well as ``x.f``.  A function installed as an *entry* marks work that may
run in a forked worker: when it returns in a process other than the one
that installed the tracer, the spans recorded there are written to a spool
directory, and ``take()`` in the parent reads them back.  On Linux
``perf_counter`` reads a system-wide monotonic clock, so times from
workers and parent are comparable.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Stat", "Tracer", "aggregate", "self_times"]


class Tracer:
    """Installs timing wrappers on module attributes and records spans."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.spans = []
        self.stack = []
        self._pid = os.getpid()
        self._forked = False
        self._ids = itertools.count(1)
        self._flushes = itertools.count()
        self._patches = []

    def install(self, modules, targets, entries=(), counters=None):
        """Wrap ``"module.func"`` names found in ``modules`` (name -> module).

        ``counters`` maps a target to ``f(args, kwargs, result) -> number``,
        recorded as the span's qty.  Names in ``entries`` are also wrapped,
        and additionally flush their spans when they end in a forked worker.
        """
        counters = counters or {}
        for target in [*targets, *entries]:
            mod_name, attr = target.rsplit(".", 1)
            original = getattr(modules[mod_name], attr)
            wrapper = self._wrap(target, original, counters.get(target), target in entries)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self):
        """Put every original function back."""
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def take(self):
        """Return the spans recorded so far, with spooled worker spans, and forget them."""
        spans = list(self.spans)
        self.spans.clear()
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            spans.extend(tuple(s) for s in json.loads(path.read_text()))
            path.unlink()
        return spans

    def _wrap(self, name, fn, counter, entry):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if entry and os.getpid() != tracer._pid:
                tracer._adopt_fork()
            stack = tracer.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append((sid, parent, name, t0, clock(), 0))
                raise
            finally:
                stack.pop()
            t1 = clock()
            qty = counter(args, kwargs, result) if counter is not None else 0
            tracer.spans.append((sid, parent, name, t0, t1, qty))
            if entry and tracer._forked:
                tracer._flush()
            return result

        return traced

    def _adopt_fork(self):
        """First entry call in a forked worker: drop the parent's copied spans."""
        self._pid = os.getpid()
        self._forked = True
        self.spans.clear()
        self._ids = itertools.count((self._pid << 32) + 1)

    def _flush(self):
        path = self.spool_dir / f"spans-{self._pid}-{next(self._flushes)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        tmp.replace(path)
        self.spans.clear()


class Stat:
    """Per-name totals over a set of spans."""

    __slots__ = ("calls", "total", "self", "qty")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.qty = 0.0


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover.

    Children of one parent may overlap (workers of a pool run at once), so
    their intervals are merged before subtracting; they are clipped to the
    parent's interval.
    """
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        covered = 0.0
        reach = t0
        for c0, c1 in sorted(children.get(sid, ())):
            lo, hi = max(c0, reach), min(c1, t1)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out[sid] = (t1 - t0) - covered
    return out


def aggregate(spans, into=None) -> dict:
    """Name -> Stat (calls, total seconds, self seconds, summed qty)."""
    stats = into if into is not None else defaultdict(Stat)
    own = self_times(spans)
    for sid, _, name, t0, t1, qty in spans:
        s = stats[name]
        s.calls += 1
        s.total += t1 - t0
        s.self += own[sid]
        s.qty += qty
    return stats
