"""In-memory spans and counters for the traced benchmark run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` numbers the benchmark operation
(one request, or one ``train()`` call) that the span belongs to. A layer's
self time is its span's duration minus the durations of its direct child
spans, so the self times of every span under a root add up to the root's
duration.

Spans are recorded by wrappers that ``Tracer.patch`` installs on the
attribute through which a caller looks a function up (a module global or a
class attribute), and ``Tracer.restore`` puts the originals back.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict


def self_times(spans):
    """Per-name ``(self_seconds, total_seconds, calls)`` from a span list."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        self_s, total_s, calls = out.get(name, (0.0, 0.0, 0))
        dur = end - start
        out[name] = (self_s + dur - child[i], total_s + dur, calls + 1)
    return out


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._undo = []

    def reset(self):
        """Drop recorded spans and counts; installed wrappers keep recording."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self.op = -1

    def spanned(self, fn, name, count=None):
        """``fn`` wrapped in a span; ``count(counts, args, result)`` runs after it."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key):
        """``fn`` wrapped so each call adds one to ``counts[key]``, with no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, make_wrapper):
        """Replace ``owner.attr`` by ``make_wrapper(original)`` until ``restore``."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def restore(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
