"""Spans and counters recorded around calls into the library, from outside it.

``Tracer.wrap`` replaces a module attribute or a class method with a wrapper
that records one span per call (name, start, end, parent span) and, through
an optional hook, counters taken from the call's arguments and result.
``Tracer.restore`` puts the originals back.  The wrappers call the original
with the same arguments and return its result unchanged, so tracing cannot
alter the numerics; the benchmark checks that bit for bit.

Spans stay in memory; ``summary`` turns them into per-name call counts,
total time and self time (duration minus the time of direct child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``on_result(counts, args, kwargs, result)`` runs after a call that
        returned.  An attribute the library no longer has is listed in
        ``missing`` and left alone, so its metrics read zero.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            print(f"trace: {name} not found, its metrics stay zero", file=sys.stderr)
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self) -> dict:
        """Per span name: {"calls", "total_s", "self_s"}."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[index]
        return out
