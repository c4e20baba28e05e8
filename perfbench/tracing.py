"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into plkit's layers by replacing each
function where its caller looks it up, and around every garbage
collection through `gc.callbacks`. Nothing inside plkit changes. A span is
[name, start, end, parent index]; a layer's self time is its duration minus
that of its direct children, so nested consults (use_module) and GC pauses
are charged once.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def begin(self, name: str):
        # Allocate the record before taking its index: the allocation may
        # run a collection, which records a gc span of its own first.
        record = [name, 0.0, None, self.stack[-1] if self.stack else -1]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        record[1] = clock()

    def end(self):
        self.spans[self.stack.pop()][2] = clock()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def _on_gc(self, phase: str, info: dict):
        if phase == "start":
            self.begin("gc")
            if info["generation"] == 2:
                self.counts["gc.gen2_collections"] += 1
        else:
            self.end()

    # --- installing wrappers -----------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None):
        """Record a span `name` around every call of `owner.attr`.

        `after(args, result, first)` runs after each call; `first` is the
        index of the first span recorded during the call.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            first = len(tracer.spans) + 1
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(args, result, first)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count(self, owner, attr: str, name: str):
        """Count calls of `owner.attr` without recording spans."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def start(self):
        gc.callbacks.append(self._on_gc)

    def stop(self):
        """Remove the GC callback and every wrapper, newest first."""
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis -----------------------------------------------------------

    def names_since(self, first: int) -> set[str]:
        return {record[0] for record in self.spans[first:]}

    def self_times(self) -> dict[str, dict[str, float]]:
        """Total self time per span name, grouped by the name of the root
        span (parent -1) each span ran under. A parent precedes its
        children in `spans`."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[self.spans[root[i]][0]][name] += (end - start) - child[i]
        return totals

    def root_time(self) -> float:
        """Summed duration of the root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path: str):
        """Write the spans, one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
