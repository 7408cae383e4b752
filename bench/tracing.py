"""In-memory spans recorded by the benchmark around calls into d2dlab.

A span is [name, parent index, start, end] with perf_counter times. A
disabled tracer calls straight through, so untraced passes run the same
code with one extra Python frame per call.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.last_duration = 0.0  # of the span that closed most recently
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self.last_duration = span[3] - span[2]
            self._stack.pop()

    def roots(self, name: str) -> list[int]:
        """Indices of the top-level spans called name."""
        return [i for i, s in enumerate(self.spans) if s[0] == name and s[1] == -1]

    def _descendants(self, root: int):
        # Spans are stored in call order, so a span's subtree follows it.
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][1] not in inside:
                return
            inside.add(i)
            yield self.spans[i]

    def totals(self, root: int) -> dict[str, float]:
        """Summed duration per span name over the subtree of root."""
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end in self._descendants(root):
            out[name] += end - start
        return dict(out)

    def coverage(self, root: int) -> float:
        """Share of root's duration covered by its direct children."""
        _, _, start, end = self.spans[root]
        covered = sum(e - s for _, p, s, e in self._descendants(root) if p == root)
        return covered / (end - start)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
