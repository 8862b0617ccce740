"""The benchmark's own spans around its calls into each layer of the program.

Spans (name, start, end, parent, workload, shot) stay in memory and are
written once, at the end of a traced run, as a Chrome trace plus a per-layer
table of self times and counts.  A layer is the span name's first dotted
component (``verify.prove_bounds`` belongs to ``verify``).  A span's self
time is its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans = []  # (id, name, start, end, parent, shot)
        self._stack = []
        self.epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, shot=None):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, shot])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][3] = time.perf_counter()

    def timed(self, name: str, fn, shot=None):
        """Call *fn* inside a span named *name*; returns (result, seconds).
        Timed whether or not spans are recorded."""
        with self.span(name, shot=shot):
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

    def self_times(self) -> dict:
        """``layer -> {"self_s", "count"}`` and the same per span name."""
        child_cover = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_cover[parent] = child_cover.get(parent, 0.0) + (end - start)
        by_name = {}
        for sid, name, start, end, _, _ in self.spans:
            row = by_name.setdefault(name, {"self_s": 0.0, "count": 0})
            row["self_s"] += (end - start) - child_cover.get(sid, 0.0)
            row["count"] += 1
        layers = {}
        for name, row in by_name.items():
            agg = layers.setdefault(name.split(".")[0], {"self_s": 0.0, "count": 0})
            agg["self_s"] += row["self_s"]
            agg["count"] += row["count"]
        return {"layers": layers, "spans": by_name}

    def write(self, directory: Path, stem: str, metrics: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.epoch) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent, "workload": self.workload, "shot": shot},
            }
            for sid, name, start, end, parent, shot in self.spans
        ]
        (directory / f"{stem}.trace.json").write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
        table = {"workload": self.workload, **self.self_times(), "metrics": metrics}
        (directory / f"{stem}.layers.json").write_text(json.dumps(table, indent=1))
