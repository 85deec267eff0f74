"""In-memory spans recorded by the benchmark around calls into fuseprune.

A span has a name (the layer call, e.g. "fusion.fuse"), start and end
times, the index of the span that was open when it started, and the id of
the pass or round it belongs to. Spans stay in memory and are written out
once, when the run ends. A disabled tracer records nothing, so untraced
runs pay only a no-op context manager per call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.pass_id = "setup"
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name, "pass": self.pass_id,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def wrap(self, module, attr: str, name: str):
        """Replace module.attr by a spanned wrapper for the duration of the block."""
        if not self.enabled:
            yield
            return
        original = getattr(module, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, spanned)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per pass id, per span name: summed self time in seconds (duration
        minus the part covered by direct children)."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, rec in enumerate(self.spans):
            out[rec["pass"]][rec["name"]] += rec["end"] - rec["start"] - child_time[i]
        return out

    def children(self, rec: dict) -> list[dict]:
        return [r for r in self.spans[rec["id"] + 1:] if r["parent"] == rec["id"]]

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]
