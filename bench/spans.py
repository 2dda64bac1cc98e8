"""In-memory spans and counts, recorded by the benchmark around calls into socnav.

A span is (name, start, end, parent, episode, failed); its module is the
part of the name before the first dot. Spans live in a list until the run
ends and are then written out in one piece. With ``enabled=False`` a call
goes straight through and nothing is recorded.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, episode: str | None = None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter_ns(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "episode": episode, "failed": False}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except BaseException:
            record["failed"] = True
            raise
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, episode: str | None = None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, episode):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: int = 1):
        if self.enabled:
            self.counts[name] += amount

    def dump(self, path, extra: dict):
        with open(path, "w") as f:
            json.dump({**extra, "counts": dict(self.counts), "spans": self.spans}, f)


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times_ns(spans: list[dict]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s["start"]
        for c in sorted(children[i], key=lambda k: spans[k]["start"]):
            lo = max(spans[c]["start"], cursor)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def durations_ms(spans: list[dict], name: str) -> list[float]:
    return [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == name]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
