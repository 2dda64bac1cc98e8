"""A fixed piece of work, independent of socnav, that gauges how fast this machine runs now.

The benchmark runs on a shared host whose speed drifts by 15-50 % over
minutes, far more than the regressions it must catch. Every run therefore
times this reference between the steps of its workload, spread evenly over
the run, and reports its time metrics scaled to a machine on which the
reference takes ``NOMINAL_MS``:

    reported time = measured time * NOMINAL_MS / median reference time

Rates are scaled the other way. The reference does what the pipeline does
most, in the same proportions: JSON parsing and writing, Python loops over
dicts and lists, and element-wise numpy on small arrays. It never calls
socnav, so no change to the program can change it, and it runs only while
the program is idle. Both the measured values and the scale factor are
printed with every result.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_MS = 16.0   # the reference's median time on the machine the seed numbers come from
EVERY_S = 0.25      # time the reference at most once per this many seconds

# The start-up reference, for set-up time: a fresh interpreter that imports
# numpy, which is most of what set-up costs, and none of socnav.
START_CODE = "import time, numpy; print(time.monotonic())"
NOMINAL_START_S = 0.23  # its median time on the machine the seed numbers come from


def _document() -> str:
    rows = [{"id": f"agent_{i}", "t": i * 0.1, "x": (i % 97) * 0.25, "y": (i % 89) * -0.5,
             "tags": [str(i % 7), "a" * (i % 5)], "v": [j * 0.5 + i for j in range(6)]}
            for i in range(600)]
    return json.dumps({"rows": rows})


class Reference:
    """Times the reference work; ``tick`` runs it when it is due."""

    def __init__(self):
        self.document = _document()
        self.points = np.linspace(-1.0, 1.0, 48).reshape(24, 2)
        self.times_ms: list[float] = []
        self._last = float("-inf")

    def once(self) -> float:
        t0 = time.perf_counter()
        data = json.loads(self.document)
        total = 0.0
        for row in data["rows"]:
            total += row["x"] * len(row["tags"]) - row["y"] + sum(row["v"])
            row["total"] = total
        json.dumps(data)
        pos = self.points
        for _ in range(150):
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.linalg.norm(diff, axis=2) + 1.0
            pos = pos + 0.001 * (diff / dist[:, :, None] ** 2).sum(axis=1)
        elapsed = (time.perf_counter() - t0) * 1e3
        self.times_ms.append(elapsed)
        return elapsed

    def tick(self):
        now = time.monotonic()
        if now - self._last >= EVERY_S:
            self.once()
            self._last = time.monotonic()

    def warm(self, times: int = 3):
        """Untimed calls, so that first-call costs stay out of the median."""
        for _ in range(times):
            self.once()
        self.times_ms.clear()

    def speed(self) -> float:
        """How much faster than nominal the machine ran: NOMINAL_MS / median time."""
        return NOMINAL_MS / statistics.median(self.times_ms)


def start_speed(start_s: list[float]) -> float:
    """How much faster than nominal processes started: NOMINAL_START_S / median time."""
    return NOMINAL_START_S / statistics.median(start_s)
