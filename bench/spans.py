"""In-memory spans around calls into lposd, and the statistics drawn from them.

A span is (name, start, end, parent, trial): ``parent`` is the index of the
enclosing span or -1, ``trial`` identifies the decode the span belongs to.
Spans are appended to a list while the run executes and written out only
when it ends, so tracing does no I/O inside the timed window.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np


def tail_stat(values) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that still has
    at least ten samples above it; with fewer than eleven samples, the max."""
    arr = np.sort(np.asarray(values, dtype=float))
    n = arr.size
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return float(arr[-1]), 100.0, n
    idx = n - 11
    return float(arr[idx]), math.floor(1000.0 * (idx + 1) / n) / 10.0, n


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def open(self, name, trial) -> int:
        return -1

    def close(self, idx) -> None:
        pass


class Tracer(NullTracer):
    """Records one span per call; ``open``/``close`` bracket a root span."""

    def __init__(self):
        self.spans: list[list] = []
        self._parent = -1
        self._trial = None

    def open(self, name, trial) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._parent, trial])
        self._parent, self._trial = idx, trial
        return idx

    def close(self, idx) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._parent = span[3]
        self._trial = self.spans[self._parent][4] if self._parent >= 0 else None

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name, self._trial)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time its direct children cover."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def layer_stats(self, names, wall: float) -> dict[str, dict[str, float]]:
        """calls, ms_p50, ms_tail and share (self time over ``wall``) per name;
        a name with no spans reports zeros."""
        own = self.self_times()
        by_name: dict[str, list[int]] = {name: [] for name in names}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s[0], []).append(i)
        out = {}
        for name in names:
            idx = by_name[name]
            ms = [1e3 * (self.spans[i][2] - self.spans[i][1]) for i in idx]
            tail, _, _ = tail_stat(ms)
            out[name] = {
                "calls": len(idx),
                "ms_p50": float(np.median(ms)) if ms else 0.0,
                "ms_tail": tail,
                "ms_mean": float(np.mean(ms)) if ms else 0.0,
                "share": float(own[idx].sum() / wall) if idx and wall > 0 else 0.0,
            }
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")
