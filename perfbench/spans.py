"""Span recording for the benchmark's traced runs.

A span is one timed call into a layer: name, start, end, parent span and
job id.  Spans are kept in memory and written out when the run ends, so
recording one costs two clock reads and a list append.  Counts are added at
the same boundaries, keyed by job.

``NullTracer`` is what untraced runs use: every call is a no-op, so the
end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

JOB = "job"


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tr = self._tracer
        self._index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append([self._name, perf_counter(), None, parent, tr.job])
        tr._stack.append(self._index)
        return self

    def __exit__(self, *exc):
        tr = self._tracer
        tr.spans[self._index][2] = perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """Collects spans and per-job counts in memory."""

    on = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job: int | None = None
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        self.counts[self.job][name] += value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per job, each span name's summed duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, _, job) in enumerate(self.spans):
            out[job][name] += (t1 - t0) - child_time[i]
        return out

    def coverage(self) -> dict[int, float]:
        """Per job, the share of its wall time covered by its layer spans."""
        covered: dict[int, float] = defaultdict(float)
        wall: dict[int, float] = {}
        for name, t0, t1, parent, job in self.spans:
            if name == JOB:
                wall[job] = t1 - t0
            elif parent is not None and self.spans[parent][0] == JOB:
                covered[job] += t1 - t0
        return {job: covered[job] / w for job, w in wall.items()}

    def layer_medians(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-job medians of self time and of counts, over all traced jobs."""
        jobs = sorted({job for name, *_, job in self.spans if name == JOB})
        selfs = self.self_times()
        names = {n for j in jobs for n in selfs[j]} - {JOB}
        times = {n: statistics.median(selfs[j].get(n, 0.0) for j in jobs) for n in names}
        count_names = {n for j in jobs for n in self.counts[j]}
        counts = {
            n: statistics.median(self.counts[j].get(n, 0.0) for j in jobs)
            for n in count_names
        }
        return times, counts

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": t0, "end": t1,
                       "parent": parent, "job": job}
                fh.write(json.dumps(rec) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    on = False
    job: int | None = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float) -> None:
        pass
