"""Sample statistics and the span recorder."""

from __future__ import annotations

import statistics
import time

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def quantile(samples, q: float) -> float:
    """The ``q``-quantile by linear interpolation between order statistics."""
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def supported_percentile(n: int, q: float) -> float:
    """The highest percentile ``<= q`` that ``n`` samples support: at
    least :data:`MIN_BEYOND` samples must lie beyond it (never below the
    median, which is always reported)."""
    if n <= 0:
        return 0.5
    return max(0.5, min(q, 1.0 - MIN_BEYOND / n))


def percentile(samples, q: float) -> tuple[float, float]:
    """``(q', value)``: the ``q``-quantile, or the highest supported one."""
    supported = supported_percentile(len(samples), q)
    return supported, quantile(samples, supported)


def spread(samples) -> float:
    """Interquartile range as a share of the median — the statistic the
    driver holds every end-to-end metric's ten runs to."""
    if len(samples) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, request id]``.

    Spans nest by ``with``; a span's parent is the span open when it
    started and it inherits that span's request id unless given one.
    """

    NAME, START, END, PARENT, RID = range(5)

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, rid=None) -> "_Span":
        return _Span(self, name, rid)

    def to_json(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "rid": s[4]}
            for s in self.spans
        ]


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span minus what its children cover."""
    own = [s[Tracer.END] - s[Tracer.START] for s in spans]
    for s in spans:
        if s[Tracer.PARENT] is not None:
            own[s[Tracer.PARENT]] -= s[Tracer.END] - s[Tracer.START]
    totals: dict[str, float] = {}
    for s, seconds in zip(spans, own):
        totals[s[Tracer.NAME]] = totals.get(s[Tracer.NAME], 0.0) + seconds
    return totals


class _Span:
    __slots__ = ("tracer", "name", "rid", "index")

    def __init__(self, tracer: Tracer, name: str, rid):
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else None
        rid = self.rid
        if rid is None and parent is not None:
            rid = tracer.spans[parent][Tracer.RID]
        self.index = len(tracer.spans)
        tracer._open.append(self.index)
        tracer.spans.append([self.name, 0.0, 0.0, parent, rid])
        tracer.spans[self.index][Tracer.START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer.spans[self.index][Tracer.END] = end
        self.tracer._open.pop()
        return False

    @property
    def seconds(self) -> float:
        span = self.tracer.spans[self.index]
        return span[Tracer.END] - span[Tracer.START]
