"""Service observability: trace spans, rolling histograms, counters.

Every request carries a :class:`Trace` through the pipeline.  Its
phases are ``queue`` (admission and handing the job to the scheduler;
nothing waits here), ``resolve`` (key derivation), ``model`` (the wait
for the answer: a perf query's wait for its batch to start, then pool
execution) and ``serialize`` (response encoding).  They are stamped into
the response and accumulated into the service-wide :class:`Telemetry`
registry.  Latencies feed per-kind rolling histograms (bounded windows,
so a long-lived server's memory and percentile cost stay constant) and
everything is exported as one JSON snapshot — the ``metrics`` query
kind, this service's ``/metrics``.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict, deque
from typing import Any, Callable

__all__ = ["RollingHistogram", "Telemetry", "Trace"]

#: the pipeline phases every request is traced through, in order
PHASES = ("queue", "resolve", "model", "serialize")
#: samples each rolling latency histogram keeps
HISTOGRAM_WINDOW = 2048


class Trace:
    """Wall-clock spans of one request's trip through the pipeline."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._t0 = clock()
        self.spans: dict[str, float] = {}

    class _Span:
        def __init__(self, trace: "Trace", name: str) -> None:
            self._trace, self._name = trace, name

        def __enter__(self) -> "Trace._Span":
            self._start = self._trace._clock()
            return self

        def __exit__(self, *exc: object) -> None:
            self._trace.add(self._name,
                            self._trace._clock() - self._start)

    def phase(self, name: str) -> "Trace._Span":
        """Context manager timing one phase into the trace."""
        return Trace._Span(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._t0

    def to_dict(self) -> dict[str, float]:
        """Wire form: ``{phase}_s`` spans plus the total."""
        out = {f"{k}_s": v for k, v in self.spans.items()}
        out["total_s"] = self.elapsed_s
        return out


class RollingHistogram:
    """Bounded latency window with nearest-rank percentiles."""

    def __init__(self, window: int = HISTOGRAM_WINDOW) -> None:
        self._samples: deque[float] = deque(maxlen=window)
        self.count = 0  # lifetime observations, beyond the window

    def observe(self, value: float) -> None:
        self._samples.append(value)
        self.count += 1

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the current window (0 if empty)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(math.ceil(q * len(ordered)), 1)
        return ordered[rank - 1]

    def summary(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "window": len(self._samples),
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
            "max_s": max(self._samples) if self._samples else 0.0,
        }


class Telemetry:
    """Thread-safe counters, gauges, and per-kind latency histograms.

    The asyncio pipeline mutates it from the event loop, the load
    generator and pool callbacks from other threads, so every mutation
    takes the (uncontended, tiny-critical-section) lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: defaultdict[str, int] = defaultdict(int)
        self._gauges: dict[str, Any] = {}
        self._latency: dict[str, RollingHistogram] = {}
        self._spans: dict[str, RollingHistogram] = {}
        self._started = time.time()

    # ------------------------------------------------------------- write
    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] += n

    def gauge(self, name: str, value: Any) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe_latency(self, kind: str, seconds: float) -> None:
        with self._lock:
            hist = self._latency.get(kind)
            if hist is None:
                hist = self._latency[kind] = RollingHistogram()
            hist.observe(seconds)

    def observe_trace(self, trace: Trace) -> None:
        """Fold one request's phase spans into the per-phase histograms."""
        with self._lock:
            for name, seconds in trace.spans.items():
                hist = self._spans.get(name)
                if hist is None:
                    hist = self._spans[name] = RollingHistogram()
                hist.observe(seconds)

    # -------------------------------------------------------------- read
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, Any]:
        """The ``metrics`` query answer: everything, JSON-able."""
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
            latency = {k: h.summary()
                       for k, h in sorted(self._latency.items())}
            spans = {k: h.summary() for k, h in sorted(self._spans.items())}
        requests = counters.get("requests_total", 0)
        reused = (counters.get("coalesced_total", 0)
                  + counters.get("cache_hits_total", 0)
                  + counters.get("stale_served_total", 0))
        return {
            "uptime_s": time.time() - self._started,
            "counters": counters,
            "gauges": gauges,
            #: fraction of answers served without a fresh model run
            "reuse_rate": (reused / requests) if requests else 0.0,
            "latency_by_kind": latency,
            "phase_spans": spans,
        }
