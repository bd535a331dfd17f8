"""The resident server's counter surface (the ``stats`` method's backing).

One :class:`ServerMetrics` instance per server, shared by every worker
thread.  Since PR 10 it is a thin *view* over a private
:class:`repro.obs.metrics.MetricsRegistry`: every request/tier/error
count and latency sample lives in one registry series, and both export
surfaces -- the JSON ``stats`` document and the Prometheus ``metrics``
text -- read the *same* counter objects, which is what makes the two
reconcile exactly (a property CI scrapes for).  The registry is private
per server, not the process-wide default, so parallel test servers in
one interpreter cannot bleed counts into each other.

Counting discipline (load-bearing for the golden protocol tests):
requests are counted at *receipt* and errors/tiers/latencies at
*handler completion* -- all on the event-loop side, never inside the
worker job.  A timed-out request therefore contributes one request, one
``timeout`` error, and nothing else, even though its orphaned worker job
may still be running (and eventually finishing) when the next ``stats``
request is answered: counters reflect what the server *said*, which is
the only thing a deterministic test can pin.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import Counter, Histogram, MetricsRegistry, percentile

__all__ = ["ServerMetrics", "percentile"]


class ServerMetrics:
    """Thread-safe request/tier/error/latency accounting for one server."""

    #: Per-method latency samples kept for the percentiles; older samples
    #: roll off so a long-lived daemon's stats stay O(1) and current.
    MAX_SAMPLES = Histogram.MAX_SAMPLES

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._started = time.monotonic()
        # label -> instrument maps: the instruments live in the registry
        # (so ``prometheus()`` sees them); these dicts only memoize the
        # lookup and remember which labels have appeared, in order.
        self._requests: dict[str, Counter] = {}
        self._errors: dict[str, Counter] = {}
        self._tiers: dict[str, Counter] = {}
        self._latencies: dict[str, Histogram] = {}
        self._evaluations = self.registry.counter("serve_work_evaluations_total")
        self._dedup_hits = self.registry.counter("serve_work_dedup_hits_total")
        self.registry.describe(
            "serve_requests_total", "Requests received, by protocol method."
        )
        self.registry.describe(
            "serve_errors_total", "Error responses sent, by protocol error name."
        )
        self.registry.describe(
            "serve_tier_total", "Jobs answered, by serving tier (hot|disk|warm|cold)."
        )
        self.registry.describe(
            "serve_latency_seconds", "Wall-clock service time, by protocol method."
        )

    def _labeled(
        self, cache: dict[str, Counter], name: str, label_key: str, label: str
    ) -> Counter:
        with self._lock:
            counter = cache.get(label)
            if counter is None:
                counter = self.registry.counter(name, **{label_key: label})
                cache[label] = counter
            return counter

    def record_request(self, method: str) -> None:
        """Count one request at receipt (before any validation or work)."""
        self._labeled(self._requests, "serve_requests_total", "method", method).inc()

    def record_error(self, name: str) -> None:
        """Count one error response by its stable protocol name."""
        self._labeled(self._errors, "serve_errors_total", "error", name).inc()

    def record_tier(self, tier: str) -> None:
        """Count which tier answered (hot | disk | warm | cold)."""
        self._labeled(self._tiers, "serve_tier_total", "tier", tier).inc()

    def record_work(self, stats: dict) -> None:
        """Accumulate one outcome's engine-work counters (handler side).

        ``evaluations``/``dedup_hits`` sum across every analysed job
        (cache-served outcomes carry no stats and contribute nothing),
        so the ``stats`` method shows the engine work served.
        """
        self._evaluations.inc(stats.get("evaluations") or 0)
        self._dedup_hits.inc(stats.get("dedup_hits") or 0)

    def record_latency(self, method: str, seconds: float) -> None:
        """Record one successful request's wall-clock service time."""
        with self._lock:
            histogram = self._latencies.get(method)
            if histogram is None:
                histogram = self.registry.histogram(
                    "serve_latency_seconds", method=method
                )
                self._latencies[method] = histogram
        histogram.observe(seconds)

    def snapshot(self) -> dict:
        """One consistent stats document (the ``stats`` method's core).

        ``latency`` values are rounded to microseconds: precise enough
        for any consumer, and it keeps the document shape stable.
        """
        with self._lock:
            requests = {m: c.value for m, c in sorted(self._requests.items())}
            errors = {n: c.value for n, c in sorted(self._errors.items())}
            tiers = {t: c.value for t, c in sorted(self._tiers.items())}
            latency = {}
            for method, histogram in sorted(self._latencies.items()):
                samples = histogram.samples()
                latency[method] = {
                    "count": len(samples),
                    "p50": round(percentile(samples, 0.50), 6),
                    "p99": round(percentile(samples, 0.99), 6),
                }
            return {
                "uptime_seconds": round(time.monotonic() - self._started, 6),
                "requests": requests,
                "errors": errors,
                "tiers": tiers,
                "work": {
                    "evaluations": self._evaluations.value,
                    "dedup_hits": self._dedup_hits.value,
                },
                "latency": latency,
            }

    def prometheus(self) -> str:
        """The same counters in Prometheus text exposition format.

        Reads the identical registry series ``snapshot`` reads, so a
        scraper's view reconciles exactly with the ``stats`` method
        (the CI server-smoke job asserts this).
        """
        self.registry.gauge("serve_uptime_seconds").set(
            round(time.monotonic() - self._started, 6)
        )
        return self.registry.prometheus()
