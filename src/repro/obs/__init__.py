"""Unified observability: one metrics registry, one tracer, two exports.

Every earlier PR grew its own counter surface -- the fixpoint cache's
``lifetime`` block, ``BatchReport.pool_workers``, the resident server's
p50/p99 latencies, the worklist's ``dedup_hits``, the
intern pool's hit/miss stats.  This package is where those one-off
surfaces converge:

* :mod:`repro.obs.metrics` -- a process-wide :class:`MetricsRegistry`
  of counters, gauges, timers and nearest-rank histograms, with a
  structured :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` and
  Prometheus text exposition
  (:meth:`~repro.obs.metrics.MetricsRegistry.prometheus`);
* :mod:`repro.obs.trace` -- a structured tracer emitting nested spans
  and instant events to JSONL or the Chrome ``trace_event`` format
  (viewable in ``chrome://tracing`` / Perfetto), reached through a
  thread-local :func:`~repro.obs.trace.current_tracer` whose default is
  a no-op :class:`~repro.obs.trace.NullTracer` cheap enough to leave in
  the per-phase call sites permanently (the overhead is benchmark-gated
  in ``benchmarks/bench_gates.py``).

The counting *discipline* stays where it was: sites that already expose
byte-stable counter documents (the cache's ``lifetime`` block, the
server's ``stats`` response) keep their local counters authoritative
and mirror increments into the registry, so existing contracts do not
move while every counter becomes visible from one place.
"""
