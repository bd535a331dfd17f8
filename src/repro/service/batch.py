"""``run_batch``: shard a grid of analyses across processes, behind the cache.

The batch runner is the *pool-shaped* front end of the shared dispatch
core (:mod:`repro.service.jobs` owns job normalization, the cache-first
probe, and report shaping); what lives here is the process-boundary
orchestration:

* **Spawn-safe by construction.**  Jobs travel to workers as *source
  text* (or a corpus program name) plus a config of plain scalars, never
  as live term graphs; each worker parses in its own process, which
  rebuilds its intern pool exactly the way a fresh CLI invocation would.
  The default start method is ``spawn`` -- the strictest one (nothing
  inherited), and the only one available everywhere -- so anything that
  works here works under ``fork`` too.
* **Canonical on receipt.**  Workers return frozen fixed points
  (``frozenset``\\ s and PMaps) through pickle; unpickling rebuilds
  every syntax node through its interning constructor, so the terms in
  a received fixed point *are* the parent's locally parsed ones
  (:mod:`repro.util.intern`, "canonical at birth").
* **Cache first.**  With a :class:`~repro.service.cache.FixpointCache`
  attached, every job's content address is consulted before dispatch
  (:func:`repro.service.jobs.probe`); only misses reach the pool, and
  their results (with warm-start evaluation records, where the
  configuration supports them) are written back by the parent -- workers
  never touch the cache directory, so no cross-process index locking
  exists to get wrong.
* **Adaptive.**  The pool only engages when it can pay for itself: the
  first unique miss runs inline as a *probe*, and the measured job cost
  times the remaining job count must clear :data:`_MIN_POOL_SECONDS`
  before any worker process starts (spawn costs a few hundred
  milliseconds per worker -- a batch of microsecond analyses must never
  buy that).  Pool width is clamped to ``os.cpu_count()``, so on a
  single-core box the runner degrades to the inline path and the batch
  can never run slower than serial.
* **Cheap transport.**  Workers pre-pickle their results into the exact
  byte shapes the cache stores on disk (zlib-compressed for the pipe),
  so the parent writes the bytes straight through
  (:meth:`~repro.service.cache.FixpointCache.put_payload`) and unpickles
  only the fixed point for the report -- the warm-start records, which
  usually outweigh it, cross the parent without ever being rebuilt.
* **Fault-isolated.**  Work is dispatched in round-robin chunks of
  ``(index, job)`` pairs; a worker that dies (or a result that cannot be
  unpickled) costs only its chunk, whose jobs are re-run inline and
  counted in :attr:`BatchReport.inline_fallbacks` instead of failing the
  whole batch.  Deterministic analysis errors still surface: the inline
  re-run raises them in the parent.

The result is a :class:`BatchReport` whose :meth:`BatchReport.render`
is deterministic JSON (:func:`repro.analysis.report.render_json`):
the machine-readable artifact the CLI's ``repro batch`` writes, the CI
cache-smoke job asserts over, and the server's ``batch`` method returns
on the wire.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.report import render_json
from repro.obs.metrics import default_registry
from repro.obs.trace import current_tracer
from repro.service.cache import (
    PAYLOAD_SCHEMA,
    FixpointCache,
    ensure_deep_pickle,
)
from repro.service.jobs import (  # noqa: F401  (re-exported batch surface)
    BatchJob,
    JobOutcome,
    complete,
    outcome_row,
    prepare,
    probe,
    resolve_program,
    run_cold,
)

#: The pool engages only when the probe-predicted serial cost of the
#: remaining jobs clears this bar.  Spawning a worker costs a few
#: hundred milliseconds (interpreter boot + imports); two seconds of
#: predicted work is the point where a multi-worker pool reliably wins
#: on the machines the benchmarks run on.
_MIN_POOL_SECONDS = 2.0


def _pack_job(job: BatchJob) -> dict:
    """Run one job and pre-pickle its results for the pipe (worker side).

    ``object_blob``/``records_blob`` are zlib-compressed encodings of the
    exact payloads :meth:`~repro.service.cache.FixpointCache.put` would
    pickle to disk, so the parent can write them through
    ``put_payload`` without rebuilding either -- the records, which
    usually outweigh the fixed point, never get unpickled parent-side.
    Compression level 1 because the pipe, not the CPU, is the bottleneck
    here: interned term graphs pickle with enormous redundancy.
    """
    payload = run_cold(job)
    object_blob = zlib.compress(
        pickle.dumps(
            {"schema": PAYLOAD_SCHEMA, "fp": payload["fp"]},
            protocol=pickle.HIGHEST_PROTOCOL,
        ),
        1,
    )
    records = payload["records"]
    records_blob = None
    if records:
        sidecar = {"records": records, "program": resolve_program(job)}
        records_blob = zlib.compress(
            pickle.dumps(sidecar, protocol=pickle.HIGHEST_PROTOCOL), 1
        )
    return {
        "object_blob": object_blob,
        "records_blob": records_blob,
        "seconds": payload["seconds"],
        "stats": payload["stats"],
        "pid": payload["pid"],
    }


def _run_chunk(chunk: Sequence[tuple[int, BatchJob]]) -> list[tuple[int, dict]]:
    """Execute one round-robin chunk of ``(index, job)`` pairs (worker side)."""
    ensure_deep_pickle()
    return [(index, _pack_job(job)) for index, job in chunk]


@dataclass
class BatchReport:
    """The machine-readable outcome of one :func:`run_batch` call."""

    outcomes: list[JobOutcome]
    workers: int
    total_seconds: float
    cache_stats: dict | None = None
    pool_workers: int = 0
    inline_fallbacks: int = 0

    def to_document(self, include_flows: bool = False) -> dict:
        """The report as deterministic-JSON-ready data."""
        return {
            "schema": "batch-report/1",
            "jobs": [
                outcome_row(outcome, include_flows=include_flows)
                for outcome in self.outcomes
            ],
            "workers": self.workers,
            "pool_workers": self.pool_workers,
            "inline_fallbacks": self.inline_fallbacks,
            "total_seconds": round(self.total_seconds, 6),
            "cache": self.cache_stats,
        }

    def render(self, include_flows: bool = False) -> str:
        """Deterministic JSON (sorted keys, stable addresses, trailing \\n)."""
        return render_json(self.to_document(include_flows=include_flows))

    @property
    def hit_count(self) -> int:
        """How many jobs were answered from the cache."""
        return sum(1 for outcome in self.outcomes if outcome.cached)


def jobs_for(
    programs: Iterable[tuple[str, str, str]], presets: Iterable[str]
) -> list[BatchJob]:
    """Build a job grid: ``(language, name, source)`` x preset names."""
    from repro.config import preset_config

    grid = []
    for language, name, source in programs:
        for preset in presets:
            grid.append(
                BatchJob(
                    config=preset_config(preset, language),
                    source=source,
                    label=f"{language}/{name}/{preset}",
                )
            )
    return grid


def run_batch(
    jobs: Sequence[BatchJob],
    workers: int = 1,
    cache: FixpointCache | None = None,
    cache_dir: str | None = None,
    use_cache: bool = True,
    start_method: str = "spawn",
    min_pool_seconds: float = _MIN_POOL_SECONDS,
) -> BatchReport:
    """Run a batch of analysis jobs, cache-first, adaptively pool-sharded.

    ``workers > 1`` *permits* a worker pool; whether one starts is
    decided adaptively (see the module docstring): pool width is clamped
    to ``os.cpu_count()`` and the first unique miss runs inline as a
    cost probe -- only when the probe predicts more than
    ``min_pool_seconds`` of remaining serial work do worker processes
    spawn (``start_method`` defaults to the spawn-safe strictest
    choice).  ``workers <= 1`` always runs misses inline, which skips
    pickling entirely.  ``cache`` or ``cache_dir`` attaches a fixpoint cache;
    ``use_cache=False`` keeps a configured cache cold (the CLI's
    ``--no-cache``).

    A worker that dies, or a result that cannot be unpickled, costs only
    its chunk of jobs: those re-run inline and are counted in
    :attr:`BatchReport.inline_fallbacks`.

    Every job's fixed point -- cache hit, pooled, fallen-back, or
    inline -- is bit-identical to a cold single-process run of the same
    cell, which ``tests/test_service.py`` pins across the whole preset
    matrix.
    """
    if cache is None and cache_dir is not None and use_cache:
        # --no-cache must neither create nor read the directory
        cache = FixpointCache(root=cache_dir)
    ensure_deep_pickle()  # pool results unpickle on a parent-side thread
    started = time.perf_counter()

    # normalize every config up front: the workers receive the same
    # validated jobs the content addresses are derived from (prepare()
    # re-validates, but chunk dispatch pickles the job as-is)
    jobs = [
        job
        if (validated := job.config.validated()) == job.config
        else dataclasses.replace(job, config=validated)
        for job in jobs
    ]

    prepared = [prepare(job) for job in jobs]
    outcomes: list[JobOutcome | None] = [None] * len(jobs)
    misses: list[int] = []
    for index, cell in enumerate(prepared):
        if cache is not None and use_cache:
            outcomes[index] = probe(cell, cache=cache)
            if outcomes[index] is not None:
                continue
        misses.append(index)

    pool_workers = 0
    inline_fallbacks = 0
    if misses:
        # dedupe within the batch: two cells with one content address are
        # one computation (the duplicates share the payload below)
        leaders: dict[str, int] = {}
        for index in misses:
            leaders.setdefault(prepared[index].key, index)
        unique = sorted(leaders.values())
        computed: dict[int, dict] = {}
        pending = list(unique)

        pool_cap = max(1, min(workers, os.cpu_count() or 1, len(unique) - 1))
        if pool_cap > 1:
            # probe: the first unique job runs inline and its measured
            # cost decides whether the rest are worth a pool at all
            probe_index = pending[0]
            computed[probe_index] = run_cold(jobs[probe_index])
            pending = pending[1:]
            if computed[probe_index]["seconds"] * len(pending) >= min_pool_seconds:
                pool_workers = min(pool_cap, len(pending))
                chunks = [
                    [(index, jobs[index]) for index in pending[offset::pool_workers]]
                    for offset in range(pool_workers)
                ]
                context = multiprocessing.get_context(start_method)
                with ProcessPoolExecutor(
                    max_workers=pool_workers, mp_context=context
                ) as pool:
                    futures = {
                        pool.submit(_run_chunk, chunk): chunk for chunk in chunks
                    }
                    for future in as_completed(futures):
                        chunk = futures[future]
                        try:
                            packed = future.result()
                        except Exception:
                            # the worker died (or its result never made
                            # it across the pipe): only this chunk's
                            # jobs re-run, inline -- a deterministic
                            # analysis error will re-raise here, in the
                            # parent, where it is attributable
                            for index, job in chunk:
                                computed[index] = run_cold(job)
                                inline_fallbacks += 1
                            continue
                        for index, payload in packed:
                            try:
                                raw = zlib.decompress(payload["object_blob"])
                                fp = pickle.loads(raw)["fp"]
                            except Exception:
                                # damaged transport for one job: fall
                                # back for that job alone
                                computed[index] = run_cold(jobs[index])
                                inline_fallbacks += 1
                                continue
                            computed[index] = {
                                "fp": fp,
                                "records": None,
                                "object_blob": raw,
                                "records_blob": payload["records_blob"],
                                "seconds": payload["seconds"],
                                "stats": payload["stats"],
                                "pid": payload["pid"],
                            }
                pending = []
        for index in pending:
            computed[index] = run_cold(jobs[index])
        by_key = {prepared[index].key: computed[index] for index in unique}

        stored: set[str] = set()
        for index in misses:
            cell = prepared[index]
            first_for_key = cell.key not in stored
            stored.add(cell.key)
            outcomes[index] = complete(
                cell,
                by_key[cell.key],
                cache=cache if use_cache else None,
                store=first_for_key,
            )

    if cache is not None and use_cache:
        # the lifetime counters (and per-entry hit recency) must survive
        # hit-only invocations too, not just ones that put
        cache.flush_stats()
    current_tracer().event(
        "batch.complete",
        cat="batch",
        jobs=len(jobs),
        pool_workers=pool_workers,
        inline_fallbacks=inline_fallbacks,
    )
    registry = default_registry()
    registry.counter("batch_jobs_total").inc(len(jobs))
    if pool_workers:
        registry.counter("batch_pool_engaged_total").inc()
        registry.gauge("batch_pool_workers").set(pool_workers)
    if inline_fallbacks:
        registry.counter("batch_inline_fallbacks_total").inc(inline_fallbacks)
    return BatchReport(
        outcomes=[outcome for outcome in outcomes if outcome is not None],
        workers=workers,
        total_seconds=time.perf_counter() - started,
        cache_stats=cache.stats() if cache is not None else None,
        pool_workers=pool_workers,
        inline_fallbacks=inline_fallbacks,
    )
