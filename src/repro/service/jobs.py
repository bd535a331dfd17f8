"""The one job-dispatch core behind batch, CLI, incremental, and server.

Before this module, three near-copies of the same pipeline lived in the
tree: ``run_batch``'s per-job probe loop, ``reanalyse``'s three-path
cascade, and the CLI's parse-assemble-run block.  Each resolved a
program, derived a content address, consulted the fixpoint cache, ran
cold on a miss, and shaped a report row -- with slightly different
bookkeeping, which is exactly how counter sources and cache semantics
drift apart.  This module is the single home of that pipeline:

* **Normalization** -- :func:`normalize_job` turns wire/CLI scalars
  (language, preset name, override mapping, source text or corpus name)
  into a validated, spawn-safe :class:`BatchJob`; ``imp`` sources lower
  to ``lam`` here, once, for every front end.
* **Cache-first dispatch** -- :func:`dispatch` runs one job through the
  full tier cascade: hot in-memory LRU (:class:`HotTier`), on-disk
  content-addressed :class:`~repro.service.cache.FixpointCache`,
  exactness-gated warm start, cold run -- writing results back down the
  tiers.  :func:`prepare`/:func:`probe`/:func:`complete` expose the
  stages separately for the batch runner, whose middle stage is a
  process pool rather than an inline run.
* **Report shaping** -- :func:`outcome_row` renders a
  :class:`JobOutcome` into the deterministic row shape shared by
  ``BatchReport`` documents and the server's ``analyse`` responses.

Every fixed point leaving this module is bit-identical to a cold
single-process ``assemble(config).run(program)`` of the same cell --
the invariant ``tests/test_service.py`` and ``tests/test_serve.py`` pin
across the preset x language matrix, whatever tier answered.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.report import result_summary
from repro.config import AnalysisConfig, assemble, request_config
from repro.core.fixpoint import FixpointCapture
from repro.obs.metrics import default_registry
from repro.obs.trace import current_tracer
from repro.service.cache import (
    CachedFixpoint,
    FixpointCache,
    cache_key,
    ensure_deep_pickle,
)
from repro.util.intern import decompose, memo_source


@dataclass(frozen=True)
class BatchJob:
    """One dispatchable cell: a program (by source or corpus name) x a config.

    Everything in here is plain, picklable scalar data -- the property
    that makes the job spawn-safe (it crosses the batch runner's process
    boundary as-is) and wire-safe (it round-trips through the server's
    JSON protocol).  ``config`` must carry its language; use
    :func:`normalize_job` (scalars) or ``jobs_for`` (grids) to build.
    """

    config: AnalysisConfig
    source: str | None = None
    corpus: str | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if (self.source is None) == (self.corpus is None):
            raise ValueError("a BatchJob names exactly one of source= or corpus=")
        if self.config.language is None:
            raise ValueError("a BatchJob's config must carry its language")

    def describe(self) -> str:
        """A short human-readable cell name for tables and reports."""
        program = self.corpus if self.corpus else "<source>"
        return self.label or f"{self.config.language}/{program}/{self.config.describe()}"


def normalize_job(
    language: str,
    source: str | None = None,
    corpus: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
    label: str = "",
) -> BatchJob:
    """Build a validated :class:`BatchJob` from request/CLI scalars.

    The one normalization every front end shares: ``imp`` source lowers
    to ``lam`` source text here (spawn- and cache-safe -- the analysis
    is a lam analysis either way; the lowering is memoized per source
    text with the intern pool, :func:`repro.util.intern.memo_source`),
    the preset/override resolution goes
    through :func:`repro.config.request_config`, and bad input surfaces
    as ``ValueError`` with an actionable message (which the server maps
    to an ``invalid-params`` error response).
    """
    if language == "imp":
        if source is not None:
            source = memo_source("imp", source, _lowered_text)
        elif corpus is not None and not corpus.startswith("imp:"):
            # imp corpus programs are registered lowered under the imp:
            # prefix (repro.corpus); accept the bare name on the wire
            corpus = f"imp:{corpus}"
        language = "lam"
    config = request_config(language, preset=preset, overrides=overrides)
    return BatchJob(config=config, source=source, corpus=corpus, label=label)


def _lowered_text(source: str) -> str:
    """An ``imp`` source as the ``lam`` source text it lowers to."""
    from repro.imp import lower_source
    from repro.lam.syntax import pp as lam_pp

    return lam_pp(lower_source(source))


def resolve_program(job: BatchJob) -> Any:
    """Parse (or look up) the job's program in *this* process.

    Parsing interns every node, so resolving the same job in parent and
    worker yields structurally identical, locally-canonical terms --
    the content address is therefore process-independent.  A source
    parsed before in this pool lifetime is not parsed again: the
    canonical program comes back from
    :func:`repro.util.intern.memo_source`.
    """
    language = job.config.language
    if job.corpus is not None:
        from repro.corpus import corpus_program

        return corpus_program(language, job.corpus)
    return memo_source(language, job.source, _parser(language))


def _parser(language: str):
    """The front end's ``source -> program`` parser for ``language``."""
    if language == "cps":
        from repro.cps.parser import parse_program

        return parse_program
    if language == "lam":
        from repro.lam.parser import parse_expr

        return parse_expr
    from repro.fj.parser import parse_program as parse_fj

    return parse_fj


# ---------------------------------------------------------------------------
# Warm-start eligibility and result wrapping (shared mechanics)
# ---------------------------------------------------------------------------


def warmable(config: AnalysisConfig) -> bool:
    """Whether a configuration's runs can capture and replay evaluations.

    Warm starts live on the dependency-tracked engine (replayed
    configurations are re-triggered through the dependency map) and do
    not compose with abstract GC or counting, whose per-evaluation sweep
    and post-convergence saturation an evaluation record cannot replay
    (see :func:`repro.core.fixpoint.global_store_explore`).  Every other
    preset still gets the digest-hit tiers of :func:`dispatch`.
    """
    return config.engine == "depgraph" and not config.gc and not config.counting


def wrap_fixpoint(analysis: Any, fp: Any, program: Any, language: str) -> Any:
    """Wrap a bare fixed point in the language's result type.

    Every analysis shares one ``wrap_result(fp, program)``, so
    ``language`` is unused; the tiers of :func:`dispatch` call
    ``wrap_result`` directly, and replays of them (the perfbench
    layers) call this.
    """
    return analysis.wrap_result(fp, program)


def iter_subvalues(value: Any):
    """Every structural sub-value of a term, itself included (iterative).

    Language-agnostic: walks whatever the shared
    :func:`repro.util.intern.decompose` recognizes (dataclass fields,
    tuples, sets, mappings), so subterm checks can never diverge from
    content digesting.  Shared (interned) sub-terms are
    visited once.
    """
    seen: set[int] = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        _kind, children = decompose(node)
        stack.extend(children)


def contains_subterm(program: Any, candidate: Any) -> bool:
    """Whether ``candidate`` occurs verbatim (pointer-equal) inside ``program``.

    The donor-eligibility test behind automatic warm starts: when the
    old program is an *exact interned subterm* of the new one, the edit
    is an extension -- the old program is closed, so nothing the new
    wrapper binds can flow into its cells.  With contexts of at most one
    call site (``k <= 1``, or ``zerocfa``) its internal contexts (hence
    addresses and values) re-arise unchanged, and the seeded store
    therefore lies below the new fixed point: the warm result is exactly
    the cold one.  From ``k = 2`` on that argument fails: the donor's
    short call strings near its entry are ones the wrapper lengthens, so
    an address the new run shares with them can carry donor-only values
    (``id_chain`` extensions at ``k = 2, 3`` keep extra states) -- see
    :func:`subterm_gate_exact`.  A sibling edit (shared pieces, different
    surroundings) offers no guarantee at any ``k`` -- shared addresses
    can carry donor-only values -- so it must re-run cold.
    """
    return any(node is candidate for node in iter_subvalues(program))


def subterm_gate_exact(config: AnalysisConfig) -> bool:
    """Whether :func:`contains_subterm` proves a warm start exact under ``config``.

    Only contexts of at most one call site re-arise unchanged inside an
    extension: ``k <= 1``, or ``zerocfa``, which ignores ``k``.  Every
    other configuration answers an extension edit cold.
    """
    return config.k <= 1 or config.addressing == "zerocfa"


# ---------------------------------------------------------------------------
# The hot tier
# ---------------------------------------------------------------------------


class HotTier:
    """An in-memory LRU of live fixed points: the cache tier above disk.

    The resident server's reason to exist: a disk hit still pays open +
    unpickle per request (~tens of milliseconds on real fixed points),
    which a warm process should pay once.  Entries map a content address
    (:func:`repro.service.cache.cache_key`) to the *loaded* fixed point
    -- the same object every later request under that key receives, so
    the interned identity fast path holds across requests.

    Eviction is strict LRU over ``max_entries``.  Eviction can never
    serve anything stale: an evicted key simply falls through to the
    disk tier (or a cold run), both of which produce the identical fixed
    point -- ``tests/test_serve.py`` pins exactly that.  Thread-safe: the
    server's worker threads probe and fill concurrently.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("a HotTier needs max_entries >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Any | None:
        """The fixed point under ``key``, refreshed as most recent, or None."""
        with self._lock:
            if key not in self._entries:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]

    def put(self, key: str, fp: Any) -> None:
        """Install (or refresh) a fixed point, evicting LRU over budget."""
        with self._lock:
            self._entries[key] = fp
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the intern-pool-clear companion; see serve)."""
        with self._lock:
            self._entries.clear()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """Entry count and hit/miss/evict counters (one snapshot)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


# ---------------------------------------------------------------------------
# The dispatch pipeline
# ---------------------------------------------------------------------------


@dataclass
class PreparedJob:
    """A cell with its process-local pieces resolved (stage one of dispatch).

    ``job`` is the spawn-safe wrapper when the cell came from one
    (:func:`prepare`); cells prepared from an already-parsed program
    (:func:`prepare_cell` -- the ``reanalyse`` path) carry ``None``.
    """

    config: AnalysisConfig
    program: Any
    analysis: Any
    key: str
    job: BatchJob | None = None


@dataclass
class JobOutcome:
    """One job's result: which tier answered and what it cost.

    ``job`` is ``None`` for outcomes of directly-prepared cells
    (:func:`prepare_cell`); report shaping (:func:`outcome_row`) needs a
    real job.
    """

    job: BatchJob | None
    result: Any
    key: str
    cached: bool
    seconds: float
    tier: str = "cold"  # "hot" | "disk" | "warm" | "cold"
    stats: dict = field(default_factory=dict)
    worker_pid: int | None = None

    @property
    def fp(self) -> Any:
        """The fixed point itself (shared by every acceptance check)."""
        return self.result.fp


def prepare(job: BatchJob) -> PreparedJob:
    """Resolve a job's program, content address, and assembled analysis.

    The config is checked before its program is parsed, so a bad config
    fails fast whatever the program.
    """
    job.config.validated()
    tracer = current_tracer()
    with tracer.span("parse", cat="prepare", language=job.config.language):
        program = resolve_program(job)
    with tracer.span("assemble", cat="prepare", language=job.config.language):
        analysis = assemble(job.config, program=program)
    return PreparedJob(
        config=job.config,
        program=program,
        analysis=analysis,
        key=cache_key(program, job.config),
        job=job,
    )


def prepare_cell(config: AnalysisConfig, program: Any) -> PreparedJob:
    """Prepare an already-parsed program directly (no spawn-safe wrapper).

    The ``reanalyse`` entry: callers holding a live term skip the
    source/corpus round trip but run the identical downstream pipeline.
    """
    with current_tracer().span("assemble", cat="prepare", language=config.language):
        analysis = assemble(config, program=program)
    return PreparedJob(
        config=config,
        program=program,
        analysis=analysis,
        key=cache_key(program, config),
    )


def probe(
    prepared: PreparedJob,
    cache: FixpointCache | None = None,
    hot: HotTier | None = None,
) -> JobOutcome | None:
    """Try to answer a prepared job from the hot tier, then the disk tier.

    A disk hit is promoted into the hot tier on the way out, so the next
    identical request is answered from memory.  Returns ``None`` on a
    full miss -- the caller decides how to compute (inline, pool, warm).
    """
    started = time.perf_counter()
    analysis, program = prepared.analysis, prepared.program
    if hot is not None:
        fp = hot.get(prepared.key)
        if fp is not None:
            return JobOutcome(
                job=prepared.job,
                result=analysis.wrap_result(fp, program),
                key=prepared.key,
                cached=True,
                tier="hot",
                seconds=time.perf_counter() - started,
                stats={"evaluations": 0},
            )
    if cache is not None:
        # the report only needs the fixed point; leave the (larger)
        # warm-start records sidecar on disk
        entry = cache.get_key(prepared.key, with_records=False)
        if entry is not None:
            if hot is not None:
                hot.put(prepared.key, entry.fp)
            return JobOutcome(
                job=prepared.job,
                result=analysis.wrap_result(entry.fp, program),
                key=prepared.key,
                cached=True,
                tier="disk",
                seconds=time.perf_counter() - started,
                stats={"evaluations": 0},
            )
    return None


def run_cold(job: BatchJob) -> dict:
    """Execute one job cold (the batch worker side; also the inline path).

    Returns only picklable data: the fixed point, optional warm-start
    records, timing and engine stats.
    """
    # the batch pool serializes this function's return value outside
    # anything we can wrap, so give the *worker process* its pickle
    # headroom here
    ensure_deep_pickle()
    prepared = prepare(job)
    config = prepared.config
    capture = FixpointCapture() if warmable(config) else None
    start = time.perf_counter()
    result = prepared.analysis.run(
        prepared.program, worklist=not config.shared, capture=capture
    )
    seconds = time.perf_counter() - start
    return {
        "fp": result.fp,
        "records": dict(capture.records) if capture is not None else None,
        "seconds": seconds,
        "stats": dict(prepared.analysis.last_stats),
        "pid": os.getpid(),
    }


def complete(
    prepared: PreparedJob,
    payload: dict,
    cache: FixpointCache | None = None,
    hot: HotTier | None = None,
    store: bool = True,
    tier: str = "cold",
    result: Any = None,
) -> JobOutcome:
    """Shape a computed payload into an outcome, writing back down the tiers.

    ``payload`` is a :func:`run_cold`-shaped dict; pooled payloads may
    carry pre-pickled ``object_blob``/``records_blob`` bytes, which are
    written through :meth:`FixpointCache.put_payload` without being
    rebuilt.  ``store=False`` skips the disk write (the gate-bypassing
    warm path: a possibly over-approximate fixed point must never be
    served as an exact digest hit later).
    """
    if result is None:
        result = prepared.analysis.wrap_result(payload["fp"], prepared.program)
    if cache is not None and store:
        object_blob = payload.get("object_blob")
        if object_blob is not None:
            import zlib

            records_blob = payload.get("records_blob")
            cache.put_payload(
                prepared.program,
                prepared.config,
                object_blob,
                zlib.decompress(records_blob) if records_blob else None,
                seconds=payload["seconds"],
            )
        else:
            cache.put(
                prepared.program,
                prepared.config,
                payload["fp"],
                records=payload["records"],
                seconds=payload["seconds"],
            )
    if hot is not None and store:
        hot.put(prepared.key, payload["fp"])
    return JobOutcome(
        job=prepared.job,
        result=result,
        key=prepared.key,
        cached=False,
        tier=tier,
        seconds=payload["seconds"],
        stats=payload.get("stats", {}),
        worker_pid=payload.get("pid"),
    )


def dispatch(
    job: BatchJob | None = None,
    cache: FixpointCache | None = None,
    hot: HotTier | None = None,
    use_cache: bool = True,
    allow_warm: bool = False,
    donor: CachedFixpoint | None = None,
    config: AnalysisConfig | None = None,
    program: Any = None,
) -> JobOutcome:
    """Run one job through the full tier cascade; the single-job front door.

    hot LRU -> disk cache -> (exactness-gated) warm start -> cold run,
    writing the result back down the tiers it missed.  This is what the
    server's ``analyse``/``reanalyse`` methods, ``reanalyse`` in
    :mod:`repro.service.incremental`, and the CLI's ``analyze`` call;
    the batch runner runs the same stages with a pool in the middle
    (:func:`prepare` / :func:`probe` / :func:`complete`).

    Warm-start semantics (``allow_warm=True``) mirror the documented
    :func:`repro.service.incremental.reanalyse` contract exactly: an
    auto-selected donor must pass the interned-subterm exactness gate;
    an explicitly passed ``donor`` bypasses the gate, takes
    responsibility for possible (sound) over-approximation, and is not
    written back to the cache.

    Pass either a ``job`` (spawn-safe scalars) or ``config=`` plus an
    already-parsed ``program=`` (the ``reanalyse`` entry).
    """
    if (job is None) == (config is None):
        raise ValueError("dispatch takes a job= or a config=/program= pair")
    with current_tracer().span("dispatch", cat="dispatch"):
        outcome = _dispatch_cascade(
            job=job,
            cache=cache,
            hot=hot,
            use_cache=use_cache,
            allow_warm=allow_warm,
            donor=donor,
            config=config,
            program=program,
        )
    # the process-wide tier ledger: every dispatch, whatever front end
    # drove it (the server's per-instance counters stay separate)
    default_registry().counter("jobs_tier_total", tier=outcome.tier).inc()
    return outcome


def _dispatch_cascade(
    job: BatchJob | None,
    cache: FixpointCache | None,
    hot: HotTier | None,
    use_cache: bool,
    allow_warm: bool,
    donor: CachedFixpoint | None,
    config: AnalysisConfig | None,
    program: Any,
) -> JobOutcome:
    """The cascade body of :func:`dispatch` (observability lives above)."""
    prepared = prepare(job) if job is not None else prepare_cell(config, program)
    if use_cache:
        hit = probe(prepared, cache=cache, hot=hot)
        if hit is not None:
            return hit
    config = prepared.config
    capture = FixpointCapture() if warmable(config) else None
    warm_start = None
    gate_bypassed = donor is not None
    if allow_warm and warmable(config) and cache is not None and use_cache:
        if donor is None and subterm_gate_exact(config):
            candidate = cache.latest_for(config)
            if (
                candidate is not None
                and candidate.warmable
                and candidate.program is not None
                and contains_subterm(prepared.program, candidate.program)
            ):
                donor = candidate
        if donor is not None and donor.warmable:
            warm_start = donor.warm_start()
    start = time.perf_counter()
    result = prepared.analysis.run(
        prepared.program,
        worklist=not config.shared,
        warm_start=warm_start,
        capture=capture,
    )
    payload = {
        "fp": result.fp,
        "records": dict(capture.records) if capture is not None else None,
        "seconds": time.perf_counter() - start,
        "stats": dict(prepared.analysis.last_stats),
        "pid": os.getpid(),
    }
    return complete(
        prepared,
        payload,
        cache=cache if use_cache else None,
        hot=hot if use_cache else None,
        store=not (warm_start is not None and gate_bypassed),
        tier="warm" if warm_start is not None else "cold",
        result=result,
    )


# ---------------------------------------------------------------------------
# Report shaping
# ---------------------------------------------------------------------------


def outcome_row(outcome: JobOutcome, include_flows: bool = False) -> dict:
    """One outcome as the deterministic row shared by reports and responses.

    The exact shape ``BatchReport.to_document`` emits per job and the
    server returns per ``analyse`` response (under ``summary``), so the
    two surfaces cannot drift: states, store size, flow tables (opt-in),
    precision scalars, the content address, and the serving tier.
    """
    summary = result_summary(
        outcome.result,
        label=outcome.job.describe(),
        seconds=outcome.seconds,
        include_flows=include_flows,
    )
    summary.update(
        key=outcome.key,
        language=outcome.job.config.language,
        config=outcome.job.config.cache_key(),
        cache="hit" if outcome.cached else "miss",
        tier=outcome.tier,
        evaluations=outcome.stats.get("evaluations"),
        reused=outcome.stats.get("reused"),
        dedup_hits=outcome.stats.get("dedup_hits"),
    )
    return summary
