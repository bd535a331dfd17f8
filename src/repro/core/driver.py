"""Engine plumbing behind ``Analysis.run`` (5.2, 7).

``runAnalysis`` in the paper::

    runAnalysis :: (CPSInterface m a, Lattice fp, Collecting m (PSigma a) fp)
                => CExp -> fp
    runAnalysis e = exploreFP mnext (e, Map.empty)

Its signature names exactly what can vary:  (1) the monad, (2) the
semantic-interface implementation, and (3) the analysis lattice with its
fixed-point computation.  :meth:`repro.core.analysis.Analysis.run` is
that function: it calls ``exploreFP`` (:func:`~repro.core.fixpoint.explore_fp`)
or the frontier worklist directly, and hands engine-backed analyses to
:func:`run_engine_analysis` here.  This module readies the store for an
engine (:func:`prepare_engine_store`) and runs the two engines with
their counters and trace span.
"""

from __future__ import annotations

from typing import Any

from repro.core.fused import FusedTransition
from repro.obs.metrics import default_registry
from repro.obs.trace import current_tracer
from repro.core.fixpoint import explore_fp, global_store_explore
from repro.core.store import (
    ACounter,
    RecordingStore,
    StoreLike,
    VersionedCountingStore,
    VersionedStore,
)


def prepare_engine_store(
    engine: str,
    store_like: StoreLike,
    gc: bool = False,
    store_impl: str = "persistent",
) -> StoreLike:
    """Ready the store for an engine selection (all three languages).

    ``store_impl`` picks the store representation behind the worklist
    engine (:data:`~repro.core.fixpoint.STORE_IMPLS`): ``persistent``
    keeps the given PMap-backed store; ``versioned`` swaps in a
    :class:`~repro.core.store.VersionedStore` (or
    :class:`~repro.core.store.VersionedCountingStore` when the given
    store counts) over the same value lattice, whose mutable element and
    per-address change versions let the engine do O(delta) work per
    evaluation.  The kleene engine iterates over immutable whole-domain
    snapshots, so it pairs only with ``persistent``.

    The ``depgraph`` engine's store is wrapped in a
    :class:`~repro.core.store.RecordingStore`: the loop consumes every
    evaluation's read/write footprint (dependency tracking, including
    the GC sweep's reads, and for counting stores the write log that
    decides which counts to saturate on convergence).

    Every compatibility rule -- known engine and store impl, kleene
    never with ``versioned`` -- lives in
    :meth:`repro.config.AnalysisConfig.validated`, which has run before
    :func:`repro.config.prepare_store` calls this.
    """
    if store_impl == "versioned":
        if isinstance(store_like, ACounter):
            store_like = VersionedCountingStore(store_like.value_lattice)
        else:
            store_like = VersionedStore(store_like.value_lattice)
    if engine == "depgraph":
        return RecordingStore(store_like)
    return store_like


def run_engine_analysis(
    analysis: Any,
    initial_state: Any,
    max_steps: int = 1_000_000,
    warm_start: Any = None,
    capture: Any = None,
    trace: list | None = None,
) -> tuple:
    """Run an assembled analysis under its configured engine.

    ``analysis`` is an assembled :class:`~repro.core.analysis.Analysis`
    carrying ``engine``, ``collecting``, ``step()`` and ``last_stats``.
    The two :data:`~repro.core.fixpoint.ENGINES` are interchangeable
    strategies over the same global-store domain, both returning the
    fixed point in the shared shape ``(configs, store)``:

    * ``kleene``    -- whole-domain Kleene rounds (``exploreFP``);
    * ``depgraph``  -- frontier worklist, dependency-tracked re-evaluation
      (:func:`~repro.core.fixpoint.global_store_explore`).

    ``last_stats`` is refreshed with ``evaluations`` (single-configuration
    step applications, the unit of work both engines share) plus the
    worklist engine's retrigger/dependency counters.  ``warm_start`` and
    ``capture`` (incremental re-analysis; see
    :mod:`repro.service.incremental`) and ``trace`` (the evaluation
    order) are depgraph only: kleene has no per-configuration
    evaluations to replay, record or trace.

    Observability sits here, *around* the engines, never inside them:
    one ``fixpoint`` span per analysis, and the run's ``last_stats``
    counters folded into the process registry afterwards -- O(1) per
    analysis, zero work in the per-evaluation hot loop.
    """
    engine = analysis.engine
    if engine == "kleene" and (
        warm_start is not None or capture is not None or trace is not None
    ):
        raise ValueError(
            "the kleene engine re-applies the functional to whole-domain "
            "snapshots; warm starts, evaluation capture and tracing need "
            "the per-configuration depgraph engine"
        )
    stats = analysis.last_stats = {}
    with current_tracer().span("fixpoint", cat="engine", engine=engine):
        step = analysis.step()
        if engine == "depgraph":
            fp = global_store_explore(
                analysis.collecting,
                step,
                initial_state,
                max_evals=max_steps,
                stats=stats,
                warm_start=warm_start,
                capture=capture,
                trace=trace,
            )
        else:
            evaluations = 0

            def counted(*args: Any) -> Any:
                nonlocal evaluations
                evaluations += 1
                return step(*args)

            # staged steps carry the desugared calling convention; wrap
            # without losing the marker the collecting domains dispatch on
            counted_step: Any = (
                FusedTransition(counted, step.language)
                if isinstance(step, FusedTransition)
                else counted
            )
            fp = explore_fp(
                analysis.collecting, counted_step, initial_state, max_steps=max_steps
            )
            stats.update(evaluations=evaluations, configurations=len(fp[0]))
    # mirror the run's counters into the process registry: ``last_stats``
    # is the per-run report surface, the registry the cumulative
    # process-wide series (``repro stats``, benchmarks)
    registry = default_registry()
    registry.counter("engine_analyses_total", engine=engine).inc()
    for key in ("evaluations", "retriggers", "reused", "dedup_hits"):
        value = stats.get(key) or 0
        if value:
            registry.counter(f"engine_{key}_total", engine=engine).inc(value)
    return fp
