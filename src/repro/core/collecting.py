"""``Collecting`` instances for the ``StorePassing`` analysis monad (5.3.3, 6.5).

These are the paper's two fixed-point domains, built *once* here and
shared by every language:

* :class:`PerStateStoreCollecting` -- the heap-cloning domain
  ``P((PSigma x guts) x Store)``: every configuration carries its own
  store (5.3.3).  Precise, potentially exponential (6.5).
* :class:`SharedStoreCollecting` -- the widened domain
  ``P(PSigma x guts) x Store`` obtained by sandwiching the per-state
  step between the store-sharing ``alpha``/``gamma`` (6.5, 8.2).

Both optionally weave an abstract garbage collector into the step
(6.4): ``applyStep step = ... do { s' <- step s; gc s'; return s' } ...``.

Both also accept a staged :class:`~repro.core.fused.FusedTransition` in
place of a generic monadic step: a fused step already *is* the desugared
``(pstate, guts, store) -> [((pstate', guts'), store')]`` shape, so
``run_config``/``run_config_pairs`` call it directly instead of going
through ``monad.run`` -- and apply the woven-in collector as one sweep
per branch, which is what the monadic weaving desugars to.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from repro.core.fixpoint import Collecting
from repro.core.fused import FusedTransition
from repro.core.galois import store_sharing_alpha, store_sharing_gamma
from repro.core.gc import GarbageCollector
from repro.core.lattice import Lattice, PairLattice, PowersetLattice
from repro.core.monads import StorePassing
from repro.core.store import StoreLike


class PerStateStoreCollecting(Collecting):
    """The set-of-configurations domain ``P(((PSigma, guts), store))``.

    ``inject`` instruments a machine state with the initial guts (the
    ``HasInitial`` value, here ``initial_guts``) and the seed store --
    the empty store, or one holding the halt frame for the direct-style
    machines;
    ``apply_step`` runs the monadic step in every configuration and
    collects all results -- the paper's

    ``runStep ((s, t), sigma) = Set.fromList (runStateT (runStateT (step s) t) sigma)``
    """

    def __init__(
        self,
        monad: StorePassing,
        store_like: StoreLike,
        initial_guts: Any,
        collector: GarbageCollector | None = None,
        seed_store: Any = None,
    ):
        self.monad = monad
        self.store_like = store_like
        self.initial_guts = initial_guts
        self.collector = collector
        self.seed_store = store_like.empty() if seed_store is None else seed_store
        self._lattice = PowersetLattice()

    def lattice(self) -> Lattice:
        return self._lattice

    def inject(self, state: Any) -> frozenset:
        return frozenset([((state, self.initial_guts), self.seed_store)])

    def _instrumented(self, step: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """Weave GC into the step when a collector is configured (6.4)."""
        if self.collector is None:
            return step
        monad = self.monad

        def stepped(pstate: Any) -> Any:
            return monad.bind(
                step(pstate),
                lambda nxt: monad.then(self.collector.gc(nxt), monad.unit(nxt)),
            )

        return stepped

    def _swept_fused(self, results: list) -> list:
        """The woven-in collector (6.4) applied to staged results.

        The generic path sequences ``step s; gc s'`` in the monad; a
        :class:`~repro.core.fused.FusedTransition` returns its branches
        already desugared, so the same collection is
        ``collector.collect`` once per branch over its result store --
        a real sweep for a :class:`~repro.core.gc.MonadicStoreCollector`
        (going through the collector's ``store_like``, the recording
        wrapper when dependency tracking is on, so its fetches land in
        the open read log exactly as the monadic collector's do), and a
        no-op for the base :class:`~repro.core.gc.GarbageCollector`,
        mirroring its monadic no-op.
        """
        collect = self.collector.collect
        return [(pair, collect(store, pair[0])) for pair, store in results]

    def run_config(self, step: Callable[[Any], Any], config: tuple) -> frozenset:
        """All configurations one monadic step away from ``config``."""
        (pstate, guts), store = config
        if isinstance(step, FusedTransition):
            results = step(pstate, guts, store)
            if self.collector is not None:
                results = self._swept_fused(results)
            return frozenset(results)
        results = self.monad.run(self._instrumented(step)(pstate), guts, store)
        return frozenset(results)

    def run_config_pairs(self, step: Callable[[Any], Any], config: tuple) -> list:
        """One monadic step, returning only the ``(pstate, guts)`` pairs.

        The delta-driven engine threads one shared
        :class:`~repro.core.store.MutableStore`, so every branch's result
        store is the same object and all store growth is read off its
        changelog; only the successor pairs are informative.

        The woven-in garbage collector is always skipped: the versioned
        engine performs GC itself (an in-monad ``filterStore`` would
        build a fresh store object as the inner state, and the engine --
        which only looks at successor pairs here -- would never see it).
        """
        (pstate, guts), store = config
        if isinstance(step, FusedTransition):
            return [pair for pair, _store in step(pstate, guts, store)]
        return [pair for pair, _store in self.monad.run(step(pstate), guts, store)]

    def apply_step(self, step: Callable[[Any], Any], fp: frozenset) -> frozenset:
        out: set = set()
        for config in fp:
            out |= self.run_config(step, config)
        return frozenset(out)

    def successors_of(self, step: Callable[[Any], Any], config: tuple) -> Iterable[Hashable]:
        """Adapter for :func:`repro.core.fixpoint.worklist_explore`."""
        return self.run_config(step, config)


class SharedStoreCollecting(Collecting):
    """Shivers' single-threaded store as ``alpha . applyStep' . gamma`` (6.5).

    The fixed-point domain is ``(P(PSigma x guts), store)``; the inner
    per-state ``applyStep`` is reused on the gamma-expanded set, exactly
    the paper's 8.2 definition.  Soundness is the fixed-point transfer
    theorem across the store-sharing Galois connection.
    """

    def __init__(
        self,
        monad: StorePassing,
        store_like: StoreLike,
        initial_guts: Any,
        collector: GarbageCollector | None = None,
        seed_store: Any = None,
    ):
        self.inner = PerStateStoreCollecting(
            monad, store_like, initial_guts, collector, seed_store
        )
        self.store_like = store_like
        self._alpha = store_sharing_alpha(store_like.lattice())
        self._gamma = store_sharing_gamma()
        self._lattice = PairLattice(PowersetLattice(), store_like.lattice())

    def lattice(self) -> Lattice:
        return self._lattice

    def inject(self, state: Any) -> tuple:
        return (frozenset([(state, self.inner.initial_guts)]), self.inner.seed_store)

    def apply_step(self, step: Callable[[Any], Any], fp: tuple) -> tuple:
        return self._alpha(self.inner.apply_step(step, self._gamma(fp)))
