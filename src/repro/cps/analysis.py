"""The CPS analysis family: collecting semantics to k-CFA and beyond (5-8).

One interface implementation, :class:`AbstractCPSInterface`, covers the
whole spectrum: it is parameterized by an
:class:`~repro.core.addresses.Addressable` (polyvariance and context,
6.1) and a :class:`~repro.core.store.StoreLike` (store representation
and abstract counting, 6.2-6.3), and runs in the
:class:`~repro.core.monads.StorePassing` monad (5.3.1).  The fixed-point
side is equally modular: per-state stores or the shared-store widening
(6.5), with or without abstract garbage collection (6.4).

The convenience constructors at the bottom reproduce section 8's family:

* :func:`analyse_concrete_collecting` -- 5.3's concrete collecting
  semantics (unique addresses);
* :func:`analyse_kcfa`        -- 8.1, per-state stores;
* :func:`analyse_shared`      -- 8.2, single-threaded store;
* :func:`analyse_with_count`  -- 8.3, counting store;
* :func:`analyse_with_gc`     -- 6.4, abstract GC;
* :func:`analyse_zerocfa`     -- 2.3.1, monovariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.config import AnalysisConfig, assemble, build_config
from repro.core.addresses import Addressable, Binding, ConcreteAddressing, KCFA, ZeroCFA
from repro.core.collecting import PerStateStoreCollecting, SharedStoreCollecting
from repro.core.driver import (
    run_analysis,
    run_analysis_worklist,
    run_engine_analysis,
)
from repro.core.gc import MonadicStoreCollector
from repro.core.lattice import AbsNat
from repro.core.monads import StorePassing
from repro.core.store import CountingStore, StoreLike, unwrap_store
from repro.cps.semantics import Clo, CPSInterface, PState, free_vars_cache, inject, mnext
from repro.cps.syntax import AExp, CExp, Lam, Ref, Var
from repro.util.pcollections import PMap


class AbstractCPSInterface(CPSInterface):
    """``instance (Addressable a t, StoreLike a s d) => CPSInterface (StorePassing s t) a``.

    The three monadic state interactions of 5.3.2/6.1/6.2, verbatim:

    * ``fun/arg rho (Ref v) = lift $ getsNDSet $ flip fetch (rho ! v)``
    * ``a |-> d  = lift $ modify $ \\s -> bind s a {d}``
    * ``alloc v  = gets (valloc v)``
    * ``tick proc ps = modify (advance proc ps)``
    """

    def __init__(self, addressing: Addressable, store_like: StoreLike):
        super().__init__(StorePassing())
        self.addressing = addressing
        self.store_like = store_like

    # -- atomic evaluation ----------------------------------------------------

    def fun(self, env: PMap, aexp: AExp) -> Any:
        return self._atomic(env, aexp)

    def arg(self, env: PMap, aexp: AExp) -> Any:
        return self._atomic(env, aexp)

    def _atomic(self, env: PMap, aexp: AExp) -> Any:
        monad: StorePassing = self.monad
        if isinstance(aexp, Lam):
            captured = env.restrict(lambda v: v in free_vars_cache(aexp))
            return monad.unit(Clo(aexp, captured))
        if isinstance(aexp, Ref):
            if aexp.var not in env:
                return monad.mzero()  # unbound: this branch is dead
            addr = env[aexp.var]
            return monad.gets_nd_store(
                lambda store: self.store_like.fetch(store, addr)
            )
        return monad.mzero()

    # -- store and time -----------------------------------------------------

    def bind_addr(self, addr: Hashable, value: Clo) -> Any:
        return self.monad.modify_store(
            lambda store: self.store_like.bind(store, addr, frozenset([value]))
        )

    def alloc(self, var: Var) -> Any:
        return self.monad.gets_guts(lambda ctx: self.addressing.valloc(var, ctx))

    def tick(self, proc: Clo, pstate: PState) -> Any:
        return self.monad.modify_guts(
            lambda ctx: self.addressing.advance(proc, pstate, ctx)
        )


class CPSTouching:
    """Touchability for CPS (6.4): states and closures touch via free variables.

    ``T(ae, rho) = { rho(v) : v in free(ae) }``, extended over call sites.
    """

    def touched_by_state(self, pstate: PState) -> frozenset:
        env = pstate.env
        return frozenset(
            env[v] for v in free_vars_cache(pstate.ctrl) if v in env
        )

    def touched_by_value(self, value: Clo) -> frozenset:
        env = value.env
        return frozenset(env[v] for v in free_vars_cache(value.lam) if v in env)


# ---------------------------------------------------------------------------
# The analysis family
# ---------------------------------------------------------------------------


@dataclass
class CPSAnalysis:
    """A fully assembled analysis: interface + collecting domain + step.

    ``run`` computes the collecting semantics of a program; the result is
    wrapped in :class:`CPSAnalysisResult` for uniform inspection across
    per-state-store and shared-store domains.
    """

    interface: AbstractCPSInterface
    collecting: Any
    shared: bool
    label: str = ""
    engine: str | None = None
    transition: str = "generic"
    last_stats: dict = field(default_factory=dict)

    def step(self) -> Callable[[PState], Any]:
        if self.transition == "fused":
            from repro.cps.fused import build_cps_fused

            return build_cps_fused(self.interface)
        return lambda pstate: mnext(self.interface, pstate)

    def run(
        self,
        program: CExp,
        worklist: bool = False,
        max_steps: int = 1_000_000,
        warm_start: Any = None,
        capture: Any = None,
        trace: list | None = None,
    ):
        initial = inject(program)
        if self.engine is not None:
            fp = run_engine_analysis(
                self,
                initial,
                max_steps=max_steps,
                warm_start=warm_start,
                capture=capture,
                trace=trace,
            )
        elif warm_start is not None or capture is not None:
            raise ValueError("warm starts / capture need an engine-backed analysis")
        elif trace is not None:
            raise ValueError("schedule tracing needs an engine-backed analysis")
        elif worklist:
            if self.shared:
                raise ValueError("worklist evaluation applies to per-state-store domains")
            fp = run_analysis_worklist(
                self.collecting, self.step(), initial, max_states=max_steps
            )
        else:
            fp = run_analysis(self.collecting, self.step(), initial, max_steps=max_steps)
        return self.wrap_result(fp)

    def wrap_result(self, fp: Any) -> "CPSAnalysisResult":
        """View a fixed point (freshly computed or cache-loaded) uniformly.

        The fixpoint cache (:mod:`repro.service.cache`) stores bare fixed
        points; rehydrated loads are wrapped back through here so callers
        see the exact object :meth:`run` would have returned.
        """
        return CPSAnalysisResult(
            fp=fp,
            shared=self.shared,
            store_like=unwrap_store(self.interface.store_like),
            label=self.label,
        )


@dataclass
class CPSAnalysisResult:
    """A uniform view of an analysis fixed point.

    Per-state-store domains hold ``frozenset{((PState, guts), store)}``;
    shared-store domains hold ``(frozenset{(PState, guts)}, store)``.
    """

    fp: Any
    shared: bool
    store_like: StoreLike
    label: str = ""

    def configs(self) -> frozenset:
        """All ``(PState, guts)`` pairs reached."""
        if self.shared:
            return self.fp[0]
        return frozenset(pair for pair, _store in self.fp)

    def states(self) -> frozenset:
        """All partial machine states reached."""
        return frozenset(pstate for pstate, _guts in self.configs())

    def num_configs(self) -> int:
        return len(self.configs())

    def num_states(self) -> int:
        return len(self.states())

    def num_elements(self) -> int:
        """The raw size of the fixed point.

        For per-state-store domains this counts *(state, guts, store)*
        triples and therefore exposes the heap-cloning cost (6.5): two
        configurations that differ only in their stores count twice.
        For shared-store domains it is the number of state/guts pairs.
        """
        if self.shared:
            return len(self.fp[0])
        return len(self.fp)

    def global_store(self):
        """The join of every store in the result (the store, if shared)."""
        lattice = self.store_like.lattice()
        if self.shared:
            return self.fp[1]
        return lattice.join_all(store for _pair, store in self.fp)

    def store_size(self) -> int:
        return len(list(self.store_like.addresses(self.global_store())))

    def flows_to(self) -> dict:
        """``var -> frozenset[Lam]``: which lambdas reach which variables.

        The classical CFA summary, read off the global store; addresses
        are either :class:`~repro.core.addresses.Binding` pairs or bare
        variables (0CFA), both of which name their variable.
        """
        store = self.global_store()
        flows: dict = {}
        for addr in self.store_like.addresses(store):
            var = addr.var if isinstance(addr, Binding) else addr
            lams = frozenset(clo.lam for clo in self.store_like.fetch(store, addr))
            flows[var] = flows.get(var, frozenset()) | lams
        return flows

    def flows_per_address(self) -> dict:
        """``addr -> frozenset[Lam]`` without merging contexts.

        Unlike :meth:`flows_to`, polyvariant bindings of one variable in
        different contexts stay separate, exposing the precision that
        context-sensitivity actually bought.
        """
        store = self.global_store()
        return {
            addr: frozenset(clo.lam for clo in self.store_like.fetch(store, addr))
            for addr in self.store_like.addresses(store)
        }

    def reaching_exit(self) -> frozenset:
        """The final (Exit) states in the result."""
        return frozenset(s for s in self.states() if s.is_final())

    def singleton_counts(self) -> frozenset:
        """Addresses the counting store proves singly-allocated (8.3)."""
        store = self.global_store()
        if not isinstance(self.store_like, CountingStore):
            raise TypeError("singleton counts need a CountingStore")
        return self.store_like.singleton_addresses(store)

    def count_of(self, addr: Hashable) -> AbsNat:
        if not isinstance(self.store_like, CountingStore):
            raise TypeError("counts need a CountingStore")
        return self.store_like.count(self.global_store(), addr)


def assemble_cps(
    config: AnalysisConfig, addressing: Addressable, store: StoreLike
) -> CPSAnalysis:
    """Build a :class:`CPSAnalysis` from validated, prepared components.

    Called by :func:`repro.config.assemble`; the config has been
    validated and ``store`` already carries any engine wrapping
    (versioned swap-in, recording decoration).
    """
    interface = AbstractCPSInterface(addressing, store)
    collector = (
        MonadicStoreCollector(interface.monad, store, CPSTouching())
        if config.gc
        else None
    )
    if config.shared:
        collecting: Any = SharedStoreCollecting(
            interface.monad, store, addressing.tau0(), collector
        )
    else:
        collecting = PerStateStoreCollecting(
            interface.monad, store, addressing.tau0(), collector
        )
    return CPSAnalysis(
        interface=interface,
        collecting=collecting,
        shared=config.shared,
        label=config.label,
        engine=config.engine,
        transition=config.transition,
    )


def analyse(
    addressing: Addressable | None = None,
    store_like: StoreLike | None = None,
    shared: bool | None = None,
    gc: bool | None = None,
    label: str = "",
    engine: str | None = None,
    store_impl: str | None = None,
    transition: str | None = None,
    preset: str | None = None,
) -> CPSAnalysis:
    """Assemble an analysis from the paper's degrees of freedom.

    ``addressing`` fixes polyvariance/context (6.1); ``store_like`` fixes
    the store representation and counting (6.2-6.3); ``shared`` selects
    the single-threaded-store widening (6.5); ``gc`` weaves in abstract
    garbage collection (6.4); ``engine`` picks a fixed-point strategy
    over the store-widened domain (one of
    :data:`~repro.core.fixpoint.ENGINES`), superseding ``shared``;
    ``store_impl`` picks the store representation behind the depgraph
    engine (one of :data:`~repro.core.fixpoint.STORE_IMPLS`);
    ``transition`` picks how the step executes (one of
    :data:`repro.config.TRANSITIONS`: the generic monadic normal form,
    or the staged fused step -- identical fixed points).

    ``preset`` starts from a named configuration in
    :data:`repro.config.PRESETS` instead (e.g.
    ``analyse(preset="1cfa-gc")``); the other keywords then act as
    overrides.  Either way the call routes through
    :func:`repro.config.assemble`, which validates the combination.
    """
    config = build_config(
        "cps",
        preset=preset,
        addressing=addressing,
        store_like=store_like,
        shared=shared,
        gc=gc,
        engine=engine,
        store_impl=store_impl,
        transition=transition,
        label=label,
    )
    return assemble(config, addressing=addressing, store_like=store_like)


def analyse_concrete_collecting(program: CExp, max_steps: int = 1_000_000) -> CPSAnalysisResult:
    """5.3: the concrete collecting semantics (unique integer-like addresses).

    Terminates exactly when the program has finitely many reachable
    concrete states; it is the reference point that every abstraction
    must cover (a posteriori soundness, 6.1).
    """
    analysis = analyse(ConcreteAddressing(), label="concrete-collecting")
    return analysis.run(program, worklist=True, max_steps=max_steps)


def analyse_kcfa(program: CExp, k: int = 1, worklist: bool = True, gc: bool = False) -> CPSAnalysisResult:
    """8.1: k-CFA with per-state (heap-cloning) stores."""
    analysis = analyse(KCFA(k), gc=gc, label=f"{k}cfa")
    return analysis.run(program, worklist=worklist)


def analyse_zerocfa(program: CExp, worklist: bool = True) -> CPSAnalysisResult:
    """2.3.1: the monovariant analysis (variables are their own addresses)."""
    analysis = analyse(ZeroCFA(), label="0cfa")
    return analysis.run(program, worklist=worklist)


def analyse_shared(program: CExp, k: int = 1, gc: bool = False) -> CPSAnalysisResult:
    """8.2: k-CFA widened with Shivers' single-threaded store."""
    analysis = analyse(KCFA(k), shared=True, gc=gc, label=f"{k}cfa-shared")
    return analysis.run(program)


def analyse_with_count(program: CExp, k: int = 1, shared: bool = True) -> CPSAnalysisResult:
    """8.3: the same analysis with a counting store slotted in.

    Note on precision: under the shared-store widening the fixed-point
    iteration re-runs transitions against the global store, so every
    re-analyzed allocation bumps its count -- counts drift soundly toward
    MANY.  For sharp cardinality results (must-alias facts) use
    ``shared=False``, where each configuration's own store is rebuilt
    deterministically and straight-line allocations stay at ONE.
    """
    analysis = analyse(
        KCFA(k), store_like=CountingStore(), shared=shared, label=f"{k}cfa-count"
    )
    return analysis.run(program, worklist=not shared)


def analyse_with_gc(program: CExp, k: int = 1, shared: bool = False) -> CPSAnalysisResult:
    """6.4: the same analysis with abstract garbage collection woven in."""
    analysis = analyse(KCFA(k), shared=shared, gc=True, label=f"{k}cfa-gc")
    return analysis.run(program, worklist=not shared)


def analyse_with_engine(
    program: CExp,
    engine: str,
    k: int = 1,
    counting: bool = False,
    stats: dict | None = None,
    store_impl: str = "persistent",
    transition: str | None = None,
) -> CPSAnalysisResult:
    """k-CFA over the global store under a named fixed-point engine.

    The two engines (:data:`~repro.core.fixpoint.ENGINES`) compute the
    identical fixed point of the store-widened domain; they differ only
    in how much of the reached set each store change re-evaluates.
    ``counting`` composes with both engines: the depgraph engine tracks
    written addresses through the recording store's write log and
    saturates their counts on convergence, reproducing the kleene
    counting fixed point without its re-evaluations.  ``store_impl``
    picks persistent or versioned store backing for the depgraph
    engine (identical fixed points, O(delta) hot loop).
    """
    analysis = analyse(
        KCFA(k),
        store_like=CountingStore() if counting else None,
        engine=engine,
        label=f"{k}cfa-{engine}-{store_impl}",
        store_impl=store_impl,
        transition=transition,
    )
    result = analysis.run(program)
    if stats is not None:
        stats.update(analysis.last_stats)
    return result
