"""The abstract CESK analysis family -- same monads, same components as CPS.

This module is deliberately a near-clone of :mod:`repro.cps.analysis`:
the *only* genuinely new code is the interface implementation's case
analysis and the touchability relation.  Polyvariance
(:class:`~repro.core.addresses.Addressable`), stores
(:class:`~repro.core.store.StoreLike`), counting, garbage collection and
both fixed-point domains are imported from :mod:`repro.core` verbatim --
the paper's reuse claim, which experiment E8 checks by identity of the
component objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.config import AnalysisConfig, assemble, build_config
from repro.core.addresses import Addressable, Binding, KCFA, ZeroCFA
from repro.core.collecting import PerStateStoreCollecting, SharedStoreCollecting
from repro.core.driver import (
    run_analysis,
    run_analysis_worklist,
    run_engine_analysis,
)
from repro.core.gc import MonadicStoreCollector
from repro.core.monads import StorePassing
from repro.core.store import CountingStore, StoreLike, unwrap_store
from repro.cesk.machine import (
    ArgF,
    Clo,
    FunF,
    HALT_ADDRESS,
    HaltF,
    KontTag,
    LetF,
    PState,
    free_vars_cache,
    inject,
)
from repro.cesk.semantics import CESKInterface, is_final, mnext_cesk
from repro.lam.syntax import Expr
from repro.util.pcollections import PMap


class AbstractCESKInterface(CESKInterface):
    """The CESK interface over ``StorePassing``, ``Addressable`` and ``StoreLike``."""

    def __init__(self, addressing: Addressable, store_like: StoreLike):
        super().__init__(StorePassing())
        self.addressing = addressing
        self.store_like = store_like
        # the halt continuation is pre-bound at the distinguished address
        self._initial_store = store_like.bind(
            store_like.empty(), HALT_ADDRESS, frozenset([HaltF()])
        )

    def initial_store(self) -> Any:
        return self._initial_store

    def fetch_values(self, env: PMap, var: str) -> Any:
        if var not in env:
            return self.monad.mzero()
        addr = env[var]
        return self.monad.gets_nd_store(lambda store: self.store_like.fetch(store, addr))

    def fetch_konts(self, ka: Hashable) -> Any:
        return self.monad.gets_nd_store(lambda store: self.store_like.fetch(store, ka))

    def bind_addr(self, addr: Hashable, value: Any) -> Any:
        return self.monad.modify_store(
            lambda store: self.store_like.bind(store, addr, frozenset([value]))
        )

    def alloc(self, var: str) -> Any:
        return self.monad.gets_guts(lambda ctx: self.addressing.valloc(var, ctx))

    def alloc_kont(self, site: Expr) -> Any:
        return self.monad.gets_guts(
            lambda ctx: self.addressing.valloc(KontTag(site), ctx)
        )

    def tick(self, proc: Clo, site_state: Any) -> Any:
        return self.monad.modify_guts(
            lambda ctx: self.addressing.advance(proc, site_state, ctx)
        )


class CESKTouching:
    """Touchability for the CESK machine (paper 6.4, extended to frames).

    A state touches the addresses of the free variables of its control
    (or of the returned value's lambda) *and* its continuation address;
    closures touch their environments' addresses; frames touch their
    saved environments (restricted to what their pending expressions
    need), the values they hold, and their parent continuation address.
    """

    def touched_by_state(self, pstate: PState) -> frozenset:
        roots: set = {pstate.ka}
        if isinstance(pstate.ctrl, Expr):
            env = pstate.env
            roots |= {env[v] for v in free_vars_cache(pstate.ctrl) if v in env}
        elif isinstance(pstate.ctrl, Clo):
            roots |= set(pstate.ctrl.env.values())
        return frozenset(roots)

    def touched_by_value(self, value: Any) -> frozenset:
        if isinstance(value, Clo):
            return frozenset(value.env.values())
        if isinstance(value, HaltF):
            return frozenset()
        if isinstance(value, LetF):
            env = value.env
            live = free_vars_cache(value.body) - frozenset([value.var])
            return frozenset(env[v] for v in live if v in env) | {value.parent}
        if isinstance(value, FunF):
            env = value.env
            live: set = set()
            for arg in value.args:
                live |= free_vars_cache(arg)
            return frozenset(env[v] for v in live if v in env) | {value.parent}
        if isinstance(value, ArgF):
            env = value.env
            live = set()
            for arg in value.remaining:
                live |= free_vars_cache(arg)
            touched = {env[v] for v in live if v in env} | {value.parent}
            touched |= set(value.fun_val.env.values())
            for done_value in value.done:
                touched |= set(done_value.env.values())
            return frozenset(touched)
        return frozenset()


@dataclass
class CESKAnalysis:
    """An assembled CESK analysis (interface + collecting domain)."""

    interface: AbstractCESKInterface
    collecting: Any
    shared: bool
    label: str = ""
    engine: str | None = None
    transition: str = "generic"
    last_stats: dict = field(default_factory=dict)

    def step(self) -> Callable[[PState], Any]:
        if self.transition == "fused":
            from repro.cesk.fused import build_cesk_fused

            return build_cesk_fused(self.interface)
        return lambda pstate: mnext_cesk(self.interface, pstate)

    def run(
        self,
        expr: Expr,
        worklist: bool = True,
        max_steps: int = 1_000_000,
        warm_start: Any = None,
        capture: Any = None,
        trace: list | None = None,
    ):
        initial = inject(expr)
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
        elif worklist and not self.shared:
            fp = run_analysis_worklist(
                self.collecting, self.step(), initial, max_states=max_steps
            )
        else:
            fp = run_analysis(self.collecting, self.step(), initial, max_steps=max_steps)
        return self.wrap_result(fp)

    def wrap_result(self, fp: Any) -> "CESKAnalysisResult":
        """View a fixed point (freshly computed or cache-loaded) uniformly."""
        return CESKAnalysisResult(
            fp=fp,
            shared=self.shared,
            store_like=unwrap_store(self.interface.store_like),
            label=self.label,
        )


class _SeededPerState(PerStateStoreCollecting):
    """Per-state collecting whose injected store holds the halt frame."""

    def __init__(self, interface: AbstractCESKInterface, initial_guts, collector=None):
        super().__init__(interface.monad, interface.store_like, initial_guts, collector)
        self._seed_store = interface.initial_store()

    def inject(self, state: Any) -> frozenset:
        return frozenset([((state, self.initial_guts), self._seed_store)])


class _SeededShared(SharedStoreCollecting):
    """Shared-store collecting whose injected store holds the halt frame."""

    def __init__(self, interface: AbstractCESKInterface, initial_guts, collector=None):
        super().__init__(interface.monad, interface.store_like, initial_guts, collector)
        self._seed_store = interface.initial_store()

    def inject(self, state: Any) -> tuple:
        return (frozenset([(state, self.inner.initial_guts)]), self._seed_store)


@dataclass
class CESKAnalysisResult:
    """Uniform view of a CESK analysis fixed point (mirrors the CPS one)."""

    fp: Any
    shared: bool
    store_like: StoreLike
    label: str = ""

    def configs(self) -> frozenset:
        if self.shared:
            return self.fp[0]
        return frozenset(pair for pair, _store in self.fp)

    def states(self) -> frozenset:
        return frozenset(pstate for pstate, _guts in self.configs())

    def num_states(self) -> int:
        return len(self.states())

    def num_configs(self) -> int:
        return len(self.configs())

    def num_elements(self) -> int:
        if self.shared:
            return len(self.fp[0])
        return len(self.fp)

    def global_store(self):
        lattice = self.store_like.lattice()
        if self.shared:
            return self.fp[1]
        return lattice.join_all(store for _pair, store in self.fp)

    def store_size(self) -> int:
        return len(list(self.store_like.addresses(self.global_store())))

    def flows_to(self) -> dict:
        """``var -> frozenset[Lam]`` over *value* addresses (frames skipped)."""
        store = self.global_store()
        flows: dict = {}
        for addr in self.store_like.addresses(store):
            var = addr.var if isinstance(addr, Binding) else addr
            if isinstance(var, KontTag) or var == HALT_ADDRESS or not isinstance(var, str):
                continue
            lams = frozenset(
                v.lam for v in self.store_like.fetch(store, addr) if isinstance(v, Clo)
            )
            if lams:
                flows[var] = flows.get(var, frozenset()) | lams
        return flows

    def final_states(self) -> frozenset:
        return frozenset(s for s in self.states() if is_final(s))

    def final_values(self) -> frozenset:
        """The lambdas of all values returned to the halt continuation."""
        return frozenset(s.ctrl.lam for s in self.final_states())


def assemble_cesk(
    config: AnalysisConfig, addressing: Addressable, store: StoreLike
) -> CESKAnalysis:
    """Build a :class:`CESKAnalysis` from validated, prepared components.

    Called by :func:`repro.config.assemble`; mirrors
    :func:`repro.cps.analysis.assemble_cps` with the CESK interface and
    the halt-frame-seeded collecting domains.
    """
    interface = AbstractCESKInterface(addressing, store)
    collector = (
        MonadicStoreCollector(interface.monad, store, CESKTouching())
        if config.gc
        else None
    )
    if config.shared:
        collecting: Any = _SeededShared(interface, addressing.tau0(), collector)
    else:
        collecting = _SeededPerState(interface, addressing.tau0(), collector)
    return CESKAnalysis(
        interface=interface,
        collecting=collecting,
        shared=config.shared,
        label=config.label,
        engine=config.engine,
        transition=config.transition,
    )


def analyse_cesk(
    addressing: Addressable | None = None,
    store_like: StoreLike | None = None,
    shared: bool | None = None,
    gc: bool | None = None,
    label: str = "",
    engine: str | None = None,
    store_impl: str | None = None,
    transition: str | None = None,
    preset: str | None = None,
) -> CESKAnalysis:
    """Assemble a CESK analysis from the shared degrees of freedom.

    ``preset`` starts from :data:`repro.config.PRESETS` (e.g.
    ``analyse_cesk(preset="1cfa-gc")``); other keywords override it.
    All paths route through :func:`repro.config.assemble`.
    """
    config = build_config(
        "lam",
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


def analyse_cesk_kcfa(expr: Expr, k: int = 1, gc: bool = False) -> CESKAnalysisResult:
    """k-CFA for direct-style programs (per-state stores)."""
    return analyse_cesk(KCFA(k), gc=gc, label=f"cesk-{k}cfa").run(expr)


def analyse_cesk_zerocfa(expr: Expr) -> CESKAnalysisResult:
    """Monovariant analysis for direct-style programs."""
    return analyse_cesk(ZeroCFA(), label="cesk-0cfa").run(expr)


def analyse_cesk_shared(expr: Expr, k: int = 1, gc: bool = False) -> CESKAnalysisResult:
    """k-CFA with the single-threaded-store widening."""
    return analyse_cesk(KCFA(k), shared=True, gc=gc, label=f"cesk-{k}cfa-shared").run(expr)


def analyse_cesk_gc(expr: Expr, k: int = 1) -> CESKAnalysisResult:
    """k-CFA with abstract garbage collection."""
    return analyse_cesk(KCFA(k), gc=True, label=f"cesk-{k}cfa-gc").run(expr)


def analyse_cesk_counting(expr: Expr, k: int = 1, shared: bool = False) -> CESKAnalysisResult:
    """k-CFA with a counting store (abstract counting for CESK)."""
    return analyse_cesk(
        KCFA(k), store_like=CountingStore(), shared=shared, label=f"cesk-{k}cfa-count"
    ).run(expr, worklist=not shared)


def analyse_cesk_engine(
    expr: Expr,
    engine: str,
    k: int = 1,
    stats: dict | None = None,
    store_impl: str = "persistent",
    transition: str | None = None,
) -> CESKAnalysisResult:
    """Global-store k-CFA for direct-style programs under a named engine."""
    analysis = analyse_cesk(
        KCFA(k),
        engine=engine,
        label=f"cesk-{k}cfa-{engine}-{store_impl}",
        store_impl=store_impl,
        transition=transition,
    )
    result = analysis.run(expr)
    if stats is not None:
        stats.update(analysis.last_stats)
    return result
