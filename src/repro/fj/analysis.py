"""The abstract FJ analysis family -- the same monadic components, third time.

Class-flow analysis for Featherweight Java: which classes of objects
reach which variables, fields and call sites.  As with CPS and CESK,
everything except the interface's case analysis and the touchability
relation is imported from :mod:`repro.core` unchanged.
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
from repro.fj.class_table import ClassTable
from repro.fj.machine import (
    CastF,
    FieldF,
    FieldVar,
    HALT_ADDRESS,
    HaltF,
    InvokeArgF,
    InvokeRcvF,
    KontTag,
    NewArgF,
    ObjV,
    PState,
    free_vars_cache,
    inject_fj,
)
from repro.fj.semantics import FJInterface, is_final_fj, mnext_fj
from repro.fj.syntax import Expr, Program
from repro.util.pcollections import PMap


class AbstractFJInterface(FJInterface):
    """The FJ interface over ``StorePassing``/``Addressable``/``StoreLike``."""

    def __init__(self, table: ClassTable, addressing: Addressable, store_like: StoreLike):
        super().__init__(StorePassing(), table)
        self.addressing = addressing
        self.store_like = store_like
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

    def fetch_addr(self, addr: Hashable) -> Any:
        return self.monad.gets_nd_store(lambda store: self.store_like.fetch(store, addr))

    def fetch_konts(self, ka: Hashable) -> Any:
        return self.monad.gets_nd_store(lambda store: self.store_like.fetch(store, ka))

    def bind_addr(self, addr: Hashable, value: Any) -> Any:
        return self.monad.modify_store(
            lambda store: self.store_like.bind(store, addr, frozenset([value]))
        )

    def alloc(self, var: Any) -> Any:
        return self.monad.gets_guts(lambda ctx: self.addressing.valloc(var, ctx))

    def alloc_kont(self, site: Expr) -> Any:
        return self.monad.gets_guts(
            lambda ctx: self.addressing.valloc(KontTag(site), ctx)
        )

    def tick(self, receiver: ObjV, site_state: Any) -> Any:
        return self.monad.modify_guts(
            lambda ctx: self.addressing.advance(receiver, site_state, ctx)
        )


class FJTouching:
    """Touchability for FJ (objects touch their field cells; frames their
    environments, held values and parent continuations)."""

    def touched_by_state(self, pstate: PState) -> frozenset:
        roots: set = {pstate.ka}
        if isinstance(pstate.ctrl, Expr):
            env = pstate.env
            roots |= {env[v] for v in free_vars_cache(pstate.ctrl) if v in env}
        elif isinstance(pstate.ctrl, ObjV):
            roots |= set(pstate.ctrl.field_addrs)
        return frozenset(roots)

    def touched_by_value(self, value: Any) -> frozenset:
        if isinstance(value, ObjV):
            return frozenset(value.field_addrs)
        if isinstance(value, HaltF):
            return frozenset()
        if isinstance(value, FieldF):
            return frozenset([value.parent])
        if isinstance(value, CastF):
            return frozenset([value.parent])
        if isinstance(value, InvokeRcvF):
            env = value.env
            live: set = set()
            for arg in value.args:
                live |= free_vars_cache(arg)
            return frozenset(env[v] for v in live if v in env) | {value.parent}
        if isinstance(value, InvokeArgF):
            env = value.env
            live = set()
            for arg in value.remaining:
                live |= free_vars_cache(arg)
            touched = {env[v] for v in live if v in env} | {value.parent}
            touched |= set(value.receiver.field_addrs)
            for done in value.done:
                touched |= set(done.field_addrs)
            return frozenset(touched)
        if isinstance(value, NewArgF):
            env = value.env
            live = set()
            for arg in value.remaining:
                live |= free_vars_cache(arg)
            touched = {env[v] for v in live if v in env} | {value.parent}
            for done in value.done:
                touched |= set(done.field_addrs)
            return frozenset(touched)
        return frozenset()


class _SeededPerState(PerStateStoreCollecting):
    def __init__(self, interface: AbstractFJInterface, initial_guts, collector=None):
        super().__init__(interface.monad, interface.store_like, initial_guts, collector)
        self._seed_store = interface.initial_store()

    def inject(self, state: Any) -> frozenset:
        return frozenset([((state, self.initial_guts), self._seed_store)])


class _SeededShared(SharedStoreCollecting):
    def __init__(self, interface: AbstractFJInterface, initial_guts, collector=None):
        super().__init__(interface.monad, interface.store_like, initial_guts, collector)
        self._seed_store = interface.initial_store()

    def inject(self, state: Any) -> tuple:
        return (frozenset([(state, self.inner.initial_guts)]), self._seed_store)


@dataclass
class FJAnalysis:
    """An assembled FJ class-flow analysis."""

    interface: AbstractFJInterface
    collecting: Any
    shared: bool
    label: str = ""
    engine: str | None = None
    transition: str = "generic"
    last_stats: dict = field(default_factory=dict)

    def step(self) -> Callable[[PState], Any]:
        if self.transition == "fused":
            from repro.fj.fused import build_fj_fused

            return build_fj_fused(self.interface)
        return lambda pstate: mnext_fj(self.interface, pstate)

    def run(
        self,
        program: Program,
        worklist: bool = True,
        max_steps: int = 1_000_000,
        warm_start: Any = None,
        capture: Any = None,
        trace: list | None = None,
    ):
        initial = inject_fj(program.main)
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
        return self.wrap_result(fp, program)

    def wrap_result(self, fp: Any, program: Program) -> "FJAnalysisResult":
        """View a fixed point (freshly computed or cache-loaded) uniformly."""
        return FJAnalysisResult(
            fp=fp,
            shared=self.shared,
            store_like=unwrap_store(self.interface.store_like),
            program=program,
            label=self.label,
        )


@dataclass
class FJAnalysisResult:
    """Uniform view of an FJ analysis fixed point."""

    fp: Any
    shared: bool
    store_like: StoreLike
    program: Program
    label: str = ""

    def configs(self) -> frozenset:
        if self.shared:
            return self.fp[0]
        return frozenset(pair for pair, _store in self.fp)

    def states(self) -> frozenset:
        return frozenset(pstate for pstate, _guts in self.configs())

    def num_states(self) -> int:
        return len(self.states())

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

    def class_flows(self) -> dict:
        """``var-or-field -> frozenset[class]``: which classes reach where."""
        store = self.global_store()
        flows: dict = {}
        for addr in self.store_like.addresses(store):
            var = addr.var if isinstance(addr, Binding) else addr
            if isinstance(var, KontTag) or var == HALT_ADDRESS:
                continue
            key = repr(var) if isinstance(var, FieldVar) else var
            if not isinstance(key, str):
                continue
            classes = frozenset(
                v.cls for v in self.store_like.fetch(store, addr) if isinstance(v, ObjV)
            )
            if classes:
                flows[key] = flows.get(key, frozenset()) | classes
        return flows

    def final_classes(self) -> frozenset:
        """Classes of all values the program may evaluate to."""
        return frozenset(s.ctrl.cls for s in self.states() if is_final_fj(s))

    def possible_cast_failures(self, table: ClassTable) -> list:
        """Cast expressions whose argument may hold an incompatible class.

        A may-analysis: each reported cast *can* fail along some abstract
        path; an empty report proves all casts safe.
        """
        failures = []
        store = self.store_like
        for (pstate, _guts) in self.configs():
            if not isinstance(pstate.ctrl, ObjV):
                continue
            # inspect pending cast frames this value may return into
            sigma = self.global_store()
            for frame in store.fetch(sigma, pstate.ka):
                if isinstance(frame, CastF) and not table.is_subtype(
                    pstate.ctrl.cls, frame.cls
                ):
                    failures.append((frame.cls, pstate.ctrl.cls))
        return failures


def assemble_fj_from_config(
    config: AnalysisConfig, addressing: Addressable, store: StoreLike, program: Program
) -> FJAnalysis:
    """Build an :class:`FJAnalysis` from validated, prepared components.

    Called by :func:`repro.config.assemble`; FJ additionally needs the
    program here because the interface closes over its class table.
    """
    table = ClassTable.of(program)
    interface = AbstractFJInterface(table, addressing, store)
    collector = (
        MonadicStoreCollector(interface.monad, store, FJTouching())
        if config.gc
        else None
    )
    if config.shared:
        collecting: Any = _SeededShared(interface, addressing.tau0(), collector)
    else:
        collecting = _SeededPerState(interface, addressing.tau0(), collector)
    return FJAnalysis(
        interface=interface,
        collecting=collecting,
        shared=config.shared,
        label=config.label,
        engine=config.engine,
        transition=config.transition,
    )


def analyse_fj(
    program: Program,
    addressing: Addressable | None = None,
    store_like: StoreLike | None = None,
    shared: bool | None = None,
    gc: bool | None = None,
    label: str = "",
    engine: str | None = None,
    store_impl: str | None = None,
    transition: str | None = None,
    preset: str | None = None,
) -> FJAnalysis:
    """Assemble an FJ analysis from the shared degrees of freedom.

    ``preset`` starts from :data:`repro.config.PRESETS` (e.g.
    ``analyse_fj(program, preset="1cfa-gc")``); other keywords override
    it.  All paths route through :func:`repro.config.assemble`.
    """
    config = build_config(
        "fj",
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
    return assemble(
        config, program=program, addressing=addressing, store_like=store_like
    )


def analyse_fj_kcfa(program: Program, k: int = 1, gc: bool = False) -> FJAnalysisResult:
    """k-CFA class-flow analysis (per-state stores)."""
    return analyse_fj(program, KCFA(k), gc=gc, label=f"fj-{k}cfa").run(program)


def analyse_fj_zerocfa(program: Program) -> FJAnalysisResult:
    """Monovariant (context-insensitive) class-flow analysis."""
    return analyse_fj(program, ZeroCFA(), label="fj-0cfa").run(program)


def analyse_fj_shared(program: Program, k: int = 1, gc: bool = False) -> FJAnalysisResult:
    """k-CFA with the single-threaded-store widening."""
    return analyse_fj(program, KCFA(k), shared=True, gc=gc, label=f"fj-{k}cfa-shared").run(
        program
    )


def analyse_fj_counting(program: Program, k: int = 1, shared: bool = False) -> FJAnalysisResult:
    """k-CFA with a counting store (abstract counting for FJ)."""
    return analyse_fj(
        program, KCFA(k), store_like=CountingStore(), shared=shared, label=f"fj-{k}cfa-count"
    ).run(program, worklist=not shared)


def analyse_fj_gc(program: Program, k: int = 1) -> FJAnalysisResult:
    """k-CFA with abstract garbage collection."""
    return analyse_fj(program, KCFA(k), gc=True, label=f"fj-{k}cfa-gc").run(program)


def analyse_fj_engine(
    program: Program,
    engine: str,
    k: int = 1,
    stats: dict | None = None,
    store_impl: str = "persistent",
    transition: str | None = None,
) -> FJAnalysisResult:
    """Global-store class-flow analysis under a named fixed-point engine."""
    analysis = analyse_fj(
        program,
        KCFA(k),
        engine=engine,
        label=f"fj-{k}cfa-{engine}-{store_impl}",
        store_impl=store_impl,
        transition=transition,
    )
    result = analysis.run(program)
    if stats is not None:
        stats.update(analysis.last_stats)
    return result
