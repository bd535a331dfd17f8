"""The abstract CESK analysis -- same monads, same components as CPS.

The *only* CESK-specific code is the interface implementation's case
analysis, the touchability relation and the result's flow views.
Polyvariance (:class:`~repro.core.addresses.Addressable`), stores
(:class:`~repro.core.store.StoreLike`), counting, garbage collection,
both fixed-point domains and the assembled
:class:`~repro.core.analysis.Analysis` itself come from
:mod:`repro.core` verbatim -- the paper's reuse claim, which experiment
E8 checks by identity of the component objects.  The :data:`LANGUAGE`
descriptor seeds the injected store with the halt frame.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.addresses import Addressable, Binding
from repro.core.analysis import AnalysisResult, Language
from repro.core.monads import StorePassing
from repro.core.store import StoreLike
from repro.cesk.machine import (
    ArgF,
    Clo,
    FunF,
    HALT_ADDRESS,
    HaltF,
    KontTag,
    LetF,
    PState,
    inject,
)
from repro.cesk.semantics import CESKInterface, is_final, mnext_cesk
from repro.lam.syntax import Expr, free_vars
from repro.util.pcollections import PMap


class AbstractCESKInterface(CESKInterface):
    """The CESK interface over ``StorePassing``, ``Addressable`` and ``StoreLike``."""

    def __init__(self, addressing: Addressable, store_like: StoreLike):
        super().__init__(StorePassing())
        self.addressing = addressing
        self.store_like = store_like

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
            roots |= {env[v] for v in free_vars(pstate.ctrl) if v in env}
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
            live = free_vars(value.body) - frozenset([value.var])
            return frozenset(env[v] for v in live if v in env) | {value.parent}
        if isinstance(value, FunF):
            env = value.env
            live: set = set()
            for arg in value.args:
                live |= free_vars(arg)
            return frozenset(env[v] for v in live if v in env) | {value.parent}
        if isinstance(value, ArgF):
            env = value.env
            live = set()
            for arg in value.remaining:
                live |= free_vars(arg)
            touched = {env[v] for v in live if v in env} | {value.parent}
            touched |= set(value.fun_val.env.values())
            for done_value in value.done:
                touched |= set(done_value.env.values())
            return frozenset(touched)
        return frozenset()



class CESKAnalysisResult(AnalysisResult):
    """CESK flow views over the shared fixed-point views."""

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


def _fused(interface: AbstractCESKInterface) -> Any:
    from repro.cesk.fused import build_cesk_fused

    return build_cesk_fused(interface)


#: The direct-style (``lam``) descriptor :func:`repro.config.assemble` uses.
LANGUAGE = Language(
    name="lam",
    interface=lambda addressing, store_like, _program: AbstractCESKInterface(
        addressing, store_like
    ),
    touching=CESKTouching(),
    inject=inject,
    step=mnext_cesk,
    fused=_fused,
    result=CESKAnalysisResult,
    halt=(HALT_ADDRESS, HaltF()),
)
