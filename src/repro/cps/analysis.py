"""The CPS analysis: collecting semantics to k-CFA and beyond (5-8).

One interface implementation, :class:`AbstractCPSInterface`, covers the
whole spectrum: it is parameterized by an
:class:`~repro.core.addresses.Addressable` (polyvariance and context,
6.1) and a :class:`~repro.core.store.StoreLike` (store representation
and abstract counting, 6.2-6.3), and runs in the
:class:`~repro.core.monads.StorePassing` monad (5.3.1).  The fixed-point
side is shared by every language (:mod:`repro.core.analysis`):
per-state stores or the shared-store widening (6.5), with or without
abstract garbage collection (6.4).

This module contributes only what is CPS-specific: the interface, the
touching relation (:class:`CPSTouching`), the flow views of
:class:`CPSAnalysisResult` and the :data:`LANGUAGE` descriptor.
Section 8's family is a choice of :class:`~repro.config.AnalysisConfig`
(or a preset) handed to :func:`repro.config.assemble`::

    assemble(AnalysisConfig(language="cps", k=1)).run(program)       # 8.1
    assemble(preset_config("1cfa-gc", "cps")).run(program)           # 6.4
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.addresses import Addressable, Binding
from repro.core.analysis import AnalysisResult, Language
from repro.core.lattice import AbsNat
from repro.core.monads import StorePassing
from repro.core.store import CountingStore, StoreLike
from repro.cps.semantics import Clo, CPSInterface, PState, inject, mnext
from repro.cps.syntax import AExp, Lam, Ref, Var, free_vars
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
            captured = env.restrict(free_vars(aexp).__contains__)
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
            env[v] for v in free_vars(pstate.ctrl) if v in env
        )

    def touched_by_value(self, value: Clo) -> frozenset:
        env = value.env
        return frozenset(env[v] for v in free_vars(value.lam) if v in env)



class CPSAnalysisResult(AnalysisResult):
    """CPS flow views over the shared fixed-point views."""

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


def _fused(interface: AbstractCPSInterface) -> Any:
    from repro.cps.fused import build_cps_fused

    return build_cps_fused(interface)


#: The CPS descriptor :func:`repro.config.assemble` builds analyses from.
LANGUAGE = Language(
    name="cps",
    interface=lambda addressing, store_like, _program: AbstractCPSInterface(
        addressing, store_like
    ),
    touching=CPSTouching(),
    inject=inject,
    step=mnext,
    fused=_fused,
    result=CPSAnalysisResult,
)
