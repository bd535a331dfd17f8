"""The abstract FJ analysis -- the same monadic components, third time.

Class-flow analysis for Featherweight Java: which classes of objects
reach which variables, fields and call sites.  As with CPS and CESK,
everything except the interface's case analysis, the touchability
relation and the result's class-flow views comes from
:mod:`repro.core` unchanged, the assembled
:class:`~repro.core.analysis.Analysis` included.  FJ's
:data:`LANGUAGE` descriptor builds its interface over the class table of
the program being assembled for.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.addresses import Addressable, Binding
from repro.core.analysis import AnalysisResult, Language
from repro.core.monads import StorePassing
from repro.core.store import StoreLike
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
    inject_fj,
)
from repro.fj.semantics import FJInterface, is_final_fj, mnext_fj
from repro.fj.syntax import Expr, Program, free_vars
from repro.util.pcollections import PMap


class AbstractFJInterface(FJInterface):
    """The FJ interface over ``StorePassing``/``Addressable``/``StoreLike``."""

    def __init__(self, table: ClassTable, addressing: Addressable, store_like: StoreLike):
        super().__init__(StorePassing(), table)
        self.addressing = addressing
        self.store_like = store_like

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
            roots |= {env[v] for v in free_vars(pstate.ctrl) if v in env}
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
                live |= free_vars(arg)
            return frozenset(env[v] for v in live if v in env) | {value.parent}
        if isinstance(value, InvokeArgF):
            env = value.env
            live = set()
            for arg in value.remaining:
                live |= free_vars(arg)
            touched = {env[v] for v in live if v in env} | {value.parent}
            touched |= set(value.receiver.field_addrs)
            for done in value.done:
                touched |= set(done.field_addrs)
            return frozenset(touched)
        if isinstance(value, NewArgF):
            env = value.env
            live = set()
            for arg in value.remaining:
                live |= free_vars(arg)
            touched = {env[v] for v in live if v in env} | {value.parent}
            for done in value.done:
                touched |= set(done.field_addrs)
            return frozenset(touched)
        return frozenset()


class FJAnalysisResult(AnalysisResult):
    """FJ class-flow views over the shared fixed-point views."""

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


def _interface(
    addressing: Addressable, store_like: StoreLike, program: Program | None
) -> AbstractFJInterface:
    if program is None:
        raise ValueError("assembling an FJ analysis needs the program (class table)")
    return AbstractFJInterface(ClassTable.of(program), addressing, store_like)


def _fused(interface: AbstractFJInterface) -> Any:
    from repro.fj.fused import build_fj_fused

    return build_fj_fused(interface)


#: The FJ descriptor :func:`repro.config.assemble` builds analyses from.
LANGUAGE = Language(
    name="fj",
    interface=_interface,
    touching=FJTouching(),
    inject=lambda program: inject_fj(program.main),
    step=mnext_fj,
    fused=_fused,
    result=FJAnalysisResult,
    halt=(HALT_ADDRESS, HaltF()),
)
