"""The monadic small-step semantics of the CESK machine.

``CESKInterface`` plays the role Figure 2's ``CPSInterface`` plays for
CPS: a small monadic surface through which *all* store, time and
nondeterminism effects flow.  ``mnext_cesk`` is written once against it;
concrete interpretation and the whole abstract-analysis family come from
swapping the implementation -- with the *same* meta-level components
(``Addressable``, ``StoreLike``, collectors) as the CPS and
Featherweight Java machines, which is the reuse claim of the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable

from repro.core.monads import Monad, MonadPlus, map_m, sequence_
from repro.cesk.machine import (
    ArgF,
    Clo,
    Frame,
    FunF,
    HaltF,
    LetF,
    PState,
    SiteContext,
)
from repro.lam.syntax import App, Expr, Lam, Let, Var, free_vars
from repro.util.pcollections import PMap


class CESKStuck(Exception):
    """A deterministic CESK run reached a stuck state."""


class CESKInterface(ABC):
    """The semantic interface of the CESK machine, over a monad instance."""

    def __init__(self, monad: Monad):
        self.monad = monad

    @abstractmethod
    def fetch_values(self, env: PMap, var: str) -> Any:
        """Look a variable up through the store (nondeterministic)."""

    @abstractmethod
    def fetch_konts(self, ka: Hashable) -> Any:
        """Look the frames up at a continuation address (nondeterministic)."""

    @abstractmethod
    def bind_addr(self, addr: Hashable, value: Any) -> Any:
        """Write one binding (value or frame) through the monad."""

    @abstractmethod
    def alloc(self, var: str) -> Any:
        """Allocate a value address for ``var``."""

    @abstractmethod
    def alloc_kont(self, site: Expr) -> Any:
        """Allocate a continuation address for the frame pushed at ``site``."""

    @abstractmethod
    def tick(self, proc: Clo, site_state: Any) -> Any:
        """Advance the monad's time on a function application."""

    def stuck(self, pstate: PState, reason: str) -> Any:
        if isinstance(self.monad, MonadPlus):
            return self.monad.mzero()
        raise CESKStuck(f"{reason} at {pstate!r}")


def close(lam: Lam, env: PMap) -> Clo:
    """Close a lambda over the free-variable restriction of ``env``."""
    return Clo(lam, env.restrict(free_vars(lam).__contains__))


def mnext_cesk(interface: CESKInterface, pstate: PState) -> Any:
    """One monadic CESK step (eval / continue dispatch)."""
    monad = interface.monad
    ctrl, env, ka = pstate.ctrl, pstate.env, pstate.ka

    # -- eval mode ----------------------------------------------------------
    if isinstance(ctrl, Var):
        return monad.bind(
            interface.fetch_values(env, ctrl.name),
            lambda v: monad.unit(PState(v, env, ka)),
        )
    if isinstance(ctrl, Lam):
        return monad.unit(PState(close(ctrl, env), env, ka))
    if isinstance(ctrl, Let):
        frame = LetF(ctrl.var, ctrl.body, env, ka)
        return monad.bind(
            interface.alloc_kont(ctrl),
            lambda ka2: monad.then(
                interface.bind_addr(ka2, frame),
                monad.unit(PState(ctrl.rhs, env, ka2)),
            ),
        )
    if isinstance(ctrl, App):
        frame = FunF(ctrl, ctrl.args, env, ka)
        return monad.bind(
            interface.alloc_kont(ctrl),
            lambda ka2: monad.then(
                interface.bind_addr(ka2, frame),
                monad.unit(PState(ctrl.fun, env, ka2)),
            ),
        )

    # -- return mode ----------------------------------------------------------
    if isinstance(ctrl, Clo):
        return monad.bind(
            interface.fetch_konts(ka),
            lambda frame: _continue(interface, pstate, ctrl, frame),
        )
    return interface.stuck(pstate, f"unrecognized control {ctrl!r}")


def _continue(interface: CESKInterface, pstate: PState, value: Clo, frame: Frame) -> Any:
    monad = interface.monad
    if isinstance(frame, HaltF):
        return monad.unit(pstate)  # final states self-loop
    if isinstance(frame, LetF):
        return monad.bind(
            interface.alloc(frame.var),
            lambda addr: monad.then(
                interface.bind_addr(addr, value),
                monad.unit(
                    PState(frame.body, frame.env.set(frame.var, addr), frame.parent)
                ),
            ),
        )
    if isinstance(frame, FunF):
        if not isinstance(value, Clo):
            return interface.stuck(pstate, f"operator is not a closure: {value!r}")
        if not frame.args:
            return _apply(interface, pstate, frame.site, value, (), frame.parent)
        next_frame = ArgF(
            frame.site, value, frame.args[1:], (), frame.env, frame.parent
        )
        return monad.bind(
            interface.alloc_kont(frame.args[0]),
            lambda ka2: monad.then(
                interface.bind_addr(ka2, next_frame),
                monad.unit(PState(frame.args[0], frame.env, ka2)),
            ),
        )
    if isinstance(frame, ArgF):
        done = frame.done + (value,)
        if not frame.remaining:
            return _apply(interface, pstate, frame.site, frame.fun_val, done, frame.parent)
        next_frame = ArgF(
            frame.site, frame.fun_val, frame.remaining[1:], done, frame.env, frame.parent
        )
        return monad.bind(
            interface.alloc_kont(frame.remaining[0]),
            lambda ka2: monad.then(
                interface.bind_addr(ka2, next_frame),
                monad.unit(PState(frame.remaining[0], frame.env, ka2)),
            ),
        )
    return interface.stuck(pstate, f"unrecognized frame {frame!r}")


def _apply(
    interface: CESKInterface,
    pstate: PState,
    site: App,
    proc: Clo,
    arg_values: tuple,
    parent_ka: Hashable,
) -> Any:
    monad = interface.monad
    params, body = proc.lam.params, proc.lam.body
    if len(params) != len(arg_values):
        return interface.stuck(
            pstate, f"arity mismatch: {len(params)} params, {len(arg_values)} args"
        )

    def with_time(_ignored: Any) -> Any:
        return monad.bind(
            map_m(monad, interface.alloc, params),
            lambda addrs: monad.then(
                sequence_(
                    monad,
                    [interface.bind_addr(a, v) for a, v in zip(addrs, arg_values)],
                ),
                monad.unit(
                    PState(body, proc.env.update(zip(params, addrs)), parent_ka)
                ),
            ),
        )

    return monad.bind(interface.tick(proc, SiteContext(site)), with_time)


def is_final(pstate: PState) -> bool:
    """A final state returns a value to the halt continuation."""
    from repro.cesk.machine import HALT_ADDRESS

    return pstate.is_return() and pstate.ka == HALT_ADDRESS
