"""The monadic small-step semantics of CPS: the paper's Figure 2.

This module is the *language definition level* of the framework: the
semantic interface :class:`CPSInterface` and the transition function
:func:`mnext`, written once in monadic normal form.  Everything else --
concrete interpretation, collecting semantics, k-CFA, widening, GC,
counting -- comes from swapping the interface implementation and the
monad, with this file left untouched (that invariance is the paper's
Figure 2 caption: "not going to change in the remainder of our story",
and our tests pin it down).

The interface, transliterated::

    class Monad m => CPSInterface m a where
      fun   :: Env a -> AExp -> m (Val a)
      arg   :: Env a -> AExp -> m (Val a)
      (|->) :: a -> Val a -> m ()
      alloc :: Var -> m a
      tick  :: Val a -> PSigma a -> m ()

``fun`` evaluates the operator (the sole source of nondeterminism),
``arg`` evaluates operands, ``|->`` (here :meth:`CPSInterface.bind_addr`)
writes a binding through the monad, ``alloc`` mints an address for a
variable, and ``tick`` advances whatever notion of time the monad keeps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.util.intern import hash_consed
from typing import Any, Hashable

from repro.core.monads import Monad, MonadPlus, map_m, run_do, sequence_
from repro.cps.syntax import AExp, Call, CExp, Exit, Lam, Var, free_vars
from repro.util.pcollections import PMap, pmap


@hash_consed
class Clo:
    """The only denotable value in CPS: a closure ``(lam, rho)``."""

    lam: Lam
    env: PMap

    def __repr__(self) -> str:
        return f"Clo({self.lam!r})"


@hash_consed
class PState:
    """A partial state ``PSigma a = (CExp, Env a)``: control + environment.

    Time and store live inside the monad (paper 3.2-3.3), so machine
    states carry only what the transition inspects directly.
    ``context_key`` exposes the control point to the semantics-independent
    :class:`~repro.core.addresses.Addressable` allocators.
    """

    ctrl: CExp
    env: PMap

    def context_key(self) -> Hashable:
        return self.ctrl

    def is_final(self) -> bool:
        return isinstance(self.ctrl, Exit)

    def __repr__(self) -> str:
        return f"<{self.ctrl!r} | {dict(self.env.items_sorted())!r}>"


def inject(program: CExp) -> PState:
    """The injector ``I(call) = (call, [])`` of section 2."""
    return PState(program, pmap())


class CPSStuck(Exception):
    """A deterministic interpretation reached a stuck (non-Exit) state."""


class CPSInterface(ABC):
    """The semantic interface of CPS (Figure 2), over a monad instance.

    An implementation fixes the address type ``a`` (implicitly, by what
    ``alloc`` returns) and the monad ``m`` (the :attr:`monad` object).
    """

    def __init__(self, monad: Monad):
        self.monad = monad

    @abstractmethod
    def fun(self, env: PMap, aexp: AExp) -> Any:
        """Evaluate the operator position to a closure, in the monad."""

    @abstractmethod
    def arg(self, env: PMap, aexp: AExp) -> Any:
        """Evaluate an operand position to a value, in the monad."""

    @abstractmethod
    def bind_addr(self, addr: Hashable, value: Clo) -> Any:
        """``addr |-> value``: write one binding through the monad."""

    @abstractmethod
    def alloc(self, var: Var) -> Any:
        """Allocate an address for ``var`` (context comes from the monad)."""

    @abstractmethod
    def tick(self, proc: Clo, pstate: PState) -> Any:
        """Advance the monad's internal time for a call of ``proc``."""

    # -- hooks with sensible defaults ---------------------------------------

    def stuck(self, pstate: PState, reason: str) -> Any:
        """Interpretation of a stuck transition (arity mismatch, bad operator).

        Nondeterministic monads prune the branch; deterministic ones
        raise, because a concrete run that sticks is a real error.
        """
        if isinstance(self.monad, MonadPlus):
            return self.monad.mzero()
        raise CPSStuck(f"{reason} at {pstate!r}")


def mnext(interface: CPSInterface, pstate: PState) -> Any:
    """The transition function of Figure 2, in monadic normal form.

    ::

        mnext ps@(Call f aes, rho) = do
          proc@(Clo (vs :=> call', rho')) <- fun rho f
          tick proc ps
          as <- mapM alloc vs
          ds <- mapM (arg rho) aes
          let rho'' = rho' // [v ==> a | v <- vs | a <- as]
          sequence [a |-> d | a <- as | d <- ds]
          return (call', rho'')
        mnext s = return s
    """
    monad = interface.monad
    ctrl = pstate.ctrl
    if not isinstance(ctrl, Call):
        return monad.unit(pstate)
    f, aes = ctrl.fun, ctrl.args

    def with_proc(proc: Clo) -> Any:
        if not isinstance(proc, Clo):
            return interface.stuck(pstate, f"operator is not a closure: {proc!r}")
        vs, call_body, rho_prime = proc.lam.params, proc.lam.body, proc.env
        if len(vs) != len(aes):
            return interface.stuck(
                pstate, f"arity mismatch: {len(vs)} params, {len(aes)} args"
            )

        def with_time(_ignored: Any) -> Any:
            return monad.bind(
                map_m(monad, interface.alloc, vs),
                lambda addrs: monad.bind(
                    map_m(monad, lambda ae: interface.arg(pstate.env, ae), aes),
                    lambda ds: monad.then(
                        sequence_(
                            monad,
                            [interface.bind_addr(a, d) for a, d in zip(addrs, ds)],
                        ),
                        monad.unit(
                            PState(call_body, rho_prime.update(zip(vs, addrs)))
                        ),
                    ),
                ),
            )

        return monad.bind(interface.tick(proc, pstate), with_time)

    return monad.bind(interface.fun(pstate.env, f), with_proc)


def mnext_do(interface: CPSInterface, pstate: PState) -> Any:
    """:func:`mnext` written with generator do-notation (replay semantics).

    Semantically identical to :func:`mnext`; kept as both documentation
    (it reads like the paper's do-block) and as a regression test for the
    :func:`~repro.core.monads.run_do` machinery under nondeterminism.
    """
    monad = interface.monad
    ctrl = pstate.ctrl
    if not isinstance(ctrl, Call):
        return monad.unit(pstate)
    f, aes = ctrl.fun, ctrl.args

    def block():
        proc = yield interface.fun(pstate.env, f)
        if not isinstance(proc, Clo):
            yield interface.stuck(pstate, f"operator is not a closure: {proc!r}")
        vs, call_body, rho_prime = proc.lam.params, proc.lam.body, proc.env
        if len(vs) != len(aes):
            yield interface.stuck(pstate, "arity mismatch")
        yield interface.tick(proc, pstate)
        addrs = yield map_m(monad, interface.alloc, vs)
        ds = yield map_m(monad, lambda ae: interface.arg(pstate.env, ae), aes)
        yield sequence_(monad, [interface.bind_addr(a, d) for a, d in zip(addrs, ds)])
        return PState(call_body, rho_prime.update(zip(vs, addrs)))

    return run_do(monad, block)


def atomic_eval_closure(env: PMap, aexp: AExp) -> Clo | None:
    """The pure part of the atomic evaluator: lambdas close over the environment.

    A closure captures only its lambda's *free* variables -- a standard
    flow-analysis hygiene step that keeps environments minimal, sharpens
    abstract GC and keeps states small.  Variable references need the
    store and therefore the monad; they return ``None`` here and are
    handled by each interface.
    """
    if isinstance(aexp, Lam):
        return Clo(aexp, env.restrict(free_vars(aexp).__contains__))
    return None
