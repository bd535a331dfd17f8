"""Recovering a concrete interpreter (paper section 4).

The paper instantiates ``CPSInterface`` at the ``IO`` monad, using the
real heap as the store and ``IORef``-backed addresses.  Python has no
effect segregation to respect, so the closest faithful analogue is the
:class:`~repro.core.monads.Identity` monad over a *mutable* heap owned
by the interface object: ``fun``/``arg`` read it, ``|->`` writes it,
``alloc`` bumps a counter to mint a fresh cell, and ``tick`` is a no-op
("in the real world, time advances without our help").

``interpret`` is the paper's driver loop: iterate ``mnext`` until an
``Exit`` state.  ``interpret_trace`` additionally records every machine
state passed through, which the soundness tests use to check that the
concrete trace is covered by every abstract analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.monads import Identity
from repro.cps.semantics import (
    Clo,
    CPSInterface,
    CPSStuck,
    PState,
    inject,
    mnext,
)
from repro.cps.syntax import AExp, CExp, Lam, Ref, Var, free_vars
from repro.util.pcollections import PMap


@dataclass(frozen=True)
class HeapAddr:
    """A concrete address: a fresh cell index (the paper's ``IOAddr``)."""

    index: int

    def __repr__(self) -> str:
        return f"#{self.index}"


class ConcreteCPSInterface(CPSInterface):
    """``instance CPSInterface IO IOAddr``, with Python's heap as the store."""

    def __init__(self) -> None:
        super().__init__(Identity())
        self.heap: dict[HeapAddr, Clo] = {}
        self._next = 0

    def fun(self, env: PMap, aexp: AExp) -> Any:
        return self._atomic(env, aexp)

    def arg(self, env: PMap, aexp: AExp) -> Any:
        return self._atomic(env, aexp)

    def _atomic(self, env: PMap, aexp: AExp) -> Clo:
        if isinstance(aexp, Lam):
            captured = env.restrict(free_vars(aexp).__contains__)
            return Clo(aexp, captured)
        if isinstance(aexp, Ref):
            if aexp.var not in env:
                raise CPSStuck(f"unbound variable {aexp.var!r}")
            addr = env[aexp.var]
            if addr not in self.heap:
                raise CPSStuck(f"dangling address {addr!r} for {aexp.var!r}")
            return self.heap[addr]
        raise CPSStuck(f"not an atomic expression: {aexp!r}")

    def bind_addr(self, addr: HeapAddr, value: Clo) -> Any:
        self.heap[addr] = value
        return None  # Identity-monad unit of ()

    def alloc(self, var: Var) -> HeapAddr:
        addr = HeapAddr(self._next)
        self._next += 1
        return addr

    def tick(self, proc: Clo, pstate: PState) -> Any:
        return None  # time advances without our help


def interpret(program: CExp, max_steps: int = 100_000) -> PState:
    """Run the monadic machine to its ``Exit`` state (paper's ``interpret``).

    Raises :class:`CPSStuck` on runtime errors and
    :class:`InterpreterTimeout` if the program does not finish within
    ``max_steps`` transitions (CPS programs may legitimately diverge).
    """
    interface = ConcreteCPSInterface()
    state = inject(program)
    for _ in range(max_steps):
        if state.is_final():
            return state
        state = mnext(interface, state)
    raise InterpreterTimeout(f"no Exit state within {max_steps} steps")


def interpret_trace(program: CExp, max_steps: int = 100_000) -> list[PState]:
    """Like :func:`interpret`, returning every state the machine visits."""
    interface = ConcreteCPSInterface()
    state = inject(program)
    trace = [state]
    for _ in range(max_steps):
        if state.is_final():
            return trace
        state = mnext(interface, state)
        trace.append(state)
    raise InterpreterTimeout(f"no Exit state within {max_steps} steps")


def interpret_with_heap(program: CExp, max_steps: int = 100_000) -> tuple[PState, dict]:
    """Run to completion and also return the final concrete heap."""
    interface = ConcreteCPSInterface()
    state = inject(program)
    for _ in range(max_steps):
        if state.is_final():
            return state, dict(interface.heap)
        state = mnext(interface, state)
    raise InterpreterTimeout(f"no Exit state within {max_steps} steps")


class InterpreterTimeout(Exception):
    """The concrete machine exceeded its step budget (possible divergence)."""
