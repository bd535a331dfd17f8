"""``Addressable``: polyvariance and context, independent of semantics (paper 6.1).

The paper's class::

    class (Ord a, Eq a) => Addressable a c | c -> a where
      tau0    :: c
      valloc  :: Var -> c -> a
      advance :: Val a -> PSigma a -> c -> c

A context ``c`` unambiguously determines the nature of addresses ``a``;
``tau0`` is the initial context, ``valloc`` mints an address for a
variable in a context, and ``advance`` evolves the context at a call
(the residue of ``tick``).  Because the whole interface sees the machine
state only through an opaque *context key* (the current call site), the
instances below are reused verbatim by the CPS, CESK and Featherweight
Java machines -- which is the paper's central claim, checked by
experiment E8.

Instances provided (paper sections in parentheses):

* :class:`ConcreteAddressing`  -- fresh addresses per allocation (5.3.2);
* :class:`ZeroCFA`             -- monovariance, ``Addr = Var`` (2.3.1);
* :class:`KCFA`                -- last-k-call-sites contours (2.4.1, 8.1);
* :class:`LContext`            -- Lakhotia-style sequences of *unique*
  enclosed calls (3.4);
* :class:`BoundedNat`          -- contexts from a bounded set of naturals
  ``{n | n <= N}`` (3.4).

Machine states participate through the tiny :class:`HasContextKey`
protocol: they expose the hashable label of their control point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.util.intern import hash_consed
from typing import Any, Hashable, Protocol, runtime_checkable


@runtime_checkable
class HasContextKey(Protocol):
    """A partial machine state that can name its control point.

    ``context_key()`` returns a hashable label for the current call site
    (CPS call, CESK application, FJ method invocation); this is the only
    thing address allocation ever needs to know about a state.
    """

    def context_key(self) -> Hashable: ...


@hash_consed
class Binding:
    """An abstract address pairing a variable with a context (the paper's ``KAddr``).

    ``KBind Var Time`` in the paper; reused for every context-based
    addressing scheme since they differ only in the context component.
    """

    var: Any
    context: Hashable

    def __repr__(self) -> str:
        return f"{self.var}@{self.context!r}"


class Addressable(ABC):
    """The semantics-independent address/contour allocator."""

    @abstractmethod
    def tau0(self) -> Hashable:
        """The initial context (instantiates ``HasInitial`` for the guts)."""

    @abstractmethod
    def valloc(self, var: Any, context: Hashable) -> Hashable:
        """Allocate an address for ``var`` in ``context``."""

    @abstractmethod
    def advance(self, proc: Any, state: HasContextKey, context: Hashable) -> Hashable:
        """Evolve the context on a call to ``proc`` from ``state``."""


class ConcreteAddressing(Addressable):
    """Unique addresses for every allocation: the *concrete* collecting semantics.

    Contexts are naturals; ``advance`` increments, so every machine
    transition works in a fresh context and every variable bound there
    gets a fresh ``(var, n)`` address.  Per Might and Manolios' a
    posteriori soundness theorem (paper 6.1), any other allocation policy
    abstracts the semantics induced by this one.

    The paper's inline example (5.3.2) returns the bare time integer from
    ``alloc``, which would share one address among the parameters of a
    single call; we pair the variable in to keep allocation genuinely
    unique, as 6.1 requires of the reference semantics.
    """

    def tau0(self) -> int:
        return 0

    def valloc(self, var: Any, context: int) -> Binding:
        return Binding(var, context)

    def advance(self, proc: Any, state: HasContextKey, context: int) -> int:
        return context + 1


class ZeroCFA(Addressable):
    """Monovariant analysis (0CFA): variables are their own addresses (2.3.1)."""

    def tau0(self) -> tuple:
        return ()

    def valloc(self, var: Any, context: tuple) -> Any:
        return var

    def advance(self, proc: Any, state: HasContextKey, context: tuple) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "ZeroCFA()"


class KCFA(Addressable):
    """k-CFA: contexts are the last ``k`` call sites (paper 2.4.1, 6.1, 8.1).

    ``Time = Call^{<=k}``; ``advance`` conses the current call site and
    truncates to length ``k`` (the paper's ``advance proc (call, rho) t =
    take k (call : calls)``); addresses pair the variable with the
    context.  ``KCFA(0)`` coincides with :class:`ZeroCFA` up to the
    address representation.
    """

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k

    def tau0(self) -> tuple:
        return ()

    def valloc(self, var: Any, context: tuple) -> Binding:
        return Binding(var, context)

    def advance(self, proc: Any, state: HasContextKey, context: tuple) -> tuple:
        return ((state.context_key(),) + context)[: self.k]

    def __repr__(self) -> str:
        return f"KCFA(k={self.k})"


class LContext(Addressable):
    """l-contexts: bounded sequences of *unique* call sites (paper 3.4).

    Following Lakhotia et al.'s analysis of obfuscated binaries, a
    context records the most recent calls with duplicates collapsed: on
    re-entering a call site already in the context, the context is
    truncated back to that occurrence (folding the cycle) instead of
    growing.  This keeps recursive churn from exhausting the context
    window that k-CFA would burn on repeated sites.
    """

    def __init__(self, depth: int):
        if depth < 0:
            raise ValueError("the context depth must be non-negative")
        self.depth = depth

    def tau0(self) -> tuple:
        return ()

    def valloc(self, var: Any, context: tuple) -> Binding:
        return Binding(var, context)

    def advance(self, proc: Any, state: HasContextKey, context: tuple) -> tuple:
        key = state.context_key()
        if key in context:
            trimmed = context[context.index(key) :]
        else:
            trimmed = (key,) + context
        return trimmed[: self.depth]

    def __repr__(self) -> str:
        return f"LContext(depth={self.depth})"


class BoundedNat(Addressable):
    """Contexts from a bounded set of naturals ``{n | n <= N}`` (paper 3.4).

    The context simply counts transitions, saturating at ``N``; "a good
    precision for sufficiently big N" since early bindings stay
    distinguished while the tail of a long run collapses.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("N must be non-negative")
        self.n = n

    def tau0(self) -> int:
        return 0

    def valloc(self, var: Any, context: int) -> Binding:
        return Binding(var, context)

    def advance(self, proc: Any, state: HasContextKey, context: int) -> int:
        return min(context + 1, self.n)

    def __repr__(self) -> str:
        return f"BoundedNat(N={self.n})"
