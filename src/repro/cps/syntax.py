"""CPS syntax: the grammar of the paper's Figure 1.

::

    lam  in Lam  ::= (lambda (v1 ... vn) call)
    f,ae in AExp  = Var + Lam
    call in Call ::= (f ae1 ... aen) | Exit

Terms are frozen dataclasses with structural equality and hashing, so
they can sit inside machine states inside powerset lattices.  Following
the paper, k-CFA time-stamps are sequences *of the call terms
themselves* (``Time = [CExp]``), which structural equality supports
directly.

Beyond the grammar the module provides :func:`free_vars`,
:func:`subterms`, :func:`call_sites`, a pretty-printer (:func:`pp`) that
round-trips through :mod:`repro.cps.parser`, and :func:`alphatize`
(unique variable names -- classical hygiene before monovariant
analysis).
"""

from __future__ import annotations

import itertools

from repro.util.intern import (
    FREE_VARS_SLOT,
    TEXT_SLOT,
    bind_vars,
    fold_memo,
    interned,
    remember,
    union_vars,
)
from typing import Iterator, Union

Var = str


class AExp:
    """An atomic expression: a variable reference or a lambda term."""

    __slots__ = ()


class CExp:
    """A call expression: an application or ``Exit``."""

    __slots__ = ()


@interned
class Ref(AExp):
    """A variable reference."""

    var: Var

    def __repr__(self) -> str:
        return self.var


@interned
class Lam(AExp):
    """``(lambda (v1 ... vn) call)``: the only value-forming expression."""

    params: tuple[Var, ...]
    body: "CExp"

    def __repr__(self) -> str:
        return pp(self)


@interned
class Call(CExp):
    """``(f ae1 ... aen)``: application of a function to arguments."""

    fun: AExp
    args: tuple[AExp, ...]

    def __repr__(self) -> str:
        return pp(self)


@interned
class Exit(CExp):
    """The terminal call expression."""

    def __repr__(self) -> str:
        return "(exit)"


Term = Union[AExp, CExp]


def free_vars(term: Term) -> frozenset:
    """Free variables of an atomic or call expression (memoized per node)."""
    return fold_memo(term, FREE_VARS_SLOT, _fv_children, _fv_combine)


def _fv_children(term: Term) -> tuple:
    if isinstance(term, Lam):
        return (term.body,)
    if isinstance(term, Call):
        return (term.fun, *term.args)
    if isinstance(term, (Ref, Exit)):
        return ()
    raise TypeError(f"not a CPS term: {term!r}")


def _fv_combine(term: Term, child_vars: list) -> frozenset:
    if isinstance(term, Ref):
        return frozenset([term.var])
    if isinstance(term, Lam):
        return bind_vars(child_vars[0], term.params)
    if isinstance(term, Call):
        return union_vars(child_vars)
    return frozenset()


def subterms(term: Term) -> Iterator[Term]:
    """All subterms (including ``term`` itself), preorder."""
    yield term
    if isinstance(term, Lam):
        yield from subterms(term.body)
    elif isinstance(term, Call):
        yield from subterms(term.fun)
        for arg in term.args:
            yield from subterms(arg)


def call_sites(term: Term) -> list[Call]:
    """All application sites in a term, in preorder."""
    return [t for t in subterms(term) if isinstance(t, Call)]


def lambdas(term: Term) -> list[Lam]:
    """All lambda terms in a term, in preorder."""
    return [t for t in subterms(term) if isinstance(t, Lam)]


def variables(term: Term) -> frozenset:
    """Every variable name occurring in ``term`` (bound or free)."""
    out: set = set()
    for sub in subterms(term):
        if isinstance(sub, Ref):
            out.add(sub.var)
        elif isinstance(sub, Lam):
            out.update(sub.params)
    return frozenset(out)


def is_closed(call: CExp) -> bool:
    """A program is a closed call expression."""
    return not free_vars(call)


def pp(term: Term) -> str:
    """Pretty-print a term back to its s-expression concrete syntax."""
    if isinstance(term, Ref):
        return term.var
    if isinstance(term, Lam):
        # memoized on the node: its text is a pure function of its structure
        text = getattr(term, TEXT_SLOT)
        if text is None:
            text = f"(lambda ({' '.join(term.params)}) {pp(term.body)})"
            remember(term, TEXT_SLOT, text)
        return text
    if isinstance(term, Call):
        parts = [pp(term.fun)] + [pp(arg) for arg in term.args]
        return "(" + " ".join(parts) + ")"
    if isinstance(term, Exit):
        return "(exit)"
    raise TypeError(f"not a CPS term: {term!r}")


def alphatize(term: Term, fresh: Iterator[str] | None = None, env: dict | None = None) -> Term:
    """Rename bound variables so every binder introduces a distinct name.

    Monovariant analyses (0CFA) key the store by variable name; distinct
    binders sharing a name would be merged spuriously, so corpus programs
    are alphatized before analysis.  Free variables are left untouched.
    """
    if fresh is None:
        fresh = (f"%{i}" for i in itertools.count())
    if env is None:
        env = {}
    if isinstance(term, Ref):
        return Ref(env.get(term.var, term.var))
    if isinstance(term, Lam):
        renamed = {param: f"{param}{next(fresh)}" for param in term.params}
        inner = dict(env)
        inner.update(renamed)
        return Lam(
            tuple(renamed[param] for param in term.params),
            alphatize(term.body, fresh, inner),
        )
    if isinstance(term, Call):
        return Call(
            alphatize(term.fun, fresh, env),
            tuple(alphatize(arg, fresh, env) for arg in term.args),
        )
    if isinstance(term, Exit):
        return term
    raise TypeError(f"not a CPS term: {term!r}")


def term_size(term: Term) -> int:
    """Number of subterms; the size measure used by the benchmark tables."""
    return sum(1 for _ in subterms(term))
