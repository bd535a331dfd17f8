"""Direct-style lambda-calculus terms.

The core grammar is variables, (multi-argument) lambdas and
applications; ``let`` is kept as a first-class node because the CESK
machine gives it a dedicated frame (and analyses see through it better
than through its ``((lambda ...) e)`` encoding, which is also provided
by :func:`desugar_let`).
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
from typing import Iterator


class Expr:
    """A direct-style expression."""

    __slots__ = ()


@interned
class Var(Expr):
    """A variable reference."""

    name: str

    def __repr__(self) -> str:
        return self.name


@interned
class Lam(Expr):
    """``(lambda (x1 ... xn) body)``."""

    params: tuple[str, ...]
    body: Expr

    def __repr__(self) -> str:
        return pp(self)


@interned
class App(Expr):
    """``(f e1 ... en)``: call-by-value application."""

    fun: Expr
    args: tuple[Expr, ...]

    def __repr__(self) -> str:
        return pp(self)


@interned
class Let(Expr):
    """``(let ((x e)) body)``: a single sequential binding."""

    var: str
    rhs: Expr
    body: Expr

    def __repr__(self) -> str:
        return pp(self)


def free_vars(expr: Expr) -> frozenset:
    """Free variables of a direct-style expression (memoized per node)."""
    return fold_memo(expr, FREE_VARS_SLOT, _fv_children, _fv_combine)


def _fv_children(expr: Expr) -> tuple:
    if isinstance(expr, Var):
        return ()
    if isinstance(expr, Lam):
        return (expr.body,)
    if isinstance(expr, App):
        return (expr.fun, *expr.args)
    if isinstance(expr, Let):
        return (expr.rhs, expr.body)
    raise TypeError(f"not a direct-style term: {expr!r}")


def _fv_combine(expr: Expr, child_vars: list) -> frozenset:
    if isinstance(expr, Var):
        return frozenset([expr.name])
    if isinstance(expr, Lam):
        return bind_vars(child_vars[0], expr.params)
    if isinstance(expr, App):
        return union_vars(child_vars)
    rhs_vars, body_vars = child_vars
    return union_vars([rhs_vars, bind_vars(body_vars, (expr.var,))])


def subterms(expr: Expr) -> Iterator[Expr]:
    """All subterms, preorder."""
    yield expr
    if isinstance(expr, Lam):
        yield from subterms(expr.body)
    elif isinstance(expr, App):
        yield from subterms(expr.fun)
        for arg in expr.args:
            yield from subterms(arg)
    elif isinstance(expr, Let):
        yield from subterms(expr.rhs)
        yield from subterms(expr.body)


def pp(expr: Expr) -> str:
    """Pretty-print back to the s-expression concrete syntax."""
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Lam):
        # memoized on the node: its text is a pure function of its structure
        text = getattr(expr, TEXT_SLOT)
        if text is None:
            text = f"(lambda ({' '.join(expr.params)}) {pp(expr.body)})"
            remember(expr, TEXT_SLOT, text)
        return text
    if isinstance(expr, App):
        return "(" + " ".join([pp(expr.fun)] + [pp(a) for a in expr.args]) + ")"
    if isinstance(expr, Let):
        return f"(let (({expr.var} {pp(expr.rhs)})) {pp(expr.body)})"
    raise TypeError(f"not a direct-style term: {expr!r}")


def desugar_let(expr: Expr) -> Expr:
    """Rewrite every ``let`` into its ``((lambda (x) body) rhs)`` encoding."""
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, Lam):
        return Lam(expr.params, desugar_let(expr.body))
    if isinstance(expr, App):
        return App(desugar_let(expr.fun), tuple(desugar_let(a) for a in expr.args))
    if isinstance(expr, Let):
        return App(Lam((expr.var,), desugar_let(expr.body)), (desugar_let(expr.rhs),))
    raise TypeError(f"not a direct-style term: {expr!r}")


def alphatize(expr: Expr, fresh: Iterator[str] | None = None, env: dict | None = None) -> Expr:
    """Rename bound variables apart (monovariant-analysis hygiene)."""
    if fresh is None:
        fresh = (f"%{i}" for i in itertools.count())
    if env is None:
        env = {}
    if isinstance(expr, Var):
        return Var(env.get(expr.name, expr.name))
    if isinstance(expr, Lam):
        renamed = {p: f"{p}{next(fresh)}" for p in expr.params}
        inner = dict(env)
        inner.update(renamed)
        return Lam(tuple(renamed[p] for p in expr.params), alphatize(expr.body, fresh, inner))
    if isinstance(expr, App):
        return App(
            alphatize(expr.fun, fresh, env),
            tuple(alphatize(a, fresh, env) for a in expr.args),
        )
    if isinstance(expr, Let):
        new_name = f"{expr.var}{next(fresh)}"
        inner = dict(env)
        inner[expr.var] = new_name
        return Let(new_name, alphatize(expr.rhs, fresh, env), alphatize(expr.body, fresh, inner))
    raise TypeError(f"not a direct-style term: {expr!r}")


def uniquify(expr: Expr) -> Expr:
    """Rename *duplicate* binders apart, keeping first-come names.

    Unlike :func:`alphatize` (which renames every binder), this is
    conservative: a binder keeps its source name unless that name was
    already used by an earlier binder, in which case it becomes
    ``name%N``.  Programs whose binders are already distinct come back
    unchanged (structurally equal), which keeps analysis output readable.

    The CPS transform requires unique binders: its meta-level
    continuations splice variable atoms into contexts that later binders
    would otherwise capture.
    """
    used: set = set(free_vars(expr))
    counter = [0]

    def fresh(base: str) -> str:
        if base not in used:
            used.add(base)
            return base
        while True:
            candidate = f"{base}%{counter[0]}"
            counter[0] += 1
            if candidate not in used:
                used.add(candidate)
                return candidate

    def go(term: Expr, env: dict) -> Expr:
        if isinstance(term, Var):
            return Var(env.get(term.name, term.name))
        if isinstance(term, Lam):
            renamed = {p: fresh(p) for p in term.params}
            inner = dict(env)
            inner.update(renamed)
            return Lam(tuple(renamed[p] for p in term.params), go(term.body, inner))
        if isinstance(term, App):
            return App(go(term.fun, env), tuple(go(a, env) for a in term.args))
        if isinstance(term, Let):
            rhs = go(term.rhs, env)
            new_name = fresh(term.var)
            inner = dict(env)
            inner[term.var] = new_name
            return Let(new_name, rhs, go(term.body, inner))
        raise TypeError(f"not a direct-style term: {term!r}")

    return go(expr, {})


def term_size(expr: Expr) -> int:
    """Number of subterms."""
    return sum(1 for _ in subterms(expr))
