"""A one-pass, higher-order CPS transform (Fischer/Plotkin style).

``cps_convert`` maps a direct-style program to a CPS program in the
grammar of Figure 1, so that every CPS analysis in :mod:`repro.cps`
applies to direct-style code too.  The transform is *higher-order*:
meta-level continuations build the output, so no administrative
``((lambda (v) ...) v)`` redexes are produced -- a requirement for CFA
hygiene, since administrative redexes add spurious call sites that
change (and usually degrade) context-sensitive results.

User lambdas of arity ``n`` become CPS lambdas of arity ``n+1`` whose
last parameter is the continuation; the whole program is closed off
with the halt continuation ``(lambda (r) (exit))``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

from repro.cps import syntax as cps
from repro.lam.syntax import App, Expr, Lam, Let, Var, uniquify


class FreshNames:
    """A supply of names guaranteed not to clash with source variables.

    Source identifiers never contain ``$`` (the parsers treat it as an
    ordinary atom character, but our corpus avoids it), so ``$k3``-style
    names are safe.
    """

    def __init__(self) -> None:
        self._counter: Iterator[int] = itertools.count()

    def fresh(self, base: str) -> str:
        return f"${base}{next(self._counter)}"


def cps_convert(expr: Expr, halt_var: str = "r") -> cps.CExp:
    """Convert a whole program, finishing at ``(lambda (r) (exit))``.

    The source is uniquified first (duplicate binders renamed apart):
    the higher-order transform splices variable atoms into contexts
    built later, so shadowing in the source would capture them.
    Programs with distinct binders are unaffected.
    """
    names = FreshNames()
    halt = cps.Lam((halt_var,), cps.Exit())
    return _convert(uniquify(expr), names, lambda atom: cps.Call(halt, (atom,)))


def _convert(
    expr: Expr, names: FreshNames, kappa: Callable[[cps.AExp], cps.CExp]
) -> cps.CExp:
    """``kappa`` is the *meta-level* continuation: it receives the atomic
    expression denoting ``expr``'s value and builds the rest of the output."""
    if isinstance(expr, Var):
        return kappa(cps.Ref(expr.name))
    if isinstance(expr, Lam):
        kvar = names.fresh("k")
        body = _convert(expr.body, names, lambda atom: cps.Call(cps.Ref(kvar), (atom,)))
        return kappa(cps.Lam(expr.params + (kvar,), body))
    if isinstance(expr, Let):
        # (let ((x rhs)) body): evaluate rhs, bind x via a continuation lambda
        def with_rhs(rhs_atom: cps.AExp) -> cps.CExp:
            body = _convert(expr.body, names, kappa)
            return cps.Call(cps.Lam((expr.var,), body), (rhs_atom,))

        return _convert(expr.rhs, names, with_rhs)
    if isinstance(expr, App):
        def with_fun(fun_atom: cps.AExp) -> cps.CExp:
            return _convert_args(expr.args, (), fun_atom, names, kappa)

        return _convert(expr.fun, names, with_fun)
    raise TypeError(f"not a direct-style term: {expr!r}")


def _convert_args(
    remaining: tuple,
    done: tuple,
    fun_atom: cps.AExp,
    names: FreshNames,
    kappa: Callable[[cps.AExp], cps.CExp],
) -> cps.CExp:
    if not remaining:
        rvar = names.fresh("v")
        reified = cps.Lam((rvar,), kappa(cps.Ref(rvar)))
        return cps.Call(fun_atom, done + (reified,))

    def with_arg(arg_atom: cps.AExp) -> cps.CExp:
        return _convert_args(remaining[1:], done + (arg_atom,), fun_atom, names, kappa)

    return _convert(remaining[0], names, with_arg)
