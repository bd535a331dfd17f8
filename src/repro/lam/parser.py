"""S-expression parser for direct-style lambda calculus.

Concrete syntax::

    expr ::= VAR
           | (lambda (VAR ...) expr)        -- 'lambda' or the Greek letter
           | (let ((VAR expr)) expr)        -- single binding; let* sugar
           | (let* ((VAR expr) ...) expr)   -- nested lets
           | (expr expr ...)                -- application
"""

from __future__ import annotations

from repro.cps.parser import ParseError, read_sexp, tokenize
from repro.lam.syntax import App, Expr, Lam, Let, Var

LAMBDA_KEYWORDS = ("lambda", "λ")
RESERVED = set(LAMBDA_KEYWORDS) | {"let", "let*"}


def _to_expr(sexp) -> Expr:
    if isinstance(sexp, str):
        if sexp in RESERVED:
            raise ParseError(f"keyword {sexp!r} is not an expression")
        return Var(sexp)
    if not isinstance(sexp, list) or not sexp:
        raise ParseError(f"malformed expression: {sexp!r}")
    head = sexp[0]
    if head in LAMBDA_KEYWORDS:
        if len(sexp) != 3:
            raise ParseError(f"lambda needs a parameter list and a body: {sexp!r}")
        params = sexp[1]
        if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
            raise ParseError(f"malformed parameter list: {params!r}")
        if len(set(params)) != len(params):
            raise ParseError(f"duplicate parameter in {params!r}")
        return Lam(tuple(params), _to_expr(sexp[2]))
    if head in ("let", "let*"):
        if len(sexp) != 3 or not isinstance(sexp[1], list):
            raise ParseError(f"malformed let: {sexp!r}")
        bindings = sexp[1]
        if head == "let" and len(bindings) != 1:
            raise ParseError("let takes exactly one binding; use let* for several")
        body = _to_expr(sexp[2])
        for binding in reversed(bindings):
            if (
                not isinstance(binding, list)
                or len(binding) != 2
                or not isinstance(binding[0], str)
            ):
                raise ParseError(f"malformed binding: {binding!r}")
            body = Let(binding[0], _to_expr(binding[1]), body)
        return body
    return App(_to_expr(head), tuple(_to_expr(arg) for arg in sexp[1:]))


def parse_expr(source: str) -> Expr:
    """Parse a single direct-style expression."""
    tokens = tokenize(source)
    if not tokens:
        raise ParseError("empty input")
    sexp, index = read_sexp(tokens)
    if index != len(tokens):
        raise ParseError(f"trailing input after expression: {tokens[index:]!r}")
    return _to_expr(sexp)
