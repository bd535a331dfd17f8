"""An s-expression front end for CPS terms.

Concrete syntax::

    call ::= (exit)
           | (aexp aexp ...)
    aexp ::= VAR
           | (lambda (VAR ...) call)       -- 'lambda' or the Greek letter

Comments run from ``;`` to end of line.  The parser is a plain
tokenizer + recursive descent over nested lists; errors carry the
offending token for debuggability.  Nesting deeper than
:data:`MAX_NESTING` parentheses is a :class:`ParseError`, not a
``RecursionError``.
"""

from __future__ import annotations

from repro.cps.syntax import AExp, Call, CExp, Exit, Lam, Ref

LAMBDA_KEYWORDS = ("lambda", "λ")

#: Deepest parenthesis nesting :func:`read_sexp` accepts (shared by the
#: CPS and lam front ends).  Converting a term costs up to two Python
#: frames per level (lam application arguments), so a program at the
#: limit parses, analyses and prints well within the default recursion
#: limit of 1000.
MAX_NESTING = 256


class ParseError(Exception):
    """Raised on malformed input; message names the offending fragment."""


def tokenize(source: str) -> list[str]:
    """Split s-expression source into parenthesis and atom tokens."""
    out: list[str] = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == ";":
            while i < len(source) and source[i] != "\n":
                i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(source) and not source[j].isspace() and source[j] not in "();":
                j += 1
            out.append(source[i:j])
            i = j
    return out


def read_sexp(tokens: list[str], index: int = 0, depth: int = 0):
    """Read one nested-list s-expression; returns ``(sexp, next_index)``.

    ``depth`` counts the parentheses already open around ``index``.
    """
    if index >= len(tokens):
        raise ParseError("unexpected end of input")
    token = tokens[index]
    if token == "(":
        if depth >= MAX_NESTING:
            raise ParseError(
                f"parentheses nested deeper than {MAX_NESTING} at token {index}"
            )
        items = []
        index += 1
        while True:
            if index >= len(tokens):
                raise ParseError("unclosed '('")
            if tokens[index] == ")":
                return items, index + 1
            item, index = read_sexp(tokens, index, depth + 1)
            items.append(item)
    if token == ")":
        raise ParseError("unexpected ')'")
    return token, index + 1


def _to_aexp(sexp) -> AExp:
    if isinstance(sexp, str):
        if sexp in LAMBDA_KEYWORDS or sexp == "exit":
            raise ParseError(f"keyword {sexp!r} is not an atomic expression")
        return Ref(sexp)
    if isinstance(sexp, list) and sexp and sexp[0] in LAMBDA_KEYWORDS:
        if len(sexp) != 3:
            raise ParseError(f"lambda needs a parameter list and a body: {sexp!r}")
        params = sexp[1]
        if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
            raise ParseError(f"malformed parameter list: {params!r}")
        if len(set(params)) != len(params):
            raise ParseError(f"duplicate parameter in {params!r}")
        return Lam(tuple(params), _to_cexp(sexp[2]))
    raise ParseError(f"expected an atomic expression, got {sexp!r}")


def _to_cexp(sexp) -> CExp:
    if not isinstance(sexp, list) or not sexp:
        raise ParseError(f"a call expression must be a non-empty list: {sexp!r}")
    if sexp == ["exit"]:
        return Exit()
    if sexp[0] in LAMBDA_KEYWORDS and len(sexp) == 3:
        # A bare lambda in call position means the program is malformed;
        # calls must apply something.
        raise ParseError("a lambda is not a call expression; apply it to arguments")
    return Call(_to_aexp(sexp[0]), tuple(_to_aexp(arg) for arg in sexp[1:]))


def parse_cexp(source: str) -> CExp:
    """Parse a single call expression (a whole CPS program)."""
    tokens = tokenize(source)
    if not tokens:
        raise ParseError("empty input")
    sexp, index = read_sexp(tokens)
    if index != len(tokens):
        raise ParseError(f"trailing input after program: {tokens[index:]!r}")
    return _to_cexp(sexp)


def parse_aexp(source: str) -> AExp:
    """Parse a single atomic expression (a variable or lambda)."""
    tokens = tokenize(source)
    if not tokens:
        raise ParseError("empty input")
    sexp, index = read_sexp(tokens)
    if index != len(tokens):
        raise ParseError(f"trailing input after expression: {tokens[index:]!r}")
    return _to_aexp(sexp)


def parse_program(source: str) -> CExp:
    """Alias for :func:`parse_cexp`; the entry point used by examples."""
    return parse_cexp(source)
