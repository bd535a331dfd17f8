"""A recursive-descent parser for a Java-ish FJ concrete syntax.

Grammar::

    program  := classdef* expr
    classdef := 'class' ID 'extends' ID '{' fielddecl* methoddef* '}'
    fielddecl := ID ID ';'
    methoddef := ID ID '(' params ')' '{' 'return' expr ';' '}'
    params   := (ID ID (',' ID ID)*)?
    expr     := primary ('.' ID ('(' args ')')? )*
    primary  := 'new' ID '(' args ')'
              | '(' ID ')' expr            -- cast
              | ID
    args     := (expr (',' expr)*)?

Constructors are synthesized (FJ's canonical constructor is pure
boilerplate), so class bodies contain only field and method
declarations.  Comments: ``//`` to end of line.  Expressions nested
deeper than :data:`MAX_NESTING` are an :class:`FJParseError`, not a
``RecursionError``; so is a term deeper than :data:`MAX_TERM_DEPTH`
(long selector chains ``e.m().m()...`` or ``this.f.f...`` parse flat
but build deep terms).
"""

from __future__ import annotations

import re

from repro.fj.syntax import (
    Cast,
    ClassDef,
    Expr,
    FieldAccess,
    Invoke,
    MethodDef,
    New,
    Program,
    VarE,
)

KEYWORDS = {"class", "extends", "return", "new"}

#: Deepest expression nesting the parser accepts.  A level costs three
#: Python frames here and a few more in the typechecker, so a program at
#: the limit parses, typechecks and analyses well within the default
#: recursion limit of 1000.
MAX_NESTING = 128

#: Deepest term the parser accepts: every selector (``.f`` or
#: ``.m(...)``), cast and ``new`` with arguments wraps one level around
#: its operands.  A selector chain parses in a loop, but the
#: typechecker, the interpreter and the analyses recurse once per level
#: -- near 1000 selectors overflow the default recursion limit -- so
#: this keeps the worst shape well clear of it.
MAX_TERM_DEPTH = 256

_TOKEN_RE = re.compile(
    r"""
    \s+                       # whitespace
  | //[^\n]*                  # line comment
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[(){};,.])
    """,
    re.VERBOSE,
)


class FJParseError(Exception):
    """Malformed FJ source."""


def tokenize_fj(source: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise FJParseError(f"unexpected character {source[pos]!r} at offset {pos}")
        if m.lastgroup in ("id", "punct"):
            tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        #: term depth of the expression :meth:`expr` returned last
        self.term_depth = 0

    def peek(self, ahead: int = 0) -> str | None:
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise FJParseError("unexpected end of input")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise FJParseError(f"expected {token!r}, got {got!r}")

    def ident(self) -> str:
        token = self.next()
        if token in KEYWORDS or not token[0].isalpha() and token[0] != "_":
            raise FJParseError(f"expected an identifier, got {token!r}")
        return token

    # -- declarations ---------------------------------------------------------

    def program(self) -> Program:
        classes = []
        while self.peek() == "class":
            classes.append(self.classdef())
        main = self.expr()
        if self.pos != len(self.tokens):
            raise FJParseError(f"trailing input: {self.tokens[self.pos:]!r}")
        return Program(tuple(classes), main)

    def classdef(self) -> ClassDef:
        self.expect("class")
        name = self.ident()
        self.expect("extends")
        superclass = self.ident()
        self.expect("{")
        fields: list = []
        methods: list = []
        while self.peek() != "}":
            # both start with: TYPE NAME ; or TYPE NAME ( ...
            t = self.ident()
            n = self.ident()
            if self.peek() == ";":
                if methods:
                    raise FJParseError(
                        f"field {n} declared after methods in class {name}"
                    )
                self.next()
                fields.append((t, n))
            elif self.peek() == "(":
                methods.append(self.method_rest(t, n))
            else:
                raise FJParseError(f"expected ';' or '(' after {t} {n}")
        self.expect("}")
        return ClassDef(name, superclass, tuple(fields), tuple(methods))

    def method_rest(self, ret_type: str, name: str) -> MethodDef:
        self.expect("(")
        params: list = []
        if self.peek() != ")":
            while True:
                t = self.ident()
                n = self.ident()
                params.append((t, n))
                if self.peek() == ",":
                    self.next()
                else:
                    break
        self.expect(")")
        self.expect("{")
        self.expect("return")
        body = self.expr()
        self.expect(";")
        self.expect("}")
        return MethodDef(ret_type, name, tuple(params), body)

    # -- expressions ------------------------------------------------------------

    def expr(self) -> Expr:
        if self.depth >= MAX_NESTING:
            raise FJParseError(
                f"expressions nested deeper than {MAX_NESTING} at token {self.pos}"
            )
        self.depth += 1
        try:
            e = self._expr()
        finally:
            self.depth -= 1
        if self.term_depth > MAX_TERM_DEPTH:
            raise FJParseError(
                f"expression nested {self.term_depth} levels deep, deeper than "
                f"{MAX_TERM_DEPTH}: split long selector chains"
            )
        return e

    def _expr(self) -> Expr:
        e = self.primary()
        depth = self.term_depth
        while self.peek() == ".":
            self.next()
            member = self.ident()
            if self.peek() == "(":
                self.next()
                args = self.args()
                self.expect(")")
                e = Invoke(e, member, args)
                depth = max(depth, self.term_depth)
            else:
                e = FieldAccess(e, member)
            depth += 1
        self.term_depth = depth
        return e

    def primary(self) -> Expr:
        token = self.peek()
        if token == "new":
            self.next()
            cls = self.ident()
            self.expect("(")
            args = self.args()
            self.expect(")")
            self.term_depth += bool(args)
            return New(cls, args)
        if token == "(":
            # '(' ID ')' expr-start  => cast; otherwise a parenthesized expr
            if (
                self.peek(1) is not None
                and self.peek(2) == ")"
                and self.peek(3) in ("new", "(")
                or (
                    self.peek(3) is not None
                    and self.peek(2) == ")"
                    and self.peek(3) not in (None, ".", ")", ",", ";", "}")
                )
            ):
                self.next()
                cls = self.ident()
                self.expect(")")
                cast = Cast(cls, self.expr())
                self.term_depth += 1
                return cast
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        self.term_depth = 0
        return VarE(self.ident())

    def args(self) -> tuple[Expr, ...]:
        """Comma-separated arguments; ``term_depth`` becomes the deepest's."""
        if self.peek() == ")":
            self.term_depth = 0
            return ()
        out = [self.expr()]
        depth = self.term_depth
        while self.peek() == ",":
            self.next()
            out.append(self.expr())
            depth = max(depth, self.term_depth)
        self.term_depth = depth
        return tuple(out)


def parse_program(source: str) -> Program:
    """Parse class definitions followed by the main expression."""
    return _Parser(tokenize_fj(source)).program()


def parse_expr_fj(source: str) -> Expr:
    """Parse a single FJ expression."""
    parser = _Parser(tokenize_fj(source))
    e = parser.expr()
    if parser.pos != len(parser.tokens):
        raise FJParseError(f"trailing input: {parser.tokens[parser.pos:]!r}")
    return e
