"""Recursive-descent parser for the ``imp`` surface language.

Grammar (loosest-binding first)::

    program ::= stmt*
    stmt    ::= "let" NAME "=" expr ";"
              | NAME "=" expr ";"
              | "fn" NAME "(" params ")" block        -- let sugar
              | "if" "(" expr ")" block ("else" (block | if))?
              | "while" "(" expr ")" block
              | "return" expr ";"
              | expr ";"
    block   ::= "{" stmt* "}"
    expr    ::= or
    or      ::= and ("or" and)*
    and     ::= not ("and" not)*
    not     ::= "!" not | cmp
    cmp     ::= add (("==" | "<=" | "<") add)?
    add     ::= mul (("+" | "-") mul)*
    mul     ::= postfix ("*" postfix)*
    postfix ::= primary ("(" args ")")*
    primary ::= INT | "true" | "false" | NAME
              | "fn" "(" params ")" block
              | "(" expr ")"

Identifiers starting with ``__`` are reserved for the lowering pass
(:mod:`repro.imp.lower` manufactures join points, loop combinators and
prelude bindings under that prefix), so the parser rejects them --
which is what makes the lowering capture-free by construction.
Functions take at least one parameter and calls pass at least one
argument (the lowered lambda calculus is strictly n-ary with n >= 1).
Expressions, blocks and ``!`` nested deeper than :data:`MAX_NESTING`
are an :class:`ImpParseError`, not a ``RecursionError``; so is a program
whose *lowered* term would nest deeper than :data:`MAX_TERM_DEPTH`
(long operator chains, call chains and blocks parse flat but lower to
deep terms).
"""

from __future__ import annotations

import re

from repro.imp.syntax import (
    EBinOp,
    EBool,
    ECall,
    EFn,
    EInt,
    EUnary,
    EVar,
    Expr,
    Program,
    SAssign,
    SExpr,
    SIf,
    SLet,
    SReturn,
    SWhile,
    Stmt,
)


class ImpParseError(ValueError):
    """A syntax error in an ``imp`` program."""


#: Deepest nesting of expressions, blocks and ``!`` the parser accepts.
#: One parenthesised level descends the whole precedence ladder (about
#: fourteen Python frames), so a program at the limit parses, lowers and
#: analyses well within the default recursion limit of 1000.
MAX_NESTING = 48

#: Deepest lowered term the parser accepts (see :func:`term_depth`).  The
#: lowering recurses once per level, so this keeps the worst shape -- a
#: chain of binary operators, which stack overflows near 490 operands
#: at the default recursion limit of 1000 -- well clear of the limit.
MAX_TERM_DEPTH = 256

KEYWORDS = frozenset({"let", "fn", "if", "else", "while", "return", "true", "false", "and", "or"})

_TOKEN = re.compile(
    r"\s*(?:(?P<comment>#[^\n]*)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|<=|[-+*<!(){},;=]))"
)


def tokenize(source: str) -> list[str]:
    """Split source into tokens; ``#`` comments run to end of line."""
    tokens: list[str] = []
    index = 0
    while index < len(source):
        match = _TOKEN.match(source, index)
        if match is None:
            rest = source[index:].lstrip()
            if not rest:
                break
            raise ImpParseError(f"unexpected character {rest[0]!r}")
        index = match.end()
        if match.lastgroup != "comment":
            tokens.append(match.group(match.lastgroup))
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ImpParseError("unexpected end of input")
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ImpParseError(f"expected {token!r}, got {got!r}")

    def at_name(self) -> bool:
        token = self.peek()
        return (
            token is not None
            and token[0].isidentifier()
            and not token[0].isdigit()
            and token not in KEYWORDS
        )

    def nested(self, parse):
        """Run ``parse`` one nesting level deeper, within :data:`MAX_NESTING`."""
        if self.depth >= MAX_NESTING:
            raise ImpParseError(
                f"expressions and blocks nested deeper than {MAX_NESTING} "
                f"at token {self.index}"
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def name(self) -> str:
        if not self.at_name():
            raise ImpParseError(f"expected a name, got {self.peek()!r}")
        token = self.next()
        if token.startswith("__"):
            raise ImpParseError(
                f"names starting with '__' are reserved for the lowering pass: {token!r}"
            )
        return token

    # -- statements --------------------------------------------------------

    def program(self) -> Program:
        body: list[Stmt] = []
        while self.peek() is not None:
            body.append(self.stmt())
        return Program(tuple(body))

    def block(self) -> tuple[Stmt, ...]:
        return self.nested(self._block)

    def _block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        body: list[Stmt] = []
        while self.peek() != "}":
            body.append(self.stmt())
        self.expect("}")
        return tuple(body)

    def stmt(self) -> Stmt:
        token = self.peek()
        if token == "let":
            self.next()
            name = self.name()
            self.expect("=")
            rhs = self.expr()
            self.expect(";")
            return SLet(name, rhs)
        if token == "fn" and self.index + 1 < len(self.tokens) and self.tokens[self.index + 1] != "(":
            # fn NAME (params) block  ==  let NAME = fn (params) block
            self.next()
            name = self.name()
            params = self.params()
            return SLet(name, EFn(params, self.block()))
        if token == "if":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.block()
            els: tuple[Stmt, ...] = ()
            if self.peek() == "else":
                self.next()
                els = (self.stmt(),) if self.peek() == "if" else self.block()
            return SIf(cond, then, els)
        if token == "while":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            return SWhile(cond, self.block())
        if token == "return":
            self.next()
            value = self.expr()
            self.expect(";")
            return SReturn(value)
        if (
            self.at_name()
            and self.index + 1 < len(self.tokens)
            and self.tokens[self.index + 1] == "="
        ):
            name = self.name()
            self.expect("=")
            rhs = self.expr()
            self.expect(";")
            return SAssign(name, rhs)
        value = self.expr()
        self.expect(";")
        return SExpr(value)

    def params(self) -> tuple[str, ...]:
        self.expect("(")
        params = [self.name()]
        while self.peek() == ",":
            self.next()
            params.append(self.name())
        self.expect(")")
        if len(set(params)) != len(params):
            raise ImpParseError(f"duplicate parameter in {params!r}")
        return tuple(params)

    # -- expressions -------------------------------------------------------

    def expr(self) -> Expr:
        return self.nested(self.or_expr)

    def _binop_chain(self, sub, ops: tuple[str, ...]) -> Expr:
        expr = sub()
        while self.peek() in ops:
            op = self.next()
            expr = EBinOp(op, expr, sub())
        return expr

    def or_expr(self) -> Expr:
        return self._binop_chain(self.and_expr, ("or",))

    def and_expr(self) -> Expr:
        return self._binop_chain(self.not_expr, ("and",))

    def not_expr(self) -> Expr:
        if self.peek() == "!":
            self.next()
            return EUnary("!", self.nested(self.not_expr))
        return self.cmp_expr()

    def cmp_expr(self) -> Expr:
        expr = self.add_expr()
        if self.peek() in ("==", "<=", "<"):
            op = self.next()
            return EBinOp(op, expr, self.add_expr())
        return expr

    def add_expr(self) -> Expr:
        return self._binop_chain(self.mul_expr, ("+", "-"))

    def mul_expr(self) -> Expr:
        return self._binop_chain(self.postfix_expr, ("*",))

    def postfix_expr(self) -> Expr:
        expr = self.primary()
        while self.peek() == "(":
            self.next()
            args = [self.expr()]
            while self.peek() == ",":
                self.next()
                args.append(self.expr())
            self.expect(")")
            expr = ECall(expr, tuple(args))
        return expr

    def primary(self) -> Expr:
        token = self.peek()
        if token is None:
            raise ImpParseError("unexpected end of input")
        if token.isdigit():
            return EInt(int(self.next()))
        if token == "true":
            self.next()
            return EBool(True)
        if token == "false":
            self.next()
            return EBool(False)
        if token == "fn":
            self.next()
            params = self.params()
            return EFn(params, self.block())
        if token == "(":
            self.next()
            expr = self.expr()
            self.expect(")")
            return expr
        if self.at_name():
            return EVar(self.name())
        raise ImpParseError(f"unexpected token {token!r}")


def _children(node) -> list[tuple[object, int]]:
    """``(child, levels)`` pairs: how much deeper each child lowers."""
    if isinstance(node, Program):
        return [(node.body, 0)]
    if isinstance(node, tuple):  # a block: each statement nests the rest
        return [(stmt, index + 1) for index, stmt in enumerate(node)]
    if isinstance(node, (SLet, SAssign)):
        return [(node.rhs, 0)]
    if isinstance(node, (SReturn, SExpr)):
        return [(node.value, 0)]
    if isinstance(node, SIf):
        return [(node.cond, 1), (node.then, 1), (node.els, 1)]
    if isinstance(node, SWhile):
        return [(node.cond, 1), (node.body, 1)]
    if isinstance(node, EFn):
        return [(node.body, 1)]
    if isinstance(node, ECall):
        return [(node.fun, 1)] + [(arg, 2) for arg in node.args]
    if isinstance(node, EBinOp):
        return [(node.lhs, 2), (node.rhs, 2)]
    if isinstance(node, EUnary):
        return [(node.operand, 2)]
    return []


def term_depth(program: Program) -> int:
    """How many levels deep ``program``'s lowered term nests.

    Each statement of a block nests the rest of the block one level
    deeper, as do a callee and a function body; operands and call
    arguments count two levels, because lowering recurses through their
    argument tuple.  Computed without recursion: the tree may be far
    deeper than Python's stack.
    """
    depth: dict[int, int] = {}
    stack: list = [program]
    while stack:
        node = stack[-1]
        children = _children(node)
        pending = [child for child, _levels in children if id(child) not in depth]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        depth[id(node)] = max(
            (levels + depth[id(child)] for child, levels in children), default=0
        )
    return depth[id(program)]


def parse_program(source: str) -> Program:
    """Parse a whole ``imp`` program (at most :data:`MAX_TERM_DEPTH` deep)."""
    program = _Parser(tokenize(source)).program()
    depth = term_depth(program)
    if depth > MAX_TERM_DEPTH:
        raise ImpParseError(
            f"program lowers to a term nested {depth} levels deep, deeper than "
            f"{MAX_TERM_DEPTH}: split long operator chains, call chains or blocks"
        )
    return program
