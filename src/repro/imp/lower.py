"""Lowering ``imp`` into the direct-style lambda calculus.

The pass turns the imperative surface language into a pure
:class:`repro.lam.syntax.Expr`, which the existing pipeline consumes
unchanged (CESK machine, every preset/engine/store-impl, and -- through
:func:`repro.lam.cps_transform.cps_convert` -- the CPS analyses).

Encodings
---------

* **Integers** are *Scott* numerals -- ``0 = (lambda (s z) z)``,
  ``k+1 = (lambda (s z) (s k))`` -- over the **saturated domain**
  ``{0 .. DOMAIN_BOUND}``: literals clamp, addition saturates at the
  top, ``__sub`` is monus.  Scott case analysis is a single
  application, so every binary operator (``__add``, ``__mul``,
  ``__sub``, ``__leq``, ``__eq``, ``__lt``) is a *fixpoint-free lookup
  table*: nested case towers of depth ``DOMAIN_BOUND`` whose leaves
  are constants (:func:`_table2`).  That is the load-bearing choice
  for the abstract side: recursive arithmetic combinators turn every
  ``x * y`` into an abstract fixpoint whose flow sets cross-product
  through the recursion's self-application (minutes per program at
  1CFA), and even chained ``succ``-calls re-merge every intermediate
  value at the shared combinator's parameter.  The tables cost a
  bigger term and analyse in milliseconds.  Saturation keeps the
  unrolling total: the semantics is exact below the bound and clamps
  above it, which the differential fuzz oracle is insensitive to (it
  compares the concrete and abstract runs of the *same* lowered term).
* **Booleans** are two-argument Church booleans ``(lambda (t f) t/f)``,
  so an ``if`` is a single application of the condition to two branch
  thunks, forced with a dummy argument.  ``and``/``or`` are strict.
* **Assignment is shadowing.** Straight-line ``x = e;`` lowers to a
  nested ``let`` rebinding ``x``.  Control-flow joins thread the
  assigned variables explicitly: an ``if`` whose branches assign
  ``{x, y}`` lowers to a *join function* ``(lambda (x y) rest)`` that
  both branches call with their final values.
* **Loops are n-ary Z combinators.** A ``while`` whose body assigns
  ``{x, y}`` becomes a recursive function of ``(x, y)`` built with a
  call-by-value fixpoint combinator *private to that loop* (see
  :func:`_fix_combinator` for why sharing one is an analysis hazard);
  the loop exit calls the join function, the back edge calls the loop
  itself.
* **Closures capture by value**: a ``fn`` literal sees the bindings at
  its creation point (shadowing never mutates an environment), and may
  only assign its *own* ``let``\\ s and parameters -- assigning an outer
  variable from inside a function is a :class:`LoweringError`.

Every manufactured name (``__join0``, ``__loop0``, prelude combinators)
starts with ``__``, which the parser reserves; source programs therefore
cannot capture or shadow them, and the lowering needs no gensym hygiene
beyond its own counter.  ``cps_convert`` additionally ``uniquify``-renames
duplicate binders before CPS conversion, so Church-encoded reuse of
``f``/``x`` inside the prelude is safe there too.
"""

from __future__ import annotations

from repro.imp.syntax import (
    EBinOp,
    EBool,
    ECall,
    EFn,
    EInt,
    EUnary,
    EVar,
    Expr as IExpr,
    Program,
    SAssign,
    SExpr,
    SIf,
    SLet,
    SReturn,
    SWhile,
    Stmt,
)
from repro.lam.syntax import App, Expr, Lam, Let, Var


class LoweringError(ValueError):
    """A scope error: unbound read, undeclared assignment, bad arity."""


# -- the Church prelude -----------------------------------------------------

#: Integer arithmetic saturates here: the value domain is
#: ``{0 .. DOMAIN_BOUND}``.  Literals above the bound clamp, ``__succ``
#: of the top element is the top element, subtraction is monus.  Small
#: enough that the unrolled case towers stay compact, large enough for
#: the generated corpus (literals <= 3, short counting loops).
DOMAIN_BOUND = 4


def scott_numeral(n: int) -> Expr:
    """The Scott numeral: ``0 = (lambda (s z) z)``, ``k+1 = (lambda (s z) (s k))``.

    Clamps to :data:`DOMAIN_BOUND` -- every numeral the lowering ever
    manufactures lives in the saturated domain.
    """
    term: Expr = Lam(("s", "z"), Var("z"))
    for _ in range(min(n, DOMAIN_BOUND)):
        term = Lam(("s", "z"), App(Var("s"), (term,)))
    return term


_TRUE = Lam(("t", "f"), Var("t"))
_FALSE = Lam(("t", "f"), Var("f"))
_ID = Lam(("u",), Var("u"))


def _case(scrutinee: Expr, on_succ: Expr, on_zero: Expr) -> Expr:
    """Scott case analysis: one application of the numeral to its branches."""
    return App(scrutinee, (on_succ, on_zero))


def _case_tower(subject: Expr, leaf, tag: str) -> Expr:
    """Unrolled case analysis over the saturated domain -- no fixpoint.

    Evaluates to ``leaf(k)`` when ``subject`` is the numeral ``k``; at
    depth :data:`DOMAIN_BOUND` the remaining predecessor is dropped and
    ``leaf(DOMAIN_BOUND)`` is returned (saturation).  ``tag`` keeps the
    tower's binders distinct per combinator so their flow sets never
    merge, even under a monovariant analysis.
    """

    def chain(scrutinee: Expr, k: int) -> Expr:
        if k == DOMAIN_BOUND:
            return leaf(k)
        binder = f"__p{k + 1}_{tag}"
        return _case(scrutinee, Lam((binder,), chain(Var(binder), k + 1)), leaf(k))

    return chain(subject, 0)


def _bounded_tower(subject: Expr, depth: int, leaf, rest: Expr, tag: str) -> Expr:
    """A case tower that stops early once the answer is decided.

    Evaluates to ``leaf(k)`` when ``subject`` is the numeral ``k`` with
    ``k < depth``, and to ``rest`` for every ``k >= depth``.  Used for
    operators with one literal operand: ``i < 3`` is decided after
    peeling at most three successors, so the tower is three cases deep
    instead of a full two-operand table -- the dominant win inside loop
    bodies, where the tables would be re-explored on every abstract
    iteration.
    """

    def chain(scrutinee: Expr, k: int) -> Expr:
        if k == depth:
            return rest
        binder = f"__q{k + 1}_{tag}"
        return _case(scrutinee, Lam((binder,), chain(Var(binder), k + 1)), leaf(k))

    return chain(subject, 0)


def _table2(tag: str, value_of) -> Expr:
    """A binary operator as a full lookup table over the saturated domain.

    ``(lambda (m n) ...)`` where the body is a case tower over ``m``
    whose every leaf is a case tower over ``n`` whose every leaf is the
    *constant* ``value_of(k, j)``.  No recursion and no calls into other
    combinators: the only applications are the case analyses themselves,
    so the abstract dataflow of ``m op n`` is one bounded fan-out per
    operand and a constant result -- the cheapest encoding any of the
    analyses can be handed.  (Chaining ``__succ``/``__add`` calls
    instead re-merges every intermediate value at the shared
    combinator's parameters and measurably explodes the monovariant
    presets.)
    """
    return Lam(
        ("m", "n"),
        _case_tower(
            Var("m"),
            lambda k: _case_tower(Var("n"), lambda j: value_of(k, j), f"{tag}{k}"),
            tag,
        ),
    )


def _prelude_term(name: str) -> Expr:
    """Build one prelude combinator (all closed, all CBV-safe)."""
    if name == "__id":
        return _ID
    if name == "__true":
        return _TRUE
    if name == "__false":
        return _FALSE
    if name == "__not":
        return Lam(("a",), App(Var("a"), (Var("__false"), Var("__true"))))
    if name == "__and":
        return Lam(("a", "b"), App(Var("a"), (Var("b"), Var("__false"))))
    if name == "__or":
        return Lam(("a", "b"), App(Var("a"), (Var("__true"), Var("b"))))
    if name == "__add":
        return _table2("add", lambda k, j: scott_numeral(k + j))
    if name == "__mul":
        return _table2("mul", lambda k, j: scott_numeral(k * j))
    if name == "__sub":
        # monus: saturates at zero
        return _table2("sub", lambda k, j: scott_numeral(max(k - j, 0)))
    if name == "__iszero":
        return Lam(
            ("n",),
            _case(Var("n"), Lam(("__pz",), Var("__false")), Var("__true")),
        )
    if name == "__leq":
        return _table2("leq", lambda k, j: Var("__true" if k <= j else "__false"))
    if name == "__eq":
        return _table2("eq", lambda k, j: Var("__true" if k == j else "__false"))
    if name == "__lt":
        return _table2("lt", lambda k, j: Var("__true" if k < j else "__false"))
    raise LoweringError(f"unknown prelude combinator {name!r}")


#: Emission order: later entries may reference earlier ones.  The whole
#: prelude is fixpoint-free; only lowered ``while`` loops recurse, each
#: through its own private :func:`_fix_combinator` copy.
_PRELUDE_ORDER = (
    "__id",
    "__true",
    "__false",
    "__not",
    "__and",
    "__or",
    "__add",
    "__mul",
    "__sub",
    "__iszero",
    "__leq",
    "__eq",
    "__lt",
)

#: Transitive prelude dependencies (used to close the emitted set).
_PRELUDE_DEPS = {
    "__not": ("__true", "__false"),
    "__and": ("__false",),
    "__or": ("__true",),
    "__iszero": ("__true", "__false"),
    "__leq": ("__true", "__false"),
    "__eq": ("__true", "__false"),
    "__lt": ("__true", "__false"),
}

_BINOP_COMBINATOR = {
    "+": "__add",
    "-": "__sub",
    "*": "__mul",
    "==": "__eq",
    "<=": "__leq",
    "<": "__lt",
    "and": "__and",
    "or": "__or",
}

#: The saturated-domain meaning of each integer operator, on clamped
#: operands.  Single source of truth for the lookup tables, the
#: constant-operand towers, and literal-literal folding.
_SAT_SEMANTICS = {
    "+": lambda k, j: min(k + j, DOMAIN_BOUND),
    "-": lambda k, j: max(k - j, 0),
    "*": lambda k, j: min(k * j, DOMAIN_BOUND),
    "==": lambda k, j: k == j,
    "<=": lambda k, j: k <= j,
    "<": lambda k, j: k < j,
}

_OP_TAG = {"+": "add", "-": "sub", "*": "mul", "==": "eq", "<=": "leq", "<": "lt"}


def _fix_combinator(arity: int, tag: str) -> Expr:
    """An n-ary call-by-value Z combinator, private to one recursion.

    ``Z_n = (lambda (f) (half half))`` with
    ``half = (lambda (g) (f (lambda (v1..vn) ((g g) v1..vn))))`` -- the
    eta-expansion delays the self-application under CBV.

    ``tag`` makes the binder names unique to the client: a *shared* Z
    combinator is a context-sensitivity merge hub (every recursive
    function in the program flows through the same ``(g g)`` site and
    their values cross-product), which turns linear loops into
    state-space explosions.  Tagged binders keep each client's copy
    structurally distinct, so hash-consing cannot re-share them.
    """
    if arity < 1:
        raise LoweringError("fixpoint combinators are n-ary with n >= 1")
    f, g = f"__zf_{tag}", f"__zg_{tag}"
    eta_params = tuple(f"__ze{i}_{tag}" for i in range(arity))
    eta = Lam(
        eta_params,
        App(App(Var(g), (Var(g),)), tuple(Var(p) for p in eta_params)),
    )
    half = Lam((g,), App(Var(f), (eta,)))
    return Lam((f,), App(half, (half,)))


# -- the pass ---------------------------------------------------------------


class _Scope:
    """Lexical scope: what is readable, and what this function may assign."""

    def __init__(self, readable: frozenset, assignable: frozenset):
        self.readable = readable
        self.assignable = assignable

    def declare(self, name: str) -> "_Scope":
        return _Scope(self.readable | {name}, self.assignable | {name})

    def enter_function(self, params: tuple[str, ...]) -> "_Scope":
        return _Scope(self.readable | set(params), frozenset(params))


def _assigned_in(block: tuple[Stmt, ...]) -> frozenset:
    """Variables assigned in a block that are declared *outside* it.

    Scope-aware: an assignment to a name ``let``-declared earlier in the
    same block (or a nested one) targets that inner binding and does not
    escape.  Function literals are opaque -- they may only assign their
    own locals, which the lowering enforces separately.
    """
    assigned: set = set()

    def walk(stmts: tuple[Stmt, ...], local: set) -> None:
        local = set(local)
        for stmt in stmts:
            if isinstance(stmt, SLet):
                local.add(stmt.name)
            elif isinstance(stmt, SAssign):
                if stmt.name not in local:
                    assigned.add(stmt.name)
            elif isinstance(stmt, SIf):
                walk(stmt.then, local)
                walk(stmt.els, local)
            elif isinstance(stmt, SWhile):
                walk(stmt.body, local)

    walk(block, set())
    return frozenset(assigned)


class _Lowerer:
    def __init__(self) -> None:
        self._counter = 0
        self._used: set = set()

    def _fresh(self, base: str) -> str:
        name = f"__{base}{self._counter}"
        self._counter += 1
        return name

    def _combinator(self, name: str) -> Var:
        self._used.add(name)
        for dep in _PRELUDE_DEPS.get(name, ()):
            self._combinator(dep)
        return Var(name)

    # -- expressions -------------------------------------------------------

    def lower_expr(self, expr: IExpr, scope: _Scope) -> Expr:
        if isinstance(expr, EInt):
            if expr.value < 0:
                raise LoweringError("integer literals are non-negative")
            return scott_numeral(expr.value)
        if isinstance(expr, EBool):
            return self._combinator("__true" if expr.value else "__false")
        if isinstance(expr, EVar):
            if expr.name not in scope.readable:
                raise LoweringError(f"unbound variable {expr.name!r}")
            return Var(expr.name)
        if isinstance(expr, EFn):
            if not expr.params:
                raise LoweringError("functions take at least one parameter")
            inner = scope.enter_function(expr.params)
            body = self.lower_block(expr.body, inner, lambda: self._combinator("__id"))
            return Lam(expr.params, body)
        if isinstance(expr, ECall):
            if not expr.args:
                raise LoweringError("calls pass at least one argument")
            return App(
                self.lower_expr(expr.fun, scope),
                tuple(self.lower_expr(arg, scope) for arg in expr.args),
            )
        if isinstance(expr, EUnary):
            if expr.op != "!":
                raise LoweringError(f"unknown unary operator {expr.op!r}")
            return App(self._combinator("__not"), (self.lower_expr(expr.operand, scope),))
        if isinstance(expr, EBinOp):
            combinator = _BINOP_COMBINATOR.get(expr.op)
            if combinator is None:
                raise LoweringError(f"unknown operator {expr.op!r}")
            if expr.op in _SAT_SEMANTICS:
                lhs_lit = isinstance(expr.lhs, EInt)
                rhs_lit = isinstance(expr.rhs, EInt)
                if lhs_lit and rhs_lit:
                    k = min(max(expr.lhs.value, 0), DOMAIN_BOUND)
                    j = min(max(expr.rhs.value, 0), DOMAIN_BOUND)
                    return self._const_value(_SAT_SEMANTICS[expr.op](k, j))
                if lhs_lit:
                    return self._lower_binop_const(
                        expr.op, self.lower_expr(expr.rhs, scope), expr.lhs.value, "l"
                    )
                if rhs_lit:
                    return self._lower_binop_const(
                        expr.op, self.lower_expr(expr.lhs, scope), expr.rhs.value, "r"
                    )
            return App(
                self._combinator(combinator),
                (self.lower_expr(expr.lhs, scope), self.lower_expr(expr.rhs, scope)),
            )
        raise LoweringError(f"not an imp expression: {expr!r}")

    def _const_value(self, value) -> Expr:
        """A saturated-domain constant as a term (int or bool)."""
        if isinstance(value, bool):
            return self._combinator("__true" if value else "__false")
        return scott_numeral(value)

    def _lower_binop_const(self, op: str, subject: Expr, lit: int, side: str) -> Expr:
        """Specialize ``e op c`` / ``c op e`` to an early-stopping tower.

        With one clamped literal operand the operator is a *unary*
        function of the other, constant from some depth on (saturation
        or comparison decidedness): ``i < 3`` needs at most three case
        peels, not a full two-operand table.  The savings compound
        inside loop bodies, where the tables would be re-explored on
        every abstract iteration.
        """
        sem = _SAT_SEMANTICS[op]
        c = min(max(lit, 0), DOMAIN_BOUND)
        apply = (lambda j: sem(c, j)) if side == "l" else (lambda j: sem(j, c))
        values = [apply(j) for j in range(DOMAIN_BOUND + 1)]
        depth = DOMAIN_BOUND
        while depth > 0 and values[depth - 1] == values[DOMAIN_BOUND]:
            depth -= 1
        if depth == 0:
            # constant outcome; still evaluate the operand for effect
            return Let(self._fresh("t"), subject, self._const_value(values[0]))
        tag = self._fresh(_OP_TAG[op]).lstrip("_")
        return _bounded_tower(
            subject,
            depth,
            lambda k: self._const_value(values[k]),
            self._const_value(values[DOMAIN_BOUND]),
            tag,
        )

    # -- statements --------------------------------------------------------

    def lower_block(self, stmts: tuple[Stmt, ...], scope: _Scope, rest) -> Expr:
        """Lower a statement sequence; ``rest()`` builds the continuation.

        ``rest`` sees the *names* of the block's entry scope -- joins and
        loop exits re-bind those names, so building it lazily at each
        call site picks up the right program point.
        """
        if not stmts:
            return rest()
        stmt, remaining = stmts[0], stmts[1:]
        if isinstance(stmt, SLet):
            inner = scope.declare(stmt.name)
            return Let(
                stmt.name,
                self.lower_expr(stmt.rhs, scope),
                self.lower_block(remaining, inner, rest),
            )
        if isinstance(stmt, SAssign):
            if stmt.name not in scope.assignable:
                if stmt.name in scope.readable:
                    raise LoweringError(
                        f"cannot assign captured variable {stmt.name!r} "
                        "from inside a function (closures capture by value)"
                    )
                raise LoweringError(f"assignment to undeclared variable {stmt.name!r}")
            return Let(
                stmt.name,
                self.lower_expr(stmt.rhs, scope),
                self.lower_block(remaining, scope, rest),
            )
        if isinstance(stmt, SReturn):
            return self.lower_expr(stmt.value, scope)
        if isinstance(stmt, SExpr):
            # evaluate for effect, discard: let a fresh name bind it
            return Let(
                self._fresh("t"),
                self.lower_expr(stmt.value, scope),
                self.lower_block(remaining, scope, rest),
            )
        if isinstance(stmt, SIf):
            return self._lower_if(stmt, remaining, scope, rest)
        if isinstance(stmt, SWhile):
            return self._lower_while(stmt, remaining, scope, rest)
        raise LoweringError(f"not an imp statement: {stmt!r}")

    def _branch_targets(self, block_vars: frozenset, scope: _Scope) -> tuple[str, ...]:
        """The variables a join must thread: assigned here, declared outside."""
        return tuple(sorted(block_vars & scope.assignable))

    def _lower_if(self, stmt: SIf, remaining, scope: _Scope, rest) -> Expr:
        mut = self._branch_targets(
            _assigned_in(stmt.then) | _assigned_in(stmt.els), scope
        )
        join_name = self._fresh("join")
        join_params = mut if mut else (self._fresh("d"),)
        join_args: tuple[Expr, ...] = (
            tuple(Var(v) for v in mut) if mut else (self._combinator("__id"),)
        )

        def to_join() -> Expr:
            return App(Var(join_name), join_args)

        join = Lam(join_params, self.lower_block(remaining, scope, rest))
        then_thunk = Lam(
            (self._fresh("d"),), self.lower_block(stmt.then, scope, to_join)
        )
        else_thunk = Lam(
            (self._fresh("d"),), self.lower_block(stmt.els, scope, to_join)
        )
        cond = self.lower_expr(stmt.cond, scope)
        return Let(
            join_name,
            join,
            App(App(cond, (then_thunk, else_thunk)), (self._combinator("__id"),)),
        )

    def _lower_while(self, stmt: SWhile, remaining, scope: _Scope, rest) -> Expr:
        mut = self._branch_targets(_assigned_in(stmt.body), scope)
        loop_params = mut if mut else (self._fresh("d"),)
        loop_args: tuple[Expr, ...] = (
            tuple(Var(v) for v in mut) if mut else (self._combinator("__id"),)
        )
        exit_name = self._fresh("k")
        loop_name = self._fresh("loop")
        self_name = self._fresh("self")

        def back_edge() -> Expr:
            return App(Var(self_name), loop_args)

        def to_exit() -> Expr:
            return App(Var(exit_name), loop_args)

        body_thunk = Lam(
            (self._fresh("d"),), self.lower_block(stmt.body, scope, back_edge)
        )
        exit_thunk = Lam((self._fresh("d"),), to_exit())
        # the condition re-evaluates every iteration, inside the loop lambda
        cond = self.lower_expr(stmt.cond, scope)
        iteration = Lam(
            (self_name,),
            Lam(
                loop_params,
                App(App(cond, (body_thunk, exit_thunk)), (self._combinator("__id"),)),
            ),
        )
        # each loop gets its own private Z combinator (see _fix_combinator)
        fix = _fix_combinator(len(loop_params), loop_name.lstrip("_"))
        return Let(
            exit_name,
            Lam(loop_params, self.lower_block(remaining, scope, rest)),
            Let(loop_name, App(fix, (iteration,)), App(Var(loop_name), loop_args)),
        )

    # -- entry point -------------------------------------------------------

    def lower_program(self, program: Program) -> Expr:
        scope = _Scope(frozenset(), frozenset())
        body = self.lower_block(program.body, scope, lambda: self._combinator("__id"))
        # close over the used prelude (later entries may reference earlier
        # ones, so wrap in reverse emission order)
        for name in reversed(_PRELUDE_ORDER):
            if name in self._used:
                body = Let(name, _prelude_term(name), body)
        return body


def lower_program(program: Program) -> Expr:
    """Lower a parsed ``imp`` program to a closed direct-style term.

    The result is ``uniquify``-renamed (distinct binders keep
    monovariant analyses from merging unrelated prelude sites).  Its
    nodes are canonical at birth (:mod:`repro.util.intern`), so it
    behaves exactly like a parsed term: pool-pointer-equal subterms,
    process-independent content digests for the fixpoint cache.
    """
    from repro.lam.syntax import uniquify

    return uniquify(_Lowerer().lower_program(program))


def lower_source(source: str) -> Expr:
    """Parse and lower ``imp`` source text."""
    from repro.imp.parser import parse_program

    return lower_program(parse_program(source))
