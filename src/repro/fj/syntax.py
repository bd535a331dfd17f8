"""Featherweight Java abstract syntax (Igarashi-Pierce-Wadler).

The five expression forms of FJ::

    e ::= x | e.f | e.m(e...) | new C(e...) | (C) e

Classes declare typed fields and methods whose bodies are single
``return`` expressions; the canonical constructor of FJ is implicit
(it always assigns every field from the like-named parameter, so we
synthesize it rather than parse boilerplate).
"""

from __future__ import annotations


from repro.util.intern import FREE_VARS_SLOT, fold_memo, interned, union_vars
from typing import Iterator

OBJECT = "Object"
"""The root of the class hierarchy."""


class Expr:
    """An FJ expression."""

    __slots__ = ()


@interned
class VarE(Expr):
    """A variable (including ``this``)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@interned
class FieldAccess(Expr):
    """``e.f``."""

    obj: Expr
    fld: str

    def __repr__(self) -> str:
        return f"{self.obj!r}.{self.fld}"


@interned
class Invoke(Expr):
    """``e.m(e1, ..., en)``."""

    obj: Expr
    method: str
    args: tuple[Expr, ...]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.obj!r}.{self.method}({args})"


@interned
class New(Expr):
    """``new C(e1, ..., en)``."""

    cls: str
    args: tuple[Expr, ...]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"new {self.cls}({args})"


@interned
class Cast(Expr):
    """``(C) e``."""

    cls: str
    obj: Expr

    def __repr__(self) -> str:
        return f"({self.cls}) {self.obj!r}"


@interned
class MethodDef:
    """``T m(T1 x1, ..., Tn xn) { return e; }``."""

    ret_type: str
    name: str
    params: tuple[tuple[str, str], ...]  # (type, name)
    body: Expr

    def param_names(self) -> tuple[str, ...]:
        return tuple(name for _t, name in self.params)

    def param_types(self) -> tuple[str, ...]:
        return tuple(t for t, _name in self.params)

    def __repr__(self) -> str:
        params = ", ".join(f"{t} {n}" for t, n in self.params)
        return f"{self.ret_type} {self.name}({params}) {{ return {self.body!r}; }}"


@interned
class ClassDef:
    """``class C extends D { fields; methods }`` with the canonical constructor."""

    name: str
    superclass: str
    fields: tuple[tuple[str, str], ...]  # (type, name), own fields only
    methods: tuple[MethodDef, ...]

    def method(self, name: str) -> MethodDef | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None

    def __repr__(self) -> str:
        return f"class {self.name} extends {self.superclass}"


@interned
class Program:
    """An FJ program: class definitions plus a main expression."""

    classes: tuple[ClassDef, ...]
    main: Expr

    def class_named(self, name: str) -> ClassDef | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None


def free_vars(expr: Expr) -> frozenset:
    """Free variables of an FJ expression, ``this`` included (memoized per node)."""
    return fold_memo(expr, FREE_VARS_SLOT, _fv_children, _fv_combine)


def _fv_children(expr: Expr) -> tuple:
    if isinstance(expr, VarE):
        return ()
    if isinstance(expr, (FieldAccess, Cast)):
        return (expr.obj,)
    if isinstance(expr, Invoke):
        return (expr.obj, *expr.args)
    if isinstance(expr, New):
        return expr.args
    raise TypeError(f"not an FJ expression: {expr!r}")


def _fv_combine(expr: Expr, child_vars: list) -> frozenset:
    if isinstance(expr, VarE):
        return frozenset([expr.name])
    return union_vars(child_vars)


def subterms(expr: Expr) -> Iterator[Expr]:
    """All subexpressions, preorder."""
    yield expr
    if isinstance(expr, FieldAccess):
        yield from subterms(expr.obj)
    elif isinstance(expr, Invoke):
        yield from subterms(expr.obj)
        for a in expr.args:
            yield from subterms(a)
    elif isinstance(expr, New):
        for a in expr.args:
            yield from subterms(a)
    elif isinstance(expr, Cast):
        yield from subterms(expr.obj)


def program_size(program: Program) -> int:
    """Total number of expression nodes across methods and main."""
    total = sum(1 for _ in subterms(program.main))
    for cls in program.classes:
        for m in cls.methods:
            total += sum(1 for _ in subterms(m.body))
    return total
