"""CESK-style machine structures for Featherweight Java.

Objects are store-allocated: an object value names its class and holds
one address per field (``fields(C)`` order), so aliasing, counting and
garbage collection all go through the one store, exactly as for the
lambda calculi.  Continuation frames are storable values at
continuation addresses (the AAM construction again).
"""

from __future__ import annotations


from repro.util.intern import hash_consed
from typing import Any, Hashable

from repro.fj.syntax import Expr
from repro.util.pcollections import PMap, pmap

@hash_consed
class ObjV:
    """An object value: class name plus field addresses (``fields(C)`` order)."""

    cls: str
    field_addrs: tuple[Hashable, ...]

    def __repr__(self) -> str:
        return f"{self.cls}@{self.field_addrs!r}"


class Frame:
    """A continuation frame."""

    __slots__ = ()


@hash_consed
class HaltF(Frame):
    def __repr__(self) -> str:
        return "<halt>"


@hash_consed
class FieldF(Frame):
    """``[.].f``: awaiting the receiver of a field access."""

    fld: str
    parent: Hashable


@hash_consed
class InvokeRcvF(Frame):
    """``[.].m(args)``: awaiting the receiver of a method call."""

    site: Expr
    method: str
    args: tuple[Expr, ...]
    env: PMap
    parent: Hashable


@hash_consed
class InvokeArgF(Frame):
    """``rcv.m(v..., [.], e...)``: awaiting the next argument."""

    site: Expr
    method: str
    receiver: ObjV
    remaining: tuple[Expr, ...]
    done: tuple[Any, ...]
    env: PMap
    parent: Hashable


@hash_consed
class NewArgF(Frame):
    """``new C(v..., [.], e...)``: awaiting the next constructor argument."""

    site: Expr
    cls: str
    remaining: tuple[Expr, ...]
    done: tuple[Any, ...]
    env: PMap
    parent: Hashable


@hash_consed
class CastF(Frame):
    """``(C) [.]``: awaiting the value being cast."""

    cls: str
    parent: Hashable


@hash_consed
class KontTag:
    """Pseudo-variable for continuation allocation (shared Addressable)."""

    site: Expr

    def __repr__(self) -> str:
        return f"kont[{self.site!r}]"


@hash_consed
class FieldVar:
    """Pseudo-variable for field-cell allocation: ``new C`` allocates one
    cell per field under ``FieldVar(C, f)``, so field polyvariance follows
    the same ``Addressable`` policy as parameter bindings."""

    cls: str
    fld: str

    def __repr__(self) -> str:
        return f"{self.cls}.{self.fld}"


@hash_consed
class PState:
    """A partial FJ machine state: control, environment, kont address."""

    ctrl: Any  # Expr (eval mode) or ObjV (return mode)
    env: PMap
    ka: Hashable

    def is_eval(self) -> bool:
        return isinstance(self.ctrl, Expr)

    def is_return(self) -> bool:
        return isinstance(self.ctrl, ObjV)

    def context_key(self) -> Hashable:
        if isinstance(self.ctrl, Expr):
            return self.ctrl
        return self.ctrl.cls

    def __repr__(self) -> str:
        mode = "ev" if self.is_eval() else "ret"
        return f"<{mode} {self.ctrl!r} | ka={self.ka!r}>"


@hash_consed
class SiteContext:
    """Context-key carrier naming the invocation site at dispatch time."""

    site: Expr

    def context_key(self) -> Hashable:
        return self.site


HALT_ADDRESS = ("fj-halt-kont",)


def inject_fj(main: Expr) -> PState:
    """The initial state for a program's main expression."""
    return PState(main, pmap(), HALT_ADDRESS)
