"""CESK machine states, values and continuation frames.

Following "Abstracting Abstract Machines", continuations live in the
store: a state is ``(control, env, kont-address)`` and the store maps
kont addresses to *sets* of frames, so bounding the address space
bounds the whole state space.  Frames and closures are both storable
values and share the one store.

Control is either an expression to evaluate (*eval* mode) or a value
being returned (*return* mode); the two are distinguished by type.
"""

from __future__ import annotations


from repro.util.intern import hash_consed
from typing import Any, Hashable

from repro.lam.syntax import App, Expr, Lam
from repro.util.pcollections import PMap, pmap

@hash_consed
class Clo:
    """A closure: the machine's only *proper* value."""

    lam: Lam
    env: PMap

    def __repr__(self) -> str:
        return f"Clo({self.lam!r})"


class Frame:
    """A continuation frame (a storable value)."""

    __slots__ = ()


@hash_consed
class HaltF(Frame):
    """The empty continuation."""

    def __repr__(self) -> str:
        return "<halt>"


@hash_consed
class LetF(Frame):
    """``(let ((x [.])) body)``: awaiting the right-hand side's value."""

    var: str
    body: Expr
    env: PMap
    parent: Hashable

    def __repr__(self) -> str:
        return f"<let {self.var}>"


@hash_consed
class FunF(Frame):
    """``([.] e1 ... en)``: awaiting the operator's value."""

    site: App
    args: tuple[Expr, ...]
    env: PMap
    parent: Hashable

    def __repr__(self) -> str:
        return f"<fun {len(self.args)} args>"


@hash_consed
class ArgF(Frame):
    """``(f v1 ... [.] e ... )``: awaiting the next argument's value."""

    site: App
    fun_val: Clo
    remaining: tuple[Expr, ...]
    done: tuple[Any, ...]
    env: PMap
    parent: Hashable

    def __repr__(self) -> str:
        return f"<arg {len(self.done)}/{len(self.done) + 1 + len(self.remaining)}>"


@hash_consed
class KontTag:
    """The pseudo-variable under which a continuation is allocated.

    ``Addressable.valloc`` takes a variable; continuation addresses reuse
    the same allocator (and hence the same polyvariance policy) by
    allocating under a tag naming the expression whose evaluation pushed
    the frame -- the standard AAM move, here falling out of the shared
    ``Addressable`` abstraction.
    """

    site: Expr

    def __repr__(self) -> str:
        return f"kont[{self.site!r}]"


@hash_consed
class PState:
    """A partial CESK state: control, environment, continuation address.

    Time and the store live in the monad, exactly as for CPS (paper
    3.2-3.3).  ``context_key`` names the current control point for the
    semantics-independent addressing policies.
    """

    ctrl: Any  # Expr (eval mode) or Clo (return mode)
    env: PMap
    ka: Hashable

    def is_eval(self) -> bool:
        return isinstance(self.ctrl, Expr)

    def is_return(self) -> bool:
        return isinstance(self.ctrl, Clo)

    def context_key(self) -> Hashable:
        if isinstance(self.ctrl, Expr):
            return self.ctrl
        return self.ctrl.lam

    def __repr__(self) -> str:
        mode = "ev" if self.is_eval() else "ret"
        return f"<{mode} {self.ctrl!r} | ka={self.ka!r}>"


@hash_consed
class SiteContext:
    """A :class:`~repro.core.addresses.HasContextKey` carrier for call sites.

    At application time the machine is in return mode, so the state's own
    control is a value; the call site recorded in the frame is the right
    context key for ``tick``/``advance``.
    """

    site: Expr

    def context_key(self) -> Hashable:
        return self.site


HALT_ADDRESS = ("halt-kont",)
"""The distinguished address at which the halt frame is bound."""


def inject(expr: Expr) -> PState:
    """The initial machine state for a closed program."""
    return PState(expr, pmap(), HALT_ADDRESS)
