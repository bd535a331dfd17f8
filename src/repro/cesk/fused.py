"""The CESK transition, staged (see :mod:`repro.core.fused`).

:func:`build_cesk_fused` unfolds :func:`repro.cesk.semantics.mnext_cesk`
-- eval/continue dispatch, continuation push/pop through the store, and
the apply step -- into one first-order function over a fixed
:class:`~repro.cesk.analysis.AbstractCESKInterface`.  Nondeterminism
(variable fetches and continuation fetches) becomes iteration; store and
time effects thread directly through the interface's components.  Same
successors, same per-branch stores, same read/write logs as the monadic
path (corpus-checked).
"""

from __future__ import annotations

from typing import Any

from repro.core.fused import (
    FusedTransition,
    SiteMemo,
    make_closer,
    make_pusher,
    register_fused,
    thread_bindings,
)
from repro.cesk.machine import (
    ArgF,
    Clo,
    FunF,
    HaltF,
    KontTag,
    LetF,
    PState,
    SiteContext,
)
from repro.lam.syntax import App, Lam, Let, Var, free_vars


def build_cesk_fused(interface: Any) -> FusedTransition:
    """Stage ``mnext_cesk`` for one assembled CESK interface."""
    valloc = interface.addressing.valloc
    advance = interface.addressing.advance
    store_like = interface.store_like
    fetch = store_like.fetch
    bind = store_like.bind
    close = make_closer(Clo, free_vars)
    push = make_pusher(PState, KontTag, valloc, bind)
    contexts = SiteMemo(SiteContext)

    def apply_proc(out: list, site: App, proc: Clo, arg_values: tuple,
                   parent_ka: Any, guts: Any, store: Any) -> None:
        """The apply step: tick, alloc, bind parameters, enter the body."""
        params = proc.lam.params
        if len(params) != len(arg_values):
            return  # stuck: arity mismatch
        guts2 = advance(proc, contexts[site], guts)
        addrs = [valloc(p, guts2) for p in params]
        store2 = thread_bindings(store_like, store, addrs, arg_values)
        nxt = PState(proc.lam.body, proc.env.update(zip(params, addrs)), parent_ka)
        out.append(((nxt, guts2), store2))

    def step(pstate: PState, guts: Any, store: Any) -> list:
        ctrl = pstate.ctrl
        env = pstate.env
        ka = pstate.ka
        out: list = []

        # -- eval mode ------------------------------------------------------
        if isinstance(ctrl, Var):
            if ctrl.name not in env:
                return []
            for value in fetch(store, env[ctrl.name]):
                out.append(((PState(value, env, ka), guts), store))
            return out
        if isinstance(ctrl, Lam):
            return [((PState(close(ctrl, env), env, ka), guts), store)]
        if isinstance(ctrl, Let):
            push(out, ctrl, LetF(ctrl.var, ctrl.body, env, ka), ctrl.rhs,
                 env, guts, store)
            return out
        if isinstance(ctrl, App):
            push(out, ctrl, FunF(ctrl, ctrl.args, env, ka), ctrl.fun,
                 env, guts, store)
            return out

        # -- return mode ----------------------------------------------------
        if isinstance(ctrl, Clo):
            for frame in fetch(store, ka):
                if isinstance(frame, HaltF):
                    out.append(((pstate, guts), store))  # final states self-loop
                elif isinstance(frame, LetF):
                    addr = valloc(frame.var, guts)
                    store2 = bind(store, addr, frozenset([ctrl]))
                    nxt = PState(
                        frame.body, frame.env.set(frame.var, addr), frame.parent
                    )
                    out.append(((nxt, guts), store2))
                elif isinstance(frame, FunF):
                    if not frame.args:
                        apply_proc(out, frame.site, ctrl, (), frame.parent,
                                   guts, store)
                    else:
                        next_frame = ArgF(frame.site, ctrl, frame.args[1:], (),
                                          frame.env, frame.parent)
                        push(out, frame.args[0], next_frame, frame.args[0],
                             frame.env, guts, store)
                elif isinstance(frame, ArgF):
                    done = frame.done + (ctrl,)
                    if not frame.remaining:
                        apply_proc(out, frame.site, frame.fun_val, done,
                                   frame.parent, guts, store)
                    else:
                        next_frame = ArgF(frame.site, frame.fun_val,
                                          frame.remaining[1:], done,
                                          frame.env, frame.parent)
                        push(out, frame.remaining[0], next_frame,
                             frame.remaining[0], frame.env, guts, store)
                # unrecognized frames are stuck: the branch is pruned
            return out
        return []  # stuck: unrecognized control

    return FusedTransition(step, language="lam")


register_fused("lam", build_cesk_fused)
