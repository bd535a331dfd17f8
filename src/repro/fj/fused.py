"""The Featherweight Java transition, staged (see :mod:`repro.core.fused`).

:func:`build_fj_fused` unfolds :func:`repro.fj.semantics.mnext_fj` over a
fixed :class:`~repro.fj.analysis.AbstractFJInterface`: eval/continue
dispatch, method dispatch through the class table, object allocation
(one store cell per field) and cast pruning, all as plain control flow.
Nondeterminism (variable/field/continuation fetches) becomes iteration;
every store observation and mutation goes through the interface's
``store_like``, so read/write logs match the monadic path exactly
(corpus-checked).
"""

from __future__ import annotations

from typing import Any

from repro.core.fused import (
    FusedTransition,
    SiteMemo,
    make_pusher,
    register_fused,
    thread_bindings,
)
from repro.fj.machine import (
    CastF,
    FieldF,
    FieldVar,
    HaltF,
    InvokeArgF,
    InvokeRcvF,
    KontTag,
    NewArgF,
    ObjV,
    PState,
    SiteContext,
)
from repro.fj.syntax import Cast, FieldAccess, Invoke, New, VarE
from repro.util.pcollections import pmap


def build_fj_fused(interface: Any) -> FusedTransition:
    """Stage ``mnext_fj`` for one assembled FJ interface."""
    table = interface.table
    valloc = interface.addressing.valloc
    advance = interface.addressing.advance
    store_like = interface.store_like
    fetch = store_like.fetch
    bind = store_like.bind
    push = make_pusher(PState, KontTag, valloc, bind)
    contexts = SiteMemo(SiteContext)

    def dispatch(out: list, site: Any, receiver: ObjV, arg_values: tuple,
                 parent_ka: Any, guts: Any, store: Any) -> None:
        """Method dispatch: mbody lookup, bind ``this`` and parameters."""
        resolved = table.mbody(site.method, receiver.cls)
        if resolved is None:
            return  # stuck: no such method
        mdef, _owner = resolved
        params = mdef.param_names()
        if len(params) != len(arg_values):
            return  # stuck: arity mismatch
        guts2 = advance(receiver, contexts[site], guts)
        names = ("this",) + params
        addrs = [valloc(name, guts2) for name in names]
        store2 = thread_bindings(
            store_like, store, addrs, (receiver,) + arg_values
        )
        nxt = PState(mdef.body, pmap(zip(names, addrs)), parent_ka)
        out.append(((nxt, guts2), store2))

    def allocate(out: list, pstate: PState, cls: str, arg_values: tuple,
                 parent_ka: Any, guts: Any, store: Any) -> None:
        """``new C(v...)``: one cell per field, return the object (no tick)."""
        fields = table.fields(cls)
        if len(fields) != len(arg_values):
            return  # stuck: wrong number of fields
        addrs = [valloc(FieldVar(cls, fld), guts) for _typ, fld in fields]
        store2 = thread_bindings(store_like, store, addrs, arg_values)
        nxt = PState(ObjV(cls, tuple(addrs)), pstate.env, parent_ka)
        out.append(((nxt, guts), store2))

    def step(pstate: PState, guts: Any, store: Any) -> list:
        ctrl = pstate.ctrl
        env = pstate.env
        ka = pstate.ka
        out: list = []

        # -- eval mode ------------------------------------------------------
        if isinstance(ctrl, VarE):
            if ctrl.name not in env:
                return []
            for value in fetch(store, env[ctrl.name]):
                out.append(((PState(value, env, ka), guts), store))
            return out
        if isinstance(ctrl, FieldAccess):
            push(out, ctrl, FieldF(ctrl.fld, ka), ctrl.obj, env, guts, store)
            return out
        if isinstance(ctrl, Invoke):
            frame = InvokeRcvF(ctrl, ctrl.method, ctrl.args, env, ka)
            push(out, ctrl, frame, ctrl.obj, env, guts, store)
            return out
        if isinstance(ctrl, New):
            if not ctrl.args:
                allocate(out, pstate, ctrl.cls, (), ka, guts, store)
            else:
                frame = NewArgF(ctrl, ctrl.cls, ctrl.args[1:], (), env, ka)
                push(out, ctrl, frame, ctrl.args[0], env, guts, store)
            return out
        if isinstance(ctrl, Cast):
            push(out, ctrl, CastF(ctrl.cls, ka), ctrl.obj, env, guts, store)
            return out

        # -- return mode ----------------------------------------------------
        if isinstance(ctrl, ObjV):
            for frame in fetch(store, ka):
                if isinstance(frame, HaltF):
                    out.append(((pstate, guts), store))
                elif isinstance(frame, FieldF):
                    try:
                        index = table.field_index(ctrl.cls, frame.fld)
                    except Exception:
                        continue  # stuck: no such field
                    for value in fetch(store, ctrl.field_addrs[index]):
                        nxt = PState(value, env, frame.parent)
                        out.append(((nxt, guts), store))
                elif isinstance(frame, InvokeRcvF):
                    if not frame.args:
                        dispatch(out, frame.site, ctrl, (), frame.parent,
                                 guts, store)
                    else:
                        next_frame = InvokeArgF(
                            frame.site, frame.method, ctrl, frame.args[1:], (),
                            frame.env, frame.parent,
                        )
                        push(out, frame.args[0], next_frame, frame.args[0],
                             frame.env, guts, store)
                elif isinstance(frame, InvokeArgF):
                    done = frame.done + (ctrl,)
                    if not frame.remaining:
                        dispatch(out, frame.site, frame.receiver, done,
                                 frame.parent, guts, store)
                    else:
                        next_frame = InvokeArgF(
                            frame.site, frame.method, frame.receiver,
                            frame.remaining[1:], done, frame.env, frame.parent,
                        )
                        push(out, frame.remaining[0], next_frame,
                             frame.remaining[0], frame.env, guts, store)
                elif isinstance(frame, NewArgF):
                    done = frame.done + (ctrl,)
                    if not frame.remaining:
                        allocate(out, pstate, frame.cls, done, frame.parent,
                                 guts, store)
                    else:
                        next_frame = NewArgF(
                            frame.site, frame.cls, frame.remaining[1:], done,
                            frame.env, frame.parent,
                        )
                        push(out, frame.remaining[0], next_frame,
                             frame.remaining[0], frame.env, guts, store)
                elif isinstance(frame, CastF):
                    if table.is_subtype(ctrl.cls, frame.cls):
                        nxt = PState(ctrl, env, frame.parent)
                        out.append(((nxt, guts), store))
                    # else: cast failure -- the branch is pruned
            return out
        return []  # stuck: unrecognized control

    return FusedTransition(step, language="fj")


register_fused("fj", build_fj_fused)
