"""The CPS transition of Figure 2, staged (see :mod:`repro.core.fused`).

:func:`build_cps_fused` partially evaluates
:func:`repro.cps.semantics.mnext` with respect to the
:class:`~repro.core.monads.StorePassing` monad and a fixed
:class:`~repro.cps.analysis.AbstractCPSInterface`: the
``fun``/``tick``/``alloc``/``arg``/``|->`` bind chain becomes one flat
function, nondeterminism becomes iteration over the fetched value sets,
and the store threads through the interface's ``store_like`` directly.
The staged function is *observationally identical* to the monadic path
-- same successors, same per-branch stores, same read/write footprint
through a :class:`~repro.core.store.RecordingStore` -- which the
corpus-wide fused-vs-generic matrices pin down.

One optimization the staging makes possible: closure creation
(``Clo(lam, rho | free(lam))``) is memoized per ``(lam, env)``.  The
generic path rebuilds the restricted environment on every evaluation of
an operand; the staged step reuses the canonical closure, which is
semantics-free because both inputs and the result are immutable values.
"""

from __future__ import annotations

from typing import Any

from repro.core.fused import (
    FusedTransition,
    branch_product,
    make_closer,
    register_fused,
    thread_bindings,
)
from repro.cps.semantics import Clo, PState
from repro.cps.syntax import Call, Lam, Ref, free_vars


def build_cps_fused(interface: Any) -> FusedTransition:
    """Stage ``mnext`` for one assembled CPS interface."""
    valloc = interface.addressing.valloc
    advance = interface.addressing.advance
    store_like = interface.store_like
    fetch = store_like.fetch
    close = make_closer(Clo, free_vars)

    def step(pstate: PState, guts: Any, store: Any) -> list:
        ctrl = pstate.ctrl
        if not isinstance(ctrl, Call):
            # mnext s = return s  (Exit states self-loop)
            return [((pstate, guts), store)]
        env = pstate.env
        f = ctrl.fun
        aes = ctrl.args

        # fun rho f: the operator's closures (the source of nondeterminism)
        if isinstance(f, Lam):
            procs: Any = (close(f, env),)
        elif isinstance(f, Ref):
            if f.var not in env:
                return []  # unbound operator: dead branch
            procs = fetch(store, env[f.var])
        else:
            return []

        n_args = len(aes)
        out: list = []
        for proc in procs:
            if not isinstance(proc, Clo):
                continue  # stuck: operator is not a closure
            lam = proc.lam
            vs = lam.params
            if len(vs) != n_args:
                continue  # stuck: arity mismatch

            # tick, then alloc in the advanced context (mnext's order)
            guts2 = advance(proc, pstate, guts)
            addrs = [valloc(v, guts2) for v in vs]

            # mapM (arg rho) aes: all fetches happen before any bind --
            # atomic evaluation never writes, so every set is read from
            # the incoming store, exactly as the strict monadic runner
            # interleaves them
            arg_sets: list = []
            dead = False
            for ae in aes:
                if isinstance(ae, Lam):
                    arg_sets.append((close(ae, env),))
                elif isinstance(ae, Ref):
                    if ae.var not in env:
                        dead = True
                        break
                    ds = fetch(store, env[ae.var])
                    if not ds:
                        dead = True
                        break
                    arg_sets.append(ds)
                else:
                    dead = True
                    break
            if dead:
                continue

            pair = (PState(lam.body, proc.env.update(zip(vs, addrs))), guts2)
            for ds in branch_product(arg_sets):
                out.append((pair, thread_bindings(store_like, store, addrs, ds)))
        return out

    return FusedTransition(step, language="cps")


register_fused("cps", build_cps_fused)
