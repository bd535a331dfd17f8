"""The hand-written abstract transition of section 2.4 (pre-monadic).

Before the monadic refactoring, the paper's abstract machine is the
relation::

    ((f ae1 ... aen), rho, sigma, t) ~> (call, rho'', sigma', t') if
        (lam, rho') in A(f, rho, sigma)      -- branch per closure
        d_i in A(ae_i, rho, sigma)           -- branch per argument value
        t'  = tick(clo, state)
        a_i = alloc(v_i, t')
        rho'' = rho'[v_i -> a_i]
        sigma' = sigma |_| [a_i -> {d_i}]

This module keeps that formulation alive as an independent oracle: the
adequacy experiment (E10) and its tests check that the monadic ``mnext``
run through the ``StorePassing`` machinery reaches *exactly* the same
configuration sets.  Nothing else in the package depends on this file.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.core.addresses import Addressable
from repro.core.store import StoreLike
from repro.cps.semantics import Clo, PState
from repro.cps.syntax import AExp, Call, Lam, Ref, free_vars
from repro.util.pcollections import PMap


def atomic_eval(env: PMap, store_like: StoreLike, store, aexp: AExp) -> frozenset:
    """``A(ae, rho, sigma)``: the abstract atomic evaluator of section 2.3."""
    if isinstance(aexp, Lam):
        captured = env.restrict(free_vars(aexp).__contains__)
        return frozenset([Clo(aexp, captured)])
    if isinstance(aexp, Ref):
        if aexp.var not in env:
            return frozenset()
        return frozenset(store_like.fetch(store, env[aexp.var]))
    return frozenset()


def direct_abstract_step(addressing: Addressable, store_like: StoreLike):
    """Build the section-2.4 transition over configurations ``((PState, t), store)``.

    Returns a function mapping one configuration to the frozenset of its
    successors, with the same evaluation order as the monadic ``mnext``
    (tick before alloc, argument combinations by cartesian product).
    """

    def step(config) -> frozenset:
        (pstate, t), store = config
        if not isinstance(pstate.ctrl, Call):
            return frozenset([config])
        call = pstate.ctrl
        out: set = set()
        for proc in atomic_eval(pstate.env, store_like, store, call.fun):
            if not isinstance(proc, Clo) or len(proc.lam.params) != len(call.args):
                continue
            t2 = addressing.advance(proc, pstate, t)
            addrs = [addressing.valloc(v, t2) for v in proc.lam.params]
            arg_choices: list[Iterable] = [
                atomic_eval(pstate.env, store_like, store, ae) for ae in call.args
            ]
            for ds in itertools.product(*arg_choices):
                store2 = store
                for addr, d in zip(addrs, ds):
                    store2 = store_like.bind(store2, addr, frozenset([d]))
                env2 = proc.env.update(zip(proc.lam.params, addrs))
                out.add(((PState(proc.lam.body, env2), t2), store2))
        return frozenset(out)

    return step
