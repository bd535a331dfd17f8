"""Fused transitions: the monad stack staged out of the hot loop.

The paper's transition functions are written once in monadic normal form
against ``StateT g (StateT s [])`` (5.3.1).  That is the right *source
of truth* -- the monad decides nondeterminism, time and the store -- but
a terrible execution strategy: every evaluation rebuilds a tower of
``StateT`` closures, pays a ``Monad.bind`` dispatch per bind, and runs
the list monad's concatenations for nondeterminism.  Partial evaluation
of an interpreter with respect to its monad is the classical staging
move (the first Futamura projection applied to the monad stack): because
the monad is *fixed* at analysis-assembly time, every bind can be
unfolded now, once, leaving a first-order step function.

This module is the framework half of that move, shared by the three
language backends (:mod:`repro.cps.fused`, :mod:`repro.cesk.fused`,
:mod:`repro.fj.fused`):

* :class:`FusedTransition` -- the staged calling convention.  Where a
  generic step maps ``pstate -> m pstate'`` and the collecting domain
  runs it with ``monad.run(mv, guts, store)``, a fused transition *is*
  the desugared shape already::

      step(pstate, guts, store) -> [((pstate', guts'), store')]

  i.e. exactly the value ``runStateT (runStateT (mnext ps) g) s``
  produces, computed by plain loops.  The wrapper class exists so the
  collecting domains and engines can recognize a staged step and skip
  the monadic runner (``repro/core/collecting.py`` dispatches on it).

* The shared store/time threading: :func:`thread_bindings` performs the
  ``sequence [a |-> d]`` suffix every apply/dispatch step ends with, and
  :func:`branch_product` is the list monad's cartesian product over the
  fetched argument sets, staged into ``itertools.product``.

* :func:`register_fused` / :func:`build_fused` -- the per-language
  builder registry (language backends register at import time; the
  analysis layers resolve through here).

Equivalence contract (what a backend must preserve, and what the
corpus-wide matrices in ``tests/test_fused.py`` / ``tests/test_config.py``
check):

1. same successor ``(pstate', guts')`` pairs and per-branch stores as
   ``monad.run(mnext(interface, ps), guts, store)``;
2. every store observation and mutation goes through the interface's
   ``store_like`` -- which may be a
   :class:`~repro.core.store.RecordingStore` -- so read/write logs (and
   hence depgraph retriggering and counting saturation) are identical;
3. evaluation order matches the strict left-to-right order of the
   monadic path (all argument fetches before any bind; branches in
   fetch-set iteration order), so a shared *mutable* store observes the
   same interleaving of reads and writes;
4. the step is *distributive over each fetch*, as the paper's
   ``getsNDSet`` (5.3.2) makes every fetched value its own branch: the
   successors and writes for a fetched set are the union of those for
   its elements, taken in iteration order.  A fetch may therefore
   return any finite sequence of values, not only a set, and the step
   must use it only by iterating it and testing it for emptiness.  The
   depgraph engine relies on this to re-evaluate a configuration whose
   evaluation made a single fetch with only the values that fetch
   gained (see :func:`repro.core.fixpoint.global_store_explore`).

Abstract GC stays an engine/domain concern: the per-state domains sweep
each fused branch's result store exactly where they weave the collector
into a generic step, and the versioned engine's overlay+sweep path never
needed the step's cooperation in the first place.
"""

from __future__ import annotations

from importlib import import_module
from itertools import product
from typing import Any, Callable, Hashable, Iterable, Sequence


class FusedTransition:
    """A staged transition ``(pstate, guts, store) -> [((pstate', guts'), store')]``.

    Instances are just a callable plus a language tag; the class is the
    *marker* the collecting domains (:mod:`repro.core.collecting`) and
    the kleene evaluation counter (:func:`repro.core.driver.run_engine_analysis`)
    dispatch on to bypass ``monad.run``.
    """

    __slots__ = ("fn", "language")

    def __init__(self, fn: Callable[[Any, Any, Any], list], language: str = ""):
        self.fn = fn
        self.language = language

    def __call__(self, pstate: Any, guts: Any, store: Any) -> list:
        return self.fn(pstate, guts, store)

    def __repr__(self) -> str:
        return f"FusedTransition({self.language or self.fn!r})"


def thread_bindings(
    store_like: Any, store: Any, addrs: Sequence[Hashable], values: Sequence[Any]
) -> Any:
    """``sequence [a |-> {d}]``, staged: thread singleton binds left to right.

    Persistent stores thread the returned value; mutable stores mutate in
    place and return themselves -- either way the caller must use the
    return value, exactly as the monadic ``modify_store`` chain does.
    """
    for addr, value in zip(addrs, values):
        store = store_like.bind(store, addr, frozenset([value]))
    return store


def branch_product(value_sets: Sequence[Iterable[Any]]) -> Iterable[tuple]:
    """The list monad's work over ``mapM arg``, staged.

    ``mapM`` under ``StateT g (StateT s [])`` evaluates every argument's
    fetch first (atomic evaluation never writes) and then continues once
    per combination -- i.e. the cartesian product of the fetched sets, in
    left-to-right major order.  ``itertools.product`` is exactly that.
    """
    return product(*value_sets)


def make_closer(clo_type: Callable, free_vars: Callable) -> Callable:
    """A memoized closure constructor for the lambda-calculus backends.

    ``Clo(lam, env | free(lam))`` is a pure function of two immutable,
    hash-consed inputs, so memoizing it per ``(lam, env)`` is invisible
    to every observer -- and saves the environment restriction the
    generic path re-runs on every evaluation of an operand.  The cache
    lives in the returned closure, i.e. per staged transition.
    """
    cache: dict = {}

    def close(lam: Any, env: Any) -> Any:
        key = (lam, env)
        clo = cache.get(key)
        if clo is None:
            free = free_vars(lam)
            clo = clo_type(lam, env.restrict(lambda v: v in free))
            cache[key] = clo
        return clo

    return close


class SiteMemo(dict):
    """``memo[site]`` is ``build(site)``, built once per syntax node.

    The continuation tag of a push (``KontTag(site)``) and the context
    carrier of an apply (``SiteContext(site)``) are pure functions of an
    immutable, hash-consed node, so -- as for :func:`make_closer`'s
    closures -- building one per site instead of one per evaluation is
    invisible to every observer.  A memo is made per staged transition,
    i.e. per run, and dies with it: a process-wide pool of machine values
    keeps every one alive (see "Machine values are deliberately not
    pooled" in :mod:`repro.util.intern`).  A hit is one dict subscript
    (the site's hash is memoized); only a miss calls back into Python.
    """

    __slots__ = ("build",)

    def __init__(self, build: Callable[[Any], Any]):
        super().__init__()
        self.build = build

    def __missing__(self, site: Any) -> Any:
        value = self[site] = self.build(site)
        return value


def make_pusher(
    pstate_type: Callable, kont_tag: Callable, valloc: Callable, bind: Callable
) -> Callable:
    """A continuation-push helper for the CESK-shaped backends.

    Pushing a frame is the same three staged operations in CESK and FJ
    (allocate a kont address under the language's ``KontTag``, bind the
    frame there, enter the sub-expression); only the state and tag types
    differ, so they are parameters.  Tags come from a :class:`SiteMemo`.
    """
    tags = SiteMemo(kont_tag)

    def push(out: list, site: Any, frame: Any, enter: Any, env: Any,
             guts: Any, store: Any) -> None:
        ka2 = valloc(tags[site], guts)
        store2 = bind(store, ka2, frozenset([frame]))
        out.append(((pstate_type(enter, env, ka2), guts), store2))

    return push


#: language name -> ``builder(interface) -> FusedTransition``.
_BUILDERS: dict[str, Callable[[Any], FusedTransition]] = {}

#: Which module registers each language's builder (lazy import targets).
_BACKENDS = {
    "cps": "repro.cps.fused",
    "lam": "repro.cesk.fused",
    "fj": "repro.fj.fused",
}


def register_fused(language: str, builder: Callable[[Any], FusedTransition]) -> None:
    """Register a language's fused-step builder (called at backend import)."""
    _BUILDERS[language] = builder


def build_fused(language: str, interface: Any) -> FusedTransition:
    """Stage the named language's transition for ``interface``.

    The builder specializes the step to the interface's ``Addressable``
    and ``StoreLike`` (and class table, for FJ) -- the components are
    fixed per analysis, so their methods are closed over once instead of
    re-dispatched per bind.
    """
    if language not in _BACKENDS:
        raise ValueError(
            f"no fused backend for language {language!r}; "
            f"choose one of {tuple(_BACKENDS)}"
        )
    if language not in _BUILDERS:
        import_module(_BACKENDS[language])
    return _BUILDERS[language](interface)
