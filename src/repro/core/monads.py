"""A monad library with transformers, in Python.

The paper's central move is to express the abstract-machine transition in
*monadic normal form* against a semantic interface, so that the choice of
monad decides nondeterminism, context-sensitivity and store handling.  In
Haskell the monad is resolved from types; here a monad is a first-class
*instance object* and monadic *values* are ordinary Python data:

=====================  ==========================================These
monad instance          monadic value of type ``m a``
=====================  ==========================================
:class:`Identity`       the value ``a`` itself
:class:`ListMonad`      a ``list`` of ``a`` (nondeterminism)
:class:`MaybeMonad`     :data:`NOTHING` or ``Just(a)``
:class:`Reader`         a function ``env -> a``
:class:`Writer`         a pair ``(a, log)`` for a monoid ``log``
:class:`State`          a function ``s -> (a, s)``
:class:`StateT`         a function ``s -> inner-monadic (a, s)``
=====================  ==========================================

Combinators that Haskell gets from ``Control.Monad`` are module-level
functions taking the monad object first: :func:`fmap`, :func:`map_m`
(``mapM``), :func:`sequence_m`, :func:`msum`, :func:`guard`,
:func:`filter_m`, :func:`fold_m`, :func:`kleisli`, plus the paper's
:func:`gets_nd_set` -- the crux of handling nondeterminism in a stateful
analysis monad (5.3.2).

Do-notation is emulated by :func:`run_do`, a generator *replay* runner:
the generator function is re-executed from scratch for every
nondeterministic branch, feeding back the values chosen so far.  This is
the standard (and only correct) way to drive a Python generator under a
nondeterminism monad, since generators cannot be forked.  The generator
must therefore be side-effect-free up to its ``yield``\\ ed binds.

Finally, :class:`StorePassing` wires up the paper's two-level analysis
monad ``StateT g (StateT s [])`` (5.3.1) with named accessors for the
"guts" (outer state, e.g. time) and the store (inner state).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Sequence


class Monad(ABC):
    """A monad instance: ``unit`` (return) and ``bind`` (>>=)."""

    @abstractmethod
    def unit(self, value: Any) -> Any:
        """Inject a pure value: ``return``."""

    @abstractmethod
    def bind(self, mv: Any, f: Callable[[Any], Any]) -> Any:
        """Sequence: ``mv >>= f`` where ``f`` maps a value to a monadic value."""

    def then(self, mv1: Any, mv2: Any) -> Any:
        """Sequence, discarding the first result: ``>>``."""
        return self.bind(mv1, lambda _ignored: mv2)

    def join(self, mmv: Any) -> Any:
        """Flatten ``m (m a)`` to ``m a``."""
        return self.bind(mmv, lambda mv: mv)


class MonadPlus(Monad):
    """A monad with failure and nondeterministic choice."""

    @abstractmethod
    def mzero(self) -> Any:
        """The failing computation."""

    @abstractmethod
    def mplus(self, mv1: Any, mv2: Any) -> Any:
        """Nondeterministic choice between two computations."""

    def msum(self, mvs: Iterable[Any]) -> Any:
        """Choice among any number of computations: ``mplus`` folded over ``mvs``."""
        result = self.mzero()
        for mv in mvs:
            result = self.mplus(result, mv)
        return result


class MonadState(Monad):
    """A monad carrying an implicit state component."""

    @abstractmethod
    def get_state(self) -> Any:
        """``get``: yield the current state."""

    @abstractmethod
    def put_state(self, state: Any) -> Any:
        """``put``: replace the current state."""

    def gets(self, f: Callable[[Any], Any]) -> Any:
        """``gets f``: project from the current state."""
        return self.bind(self.get_state(), lambda s: self.unit(f(s)))

    def modify(self, f: Callable[[Any], Any]) -> Any:
        """``modify f``: update the current state in place."""
        return self.bind(self.get_state(), lambda s: self.put_state(f(s)))


# ---------------------------------------------------------------------------
# Base monads
# ---------------------------------------------------------------------------


class Identity(Monad):
    """The identity monad: a monadic value *is* the value."""

    def unit(self, value: Any) -> Any:
        return value

    def bind(self, mv: Any, f: Callable[[Any], Any]) -> Any:
        return f(mv)

    def run(self, mv: Any) -> Any:
        return mv


class ListMonad(MonadPlus):
    """The list monad: instant and powerful nondeterminism (paper 1).

    A monadic value is a ``list``; ``bind`` maps and concatenates, so a
    single abstract transition branching to every possible abstract
    closure is just a bind over the list of candidates.
    """

    def unit(self, value: Any) -> list:
        return [value]

    def bind(self, mv: list, f: Callable[[Any], list]) -> list:
        out: list = []
        for value in mv:
            out.extend(f(value))
        return out

    def mzero(self) -> list:
        return []

    def mplus(self, mv1: list, mv2: list) -> list:
        return list(mv1) + list(mv2)

    def msum(self, mvs: Iterable[list]) -> list:
        return [value for mv in mvs for value in mv]

    def run(self, mv: list) -> list:
        return mv


@dataclass(frozen=True)
class Just:
    """A present value in :class:`MaybeMonad`."""

    value: Any


NOTHING = None
"""The absent value in :class:`MaybeMonad` (plain ``None``)."""


class MaybeMonad(MonadPlus):
    """The Maybe monad: at most one result; ``None`` is failure."""

    def unit(self, value: Any) -> Just:
        return Just(value)

    def bind(self, mv: Just | None, f: Callable[[Any], Any]) -> Any:
        if mv is NOTHING:
            return NOTHING
        return f(mv.value)

    def mzero(self) -> None:
        return NOTHING

    def mplus(self, mv1: Any, mv2: Any) -> Any:
        return mv2 if mv1 is NOTHING else mv1

    def run(self, mv: Any) -> Any:
        return mv


class Reader(Monad):
    """The reader monad: computations with a read-only environment."""

    def unit(self, value: Any) -> Callable[[Any], Any]:
        return lambda _env: value

    def bind(self, mv: Callable, f: Callable[[Any], Callable]) -> Callable:
        return lambda env: f(mv(env))(env)

    def ask(self) -> Callable[[Any], Any]:
        """Yield the environment itself."""
        return lambda env: env

    def asks(self, f: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """Project from the environment."""
        return lambda env: f(env)

    def local(self, modify_env: Callable[[Any], Any], mv: Callable) -> Callable:
        """Run ``mv`` under a locally modified environment."""
        return lambda env: mv(modify_env(env))

    def run(self, mv: Callable, env: Any) -> Any:
        return mv(env)


@dataclass(frozen=True)
class Monoid:
    """A monoid ``(mempty, mappend)`` for :class:`Writer` logs."""

    mempty: Any
    mappend: Callable[[Any, Any], Any]


LIST_MONOID = Monoid(mempty=(), mappend=lambda x, y: tuple(x) + tuple(y))


class Writer(Monad):
    """The writer monad over a :class:`Monoid`: computations with a log."""

    def __init__(self, monoid: Monoid = LIST_MONOID):
        self.monoid = monoid

    def unit(self, value: Any) -> tuple:
        return (value, self.monoid.mempty)

    def bind(self, mv: tuple, f: Callable[[Any], tuple]) -> tuple:
        value, log1 = mv
        result, log2 = f(value)
        return (result, self.monoid.mappend(log1, log2))

    def tell(self, entry: Any) -> tuple:
        """Append to the log."""
        return (None, entry)

    def run(self, mv: tuple) -> tuple:
        return mv


class State(MonadState):
    """The state monad: a monadic value is a function ``s -> (a, s)``."""

    def unit(self, value: Any) -> Callable:
        return lambda s: (value, s)

    def bind(self, mv: Callable, f: Callable[[Any], Callable]) -> Callable:
        def run(s: Any) -> tuple:
            value, s1 = mv(s)
            return f(value)(s1)

        return run

    def get_state(self) -> Callable:
        return lambda s: (s, s)

    def put_state(self, state: Any) -> Callable:
        return lambda _s: (None, state)

    def run(self, mv: Callable, state: Any) -> tuple:
        """Run to a ``(result, final_state)`` pair."""
        return mv(state)

    def eval(self, mv: Callable, state: Any) -> Any:
        return mv(state)[0]

    def exec(self, mv: Callable, state: Any) -> Any:
        return mv(state)[1]


# ---------------------------------------------------------------------------
# The state-transformer: StateT s m
# ---------------------------------------------------------------------------


class StateT(MonadState, MonadPlus):
    """The state transformer ``StateT s m``: values are ``s -> m (a, s)``.

    MonadPlus operations are available exactly when the inner monad has
    them (they distribute over the state), mirroring the "nice surprise"
    of the paper's 5.3.2 that ``StorePassing`` is both ``MonadPlus`` and
    ``MonadState``.  :meth:`lift` embeds an inner computation, used to
    reach past the outer state to inner layers of the stack.
    """

    def __init__(self, inner: Monad):
        self.inner = inner

    def unit(self, value: Any) -> Callable:
        return lambda s: self.inner.unit((value, s))

    def bind(self, mv: Callable, f: Callable[[Any], Callable]) -> Callable:
        def run(s: Any) -> Any:
            return self.inner.bind(mv(s), lambda pair: f(pair[0])(pair[1]))

        return run

    def lift(self, inner_mv: Any) -> Callable:
        """Embed an inner-monad computation, threading the state unchanged."""
        return lambda s: self.inner.bind(inner_mv, lambda a: self.inner.unit((a, s)))

    # -- MonadState --------------------------------------------------------

    def get_state(self) -> Callable:
        return lambda s: self.inner.unit((s, s))

    def put_state(self, state: Any) -> Callable:
        return lambda _s: self.inner.unit((None, state))

    # -- MonadPlus (when the inner monad has it) -----------------------------

    def mzero(self) -> Callable:
        return self.msum(())

    def mplus(self, mv1: Callable, mv2: Callable) -> Callable:
        return self.msum((mv1, mv2))

    def msum(self, mvs: Iterable[Callable]) -> Callable:
        # one flat inner sum, not a nest of mplus closures: a step that
        # branches on every value at an address costs no Python stack
        inner, alternatives = self._inner_plus(), tuple(mvs)
        return lambda s: inner.msum([mv(s) for mv in alternatives])

    def _inner_plus(self) -> MonadPlus:
        if not isinstance(self.inner, MonadPlus):
            raise TypeError(
                f"StateT over {type(self.inner).__name__} is not a MonadPlus"
            )
        return self.inner

    def run(self, mv: Callable, state: Any) -> Any:
        """``runStateT``: run to an inner-monadic ``(result, state)``."""
        return mv(state)


class ReaderT(Monad):
    """The reader transformer ``ReaderT r m``: values are ``r -> m a``.

    Useful for threading a fixed analysis configuration (e.g. a class
    table) under the rest of the stack without plumbing parameters.
    """

    def __init__(self, inner: Monad):
        self.inner = inner

    def unit(self, value: Any) -> Callable:
        return lambda _env: self.inner.unit(value)

    def bind(self, mv: Callable, f: Callable[[Any], Callable]) -> Callable:
        return lambda env: self.inner.bind(mv(env), lambda a: f(a)(env))

    def lift(self, inner_mv: Any) -> Callable:
        return lambda _env: inner_mv

    def ask(self) -> Callable:
        return lambda env: self.inner.unit(env)

    def asks(self, f: Callable[[Any], Any]) -> Callable:
        return lambda env: self.inner.unit(f(env))

    def local(self, modify_env: Callable[[Any], Any], mv: Callable) -> Callable:
        return lambda env: mv(modify_env(env))

    def run(self, mv: Callable, env: Any) -> Any:
        return mv(env)


class WriterT(Monad):
    """The writer transformer ``WriterT w m``: values are ``m (a, log)``."""

    def __init__(self, inner: Monad, monoid: Monoid = LIST_MONOID):
        self.inner = inner
        self.monoid = monoid

    def unit(self, value: Any) -> Any:
        return self.inner.unit((value, self.monoid.mempty))

    def bind(self, mv: Any, f: Callable[[Any], Any]) -> Any:
        def combine(pair: tuple) -> Any:
            value, log1 = pair
            return self.inner.bind(
                f(value),
                lambda pair2: self.inner.unit(
                    (pair2[0], self.monoid.mappend(log1, pair2[1]))
                ),
            )

        return self.inner.bind(mv, combine)

    def lift(self, inner_mv: Any) -> Any:
        return self.inner.bind(
            inner_mv, lambda a: self.inner.unit((a, self.monoid.mempty))
        )

    def tell(self, entry: Any) -> Any:
        return self.inner.unit((None, entry))

    def run(self, mv: Any) -> Any:
        return mv


class MaybeT(MonadPlus):
    """The maybe transformer ``MaybeT m``: values are ``m (Just a | None)``.

    Gives any monad a notion of recoverable failure -- e.g. pruning
    stuck branches inside a deterministic state monad.
    """

    def __init__(self, inner: Monad):
        self.inner = inner

    def unit(self, value: Any) -> Any:
        return self.inner.unit(Just(value))

    def bind(self, mv: Any, f: Callable[[Any], Any]) -> Any:
        return self.inner.bind(
            mv, lambda maybe: f(maybe.value) if maybe is not NOTHING else self.inner.unit(NOTHING)
        )

    def lift(self, inner_mv: Any) -> Any:
        return self.inner.bind(inner_mv, lambda a: self.inner.unit(Just(a)))

    def mzero(self) -> Any:
        return self.inner.unit(NOTHING)

    def mplus(self, mv1: Any, mv2: Any) -> Any:
        return self.inner.bind(
            mv1, lambda maybe: self.inner.unit(maybe) if maybe is not NOTHING else mv2
        )

    def run(self, mv: Any) -> Any:
        return mv


# ---------------------------------------------------------------------------
# Generic combinators (Control.Monad equivalents)
# ---------------------------------------------------------------------------


def fmap(monad: Monad, f: Callable[[Any], Any], mv: Any) -> Any:
    """``fmap`` / ``liftM``: apply a pure function inside the monad."""
    return monad.bind(mv, lambda a: monad.unit(f(a)))


def ap(monad: Monad, mf: Any, mv: Any) -> Any:
    """``<*>``: apply a monadic function to a monadic value."""
    return monad.bind(mf, lambda f: fmap(monad, f, mv))


def map_m(monad: Monad, f: Callable[[Any], Any], xs: Iterable[Any]) -> Any:
    """``mapM``: run ``f`` left-to-right over ``xs``, collecting a list.

    This is the combinator that the paper's ``mnext`` uses to allocate a
    list of addresses and evaluate a list of arguments monadically.
    """
    items = list(xs)

    def go(index: int, acc: tuple) -> Any:
        if index == len(items):
            return monad.unit(list(acc))
        return monad.bind(f(items[index]), lambda y: go(index + 1, acc + (y,)))

    return go(0, ())


def sequence_m(monad: Monad, mvs: Sequence[Any]) -> Any:
    """``sequence``: run computations left-to-right, collecting results."""
    return map_m(monad, lambda mv: mv, mvs)


def sequence_(monad: Monad, mvs: Sequence[Any]) -> Any:
    """``sequence_``: run computations left-to-right, discarding results."""
    return fmap(monad, lambda _results: None, sequence_m(monad, mvs))


def msum(monad: MonadPlus, mvs: Iterable[Any]) -> Any:
    """``msum``: choice among a collection of alternatives."""
    return monad.msum(mvs)


def guard(monad: MonadPlus, condition: bool) -> Any:
    """``guard``: succeed with ``None`` or fail the whole branch."""
    return monad.unit(None) if condition else monad.mzero()


def when(monad: Monad, condition: bool, mv: Any) -> Any:
    """``when``: run ``mv`` only if ``condition`` holds."""
    return mv if condition else monad.unit(None)


def filter_m(monad: Monad, predicate: Callable[[Any], Any], xs: Iterable[Any]) -> Any:
    """``filterM``: filter with a monadic predicate (powerset trick included)."""
    items = list(xs)

    def go(index: int, acc: tuple) -> Any:
        if index == len(items):
            return monad.unit(list(acc))
        item = items[index]
        return monad.bind(
            predicate(item),
            lambda keep: go(index + 1, acc + (item,) if keep else acc),
        )

    return go(0, ())


def fold_m(monad: Monad, f: Callable[[Any, Any], Any], initial: Any, xs: Iterable[Any]) -> Any:
    """``foldM``: a monadic left fold."""
    items = list(xs)

    def go(index: int, acc: Any) -> Any:
        if index == len(items):
            return monad.unit(acc)
        return monad.bind(f(acc, items[index]), lambda acc2: go(index + 1, acc2))

    return go(0, initial)


def replicate_m(monad: Monad, n: int, mv: Any) -> Any:
    """``replicateM``: run ``mv`` n times, collecting the results."""
    return sequence_m(monad, [mv] * n)


def kleisli(monad: Monad, f: Callable[[Any], Any], g: Callable[[Any], Any]) -> Callable:
    """Kleisli composition ``f >=> g``."""
    return lambda a: monad.bind(f(a), g)


def gets_nd_set(monad: Monad, f: Callable[[Any], Iterable[Any]]) -> Any:
    """The paper's ``getsNDSet`` (5.3.2): examine the state, branch on a set.

    Requires ``monad`` to be both ``MonadState`` (to read the state) and
    ``MonadPlus`` (to offer each member of ``f state`` as an alternative).
    This single combinator is how store lookups return *all* abstract
    values bound at an address, each continuing the analysis separately.
    """
    if not isinstance(monad, MonadState):
        raise TypeError("gets_nd_set needs a MonadState")
    if not isinstance(monad, MonadPlus):
        raise TypeError("gets_nd_set needs a MonadPlus")
    return monad.bind(
        monad.get_state(),
        lambda s: msum(monad, [monad.unit(x) for x in f(s)]),
    )


# ---------------------------------------------------------------------------
# do-notation via generator replay
# ---------------------------------------------------------------------------


def run_do(monad: Monad, gen_fn: Callable[..., Generator], *args: Any, **kwargs: Any) -> Any:
    """Interpret a generator function as a do-block in ``monad``.

    Each ``yield mv`` binds a monadic value; the generator's ``return``
    value is passed to ``unit``.  Under nondeterminism a generator cannot
    be forked, so every branch *replays* the generator from the start,
    feeding back the prefix of already-chosen values.  The generator must
    therefore be deterministic in its inputs (no hidden effects), which
    all semantics in this package are.

    >>> listm = ListMonad()
    >>> def pairs():
    ...     x = yield [1, 2]
    ...     y = yield [10, 20]
    ...     return x + y
    >>> run_do(listm, pairs)
    [11, 21, 12, 22]
    """

    def step(chosen: tuple) -> Any:
        gen = gen_fn(*args, **kwargs)
        try:
            mv = gen.send(None)
            for value in chosen:
                mv = gen.send(value)
        except StopIteration as stop:
            return monad.unit(stop.value)
        return monad.bind(mv, lambda x: step(chosen + (x,)))

    return step(())


# ---------------------------------------------------------------------------
# The analysis monad: StorePassing s g = StateT g (StateT s [])   (paper 5.3.1)
# ---------------------------------------------------------------------------


class StorePassing(StateT):
    """The paper's two-level analysis monad ``StateT g (StateT s [])``.

    Desugared, a monadic value has type ``g -> s -> [((a, g), s)]``: given
    "guts" (e.g. a time-stamp/context) and a store, it produces a *set* of
    results, each paired with its own guts and store.  The outer level
    carries the guts, the inner level the store, and the list at the
    bottom supplies nondeterminism.

    Named accessors hide the ``lift`` plumbing of the monad stack
    (Liang-Hudak-Jones style): guts operations live on the outer level,
    store operations are lifted to the inner level, and
    :meth:`gets_nd_store` is the paper's ``lift $ getsNDSet ...``.
    """

    def __init__(self) -> None:
        self.store_level = StateT(ListMonad())
        super().__init__(self.store_level)

    # -- guts (outer state): time, context, ... ------------------------------

    def get_guts(self) -> Callable:
        return self.get_state()

    def put_guts(self, guts: Any) -> Callable:
        return self.put_state(guts)

    def gets_guts(self, f: Callable[[Any], Any]) -> Callable:
        return self.gets(f)

    def modify_guts(self, f: Callable[[Any], Any]) -> Callable:
        return self.modify(f)

    # -- store (inner state) --------------------------------------------------

    def get_store(self) -> Callable:
        return self.lift(self.store_level.get_state())

    def put_store(self, store: Any) -> Callable:
        return self.lift(self.store_level.put_state(store))

    def gets_store(self, f: Callable[[Any], Any]) -> Callable:
        return self.lift(self.store_level.gets(f))

    def modify_store(self, f: Callable[[Any], Any]) -> Callable:
        return self.lift(self.store_level.modify(f))

    def gets_nd_store(self, f: Callable[[Any], Iterable[Any]]) -> Callable:
        """``lift $ getsNDSet f``: branch on a set computed from the store."""
        return self.lift(gets_nd_set(self.store_level, f))

    # -- running ---------------------------------------------------------------

    def run(self, mv: Callable, guts: Any, store: Any) -> list:  # type: ignore[override]
        """``runStateT (runStateT mv guts) store``: a list of ``((a, g), s)``."""
        return mv(guts)(store)
