"""Persistent (immutable, hashable) collections.

The abstract machines in this package manipulate environments
(``Var -> Addr``) and stores (``Addr -> P(Val)``) as *values*: two states
are the same state exactly when their components are structurally equal,
and states are collected into powerset lattices (``frozenset``), so every
component must be hashable.

:class:`PMap` is a thin persistent-map layer over ``dict`` with a cached
hash.  Updates copy the underlying dict; for the store sizes produced by
static analysis of realistic programs this is entirely adequate and keeps
the implementation obvious (per the house style: explicit beats clever).

``pset`` is an alias for ``frozenset`` kept for symmetry with the paper's
``P`` (powerset) notation.
"""

from __future__ import annotations

# instance checks use ``abc.Mapping``: ``typing.Mapping`` routes each
# ``isinstance`` through its own ``__instancecheck__``, twice the cost on
# the environment update of every analysis step
from collections import abc
from typing import Any, Callable, Iterable, Iterator, Mapping, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

pset = frozenset

#: Sentinel distinguishing "key absent" from "key bound to None".
_ABSENT = object()


class PMap(Mapping[K, V]):
    """An immutable, hashable mapping with persistent-update operations.

    All "mutators" (:meth:`set`, :meth:`remove`, :meth:`update`, ...)
    return a new :class:`PMap`; the receiver is never changed.  Hashing
    and equality are structural (order-independent), so two maps built by
    different update sequences compare equal when they hold the same
    entries.

    >>> m = pmap({"x": 1}).set("y", 2)
    >>> m["y"], len(m), "x" in m
    (2, 2, True)
    >>> m.remove("x") == pmap({"y": 2})
    True
    """

    __slots__ = ("_d", "_hash")

    def __init__(self, entries: Mapping[K, V] | Iterable[Tuple[K, V]] = ()):
        # copying another PMap's backing dict reuses its stored key
        # hashes; dict(a_pmap) would take the Mapping protocol instead,
        # one Python __getitem__ call and one rehash per key
        self._d: dict[K, V] = (
            entries._d.copy() if type(entries) is PMap else dict(entries)
        )
        self._hash: int | None = None

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, key: K) -> V:
        return self._d[key]

    def __iter__(self) -> Iterator[K]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, key: object) -> bool:
        return key in self._d

    # -- value semantics ---------------------------------------------------

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PMap):
            return self._d == other._d
        if isinstance(other, abc.Mapping):
            return self._d == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        items = ", ".join(f"{k!r}: {v!r}" for k, v in sorted_items(self._d))
        return "pmap({" + items + "})"

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the entries only, never the cached hash.

        Python randomizes string hashes per process, so a memoized hash
        travelling inside a pickle would be silently stale in the
        unpickling process -- equal maps would land in different dict
        buckets.  Dropping it here makes ``__hash__`` recompute on first
        use, which the cross-process round-trip tests pin down.
        """
        return self._d

    def __setstate__(self, state: dict) -> None:
        self._d = state
        self._hash = None

    # -- persistent updates -------------------------------------------------

    def set(self, key: K, value: V) -> "PMap[K, V]":
        """Return a copy with ``key`` bound to ``value``.

        When ``key`` is already bound to an equal value the receiver is
        returned unchanged -- no copy, and callers keep the object-identity
        did-anything-change test the fixed-point engines rely on.
        """
        existing = self._d.get(key, _ABSENT)
        if existing is value or existing == value:
            return self
        d = dict(self._d)
        d[key] = value
        return PMap(d)

    def remove(self, key: K) -> "PMap[K, V]":
        """Return a copy without ``key``.  Missing keys are tolerated.

        Removing an absent key returns the receiver unchanged (no copy),
        matching the :meth:`set` fast path.
        """
        if key not in self._d:
            return self
        d = dict(self._d)
        del d[key]
        return PMap(d)

    def update(self, entries: Mapping[K, V] | Iterable[Tuple[K, V]]) -> "PMap[K, V]":
        """Return a copy with every pair in ``entries`` bound (the paper's ``//``).

        When every entry is already bound to an equal value the receiver
        is returned unchanged -- no copy, no hash invalidation -- so
        callers keep the object-identity did-anything-change test (the
        same fast path :meth:`set` has).  The copy is deferred until the
        first entry that actually changes something.
        """
        pairs = entries.items() if isinstance(entries, abc.Mapping) else entries
        d: dict[K, V] | None = None
        for key, value in pairs:
            existing = (self._d if d is None else d).get(key, _ABSENT)
            if existing is value or existing == value:
                continue
            if d is None:
                d = dict(self._d)
            d[key] = value
        if d is None:
            return self
        return PMap(d)

    def update_with(
        self, combine: Callable[[V, V], V], entries: Mapping[K, V] | Iterable[Tuple[K, V]]
    ) -> "PMap[K, V]":
        """Return a copy where colliding keys are resolved by ``combine(old, new)``.

        This is the workhorse behind store join: ``store.update_with(join, ...)``.
        """
        d = dict(self._d)
        pairs = entries.items() if isinstance(entries, abc.Mapping) else entries
        for key, value in pairs:
            if key in d:
                d[key] = combine(d[key], value)
            else:
                d[key] = value
        return PMap(d)

    def restrict(self, keep: Callable[[K], bool]) -> "PMap[K, V]":
        """Return the map restricted to keys satisfying ``keep`` (the paper's ``f|X``)."""
        return PMap({k: v for k, v in self._d.items() if keep(k)})

    def map_values(self, f: Callable[[V], Any]) -> "PMap[K, Any]":
        """Return a copy with ``f`` applied to every value."""
        return PMap({k: f(v) for k, v in self._d.items()})

    # -- conveniences -------------------------------------------------------

    def get(self, key: K, default: V | None = None) -> V | None:  # type: ignore[override]
        return self._d.get(key, default)

    def items_sorted(self) -> list[Tuple[K, V]]:
        """Items in a deterministic order (useful for reporting)."""
        return sorted_items(self._d)

    def to_dict(self) -> dict[K, V]:
        """A plain mutable copy of the entries."""
        return dict(self._d)


def pmap(entries: Mapping[K, V] | Iterable[Tuple[K, V]] = ()) -> PMap[K, V]:
    """Build a :class:`PMap`; the conventional constructor used in this code base."""
    return PMap(entries)


EMPTY_PMAP: PMap[Any, Any] = PMap()


def sorted_items(d: Mapping[K, V]) -> list[Tuple[K, V]]:
    """Items sorted by repr of the key: deterministic even for mixed key types."""
    return sorted(d.items(), key=lambda kv: repr(kv[0]))
