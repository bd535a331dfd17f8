"""``StoreLike`` and counting stores: the store as a swappable component (6.2-6.3).

The paper's class::

    class (Eq a, Lattice s, Lattice d) => StoreLike a s d | s -> a, s -> d where
      sigma0      :: s
      bind        :: s -> a -> d -> s
      replace     :: s -> a -> d -> s
      fetch       :: s -> a -> d
      filterStore :: s -> (a -> Bool) -> s

binds together addresses ``a``, a store representation ``s`` and the
store co-domain ``d``.  Here a :class:`StoreLike` object carries its
value-set lattice and exposes the store-set lattice (needed by the
store-sharing Galois connection of 6.5).

Four instances:

* :class:`BasicStore` -- ``a :-> P(Val)``, the plain join-on-bind store;
* :class:`VersionedStore` -- the same co-domain over an engine-owned
  *mutable* :class:`MutableStore` with per-address change versions, the
  O(delta) backing of the depgraph engine (see PERFORMANCE.md);
* :class:`CountingStore` -- ``a :-> (P(Val), AbsNat)``: every binding also
  tracks how many times its address has been allocated, in the abstract
  naturals ``{0,1,inf}`` (6.3).  The :class:`ACounter` mix-in exposes the
  counts; a count of 1 licenses *strong updates* via :meth:`StoreLike.update`;
* :class:`VersionedCountingStore` -- the counting co-domain over a
  :class:`MutableStore`, so abstract counting runs on the depgraph
  engine's O(delta) store merge too (the engine saturates step-written counts
  on convergence, reproducing the Kleene counting fixed point -- see
  :func:`repro.core.fixpoint.global_store_explore`).

Because the store is parameterized over addresses and value sets, these
instances are reused untouched by all three language definitions.

:class:`RecordingStore` is a transparent decorator over any other
instance: it can log which addresses a bracketed computation fetched and
bound.  The dependency-tracked fixed-point engine
(:func:`repro.core.fixpoint.global_store_explore`) brackets each
configuration's evaluation with :meth:`RecordingStore.begin_log` /
:meth:`RecordingStore.end_log` to learn the configuration's store
footprint without touching the semantics.  The *bracketing protocol*:
``begin_log`` opens exactly one log, every ``fetch`` inside the bracket
is recorded as a read (including fetches of addresses first bound after
the log opened -- the abstract-GC sweep depends on this), every
``bind``/``replace``/``update`` as a write, and ``end_log`` must close
the bracket even when the bracketed step raises; brackets never nest.

:class:`GCOverlay` is the write overlay the versioned engine threads
through an evaluation when abstract GC is on: reads fall through to the
shared global :class:`MutableStore`, writes stay private until the
engine has swept reachability over the evaluation's successors and
merges only the live ones (via ``merge_entry``) into the global store.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import ChainMap
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from repro.core.lattice import (
    AbsNat,
    AbsNatLattice,
    Lattice,
    MapLattice,
    PairLattice,
    PowersetLattice,
)
from repro.util.pcollections import PMap, pmap


#: Sentinel distinguishing "address unbound" from "address bound to None".
_UNBOUND = object()


class StoreLike(ABC):
    """The store abstraction: create, bind, replace, fetch, filter.

    ``d`` (the co-domain) is always a value-*set* here, i.e. an element
    of ``self.value_lattice`` (a powerset lattice), matching the paper's
    use ``StoreLike a s (P (Val a))``.
    """

    def __init__(self, value_lattice: Lattice | None = None):
        self.value_lattice: Lattice = value_lattice or PowersetLattice()

    @abstractmethod
    def empty(self) -> Any:
        """``sigma0``: the empty store."""

    @abstractmethod
    def bind(self, store: Any, addr: Hashable, d: Any) -> Any:
        """Weak update: join ``d`` into the values at ``addr``."""

    @abstractmethod
    def replace(self, store: Any, addr: Hashable, d: Any) -> Any:
        """Strong update: overwrite the values at ``addr`` with ``d``."""

    @abstractmethod
    def fetch(self, store: Any, addr: Hashable) -> Any:
        """Look up the value set at ``addr`` (bottom when unbound)."""

    @abstractmethod
    def filter_store(self, store: Any, keep: Callable[[Hashable], bool]) -> Any:
        """Restrict the store's domain to addresses satisfying ``keep``."""

    @abstractmethod
    def addresses(self, store: Any) -> Iterable[Hashable]:
        """The store's domain (for reachability sweeps and reports)."""

    @abstractmethod
    def lattice(self) -> Lattice:
        """The lattice of stores themselves (for widening and joins)."""

    # -- derived -----------------------------------------------------------

    def bind_one(self, store: Any, addr: Hashable, value: Any) -> Any:
        """Bind a single value, wrapped as a singleton (the common case)."""
        return self.bind(store, addr, frozenset([value]))

    def update(self, store: Any, addr: Hashable, d: Any) -> Any:
        """Cardinality-aware update: strong when provably safe, else weak.

        The default store has no cardinality information, so this is a
        weak update; :class:`CountingStore` overrides it to replace when
        the abstract count at ``addr`` is exactly one.
        """
        return self.bind(store, addr, d)


class BasicStore(StoreLike):
    """``Store a = a :-> P(Val)`` with join-on-bind (the paper's default)."""

    def __init__(self, value_lattice: Lattice | None = None):
        super().__init__(value_lattice)
        self._lattice = MapLattice(self.value_lattice)

    def empty(self) -> PMap:
        return pmap()

    def bind(self, store: PMap, addr: Hashable, d: Any) -> PMap:
        old = store.get(addr, _UNBOUND)
        if old is _UNBOUND:
            return store.set(addr, d)
        return store.set(addr, self.value_lattice.join(old, d))

    def replace(self, store: PMap, addr: Hashable, d: Any) -> PMap:
        return store.set(addr, d)

    def fetch(self, store: PMap, addr: Hashable) -> Any:
        value = store.get(addr, _UNBOUND)
        if value is _UNBOUND:
            return self.value_lattice.bottom()
        return value

    def filter_store(self, store: PMap, keep: Callable[[Hashable], bool]) -> PMap:
        return store.restrict(keep)

    def addresses(self, store: PMap) -> Iterable[Hashable]:
        return store.keys()

    def lattice(self) -> Lattice:
        return self._lattice


class ACounter(ABC):
    """The paper's ``ACounter``: stores that can report abstract counts (6.3)."""

    @abstractmethod
    def count(self, store: Any, addr: Hashable) -> AbsNat:
        """How many concrete allocations ``addr`` may stand for."""


class CountingStore(StoreLike, ACounter):
    """``CountingStore a d = a :-> (d, AbsNat)``: store + abstract counter (6.3).

    ``bind`` joins the value set *and* bumps the count with the abstract
    addition ``(+) 1``, so a count of :data:`AbsNat.ONE` proves the
    address was allocated along every path at most once -- the
    cardinality bound behind must-alias and environment analysis.  The
    counting store plugs into any analysis in place of a
    :class:`BasicStore` with **no change to the semantics**, which is the
    point of 6.3 (checked by experiment E5).
    """

    def __init__(self, value_lattice: Lattice | None = None):
        super().__init__(value_lattice)
        self.count_lattice = AbsNatLattice()
        self._entry_lattice = PairLattice(self.value_lattice, self.count_lattice)
        self._lattice = MapLattice(self._entry_lattice)

    def empty(self) -> PMap:
        return pmap()

    def bind(self, store: PMap, addr: Hashable, d: Any) -> PMap:
        if addr in store:
            old_d, old_n = store[addr]
            return store.set(
                addr, (self.value_lattice.join(old_d, d), old_n.plus(AbsNat.ONE))
            )
        return store.set(addr, (d, AbsNat.ONE))

    def replace(self, store: PMap, addr: Hashable, d: Any) -> PMap:
        # A strong update rewrites the value but does not allocate, so the
        # count is preserved (it still bounds how many concrete addresses
        # this abstract address denotes).
        if addr in store:
            _old_d, old_n = store[addr]
            return store.set(addr, (d, old_n))
        return store.set(addr, (d, AbsNat.ONE))

    def fetch(self, store: PMap, addr: Hashable) -> Any:
        if addr in store:
            return store[addr][0]
        return self.value_lattice.bottom()

    def count(self, store: PMap, addr: Hashable) -> AbsNat:
        if addr in store:
            return store[addr][1]
        return AbsNat.ZERO

    def filter_store(self, store: PMap, keep: Callable[[Hashable], bool]) -> PMap:
        return store.restrict(keep)

    def addresses(self, store: PMap) -> Iterable[Hashable]:
        return store.keys()

    def lattice(self) -> Lattice:
        return self._lattice

    def update(self, store: PMap, addr: Hashable, d: Any) -> PMap:
        """Strong update when the count permits, weak otherwise."""
        if self.count(store, addr) is AbsNat.ONE:
            return self.replace(store, addr, d)
        return self.bind(store, addr, d)

    def singleton_addresses(self, store: PMap) -> frozenset:
        """Addresses whose abstract count is exactly one (must-alias facts)."""
        return frozenset(a for a in store if store[a][1] is AbsNat.ONE)

    def saturate(self, store: PMap, addrs: Iterable[Hashable]) -> PMap:
        """Bump the counts at ``addrs`` by one abstract allocation each.

        The depgraph engine calls this once, after convergence, on the
        set of addresses any evaluation bound: at the Kleene fixed point
        every such address has been re-bound at least once more (the
        confirming round re-steps every configuration), so its count has
        saturated at MANY.  Re-adding one abstract allocation per
        step-written address reproduces exactly that fixed point without
        paying for the re-evaluations.  Addresses absent from the store
        (e.g. writes abstract GC swept away) are left absent.
        """
        for addr in addrs:
            if addr in store:
                d, n = store[addr]
                store = store.set(addr, (d, n.plus(AbsNat.ONE)))
        return store


class RecordingStore(StoreLike):
    """A delegating store that can log the addresses a computation touches.

    Store *elements* are untouched -- the wrapper delegates every
    operation to ``inner`` -- so a store built through a recording
    wrapper is interchangeable with one built directly.  Between
    :meth:`begin_log` and :meth:`end_log`, every ``fetch`` records its
    address as a read and every ``bind``/``replace``/``update`` records
    its address as a write; the dependency-tracked engine uses the two
    sets to decide which configurations a store change can affect.

    The bracket also counts *observations* (each ``fetch`` and each
    ``update``, which consults a count) and keeps the first fetch's
    ``(addr, values)``: :meth:`sole_fetch` hands it back when it was the
    bracket's only observation.  A bracket opened with ``prior=(addr,
    old_values)`` answers its first fetch of ``addr`` with only the
    values not in ``old_values``, as a sequence in the full set's
    iteration order -- the semi-naive re-evaluation of
    :func:`repro.core.fixpoint.global_store_explore`.
    """

    def __init__(self, inner: StoreLike):
        super().__init__(inner.value_lattice)
        self.inner = inner
        # the inner operations as bound methods, made once: every step
        # goes through these, and ``self.inner.fetch`` would build a
        # bound method per call
        self._fetch = inner.fetch
        self._bind = inner.bind
        self._replace = inner.replace
        self._update = inner.update
        self.logging = False
        self.log_writes = False
        self.reads: set = set()
        self.writes: set = set()
        self.observations = 0
        self.first_fetch: tuple | None = None
        self._prior: tuple | None = None

    def begin_log(self, writes: bool = True, prior: tuple | None = None) -> None:
        """Start a fresh read/write log for one bracketed evaluation.

        ``writes=False`` skips the write log (for a caller that never
        reads it); ``prior`` primes the delta fetch described on the
        class.  Both hold for this bracket only.  The log reuses the two
        sets the previous :meth:`end_log` handed out, emptied.  Brackets
        do not nest: a reentrant ``begin_log`` would silently discard
        the outer bracket's log, so it is an error.
        """
        if self.logging:
            raise RuntimeError(
                "RecordingStore.begin_log while a log is already open; "
                "end_log the outer bracket first (brackets do not nest)"
            )
        self.logging = True
        self.log_writes = writes
        self.reads.clear()
        self.writes.clear()
        self.observations = 0
        self.first_fetch = None
        self._prior = prior

    def end_log(self) -> tuple[set, set]:
        """Stop logging and return the ``(reads, writes)`` address sets.

        The sets are the log's own, not copies: they belong to the
        caller until the next :meth:`begin_log`, which empties them for
        its bracket.  A caller that keeps them longer (the engine's
        evaluation capture) freezes them first.
        """
        self.logging = False
        self.log_writes = False
        self._prior = None
        return self.reads, self.writes

    def sole_fetch(self) -> tuple | None:
        """The last bracket's ``(addr, values)`` if one fetch was all it observed."""
        return self.first_fetch if self.observations == 1 else None

    def empty(self) -> Any:
        return self.inner.empty()

    def bind(self, store: Any, addr: Hashable, d: Any) -> Any:
        if self.log_writes:
            self.writes.add(addr)
        return self._bind(store, addr, d)

    def replace(self, store: Any, addr: Hashable, d: Any) -> Any:
        if self.log_writes:
            self.writes.add(addr)
        return self._replace(store, addr, d)

    def update(self, store: Any, addr: Hashable, d: Any) -> Any:
        if self.logging:
            # a cardinality-aware update consults the count at ``addr``
            # before writing, so it is both a read and a write
            self.reads.add(addr)
            self.observations += 1
            if self.log_writes:
                self.writes.add(addr)
        return self._update(store, addr, d)

    def fetch(self, store: Any, addr: Hashable) -> Any:
        values = self._fetch(store, addr)
        if self.logging:
            self.reads.add(addr)
            self.observations += 1
            if self.observations == 1:
                self.first_fetch = (addr, values)
                prior = self._prior
                if prior is not None and prior[0] == addr:
                    # the delta, in the full set's order: a bare set
                    # difference would reorder the branches
                    old = prior[1]
                    return [v for v in values if v not in old]
        return values

    def filter_store(self, store: Any, keep: Callable[[Hashable], bool]) -> Any:
        return self.inner.filter_store(store, keep)

    def addresses(self, store: Any) -> Iterable[Hashable]:
        return self.inner.addresses(store)

    def lattice(self) -> Lattice:
        return self.inner.lattice()


class MutableStore:
    """The store element a :class:`VersionedStore` operates on.

    A plain mutable mapping ``addr -> value-set`` plus the versioning
    instrumentation the delta-driven engine consumes:

    * ``versions[addr]`` -- a per-address counter, bumped exactly when a
      bind/replace *changes* the value set at ``addr`` (a bind that adds
      nothing bumps nothing);
    * ``changelog`` -- the addresses of those changes in order, so "what
      changed since mark ``m``" is the slice ``changelog[m:]`` and "did
      anything change" is an integer comparison of lengths.

    Identity semantics: two mutable stores are equal only when they are
    the same object.  For value semantics, freeze to a
    :class:`~repro.util.pcollections.PMap` via :meth:`VersionedStore.freeze`.

    The read-side mapping protocol (``get``/``in``/``keys``/``len``)
    matches :class:`~repro.util.pcollections.PMap`, so
    :class:`VersionedStore`'s read operations accept either a live
    mutable store or a frozen snapshot.
    """

    __slots__ = ("data", "versions", "changelog")

    def __init__(self, entries: Any = ()):  # Mapping | iterable of pairs
        self.data: dict = dict(entries)
        self.versions: dict = {addr: 1 for addr in self.data}
        self.changelog: list = list(self.data)

    # -- read-side mapping protocol (shared with PMap) ----------------------

    def get(self, addr: Hashable, default: Any = None) -> Any:
        return self.data.get(addr, default)

    def __contains__(self, addr: object) -> bool:
        return addr in self.data

    def __len__(self) -> int:
        return len(self.data)

    def keys(self):
        return self.data.keys()

    def copy(self) -> "MutableStore":
        dup = MutableStore()
        dup.data = dict(self.data)
        dup.versions = dict(self.versions)
        dup.changelog = list(self.changelog)
        return dup

    def version(self, addr: Hashable) -> int:
        """The monotone per-address change counter (0 when unbound)."""
        return self.versions.get(addr, 0)

    def mark(self) -> int:
        """The current change count; pair with :meth:`changed_since`."""
        return len(self.changelog)

    def changed_since(self, mark: int) -> list:
        """Addresses whose value set changed after ``mark``, in order."""
        return self.changelog[mark:]

    # -- snapshot / restore (the warm-start boundary) ------------------------

    def snapshot(self) -> "StoreSnapshot":
        """An immutable image of the store *and* its per-address versions.

        Unlike :meth:`VersionedStore.freeze` (data only), a snapshot keeps
        the version counters, so two snapshots of the same analysis can be
        diffed cell-by-cell (``versions`` differ exactly at the addresses
        whose value sets changed) and a :meth:`restore`\\ d store continues
        the version sequence instead of restarting it.
        """
        return StoreSnapshot(data=pmap(self.data), versions=pmap(self.versions))

    @classmethod
    def restore(cls, snapshot: "StoreSnapshot") -> "MutableStore":
        """A live mutable store resumed from a :class:`StoreSnapshot`.

        The changelog starts *empty*: ``changed_since(0)`` on the restored
        store reports exactly the growth since the snapshot, which is what
        the warm-start engine path consumes (a plain ``__init__`` or
        :meth:`VersionedStore.thaw` would prime the changelog with every
        seeded address, making the whole seed look freshly changed).
        """
        dup = cls()
        # to_dict copies the backing dicts with their stored key hashes
        dup.data = snapshot.data.to_dict()
        dup.versions = snapshot.versions.to_dict()
        dup.changelog = []
        return dup

    def __repr__(self) -> str:
        return f"MutableStore({len(self.data)} addrs, {len(self.changelog)} changes)"


@dataclass(frozen=True)
class StoreSnapshot:
    """An immutable ``(data, versions)`` image of a :class:`MutableStore`.

    Both components are :class:`~repro.util.pcollections.PMap`\\ s, so a
    snapshot is hashable, comparable and picklable -- the shape the
    fixpoint cache persists and the warm-start path
    (:func:`repro.core.fixpoint.global_store_explore` with ``warm_start=``)
    resumes from via :meth:`MutableStore.restore`.
    """

    data: Any
    versions: Any

    @classmethod
    def of_mapping(cls, store: Any) -> "StoreSnapshot":
        """Normalize any store image to a snapshot.

        A :class:`StoreSnapshot` passes through (its versions are already
        meaningful), a live :class:`MutableStore` is snapshotted, and a
        frozen mapping of unknown history gets version 1 everywhere --
        the convention ``MutableStore`` itself uses for entries present
        at construction.
        """
        if isinstance(store, StoreSnapshot):
            return store
        if isinstance(store, MutableStore):
            return store.snapshot()
        data = pmap(store)
        # fromkeys over a plain dict reuses its stored key hashes
        return StoreSnapshot(data=data, versions=pmap(dict.fromkeys(data.to_dict(), 1)))


class VersionedStore(StoreLike):
    """An engine-owned *mutable* store with per-address change versions.

    The persistent :class:`BasicStore` pays O(|store|) per bind (the
    ``PMap`` copy) and the depgraph engine pays another O(|store|) per
    evaluation joining result stores and re-comparing values through
    ``fetch``.  A :class:`VersionedStore` mutates one
    :class:`MutableStore` in place and bumps a per-address version
    counter only when a bind actually grows the value set, so the engine
    learns "did anything change" and "which addresses grew" from the
    changelog in O(delta) -- see
    :func:`repro.core.fixpoint.global_store_explore`, whose one loop
    switches to the delta-driven store merge when it finds one of these
    underneath the collecting domain.

    Because mutation is join-only, threading one shared store through
    every monadic branch is exactly the global-store widening the
    depgraph engine already computes; the ``kleene`` engine iterates over
    immutable whole-domain snapshots and therefore pairs only with the
    persistent stores (enforced at assembly time).

    Invariant (checked by the monotonicity tests): value sets only grow,
    ``versions[addr]`` is bumped exactly when ``data[addr]`` changes, and
    ``changelog`` records those addresses in order.
    """

    def empty(self) -> MutableStore:
        return MutableStore()

    def bind(self, store: MutableStore, addr: Hashable, d: Any) -> MutableStore:
        data = store.data
        old = data.get(addr, _UNBOUND)
        if old is _UNBOUND:
            data[addr] = d
        else:
            if self.value_lattice.leq(d, old):
                return store
            data[addr] = self.value_lattice.join(old, d)
        store.versions[addr] = store.versions.get(addr, 0) + 1
        store.changelog.append(addr)
        return store

    def replace(self, store: MutableStore, addr: Hashable, d: Any) -> MutableStore:
        old = store.data.get(addr, _UNBOUND)
        if old is d or old == d:
            return store
        store.data[addr] = d
        store.versions[addr] = store.versions.get(addr, 0) + 1
        store.changelog.append(addr)
        return store

    def fetch(self, store: Any, addr: Hashable) -> Any:
        # ``store`` may be a live MutableStore or a frozen PMap snapshot;
        # both speak ``get``.
        value = store.get(addr, _UNBOUND)
        if value is _UNBOUND:
            return self.value_lattice.bottom()
        return value

    def filter_store(self, store: Any, keep: Callable[[Hashable], bool]) -> MutableStore:
        return MutableStore({a: store.get(a) for a in store.keys() if keep(a)})

    def addresses(self, store: Any) -> Iterable[Hashable]:
        return list(store.keys())

    def lattice(self) -> Lattice:
        # The lattice of *snapshots*: mutable stores have identity, not
        # order, so widening/joining frozen PMap images is the meaningful
        # (and only engine-visible) store-set lattice.
        return MapLattice(self.value_lattice)

    # -- engine-side abstract GC (6.4 on the delta-driven loop) ---------------

    def merge_entry(self, store: MutableStore, addr: Hashable, entry: Any) -> MutableStore:
        """Join one raw store *entry* (as found in ``data``) into ``store``.

        The versioned engine's GC path collects an evaluation's writes in
        a :class:`GCOverlay` and merges only the entries reachable from
        some successor state; the merge must join at the entry level (not
        re-``bind``) so counting stores do not double-bump.  For the
        plain versioned store an entry *is* a value set, so this is
        ``bind``.
        """
        return self.bind(store, addr, entry)

    # -- snapshot conversions (the immutable boundary) -----------------------

    def thaw(self, store: Any) -> MutableStore:
        """A private mutable copy of ``store`` (MutableStore or mapping).

        The engine thaws the injected seed store so repeated runs of one
        assembled analysis never share mutation.
        """
        if isinstance(store, MutableStore):
            return store.copy()
        return MutableStore(store)

    def freeze(self, store: MutableStore) -> PMap:
        """An immutable snapshot, presentable wherever a PMap store goes."""
        return pmap(store.data)


class GCOverlay:
    """A write overlay over a shared :class:`MutableStore` (engine-side GC).

    Under abstract GC only the bindings *reachable from a successor
    state* may enter the global store; a mutable shared store cannot take
    writes directly, or dead bindings would leak into every other
    configuration's view.  The versioned engine therefore threads one of
    these per evaluation: it speaks enough of the :class:`MutableStore`
    protocol for :class:`VersionedStore`/:class:`VersionedCountingStore`
    operations (``data`` mapping, ``versions``, ``changelog``, and the
    read-side ``get``/``in``/``keys``/``len``), reads fall through to the
    underlying global store, and writes land in a private map that the
    engine inspects (:meth:`written`) after sweeping reachability over
    the evaluation's successors.  Live entries are then merged into the
    global store with ``merge_entry`` -- whose version bumps are what
    retrigger the readers of a GC'd-then-rebound address.
    """

    __slots__ = ("base", "data", "versions", "changelog", "_writes")

    def __init__(self, base: MutableStore):
        self.base = base
        self._writes: dict = {}
        # ChainMap: reads see writes-over-base, mutation lands in _writes
        self.data = ChainMap(self._writes, base.data)
        self.versions: dict = {}
        self.changelog: list = []

    def written(self) -> dict:
        """The private ``addr -> entry`` map of this evaluation's writes."""
        return self._writes

    # -- read-side mapping protocol (shared with MutableStore/PMap) -----------

    def get(self, addr: Hashable, default: Any = None) -> Any:
        return self.data.get(addr, default)

    def __contains__(self, addr: object) -> bool:
        return addr in self.data

    def __len__(self) -> int:
        return len(self.data)

    def keys(self):
        return self.data.keys()

    def __repr__(self) -> str:
        return f"GCOverlay({len(self._writes)} writes over {self.base!r})"


class VersionedCountingStore(StoreLike, ACounter):
    """``CountingStore`` semantics over an engine-owned :class:`MutableStore`.

    Entries are ``(value-set, AbsNat)`` pairs exactly as in
    :class:`CountingStore`, so a frozen snapshot is indistinguishable
    from a persistent counting store's ``PMap``.  The versioning rules
    follow :class:`VersionedStore` with one refinement: the changelog
    records *value-set* growth only.  A ``bind`` that adds no new values
    still bumps the abstract count, but counts are invisible to ``fetch``
    -- the only store observation a re-evaluated configuration can make
    -- so count-only changes must not retrigger readers (they would
    re-bump the count they were retriggered by, looping until MANY for
    nothing).  The engine instead saturates counts once, after
    convergence, via :meth:`saturate`.
    """

    def __init__(self, value_lattice: Lattice | None = None):
        super().__init__(value_lattice)
        self.count_lattice = AbsNatLattice()
        self._entry_lattice = PairLattice(self.value_lattice, self.count_lattice)
        self._lattice = MapLattice(self._entry_lattice)

    def empty(self) -> MutableStore:
        return MutableStore()

    def bind(self, store: MutableStore, addr: Hashable, d: Any) -> MutableStore:
        data = store.data
        entry = data.get(addr, _UNBOUND)
        if entry is _UNBOUND:
            data[addr] = (d, AbsNat.ONE)
        else:
            old_d, old_n = entry
            new_n = old_n.plus(AbsNat.ONE)
            if self.value_lattice.leq(d, old_d):
                if new_n is not old_n:
                    data[addr] = (old_d, new_n)  # count-only: no changelog
                return store
            data[addr] = (self.value_lattice.join(old_d, d), new_n)
        store.versions[addr] = store.versions.get(addr, 0) + 1
        store.changelog.append(addr)
        return store

    def replace(self, store: MutableStore, addr: Hashable, d: Any) -> MutableStore:
        # strong update: rewrite the value set, preserve the count (it
        # still bounds how many concrete addresses this one denotes)
        entry = store.data.get(addr, _UNBOUND)
        old_n = AbsNat.ONE if entry is _UNBOUND else entry[1]
        if entry is not _UNBOUND and entry[0] == d:
            return store
        store.data[addr] = (d, old_n)
        store.versions[addr] = store.versions.get(addr, 0) + 1
        store.changelog.append(addr)
        return store

    def fetch(self, store: Any, addr: Hashable) -> Any:
        entry = store.get(addr, _UNBOUND)
        if entry is _UNBOUND:
            return self.value_lattice.bottom()
        return entry[0]

    def count(self, store: Any, addr: Hashable) -> AbsNat:
        entry = store.get(addr, _UNBOUND)
        if entry is _UNBOUND:
            return AbsNat.ZERO
        return entry[1]

    def update(self, store: MutableStore, addr: Hashable, d: Any) -> MutableStore:
        """Strong update when the count permits, weak otherwise."""
        if self.count(store, addr) is AbsNat.ONE:
            return self.replace(store, addr, d)
        return self.bind(store, addr, d)

    def filter_store(self, store: Any, keep: Callable[[Hashable], bool]) -> MutableStore:
        return MutableStore({a: store.get(a) for a in store.keys() if keep(a)})

    def addresses(self, store: Any) -> Iterable[Hashable]:
        return list(store.keys())

    def lattice(self) -> Lattice:
        # the lattice of frozen snapshots, shape-identical to CountingStore's
        return self._lattice

    def merge_entry(self, store: MutableStore, addr: Hashable, entry: Any) -> MutableStore:
        """Entry-lattice join of a ``(value-set, count)`` pair into ``store``.

        Unlike ``bind``, merging does not model a fresh allocation: the
        overlay already accounted for the bump when the write happened,
        so the counts join (max) instead of abstract-adding.
        """
        d, n = entry
        data = store.data
        old = data.get(addr, _UNBOUND)
        if old is _UNBOUND:
            data[addr] = (d, n)
        else:
            old_d, old_n = old
            new_n = self.count_lattice.join(old_n, n)
            if self.value_lattice.leq(d, old_d):
                if new_n is not old_n:
                    data[addr] = (old_d, new_n)
                return store
            data[addr] = (self.value_lattice.join(old_d, d), new_n)
        store.versions[addr] = store.versions.get(addr, 0) + 1
        store.changelog.append(addr)
        return store

    def saturate(self, store: MutableStore, addrs: Iterable[Hashable]) -> MutableStore:
        """Post-convergence count saturation (see :meth:`CountingStore.saturate`)."""
        data = store.data
        for addr in addrs:
            entry = data.get(addr, _UNBOUND)
            if entry is _UNBOUND:
                continue
            d, n = entry
            data[addr] = (d, n.plus(AbsNat.ONE))
        return store

    def singleton_addresses(self, store: Any) -> frozenset:
        """Addresses whose abstract count is exactly one (must-alias facts)."""
        return frozenset(a for a in store.keys() if self.count(store, a) is AbsNat.ONE)

    # -- snapshot conversions (the immutable boundary) -----------------------

    def thaw(self, store: Any) -> MutableStore:
        """A private mutable copy of ``store`` (MutableStore or mapping)."""
        if isinstance(store, MutableStore):
            return store.copy()
        return MutableStore(store)

    def freeze(self, store: MutableStore) -> PMap:
        """An immutable snapshot, shape-identical to a :class:`CountingStore` PMap."""
        return pmap(store.data)


def unwrap_store(store_like: StoreLike) -> StoreLike:
    """Strip any :class:`RecordingStore` decoration (for result inspection)."""
    while isinstance(store_like, RecordingStore):
        store_like = store_like.inner
    return store_like
