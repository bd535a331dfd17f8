"""Hash-consing: memoized structural hashes and canonical-at-birth syntax.

The fixed-point engines spend their lives hashing machine configurations
into ``seen``/``queued`` sets and dependency maps.  Configurations are
tuples of frozen dataclasses (syntax nodes, environments, contexts), and
a dataclass-generated ``__hash__`` rehashes the whole subtree on every
call -- an O(term) cost paid millions of times on values that never
change.  Two class decorators live here:

* :func:`hash_consed` -- for machine values (states, frames, closures,
  contexts, addresses).  The structural hash is computed once, at
  construction, and stored on the instance, so ``__hash__`` is an
  attribute read; ``__eq__`` short-circuits on object identity and
  falls back to structural equality.

* :func:`interned` -- for syntax nodes (``lam``, ``cps`` and ``fj``
  ``syntax.py``).  On top of the memoized hash, the constructor *is* the
  intern pool: it looks the node up by ``(class, *field values)`` and
  returns the canonical node, in the tradition of Lisp symbol interning
  and Filliatre & Conchon's "Type-Safe Modular Hash-Consing" (ML Workshop
  2006).  Structurally equal subterms are therefore pointer-equal from
  the moment they exist, and the ``self is other`` fast path in
  ``__eq__`` fires throughout the analyses (k-CFA contexts, for
  instance, are tuples *of the call terms themselves*).

Both are semantics-free: hashing and equality remain structural, only
their cost changes, which ``tests/test_engines.py::TestInternedVsPlain``
pins down across all three languages.

## Canonical at birth

No syntax node is ever built outside the pool.  Parsers, the corpus
generators, the imp lowering and every syntax transformation construct
nodes the ordinary way and get the canonical node back; there is no
canonicalizing pass afterwards.  The copying protocols go through the
same constructor: ``__reduce__`` returns ``(cls, field values)``, so an
unpickled node -- a batch worker's result, a fixpoint loaded from the
disk cache, a payload from another machine -- *is* the pool's node in
the unpickling process, and its hash memo is recomputed there (string
hashes are randomized per process, so a memo must never travel in a
pickle).  ``dataclasses.replace`` and keyword construction bind their
arguments to field order first; ``copy.copy``/``copy.deepcopy`` return
the node itself, as for any immutable value.

Machine values are deliberately **not** pooled.  A pool holds its values
for the life of the process, and an analysis visits states by the
hundred thousand: a prototype that pooled every hash-consed class kept
every concrete-witness and abstract state alive and doubled perfbench
``analyze``'s peak RSS (40.7 to 85.7 MB).  A weak-value pool kept the
memory down but gave back most of the speed.  Syntax is small, finite
per program and live for the whole run anyway, so pooling it is free.

## Per-node memos

Because a canonical node stands for its whole structure, any fact that
depends only on that structure can be computed once and kept on the
node: the content digest (:func:`repro.service.cache.program_digest`)
and the free-variable sets of the three syntaxes.  Unlike the hash
memo these are filled lazily, on first use, through
:func:`memo_of`/:func:`remember` (one fact) and :func:`fold_memo` (a
bottom-up fact, computed iteratively so chain-shaped terms of any depth
are safe).  They live in the node's own attributes, under ``_hc_*``
slot names no dataclass field uses.  The constructor sets every memo
slot to ``None`` at birth: CPython keeps an instance's attributes in a
compact array only while it gains no attribute after its siblings
were built, and a node whose layout grew later reads its *fields*
about 30% slower -- a cost every analysis step would pay.  So:

* they **die with the node** -- no side table keyed by nodes pins a
  program after the pool lets go of it, which is what lets a pool
  clear actually free memory;
* they **never travel**: ``__reduce__`` sends field values only, and
  the unpickled node (the pool's node in the loading process) fills its
  own memos when they are first asked for;
* they are invisible to equality, hashing and ``repr``, which read the
  dataclass fields only.

## Source memo

One more table sits beside the node pools: :func:`memo_source` maps
``(language, source text)`` to what the front end made of it (the
canonical program; for ``imp``, its lowered ``lam`` text), so a server
answering the same request again pays one dictionary lookup instead of
a parse.  It is part of the pool: its entries count toward
:func:`intern_pool_size` and :func:`clear_intern_pool` drops it, so the
hosts' one ``intern_limit`` bounds it too.  Failed parses raise and are
never memoized.

## Pool lifecycle

The pools hold **strong references for the life of the process** --
right for batch analyses over a fixed corpus, not for a service that
parses unboundedly many distinct programs.  Such a host calls
:func:`clear_intern_pool` (or :func:`maybe_clear_intern_pool`) between
workloads and watches growth through :func:`intern_stats`.  Clearing is
always safe: a node built after a clear is not pointer-equal to its
structural twin built before it, but equality and hashing stay
structural (``__eq__`` only short-circuits on identity, it never
requires it), so mixed pre-/post-clear values compare and hash
correctly, just without the identity fast path across the boundary.
Once the pools are cleared and its users drop it, an old node is
garbage like any other value, per-node memos included.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
from typing import Any, Callable

#: Attribute under which a memoized hash is stashed on the instance.
_HASH_SLOT = "_hc_hash"


def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _hash(self: Any) -> int:
    return self._hc_hash


def hash_consed(cls: type) -> type:
    """Class decorator: memoize ``__hash__``, short-circuit ``__eq__`` on identity.

    Apply *above* ``@dataclass(frozen=True)`` so the dataclass-generated
    structural methods are already in place::

        @hash_consed
        @dataclass(frozen=True)
        class Node: ...

    The memo is stored through ``object.__setattr__`` (legal on frozen
    dataclasses) under a name no dataclass field uses, so structural
    equality and ``repr`` are unaffected.

    The hash is computed *eagerly at construction*.  Immutable values are
    built bottom-up -- children exist before their parent -- so eager
    hashing only ever recurses one level (the children's hashes are
    already memoized), where a first lazy hash of a deep term would
    recurse through the whole subtree and can blow the interpreter's
    recursion limit on chain-shaped programs.  Unpickling goes back
    through the constructor (``__reduce__``), so every instance carries
    its memo and ``__hash__`` never has to look for it.
    """
    structural_hash = cls.__hash__
    structural_init = cls.__init__
    if structural_hash is None:  # pragma: no cover - decorator misuse
        raise TypeError(f"{cls.__name__} is unhashable; hash_consed needs frozen=True")

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        structural_init(self, *args, **kwargs)
        object.__setattr__(self, _HASH_SLOT, structural_hash(self))

    cls.__init__ = __init__
    _install_shared_methods(cls)
    return cls


def _install_shared_methods(cls: type) -> None:
    """What both decorators share: memo hash, identity-first eq, pickling.

    ``__reduce__`` sends a value back through its constructor, field
    values only, so the memo never travels in a pickle and unpickling
    recomputes it under the loading process's string-hash seed.
    """
    structural_eq = cls.__eq__
    names = _field_names(cls)

    def __eq__(self: Any, other: Any) -> Any:
        if self is other:
            return True
        return structural_eq(self, other)

    def __reduce__(self: Any) -> tuple:
        return cls, tuple(getattr(self, name) for name in names)

    cls.__hash__ = _hash
    cls.__eq__ = __eq__
    cls.__reduce__ = __reduce__


#: Per-node memo slots (see "Per-node memos"): a node's content digest
#: and its free-variable set.
DIGEST_SLOT = "_hc_digest"
FREE_VARS_SLOT = "_hc_free_vars"
_MEMO_SLOTS = (DIGEST_SLOT, FREE_VARS_SLOT)

#: One pool per :func:`interned` class: field-value tuple -> canonical node.
_POOLS: list[dict] = []

#: The :func:`interned` classes, the only ones that carry per-node memos.
_INTERNED: set[type] = set()

#: ``(language, source text)`` -> front-end result (see "Source memo").
#: Registered as a pool, so it is sized and cleared with the node pools.
_SOURCES: dict = {}
_POOLS.append(_SOURCES)

#: Serializes pool growth.  Only misses take it: the server's worker
#: threads may build equal nodes at once, and two unlocked misses would
#: each install their own "canonical" node.
_POOL_LOCK = threading.Lock()

#: Cumulative pool statistics (survive :func:`clear_intern_pool`).
_HITS = 0
_MISSES = 0


def interned(cls: type) -> type:
    """Class decorator: build every instance through the intern pool.

    Apply *above* ``@dataclass(frozen=True)``, like :func:`hash_consed`.
    ``cls(...)`` binds its arguments to the field values and looks them
    up in the class's pool; a hit returns the canonical node, so
    ``cls(*fields) is cls(*fields)``.  Only a miss allocates: it takes
    the pool lock, re-checks (another thread may have installed an equal
    node since the unlocked lookup), sets the fields and the hash memo,
    and installs the node.  A miss is exactly one pool growth; every
    other construction is a hit.

    The memo is ``hash(field values)``, which is what the dataclass's
    structural ``__hash__`` computes.  Decorated classes are final: a
    subclass would share, and poison, its parent's pool.
    """
    names = _field_names(cls)
    arity = len(names)
    signature = inspect.signature(cls.__init__)
    pool: dict = {}
    _POOLS.append(pool)
    allocate = object.__new__
    set_field = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> tuple:
        bound = signature.bind(None, *args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())[1:]

    def __new__(klass: type, *args: Any, **kwargs: Any) -> Any:
        global _HITS, _MISSES
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        node = pool.get(args)
        if node is None:
            with _POOL_LOCK:
                node = pool.get(args)
                if node is None:
                    node = allocate(klass)
                    for name, value in zip(names, args):
                        set_field(node, name, value)
                    set_field(node, _HASH_SLOT, hash(args))
                    for slot in _MEMO_SLOTS:
                        set_field(node, slot, None)
                    pool[args] = node
                    _MISSES += 1
                    return node
        _HITS += 1
        return node

    def __copy__(self: Any) -> Any:
        return self

    def __deepcopy__(self: Any, memo: dict) -> Any:
        return self

    _INTERNED.add(cls)
    cls.__new__ = __new__
    # the fields are set by __new__; object.__init__ accepts (and ignores)
    # the constructor arguments because __new__ is overridden
    del cls.__init__
    cls.__copy__ = __copy__
    cls.__deepcopy__ = __deepcopy__
    _install_shared_methods(cls)
    return cls


def memo_of(value: Any, slot: str) -> Any:
    """``value``'s per-node memo under ``slot``, or ``None`` if not filled yet.

    Values other than :func:`interned` nodes (atoms, tuples, machine
    values) carry no memos and always answer ``None``.
    """
    if type(value) in _INTERNED:
        return getattr(value, slot)
    return None


def remember(value: Any, slot: str, fact: Any) -> None:
    """Fill ``value``'s per-node memo under ``slot`` (a no-op off the pool).

    Racing threads compute the same structural fact, so a lost write is
    harmless.
    """
    if type(value) in _INTERNED:
        object.__setattr__(value, slot, fact)


def fold_memo(
    root: Any,
    slot: str,
    children: Callable[[Any], tuple],
    combine: Callable[[Any, list], Any],
) -> Any:
    """A bottom-up per-node fact of ``root``, filling the memos it lacks.

    ``children(node)`` names the sub-nodes the fact depends on and
    ``combine(node, facts)`` builds the node's fact from theirs (in
    ``children`` order).  The walk is iterative post-order and stops at
    memoized nodes, so each node is combined once in its life (racing
    threads aside) and a call costs O(nodes not yet memoized), however
    deep the term.
    """
    fact = getattr(root, slot)
    if fact is not None:
        return fact
    stack = [root]
    while stack:
        node = stack[-1]
        if getattr(node, slot) is not None:
            stack.pop()
            continue
        kids = children(node)
        missing = [kid for kid in kids if getattr(kid, slot) is None]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        fact = combine(node, [getattr(kid, slot) for kid in kids])
        object.__setattr__(node, slot, fact)
    return getattr(root, slot)


def union_vars(sets: list) -> frozenset:
    """The union of variable sets, reusing an input set where it is the union.

    With :func:`bind_vars`, the combinators of the free-variable folds:
    a node whose set equals a child's shares that child's frozenset, so
    the memos of a long chain cost one set, not one per node.
    """
    if not sets:
        return _NO_VARS
    out = max(sets, key=len)
    for extra in sets:
        if not extra <= out:
            out = out | extra
    return out


def bind_vars(free: frozenset, bound: Any) -> frozenset:
    """``free`` minus the ``bound`` names (``free`` itself when disjoint)."""
    if free.isdisjoint(bound):
        return free
    return free.difference(bound)


_NO_VARS: frozenset = frozenset()


def memo_source(language: str, text: str, parse: Callable[[str], Any]) -> Any:
    """``parse(text)``, memoized per ``(language, text)`` with the pool.

    An exception from ``parse`` propagates and leaves no entry, so a
    malformed source is re-parsed (and re-rejected) every time.
    """
    key = (language, text)
    found = _SOURCES.get(key)
    if found is None:
        found = parse(text)
        with _POOL_LOCK:
            found = _SOURCES.setdefault(key, found)
    return found


def intern_pool_size() -> int:
    """How many entries the pools currently hold (for tests/stats).

    Canonical nodes plus :func:`memo_source` entries: the one number a
    host's ``intern_limit`` bounds.
    """
    return sum(len(pool) for pool in _POOLS)


def intern_stats() -> dict:
    """Pool observability for long-running hosts.

    Returns ``{"size", "hits", "misses"}``: the current
    :func:`intern_pool_size`, and the cumulative number of :func:`interned`
    constructions the pool answered with an existing node (``hits``)
    versus answered by installing a new one (``misses``, which is also
    the pools' total historical growth).  Misses are counted under the
    pool lock and are exact; hits are counted on the lock-free path and
    may undercount while threads construct nodes concurrently.  Hits
    and misses accumulate
    across :func:`clear_intern_pool` calls, so a service can track
    interning traffic over its whole life while bounding the pool itself.
    """
    return {"size": intern_pool_size(), "hits": _HITS, "misses": _MISSES}


def register_metrics(registry: Any) -> None:
    """Expose the pool to a metrics registry as pull gauges.

    Callback gauges, not pushed counters: every syntax-node construction
    goes through the pool, so it must never pay a per-call metrics cost.
    The registry reads the module counters at snapshot/scrape time
    instead.
    """
    registry.gauge("intern_pool_size", callback=intern_pool_size)
    registry.gauge("intern_pool_hits", callback=lambda: _HITS)
    registry.gauge("intern_pool_misses", callback=lambda: _MISSES)


def clear_intern_pool() -> None:
    """Drop every canonical node and source memo (bounding long-lived hosts).

    Safe at any point between workloads: existing nodes keep their
    memoized hashes and structural equality; only cross-boundary
    pointer-equality (the ``__eq__`` identity fast path between a node
    built before the clear and one built after) is lost.
    """
    with _POOL_LOCK:
        for pool in _POOLS:
            pool.clear()


def maybe_clear_intern_pool(limit: int | None) -> bool:
    """Clear the pool iff it holds more than ``limit`` entries.

    The lifecycle hook for resident hosts (the analysis server): the pool
    grows monotonically with every distinct program a long-lived process
    parses, so a daemon serving unbounded traffic periodically bounds it
    here instead of leaking.  Returns whether a clear happened, so the
    caller can invalidate anything that assumed canonical identity -- the
    server drops its hot fixpoint tier in the same breath (structural
    equality would still hold across the boundary, but the identity fast
    path, the whole point of the hot tier, would not).  ``limit`` of
    ``None`` or ``0`` means unbounded: never clear.
    """
    if not limit or intern_pool_size() <= limit:
        return False
    clear_intern_pool()
    return True


# ---------------------------------------------------------------------------
# Structural decomposition (content addressing, warm-start gating)
# ---------------------------------------------------------------------------

def decompose(value: Any) -> tuple[str | None, list]:
    """Split a value into a structural kind tag and its children.

    Returns ``(None, [])`` for atoms (strings, numbers, enums, anything a
    structural walk should pass through untouched); otherwise one of
    ``"dataclass"`` (children = field values, in field order),
    ``"tuple"``, ``"frozenset"``, ``"list"``, ``"dict"`` / ``"pmap"``
    (children = flattened key/value pairs).  ``PMap`` is recognized by
    duck type (``items_sorted``/``to_dict``) to avoid an import cycle
    with :mod:`repro.util.pcollections`.

    This is the **one** decomposition every structural walk in the code
    base shares -- the cache's ``program_digest`` and the warm-start
    layer's subterm/edit-distance checks -- so a new container shape in a
    syntax node cannot silently desynchronize content addressing and
    donor gating.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return "dataclass", [
            getattr(value, f.name) for f in dataclasses.fields(value)
        ]
    kind = type(value)
    if kind is tuple:
        return "tuple", list(value)
    if kind is frozenset or isinstance(value, frozenset):
        return "frozenset", list(value)
    if kind is list:
        return "list", list(value)
    if kind is dict:
        return "dict", [x for kv in value.items() for x in kv]
    if hasattr(value, "items_sorted") and hasattr(value, "to_dict"):  # PMap
        return "pmap", [x for kv in value.to_dict().items() for x in kv]
    return None, []
