"""Hash-consing: cached structural hashes and a canonicalizing intern pool.

The fixed-point engines spend their lives hashing machine configurations
into ``seen``/``queued`` sets and dependency maps.  Configurations are
tuples of frozen dataclasses (syntax nodes, environments, contexts), and
a dataclass-generated ``__hash__`` rehashes the whole subtree on every
call -- an O(term) cost paid millions of times on values that never
change.  Two complementary remedies live here:

* :func:`hash_consed` -- a class decorator for frozen dataclasses that
  memoizes the structural hash on the instance (computed once, then an
  attribute read) and short-circuits ``__eq__`` on object identity.
  Nested decorated values make a parent's *first* hash O(children)
  instead of O(subtree), and every later hash O(1).

* :func:`intern` -- a global pool mapping each value to a canonical
  representative, in the tradition of Lisp symbol interning and
  hash-consed term representations.  The parsers intern every node they
  build, so structurally equal subterms are pointer-equal and the
  ``self is other`` fast path in ``__eq__`` fires throughout the
  analyses (k-CFA contexts, for instance, are tuples *of the call terms
  themselves*).

Both are semantics-free: hashing and equality remain structural, only
their cost changes, which the interned-vs-plain equivalence tests pin
down across all three languages.

## The fork/pickle hazard (and :func:`rehydrate`)

The pool is per-process state.  A term pickled in one process and
unpickled in another (a ``multiprocessing`` worker handing back an
analysis result, a fixpoint cache loading yesterday's run) arrives as a
*fresh object graph*: structurally equal to the locally parsed term --
``__getstate__`` drops the memoized hash, so hashing and ``==`` stay
correct under per-process hash randomization -- but **not pointer-equal
to the pool's canonical representative**.  Nothing breaks loudly.  What
breaks silently is the identity fast path: every ``__eq__`` between the
unpickled term and a locally interned one falls back to a full
structural descent, which on chain-shaped terms is the exact O(term)
(and deep-recursion) cost this module exists to avoid, paid once per
set/dict probe.  :func:`rehydrate` repairs this: it canonicalizes an
unpickled value graph bottom-up through :func:`intern`, so every
hash-consed node in it *is* the pool representative again.  The
regression tests (``tests/test_intern.py``, spawn-based cross-process
tests in ``tests/test_service_spawn.py``) pin both the hazard and the
repair.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, TypeVar

T = TypeVar("T")

#: Attribute under which a memoized hash is stashed on the instance.
_HASH_SLOT = "_hc_hash"


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
    recursion limit on chain-shaped programs.
    """
    structural_hash = cls.__hash__
    structural_eq = cls.__eq__
    structural_init = cls.__init__
    if structural_hash is None:  # pragma: no cover - decorator misuse
        raise TypeError(f"{cls.__name__} is unhashable; hash_consed needs frozen=True")

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        structural_init(self, *args, **kwargs)
        object.__setattr__(self, _HASH_SLOT, structural_hash(self))

    def __hash__(self: Any) -> int:
        try:
            return object.__getattribute__(self, _HASH_SLOT)
        except AttributeError:  # unpickled pre-memo instance: re-memoize
            h = structural_hash(self)
            object.__setattr__(self, _HASH_SLOT, h)
            return h

    def __eq__(self: Any, other: Any) -> Any:
        if self is other:
            return True
        return structural_eq(self, other)

    def __getstate__(self: Any) -> dict:
        # Python randomizes string hashes per process, so a pickled memo
        # would be stale in the unpickling process; drop it and let the
        # lazy fallback in __hash__ re-memoize there.
        state = dict(self.__dict__)
        state.pop(_HASH_SLOT, None)
        return state

    cls.__init__ = __init__
    cls.__hash__ = __hash__
    cls.__eq__ = __eq__
    cls.__getstate__ = __getstate__
    cls.__hash_consed__ = True
    return cls


#: The global intern pool: value -> its canonical representative.
_POOL: dict = {}

#: Serializes pool growth.  Only misses take it: the server's worker
#: threads may intern equal values at once, and two unlocked misses
#: would each install their own "canonical" object.
_POOL_LOCK = threading.Lock()

#: Cumulative pool statistics (survive :func:`clear_intern_pool`).
_HITS = 0
_MISSES = 0


def intern(value: T) -> T:
    """Return the canonical representative of ``value``.

    The first structurally distinct value wins and is handed back for
    every later equal value, so ``intern(x) is intern(y)`` exactly when
    ``x == y``.  Values of different types never compare equal, so one
    pool serves every interned class.

    Pool lifecycle: the pool holds **strong references for the life of
    the process** -- an unbounded global dict, which is the right trade
    for batch analyses over a fixed corpus (canonical terms are live for
    the whole run anyway), but not for a long-running service.  A host
    that parses unboundedly many distinct programs should call
    :func:`clear_intern_pool` between independent workloads and can
    watch growth through :func:`intern_stats`.  Clearing is always safe:
    it only forgets which representative is canonical, so values interned
    *after* a clear stop being pointer-equal to values interned before
    it -- but equality stays structural (``@hash_consed`` only
    short-circuits ``__eq__`` on identity, it never requires it), so
    mixed pre-/post-clear values still compare and hash correctly, just
    without the identity fast path across the boundary.
    """
    global _HITS, _MISSES
    try:
        canonical = _POOL[value]
    except KeyError:
        with _POOL_LOCK:
            # re-check: another thread may have installed an equal value
            # since the lookup above (a miss is exactly one pool growth;
            # re-interning the canonical object itself must count as a
            # hit, which a setdefault identity test would get wrong)
            if value not in _POOL:
                _POOL[value] = value
                _MISSES += 1
                return value
            canonical = _POOL[value]
    _HITS += 1
    return canonical


def intern_pool_size() -> int:
    """How many canonical values the pool currently holds (for tests/stats)."""
    return len(_POOL)


def intern_stats() -> dict:
    """Pool observability for long-running hosts.

    Returns ``{"size", "hits", "misses"}``: the current number of
    canonical values, and the cumulative number of :func:`intern` calls
    that found an existing representative (``hits``) versus installed a
    new one (``misses``, which is also the pool's total historical
    growth).  Hits and misses accumulate across
    :func:`clear_intern_pool` calls, so a service can track interning
    traffic over its whole life while bounding the pool itself.
    """
    return {"size": len(_POOL), "hits": _HITS, "misses": _MISSES}


def register_metrics(registry: Any) -> None:
    """Expose the pool to a metrics registry as pull gauges.

    Callback gauges, not pushed counters: :func:`intern` is the hottest
    call in the whole system (every parsed node goes through it), so the
    pool must never pay a per-call metrics cost.  The registry reads the
    module counters at snapshot/scrape time instead.
    """
    registry.gauge("intern_pool_size", callback=intern_pool_size)
    registry.gauge("intern_pool_hits", callback=lambda: _HITS)
    registry.gauge("intern_pool_misses", callback=lambda: _MISSES)


def clear_intern_pool() -> None:
    """Drop every canonical value (bounding pool growth in long-lived hosts).

    Safe at any point between workloads: existing values keep their
    memoized hashes and structural equality; only cross-boundary
    pointer-equality (the ``__eq__`` identity fast path between a value
    interned before the clear and one interned after) is lost.
    """
    _POOL.clear()


def maybe_clear_intern_pool(limit: int | None) -> bool:
    """Clear the pool iff it holds more than ``limit`` canonical values.

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
    if not limit or len(_POOL) <= limit:
        return False
    _POOL.clear()
    return True


# ---------------------------------------------------------------------------
# Rehydration: canonicalizing unpickled value graphs
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
    base shares -- :func:`rehydrate` here, the cache's
    ``program_digest``, and the warm-start layer's subterm/edit-distance
    checks -- so a new container shape in a syntax node cannot silently
    desynchronize content addressing, rehydration, and donor gating.
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


def _rebuild(value: Any, kind: str, children: list, originals: list) -> Any:
    """Reassemble ``value`` from canonicalized ``children``.

    When no child changed, the original object is kept (no copy); either
    way a hash-consed dataclass is passed through :func:`intern` so the
    result is the pool's canonical representative.
    """
    unchanged = all(a is b for a, b in zip(children, originals))
    if kind == "dataclass":
        built = value if unchanged else type(value)(*children)
        if getattr(type(value), "__hash_consed__", False):
            return intern(built)
        return built
    if unchanged:
        return value
    if kind == "tuple":
        return tuple(children)
    if kind == "frozenset":
        return frozenset(children)
    if kind == "list":
        return children
    if kind == "dict":
        return dict(zip(children[0::2], children[1::2]))
    # pmap: rebuild through the class of the original, keeping PMap out
    # of this module's imports
    return type(value)(dict(zip(children[0::2], children[1::2])))


def rehydrate(value: T) -> T:
    """Canonicalize an unpickled value graph through the intern pool.

    Rebuilds ``value`` bottom-up -- tuples, frozensets, lists, dicts,
    ``PMap``\\ s and (frozen) dataclasses -- interning every
    :func:`hash_consed` node, so the result's terms are pointer-equal to
    the pool's representatives and the ``__eq__`` identity fast path
    fires against locally parsed programs again (see the module
    docstring's fork/pickle hazard).  Structure the walk does not
    recognize (plain objects, enums, atoms) passes through untouched.

    The traversal is iterative with an explicit stack: unpickled fixed
    points contain chain-shaped terms whose depth would otherwise race
    the interpreter's recursion limit.  Shared sub-graphs are memoized by
    object identity, so rehydrating a fixed point is O(distinct nodes).
    """
    memo: dict[int, Any] = {}
    stack: list[tuple[Any, bool]] = [(value, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in memo:
            continue
        kind, children = decompose(node)
        if kind is None:
            memo[key] = node
            continue
        if expanded:
            memo[key] = _rebuild(
                node, kind, [memo[id(child)] for child in children], children
            )
        else:
            stack.append((node, True))
            for child in children:
                if id(child) not in memo:
                    stack.append((child, False))
    return memo[id(value)]
