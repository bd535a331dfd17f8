"""Hash-consing: memoized structural hashes and canonical-at-birth syntax.

The fixed-point engines spend their lives hashing machine configurations
into ``seen``/``queued`` sets and dependency maps.  Configurations are
tuples of immutable values (syntax nodes, environments, contexts), and a
dataclass-generated ``__hash__`` rehashes the whole subtree on every
call -- an O(term) cost paid millions of times on values that never
change.  Two class decorators live here; each makes its class a frozen
dataclass itself (so a class carries one decorator, not two):

* :func:`hash_consed` -- for machine values (states, frames, closures,
  contexts, addresses).  The structural hash is computed once, at
  construction, and stored on the instance, so ``__hash__`` is an
  attribute read.  An analysis builds several of these values per
  evaluation, so building one must be cheap too: the decorator
  *generates* the constructor, which sets the fields and the hash in one
  frame, and ``__eq__``, which checks identity, class and the two hash
  memos before it compares fields (see "Generated methods").

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

## Generated methods

Hash-consing pays off only when building a value is cheap.  So, like
``dataclasses`` itself, :func:`_method_factory` writes each field
list's methods as unrolled source and compiles it once with ``exec``::

    def __init__(self, ctrl, env, ka):
        set_field(self, 'ctrl', ctrl)
        set_field(self, 'env', env)
        set_field(self, 'ka', ka)
        set_field(self, '_hc_hash', hash((ctrl, env, ka)))

    def __eq__(self, other):
        if self is other: return True
        if other.__class__ is not self.__class__: return NotImplemented
        if self._hc_hash != other._hc_hash: return False
        return (self.ctrl, self.env, self.ka) == (other.ctrl, other.env, other.ka)

``hash((f1, ..., fn))`` is, bit for bit, what a frozen dataclass's
``__hash__`` returns (``hash((self.f1, ..., self.fn))``), and comparing
the field tuples is what its ``__eq__`` does (tuple comparison is
identity-first per item), so no hash, set order, fixed point or cache
key differs from the plain dataclass's; ``tests/test_machine_values.py``
checks both for every class.  The memo comparison only ever answers
``False`` early: equal values have equal hashes.  Classes with the same
field names share one compiled factory, and the dataclass call the
decorators make skips the methods they replace, so importing the
machine and syntax modules got cheaper, not dearer.

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
What the staged steps of :mod:`repro.core.fused` do share is narrower:
values that are pure functions of syntax (a closure per ``(lambda,
env)``, a continuation tag and a call-site context per site), in memos
that live and die with one run.

## Per-node memos

Because a canonical node stands for its whole structure, any fact that
depends only on that structure can be computed once and kept on the
node, under three slots:

* ``DIGEST_SLOT`` -- the content digest
  (:func:`repro.service.cache.program_digest`);
* ``FREE_VARS_SLOT`` -- the free-variable sets of the three syntaxes;
* ``TEXT_SLOT`` -- the concrete-syntax text of a ``lam`` or ``cps``
  lambda, filled by each syntax's ``pp`` (which is also the node's
  ``repr``).  A report renders every lambda of every flow set, so a
  lambda is rendered once in its life, not once per flow entry per run.

Unlike the hash memo these are filled lazily, on first use, through
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
* they are invisible to equality and hashing, which read the dataclass
  fields only; the text memo *is* the ``repr`` of its node, equal to the
  unmemoized rendering (``tests/test_node_memos.py`` checks every
  corpus lambda).

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


#: Field-name tuple -> compiled factory of that field list's methods.
_FACTORIES: dict[tuple[str, ...], Callable] = {}


def _method_factory(names: tuple[str, ...]) -> Callable:
    """``factory(set_field, hash) -> (__init__, __eq__)`` for these fields.

    The methods are unrolled source compiled through ``exec``, as
    ``dataclasses`` builds its own.  Classes with the same field names
    (the three ``PState``s, ``KontTag``/``SiteContext``, ...) share one
    compiled factory, so importing a machine module compiles a handful
    of tiny functions, not one pair per class.
    """
    factory = _FACTORIES.get(names)
    if factory is None:
        values = "".join(f"{name}, " for name in names)
        mine = "".join(f"self.{name}, " for name in names)
        theirs = "".join(f"other.{name}, " for name in names)
        sets = "".join(f"        set_field(self, {name!r}, {name})\n" for name in names)
        source = (
            "def factory(set_field, hash):\n"
            f"    def __init__(self, {values}):\n"
            f"{sets}"
            f"        set_field(self, {_HASH_SLOT!r}, hash(({values})))\n"
            "    def __eq__(self, other):\n"
            "        if self is other:\n"
            "            return True\n"
            "        if other.__class__ is not self.__class__:\n"
            "            return NotImplemented\n"
            f"        if self.{_HASH_SLOT} != other.{_HASH_SLOT}:\n"
            "            return False\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return __init__, __eq__\n"
        )
        namespace: dict = {}
        exec(source, namespace)  # noqa: S102 - generated from field names only
        factory = _FACTORIES[names] = namespace["factory"]
    return factory


def hash_consed(cls: type) -> type:
    """Class decorator: an immutable value class with one-pass construction.

    Applied alone, on a class body of annotated fields::

        @hash_consed
        class Node:
            left: Any
            right: Any

    The decorator makes the class a frozen dataclass (fields, ``repr``
    unless the class writes its own, ``dataclasses.fields``/``replace``)
    and generates the rest (:func:`_install_shared_methods`):

    * ``__init__(self, f1, ..., fn)`` sets the fields and the memo
      ``_hc_hash = hash((f1, ..., fn))`` in one frame.  That tuple hash
      is exactly what a dataclass ``__hash__`` computes (``hash((self.f1,
      ..., self.fn))``), so every hash -- and with it every set order,
      fixed point and cache key -- is the one a plain frozen dataclass
      gives.  Keyword construction (``dataclasses.replace``) binds by the
      parameter names, which are the field names;
    * ``__hash__`` reads the memo; ``__eq__`` is one frame that compares
      fields only when the memos agree.

    The memo is stored through ``object.__setattr__`` (assignment is
    otherwise refused, as on any frozen dataclass) under a name no field
    uses, so structural equality and ``repr`` are unaffected.

    The hash is computed *eagerly at construction*.  Immutable values are
    built bottom-up -- children exist before their parent -- so eager
    hashing only ever recurses one level (the children's hashes are
    already memoized), where a first lazy hash of a deep term would
    recurse through the whole subtree and can blow the interpreter's
    recursion limit on chain-shaped programs.  Unpickling goes back
    through the constructor (``__reduce__``), so every instance carries
    its memo and ``__hash__`` never has to look for it.
    """
    cls.__init__ = _install_shared_methods(cls)
    return cls


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _install_shared_methods(cls: type) -> Callable:
    """What both decorators share: memo hash, generated eq, pickling.

    The generated ``__eq__`` checks, in order: identity; class (another
    class answers ``NotImplemented``, as the dataclass's does); the two
    hash memos, so unequal values almost never touch their fields; and
    the field tuples ``(self.f1, ...) == (other.f1, ...)``, which keeps
    the dataclass's field-by-field, identity-first comparison.  One
    frame, where wrapping the dataclass ``__eq__`` took two.

    ``__reduce__`` sends a value back through its constructor, field
    values only, so the memo never travels in a pickle and unpickling
    recomputes it under the loading process's string-hash seed.

    The dataclass call made here generates neither ``__init__`` nor
    ``__eq__`` (nor ``__repr__`` where the class writes its own), and
    the frozen ``__setattr__``/``__delattr__`` are two shared functions:
    ``dataclasses`` compiles each generated method separately, and
    compiling what gets replaced cost every process that imports the
    machine modules several milliseconds.

    Returns the generated one-pass ``__init__``: :func:`hash_consed`
    installs it, :func:`interned` (whose ``__new__`` builds nodes) does
    not.  Every field must be a plain one -- compared, hashed, set by the
    constructor, without a default -- or the generated methods would
    disagree with a dataclass's.
    """
    dataclasses.dataclass(
        cls, init=False, eq=False, repr="__repr__" not in cls.__dict__
    )
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    for f in dataclasses.fields(cls):
        if (
            not (f.init and f.compare and f.hash is None)
            or f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        ):  # pragma: no cover - decorator misuse
            raise TypeError(f"{cls.__name__}.{f.name}: hash-consed fields must be plain")
    names = _field_names(cls)
    __init__, __eq__ = _method_factory(names)(object.__setattr__, hash)
    for method in (__init__, __eq__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"

    def __reduce__(self: Any) -> tuple:
        return cls, tuple(getattr(self, name) for name in names)

    cls.__hash__ = _hash
    cls.__eq__ = __eq__
    cls.__reduce__ = __reduce__
    return __init__


#: Per-node memo slots (see "Per-node memos"): a node's content digest,
#: its free-variable set and its rendered text.
DIGEST_SLOT = "_hc_digest"
FREE_VARS_SLOT = "_hc_free_vars"
TEXT_SLOT = "_hc_text"
_MEMO_SLOTS = (DIGEST_SLOT, FREE_VARS_SLOT, TEXT_SLOT)

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

    Applied alone, like :func:`hash_consed`, which it extends.
    ``cls(...)`` binds its arguments to the field values and looks them
    up in the class's pool; a hit returns the canonical node, so
    ``cls(*fields) is cls(*fields)``.  Only a miss allocates: it takes
    the pool lock, re-checks (another thread may have installed an equal
    node since the unlocked lookup), sets the fields and the hash memo,
    and installs the node.  A miss is exactly one pool growth; every
    other construction is a hit.

    The memo is ``hash(field values)``, which is what a dataclass's
    structural ``__hash__`` computes.  Decorated classes are final: a
    subclass would share, and poison, its parent's pool.
    """
    # the generated constructor is not installed (the fields are set by
    # __new__, and object.__init__ accepts and ignores the constructor
    # arguments because __new__ is overridden); its signature binds
    # keyword and short calls to field order
    signature = inspect.signature(_install_shared_methods(cls))
    names = _field_names(cls)
    arity = len(names)
    pool: dict = {}
    _POOLS.append(pool)
    allocate = object.__new__
    set_field = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> tuple:
        bound = signature.bind(None, *args, **kwargs)
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
    cls.__copy__ = __copy__
    cls.__deepcopy__ = __deepcopy__
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
