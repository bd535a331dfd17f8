"""Content-addressed fixpoint cache: never compute the same analysis twice.

A fixed point is a pure function of ``(program, configuration)``.  Both
inputs already carry stable identities -- programs are interned term
graphs (:func:`program_digest` folds one into a structural SHA-256) and
configurations render to :meth:`repro.config.AnalysisConfig.cache_key` --
so a cache entry is addressed by content, never by file name or
timestamp: two differently-sourced but alpha-identical programs under a
preset and the equivalent hand-built configuration all share one entry.

On disk a cache is a directory::

    <root>/index.json            # key -> entry metadata (deterministic JSON)
    <root>/objects/<key>.pkl     # pickled {"fp": ..., "records": ...}

The index is rendered with sorted keys and stable value types so two
caches that saw the same traffic diff cleanly (the same property the
batch reports have, via :mod:`repro.analysis.report`).

Loading is plain unpickling: syntax nodes are rebuilt through their
interning constructors (:mod:`repro.util.intern`, "canonical at
birth"), so a loaded term *is* the locally parsed one and identity-fast
equality holds against it with no canonicalizing pass.
``hit``/``miss``/``evict``/``store`` counts are kept per instance
(:meth:`FixpointCache.stats`) and per entry (in the index).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.report import render_json
from repro.config import AnalysisConfig
from repro.core.fixpoint import WarmStart
from repro.obs.metrics import default_registry
from repro.util.intern import DIGEST_SLOT, decompose, memo_of, remember

#: Bump when the pickle payload layout changes; mismatched entries are
#: treated as misses (and evicted) instead of being misread.
PAYLOAD_SCHEMA = 1

#: Recursion headroom for (un)pickling fixed points.  ``pickle`` recurses
#: once per nesting level and the hash-consed ``__reduce__`` hook adds a
#: Python frame per node, so a chain-shaped program of depth ``d`` needs
#: roughly ``3d`` frames -- far past the interpreter default of
#: 1000 for the corpus generator families.  20k supports chains several
#: thousand calls deep while staying well inside an 8 MiB thread stack.
DEEP_RECURSION_LIMIT = 20_000


def ensure_deep_pickle() -> None:
    """Raise the interpreter recursion limit for deep-term (un)pickling.

    Idempotent and monotone (never lowers a higher limit).  Called at
    every cache/pool pickle boundary: the cache's own load/store and --
    because ``multiprocessing`` serializes results outside any code we
    can wrap -- once per worker process and once in the batch parent.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(), DEEP_RECURSION_LIMIT))


# ---------------------------------------------------------------------------
# Structural digests
# ---------------------------------------------------------------------------


def _atom_token(value: Any) -> str:
    """A type-discriminating token for digest leaves.

    ``repr`` alone would conflate ``"1"`` and ``1`` only if reprs
    collide across types -- they do not for the atoms terms are built
    from (strings, ints, bools, None, enums), but the type name is
    prefixed anyway so the invariant is free.
    """
    return f"{type(value).__name__}:{value!r}"


def program_digest(program: Any) -> str:
    """A stable structural SHA-256 of an interned program term.

    Depends only on the term's structure -- not on the process, the
    intern pool's state, Python's randomized string hashes, or object
    identity -- so the same source parsed in any process, any session,
    digests identically (pinned by the cache tests and by the golden
    table in ``tests/golden/program_digests.json``).  Structure comes
    from the shared :func:`repro.util.intern.decompose`, so digesting
    can never diverge from the warm-start subterm checks;
    order-free containers (frozensets; dict/PMap key-value pairs) digest
    order-independently.

    Every canonical node keeps its digest in its per-node memo
    (:func:`repro.util.intern.memo_of`), so a program digested before
    costs one attribute read, and an edited one costs only its new
    nodes: the iterative post-order walk stops at memoized nodes.  Other
    values (tuples, atoms) go through a per-call identity memo.  The
    walk is iterative, so chain-shaped programs whose depth would break a
    recursive one are safe.
    """
    digest = memo_of(program, DIGEST_SLOT)
    if digest is not None:
        return digest
    memo: dict[int, str] = {}
    stack: list[tuple[Any, bool]] = [(program, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in memo:
            continue
        known = memo_of(node, DIGEST_SLOT)
        if known is not None:
            memo[key] = known
            continue
        kind, children = decompose(node)
        if kind is None:
            memo[key] = _atom_token(node)
            continue
        tag = type(node).__name__ if kind == "dataclass" else kind
        if expanded:
            child_digests = [memo[id(child)] for child in children]
            if kind == "frozenset":
                child_digests.sort()
            elif kind in ("dict", "pmap"):
                # children are flattened key/value pairs; make the digest
                # independent of mapping iteration order
                pairs = [
                    f"{key_digest}:{value_digest}"
                    for key_digest, value_digest in zip(
                        child_digests[0::2], child_digests[1::2]
                    )
                ]
                child_digests = sorted(pairs)
            payload = f"{tag}({','.join(child_digests)})"
            memo[key] = digest = hashlib.sha256(payload.encode()).hexdigest()
            remember(node, DIGEST_SLOT, digest)
        else:
            stack.append((node, True))
            for child in children:
                if id(child) not in memo:
                    stack.append((child, False))
    digest = memo[id(program)]
    if len(digest) != 64:  # the whole program was a single atom
        digest = hashlib.sha256(digest.encode()).hexdigest()
    return digest


def cache_key(program: Any, config: AnalysisConfig) -> str:
    """The content address of one ``(program, configuration)`` cell."""
    config_part = hashlib.sha256(config.cache_key().encode()).hexdigest()
    return f"{program_digest(program)[:32]}-{config_part[:16]}"


# ---------------------------------------------------------------------------
# The on-disk cache
# ---------------------------------------------------------------------------


@dataclass
class CachedFixpoint:
    """One loaded cache entry.

    ``program`` is the term the entry was computed from (stored in the
    records sidecar): the donor-eligibility check in
    :func:`repro.service.incremental.reanalyse` needs the actual term --
    a digest cannot answer "is the old program an exact subterm of the
    new one", which is what makes an automatic warm start exact.
    """

    key: str
    fp: Any
    records: Mapping | None
    config_key: str
    program_digest: str
    program: Any = None

    @property
    def warmable(self) -> bool:
        """Whether the entry carries evaluation records to warm-start from."""
        return bool(self.records)

    def warm_start(self) -> WarmStart:
        """Package the entry as an engine seed (shared-store entries only)."""
        if not self.records:
            raise ValueError(
                f"cache entry {self.key} carries no evaluation records; "
                "it cannot seed a warm start"
            )
        return WarmStart(store=self.fp[1], records=self.records)


@dataclass
class FixpointCache:
    """A content-addressed, LRU-evicting, on-disk fixpoint store.

    ``max_entries`` bounds the object store (least-recently-*used* entry
    evicted first); ``None`` means unbounded -- the right default for CI
    and batch sweeps over a fixed corpus.

    Concurrency contract: hits are read-only (per-entry hit counters and
    recency live in memory and reach disk with the next ``put``), so any
    number of concurrent *readers* share a directory safely.  Within one
    process, concurrent writers (the analysis server's worker threads)
    are serialized through an internal lock -- the index rewrite and the
    write-then-rename of payloads happen under it.  Concurrent writers in
    *separate processes* remain unsupported: the index is rewritten whole
    on ``put``, so two simultaneously-writing processes race
    last-writer-wins (the batch runner keeps all writes in one parent
    process, and the server owns its cache directory, for exactly this
    reason).

    Counter lifetimes: ``hits``/``misses``/``evictions``/``stores`` count
    *this instance's* traffic (a CLI invocation, one server process).
    The cumulative counters across every instance that ever wrote this
    directory persist in the index document and surface as the
    ``lifetime`` block of :meth:`stats` -- so a cache directory's history
    survives process exits instead of resetting with each invocation.
    They reach disk with every index write; a host that serves reads
    without writing (a hit-only server session) flushes them explicitly
    via :meth:`flush_stats` (the server's graceful shutdown does).
    """

    root: Path
    max_entries: int | None = None
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    _index: dict = field(default_factory=dict, repr=False)
    _base_stats: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        document = self._read_document()
        self._index = document["entries"]
        self._base_stats = document["stats"]

    # -- paths & index -----------------------------------------------------

    @property
    def index_path(self) -> Path:
        """Where the deterministic JSON index lives."""
        return self.root / "index.json"

    @property
    def objects_dir(self) -> Path:
        """Where the pickled fixpoints live."""
        return self.root / "objects"

    def _read_document(self) -> dict:
        empty = {"entries": {}, "stats": {}}
        if not self.index_path.exists():
            return empty
        try:
            with open(self.index_path) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            # unreadable state is a miss everywhere else in this class;
            # a damaged index likewise degrades to an empty cache (the
            # orphaned object files are simply overwritten by future
            # puts of the same content address)
            return empty
        if not isinstance(document, dict):
            return empty
        entries = document.get("entries", {})
        stats = document.get("stats", {})
        return {
            "entries": entries if isinstance(entries, dict) else {},
            "stats": stats if isinstance(stats, dict) else {},
        }

    def _write_index(self) -> None:
        document = {
            "schema": f"fixpoint-cache/{PAYLOAD_SCHEMA}",
            "entries": self._index,
            "stats": self._lifetime_stats(),
        }
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(render_json(document))
        tmp.replace(self.index_path)

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.pkl"

    def _records_path(self, key: str) -> Path:
        # warm-start records are typically larger than the fixed point
        # itself, so they live in a sidecar loaded only on demand
        return self.objects_dir / f"{key}.records.pkl"

    def _count(self, counter: str) -> None:
        # the instance attribute stays authoritative (BatchReport and the
        # persisted lifetime block read it); the process registry gets a
        # mirrored increment so `repro stats` sees cache traffic too
        setattr(self, counter, getattr(self, counter) + 1)
        default_registry().counter("cache_events_total", kind=counter).inc()

    # -- the cache protocol ------------------------------------------------

    def get(
        self, program: Any, config: AnalysisConfig, with_records: bool = True
    ) -> CachedFixpoint | None:
        """Load the entry for ``(program, config)``, or ``None``."""
        key = cache_key(program, config)
        return self.get_key(key, with_records=with_records)

    def get_key(
        self, key: str, with_records: bool = True, count: bool = True
    ) -> CachedFixpoint | None:
        """Load an entry by its content address (see :func:`cache_key`).

        ``with_records=False`` skips the warm-start sidecar: callers that
        only need the fixed point (the batch runner's hit path) avoid
        unpickling the per-configuration records, which
        usually outweigh the fixed point.  ``count=False`` keeps the
        hit/recency bookkeeping untouched (donor *probes*, which may be
        rejected, must not read as answered queries).  Hits touch nothing
        on disk; the per-entry counters reach the index with the next
        ``put``.  An entry that cannot be read back (gone, truncated,
        foreign schema) is a miss and is forgotten, never an exception.
        """
        meta = self._index.get(key)
        if meta is None:
            if count:
                self._count("misses")
            return None
        path = self._object_path(key)
        ensure_deep_pickle()
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            # dangling or corrupt entry (removed/truncated behind our
            # back): forget it so e.g. latest_for cannot keep selecting a
            # ghost donor, and report a miss rather than crash
            if count:
                self._count("misses")
            self._forget(key)
            return None
        if not isinstance(payload, dict) or payload.get("schema") != PAYLOAD_SCHEMA:
            if count:
                self._count("misses")
            self._forget(key)
            return None
        records = program = None
        if with_records and meta.get("has_records"):
            records_path = self._records_path(key)
            try:
                with open(records_path, "rb") as handle:
                    sidecar = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
                # a damaged sidecar only costs the warm start, not the
                # fixed point: serve the entry records-free
                sidecar = {}
                meta["has_records"] = False
            records = sidecar.get("records")
            program = sidecar.get("program")
        fp = payload["fp"]
        if count:
            self._count("hits")
            meta["hits"] = meta.get("hits", 0) + 1
            meta["last_used"] = self._now()
        return CachedFixpoint(
            key=key,
            fp=fp,
            records=records,
            config_key=meta.get("config_key", ""),
            program_digest=meta.get("program_digest", ""),
            program=program,
        )

    def put(
        self,
        program: Any,
        config: AnalysisConfig,
        fp: Any,
        records: Mapping | None = None,
        seconds: float | None = None,
    ) -> str:
        """Store a fixed point (plus optional warm-start records); return its key."""
        key = cache_key(program, config)
        path = self._object_path(key)
        records_path = self._records_path(key)
        ensure_deep_pickle()
        with self._lock:
            # write-then-rename, like the index: a process killed mid-write
            # must never leave a truncated pickle behind a valid index entry
            tmp = path.with_suffix(".pkl.tmp")
            with open(tmp, "wb") as handle:
                pickle.dump({"schema": PAYLOAD_SCHEMA, "fp": fp}, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
            if records:
                # the program rides along so warm-start donor eligibility can
                # be decided against the actual term (see CachedFixpoint)
                sidecar = {"records": dict(records), "program": program}
                tmp = records_path.with_suffix(".pkl.tmp")
                with open(tmp, "wb") as handle:
                    pickle.dump(sidecar, handle, protocol=pickle.HIGHEST_PROTOCOL)
                tmp.replace(records_path)
            else:
                records_path.unlink(missing_ok=True)
            now = self._now()
            self._index[key] = {
                "program_digest": program_digest(program),
                "config_key": config.cache_key(),
                "created": now,
                "last_used": now,
                "hits": 0,
                "size_bytes": path.stat().st_size,
                "has_records": bool(records),
                "seconds": round(seconds, 6) if seconds is not None else None,
            }
            self._count("stores")
            self._evict_over_budget()
            self._write_index()
        return key

    def put_payload(
        self,
        program: Any,
        config: AnalysisConfig,
        object_blob: bytes,
        records_blob: bytes | None = None,
        seconds: float | None = None,
    ) -> str:
        """Store pre-pickled payload bytes directly; return the entry's key.

        The batch runner's transport optimisation: workers already
        serialize their results to cross the process boundary, so they
        pickle the exact on-disk shapes (``object_blob`` an encoding of
        ``{"schema": PAYLOAD_SCHEMA, "fp": fp}``, ``records_blob`` of
        the records sidecar) and the parent writes those bytes straight
        through -- no parent-side unpickle/repickle of the
        records, which usually outweigh the fixed point.  The disk
        format is byte-compatible with :meth:`put`; ``get``/``get_key``
        cannot tell the difference.
        """
        key = cache_key(program, config)
        path = self._object_path(key)
        records_path = self._records_path(key)
        with self._lock:
            tmp = path.with_suffix(".pkl.tmp")
            tmp.write_bytes(object_blob)
            tmp.replace(path)
            if records_blob is not None:
                tmp = records_path.with_suffix(".pkl.tmp")
                tmp.write_bytes(records_blob)
                tmp.replace(records_path)
            else:
                records_path.unlink(missing_ok=True)
            now = self._now()
            self._index[key] = {
                "program_digest": program_digest(program),
                "config_key": config.cache_key(),
                "created": now,
                "last_used": now,
                "hits": 0,
                "size_bytes": path.stat().st_size,
                "has_records": records_blob is not None,
                "seconds": round(seconds, 6) if seconds is not None else None,
            }
            self._count("stores")
            self._evict_over_budget()
            self._write_index()
        return key

    def latest_for(self, config: AnalysisConfig) -> CachedFixpoint | None:
        """The most recently used *warmable* entry for this configuration.

        This is the donor-lookup behind automatic warm starts: an edited
        program digests to a fresh key, but its predecessor ran under the
        same configuration, so the youngest records-bearing entry with a
        matching ``config_key`` is the natural seed
        (:mod:`repro.service.incremental` decides whether to use it).
        """
        config_key = config.cache_key()
        with self._lock:  # put() grows the index from other threads
            entries = list(self._index.items())
        candidates = sorted(
            (
                (meta.get("last_used", 0.0), key)
                for key, meta in entries
                if meta.get("config_key") == config_key and meta.get("has_records")
            ),
            reverse=True,
        )
        for _stamp, key in candidates:
            # a donor probe is not an answered query: keep hit/recency
            # bookkeeping untouched (the caller may yet reject the donor)
            entry = self.get_key(key, count=False)
            if entry is not None and entry.warmable:
                return entry
        return None

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict:
        """Hit/miss/evict/store counters plus the current entry count.

        The top-level counters are this instance's (one process's)
        traffic -- unchanged shape, so batch reports stay comparable.
        ``lifetime`` adds the cumulative counters across every instance
        that ever wrote this directory (persisted in the index; see the
        class docstring): one counter source whether the numbers are
        read from a ``BatchReport``, the server's ``stats`` method, or a
        later CLI invocation over the same cache directory.
        """
        return {
            "entries": len(self._index),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "lifetime": self._lifetime_stats(),
        }

    def _lifetime_stats(self) -> dict:
        """Session counters folded onto the persisted base counters."""
        base = self._base_stats
        return {
            "hits": base.get("hits", 0) + self.hits,
            "misses": base.get("misses", 0) + self.misses,
            "evictions": base.get("evictions", 0) + self.evictions,
            "stores": base.get("stores", 0) + self.stores,
        }

    def flush_stats(self) -> None:
        """Persist the lifetime counters (and per-entry recency) now.

        ``put`` already writes the index; this is for sessions that only
        *read* (a hit-serving server, a cache-hot batch): without it their
        hits would evaporate with the process.  The server's graceful
        shutdown calls this; ``run_batch`` does too when it used a cache.
        """
        with self._lock:
            self._write_index()

    def _forget(self, key: str) -> None:
        """Drop an unusable entry from the in-memory index only.

        Called from read paths, which must stay read-only on disk (the
        class's concurrency contract): the on-disk index self-repairs at
        the next ``put``, and any stale object files are content-addressed
        so a future put of the same key simply overwrites them.
        """
        self._index.pop(key, None)

    def _evict_over_budget(self) -> None:
        if self.max_entries is None:
            return
        while len(self._index) > self.max_entries:
            key = min(self._index, key=lambda k: self._index[k].get("last_used", 0.0))
            self._index.pop(key)
            self._object_path(key).unlink(missing_ok=True)
            self._records_path(key).unlink(missing_ok=True)
            self._count("evictions")

    @staticmethod
    def _now() -> float:
        return time.time()
