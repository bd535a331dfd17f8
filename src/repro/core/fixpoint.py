"""Fixed-point computation, decoupled from the semantics (paper 5.2).

The paper's third degree of freedom: the analysis lattice and the way a
least fixed point is computed are independent of both the semantic
interface and the monad.  This module provides

* :func:`kleene_iterate` -- the direct transliteration of the paper's
  ``kleeneIt``, ascending from bottom;
* :func:`kleene_iterate_widened` -- the same loop with a widening
  operator spliced between iterates, demonstrating that widening
  strategies are definable independently of the semantics;
* :class:`Collecting` -- the paper's ``Collecting m a fp`` class:
  ``inject`` seeds the domain from a single machine state and
  ``apply_step`` interprets one monadic transition over the whole domain;
* :func:`explore_fp` -- the paper's ``exploreFP``, tying the two together
  as ``lfp (\\s. inject c `join` applyStep step s)``;
* :func:`reachable` / :func:`worklist_explore` -- a frontier-driven
  evaluation strategy that computes the *same* fixed point as Kleene
  iteration for the set-of-configurations domains, but touches each
  configuration once (experiment E9 checks they agree);
* :func:`global_store_explore` -- the global-store worklist engine: the
  store-widened domain ``P(PSigma x guts) x Store`` evaluated by a
  worklist instead of whole-domain Kleene rounds, with per-configuration
  dependency tracking so that a store change only re-evaluates the
  configurations that actually read a changed address.  One loop
  serves both store representations; only its *store merge* differs.
  Against a :class:`~repro.core.store.VersionedStore` (or
  :class:`~repro.core.store.VersionedCountingStore`) the merge is
  O(delta): one mutable store, growth read off a changelog, no
  persistent-map joins on the hot path.

The two interchangeable strategies over the widened domain are named by
:data:`ENGINES`: ``kleene`` (whole-domain rounds, the paper-literal
oracle) and ``depgraph`` (frontier-driven, dependency-tracked
re-evaluation).  Both compute the same least fixed point -- chaotic
iteration of a monotone functional is order-insensitive -- which the
engine-equivalence test suite checks across all three languages.

Every engine is *transition-agnostic*: the ``step`` it receives may be
the generic monadic step (run through ``monad.run`` by the collecting
domain) or a staged :class:`~repro.core.fused.FusedTransition` (called
directly).  The dispatch lives in the collecting domain's
``run_config``/``run_config_pairs`` -- the only places a step is ever
executed -- so the loops below, including both depgraph store merges
and the GC overlay/sweep machinery, run either transition unchanged; the read/write-log bracketing they rely on
is identical because a fused step routes every store operation through
the same (possibly recording) ``store_like``.

Two precision refinements that used to be Kleene-only run on the
worklist engine as well:

* **abstract GC** (6.4): with the persistent merge each branch's result
  store arrives already swept (the collector is woven into the monadic
  step), so joining result stores into the global store is exactly the
  grow-only image of the Kleene+GC iteration -- which is monotone on
  every corpus program, hence the same least fixed point.  With the
  versioned merge, writes cannot land in the shared mutable store
  directly (dead bindings would leak into every configuration's view),
  so each evaluation runs against a
  :class:`~repro.core.store.GCOverlay`; the engine then sweeps
  reachability from every successor state and merges only the live
  writes.  The sweep happens *inside* the read-log bracket: its fetches
  -- including fetches of addresses first bound during this very
  evaluation -- are dependency roots, so a GC'd-then-rebound address
  retriggers exactly the configurations whose reachable set it can
  enlarge.
* **abstract counting** (6.3): at the Kleene fixed point every
  step-written address has count MANY (the confirming round re-binds it
  once more), so the engine tracks the written-address set through the
  recording store's write log and saturates those counts once, after
  convergence -- the identical fixed point without the re-evaluations.

## The versioning invariant (what the O(delta) merge relies on)

A :class:`~repro.core.store.MutableStore` bumps ``versions[addr]`` and
appends ``addr`` to its ``changelog`` exactly when the value set at
``addr`` changes; value sets only grow (binds are joins).  Therefore
``mark()``/``changed_since(mark)`` bracket an evaluation's store growth
precisely, and "nothing changed" is an integer comparison.  The
``kleene`` engine is incompatible with this representation -- it
re-applies the functional to immutable whole-domain snapshots and needs
earlier iterates to remain observable, while a mutable store has
identity, not history -- which is why ``kleene`` + ``versioned`` is
rejected at assembly time (see :func:`repro.config.prepare_store` and
:meth:`repro.config.AnalysisConfig.validated`).

## The read/write-log bracketing protocol

The worklist engine requires the store to be wrapped in a
:class:`~repro.core.store.RecordingStore` and brackets each evaluation
with ``begin_log``/``end_log``.  Everything that must influence
re-triggering has to happen inside the bracket: the monadic step, the
woven-in GC sweep (persistent merge) and the engine-side GC sweep
(versioned merge).  ``end_log`` runs in a ``finally`` so a raising step
cannot leave the log open (``begin_log`` refuses re-entry), and the
returned ``(reads, writes)`` -- the recorder's own sets, which the next
``begin_log`` empties -- are consumed before the next bracket opens:
reads feed the dependency map, writes feed growth detection and the
counting saturation set, and an evaluation capture freezes both.  A
plain versioned drain (no counting, warm start or capture) reads no
writes, so it opens its brackets without a write log.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping

from repro.core.fused import FusedTransition
from repro.core.gc import reachable_addresses
from repro.core.lattice import Lattice
from repro.core.store import (
    ACounter,
    GCOverlay,
    MutableStore,
    RecordingStore,
    StoreSnapshot,
    VersionedCountingStore,
    VersionedStore,
    unwrap_store,
)

#: The interchangeable fixed-point strategies over the global-store domain.
ENGINES = ("kleene", "depgraph")

#: The store representations the worklist engine can run against:
#: ``persistent`` threads immutable PMap stores and compares growth
#: through the store lattice; ``versioned`` threads one mutable
#: :class:`~repro.core.store.MutableStore` and reads growth off its
#: changelog in O(delta).  Both drive the one depgraph loop of
#: :func:`global_store_explore`; only its store merge differs.
STORE_IMPLS = ("persistent", "versioned")


class FixpointDiverged(Exception):
    """Raised when iteration exceeds the configured step budget."""


# ---------------------------------------------------------------------------
# Warm starts: replayable evaluations and the seed they resume from
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRecord:
    """One configuration's *last* evaluation, as replayable data.

    ``reads`` and ``writes`` are the address sets of the
    :class:`~repro.core.store.RecordingStore` bracket and ``successors``
    the ``(pstate, guts)`` pairs the evaluation stepped to.  At a
    depgraph fixed point the record is exact with respect to the final
    store: had any read address grown after the last evaluation, the
    dependency map would have re-enqueued the configuration, contradicting
    convergence.  A single evaluation is a pure function of the
    configuration and the store restricted to its reads, so the record
    can stand in for re-running the step whenever those cells still hold
    the recorded values -- the memoization behind ``warm_start=``.
    ``writes`` keeps the replay honest on the *store* side: the warm
    engine restricts its final store to addresses some surviving
    configuration wrote (or the injection seeded), so cells only a
    no-longer-reachable donor configuration wrote do not leak into the
    result.
    """

    reads: frozenset
    writes: frozenset
    successors: tuple


@dataclass(frozen=True)
class WarmStart:
    """A previous fixed point, packaged to seed an incremental re-run.

    ``store`` is the prior global store -- a frozen PMap image or a
    :class:`~repro.core.store.StoreSnapshot` -- and ``records`` maps each
    previously-seen configuration to its :class:`EvalRecord`.  The warm
    engine path seeds its global store from ``store`` and, when it pops a
    configuration whose record's reads are all still *clean* (no address
    grew past the seeded value), replays the recorded successors instead
    of evaluating the step; the recorded writes are already contained in
    the seeded store, so replay needs no store work at all.  Dirty or
    unknown configurations are evaluated for real.

    Equality contract (pinned corpus-wide in ``tests/test_service.py``):
    the warm result is *identical* to a cold run of the same program
    provided the seeded store lies at or below the cold run's fixed-point
    store -- true by construction for an unedited program and for edits
    that extend a program without removing old behavior at shared
    addresses (e.g. wrapping a new entry around an interned subprogram).
    An edit that deletes behavior can leave stale cells in the seed; the
    warm result is then still a sound over-approximation, and callers who
    need exactness fall back to a cold run
    (see :mod:`repro.service.incremental`).
    """

    store: Any
    records: Mapping

    @property
    def size(self) -> int:
        """How many configurations the seed can replay (for stats/reports)."""
        return len(self.records)


@dataclass
class FixpointCapture:
    """A sink ``global_store_explore`` fills so a run can seed later ones.

    ``records`` receives every configuration's latest :class:`EvalRecord`
    (overwritten on re-evaluation, so convergence leaves the exact
    last-evaluation records a :class:`WarmStart` needs); replayed
    configurations during a warm run re-deposit their cached record, so a
    warm run's capture is complete and chains of edits stay warm.
    """

    records: dict = field(default_factory=dict)

    def warm_start(self, store: Any) -> WarmStart:
        """Package this capture with a fixed-point ``store`` as a seed."""
        return WarmStart(store=store, records=dict(self.records))


def kleene_iterate(
    lattice: Lattice,
    f: Callable[[Any], Any],
    max_steps: int = 1_000_000,
) -> Any:
    """The paper's ``kleeneIt``: iterate ``f`` from bottom until post-fixed.

    ``loop c = let c' = f c in if c' <= c then c else loop c'``

    Correct for monotone ``f`` over a lattice of finite height; the
    ``max_steps`` budget turns accidental divergence (e.g. analyses with
    unbounded time, footnote 5 of the paper) into a clean error.
    """
    current = lattice.bottom()
    for _ in range(max_steps):
        nxt = f(current)
        if lattice.leq(nxt, current):
            return current
        current = nxt
    raise FixpointDiverged(f"no fixed point within {max_steps} Kleene iterations")


def kleene_iterate_widened(
    lattice: Lattice,
    f: Callable[[Any], Any],
    widen: Callable[[Any, Any], Any],
    max_steps: int = 1_000_000,
) -> Any:
    """Kleene iteration accelerated by a widening operator.

    ``widen(previous, next)`` must return an upper bound of both of its
    arguments; soundness of the result then follows from the usual
    widened-iteration argument.  With ``widen = lattice.join`` this
    coincides with :func:`kleene_iterate`.
    """
    current = lattice.bottom()
    for _ in range(max_steps):
        nxt = f(current)
        if lattice.leq(nxt, current):
            return current
        current = widen(current, nxt)
    raise FixpointDiverged(f"no fixed point within {max_steps} widened iterations")


class Collecting:
    """The paper's ``Collecting m a fp`` type class.

    The functional dependencies ``fp -> a`` and ``fp -> m`` become plain
    object state: a ``Collecting`` instance *knows* its monad and its
    state domain, fixing how a monadic step function is interpreted over
    the fixed-point domain ``fp``.

    Subclasses implement:

    ``inject(a)``
        wrap a single machine state into the bottom-most ``fp`` element,
        instrumenting it with initial guts / store as required;

    ``apply_step(step, fp)``
        interpret one transition ``step : a -> m a`` over every
        configuration in ``fp``, joining the outcomes.
    """

    def inject(self, state: Any) -> Any:
        raise NotImplementedError

    def apply_step(self, step: Callable[[Any], Any], fp: Any) -> Any:
        raise NotImplementedError

    def lattice(self) -> Lattice:
        """The fixed-point domain as a lattice."""
        raise NotImplementedError


def explore_fp(
    collecting: Collecting,
    step: Callable[[Any], Any],
    initial_state: Any,
    max_steps: int = 1_000_000,
) -> Any:
    """The paper's ``exploreFP``: the collecting semantics as a least fixed point.

    ``exploreFP step c = kleeneIt (\\s -> inject c `join` applyStep step s)``
    """
    lattice = collecting.lattice()
    seed = collecting.inject(initial_state)

    def functional(s: Any) -> Any:
        return lattice.join(seed, collecting.apply_step(step, s))

    return kleene_iterate(lattice, functional, max_steps=max_steps)


# ---------------------------------------------------------------------------
# Frontier-driven exploration (same fixed point, fewer step evaluations)
# ---------------------------------------------------------------------------


def reachable(
    initial: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
    max_states: int = 1_000_000,
) -> frozenset:
    """Transitive closure of ``successors`` from ``initial`` by worklist.

    For a powerset fixed-point domain whose functional is
    ``F(X) = X0 | { s' | s in X, s -> s' }`` this computes exactly
    ``lfp F``, but evaluates the transition once per configuration rather
    than once per configuration per Kleene round.
    """
    seen: set = set(initial)
    frontier: list = list(seen)
    while frontier:
        if len(seen) > max_states:
            raise FixpointDiverged(f"state space exceeded {max_states} configurations")
        state = frontier.pop()
        for nxt in successors(state):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def worklist_explore(
    collecting: "Collecting",
    step: Callable[[Any], Any],
    initial_state: Any,
    successors_of: Callable[[Callable, Hashable], Iterable[Hashable]],
    max_states: int = 1_000_000,
) -> frozenset:
    """Worklist evaluation of a set-of-configurations collecting semantics.

    ``successors_of(step, config)`` must enumerate the configurations a
    single configuration steps to (i.e. one application of the monadic
    ``step`` run in that configuration's guts and store).  The result is
    the same fixed point :func:`explore_fp` computes for the powerset
    domain (verified by experiment E9 / the fixpoint test suite).
    """
    seeds = collecting.inject(initial_state)
    return reachable(seeds, lambda config: successors_of(step, config), max_states)


# ---------------------------------------------------------------------------
# The global-store worklist engine (dependency-tracked re-evaluation)
# ---------------------------------------------------------------------------


class FifoWorklist:
    """The depgraph loop's worklist: FIFO, each configuration queued at most once.

    Discoveries and retriggers both join the tail.  Retriggering a
    configuration that is already queued is suppressed -- it will observe
    the grown store when it is popped -- and counted in ``dedup_hits``.
    Any drain order reaches the same least fixed point (chaotic
    iteration); FIFO's append-at-tail batches a reader's re-run behind
    the growth already queued.

    Any hashable item can be queued.  :func:`global_store_explore`
    queues configuration *ids* -- the small integers it numbers each
    configuration with when first discovering it -- so a pop and a
    queue test hash an ``int`` in C, never a ``(pstate, guts)`` tuple
    through its members' Python-level ``__hash__``.
    """

    __slots__ = ("_queue", "_queued", "dedup_hits")

    def __init__(self, seeds: Iterable[Hashable] = ()) -> None:
        self._queue: deque = deque(seeds)
        self._queued: set = set(self._queue)
        #: retrigger requests suppressed because the config was queued
        self.dedup_hits = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def discovered(self, config: Hashable) -> None:
        """Queue a configuration seen for the first time."""
        self._queued.add(config)
        self._queue.append(config)

    def retrigger(self, config: Hashable) -> bool:
        """Re-queue an already-seen configuration; ``False`` if suppressed."""
        if config in self._queued:
            self.dedup_hits += 1
            return False
        self.discovered(config)
        return True

    def pop(self) -> Hashable:
        config = self._queue.popleft()
        self._queued.discard(config)
        return config


def global_store_explore(
    collecting: Any,
    step: Callable[[Any], Any],
    initial_state: Any,
    max_evals: int = 1_000_000,
    stats: dict | None = None,
    warm_start: WarmStart | None = None,
    capture: FixpointCapture | None = None,
    trace: list | None = None,
) -> tuple:
    """Worklist evaluation of the store-widened domain ``P(configs) x Store``.

    ``collecting`` must be a shared-store domain (a
    :class:`~repro.core.collecting.SharedStoreCollecting` or subclass):
    its ``inject`` seeds the configuration set and the global store, and
    its ``inner`` per-state domain runs one configuration against a
    given store, which must be a
    :class:`~repro.core.store.RecordingStore`.  The engine then maintains

    * one *global store*, the join of every store any evaluation produced
      (the standard AAM global-store widening);
    * a numbering of the configurations seen so far (``index``, from a
      configuration to its id, and ``configs``, back) and a worklist of
      the ids still to (re-)evaluate;
    * a dependency map ``addr -> readers`` recording which configurations
      fetched which addresses during their last evaluation (read off the
      recording store's log).

    Each configuration is a ``(pstate, guts)`` tuple, which Python does
    not memoize the hash of: every hash of one calls its members'
    ``__hash__`` again.  So the loop hashes a configuration only where it
    must -- once per successor (``index.setdefault``, which tests and
    numbers it in one probe), once per logged read (the reader sets of
    the dependency map) and once per retrigger candidate (a reader back
    to its id) -- and everything else runs on ids: the worklist's queue
    and queued set, and the semi-naive ``observed``/``primed`` maps.  The
    reader sets keep the configurations themselves, because a set
    iterates in its members' hash order and that order is the retrigger
    order; an id-keyed reader set would drain in another order and move
    the counts, not the fixed point (PERFORMANCE.md, "Numbered
    configurations").

    When an evaluation grows the global store, Kleene iteration would
    re-step *every* configuration next round; this engine re-enqueues
    only the configurations that read an address whose value set grew.
    Both strategies compute the same least fixed point: the functional
    is monotone, and chaotic iteration re-evaluating every equation
    whose inputs changed converges to the least solution regardless of
    order.

    Returns the fixed point in the shared-domain shape
    ``(frozenset(configs), store)``.  ``stats``, when supplied, is filled
    with evaluation counts for benchmarking.

    Two store representations back the one loop (:data:`STORE_IMPLS`);
    only the *store merge* differs.  :class:`_PersistentMerge` joins
    result stores through the store lattice and compares growth
    address-by-address; over a :class:`~repro.core.store.VersionedStore`
    (or :class:`~repro.core.store.VersionedCountingStore`)
    :class:`_VersionedMerge` mutates one shared store in place and reads
    growth off its changelog in O(delta).  Either way the returned store
    is an immutable PMap and the fixed point is identical (checked across
    the corpus by the store-impl equivalence tests).

    Abstract GC and counting compose with both merges: the persistent one
    receives GC pre-woven into the step (each branch's result store is
    already swept), the versioned one sweeps itself, and counting stores
    have their step-written counts saturated after convergence (see the
    module docstring for why that reproduces the Kleene counting fixed
    point exactly).

    ``warm_start`` seeds the run from a previous fixed point (see
    :class:`WarmStart`: the seeded store is joined in, and configurations
    whose recorded reads are still clean replay their recorded successors
    instead of re-stepping).  ``capture``, when supplied, is filled with
    every configuration's last :class:`EvalRecord` so *this* run can seed
    later ones.  Neither composes with abstract GC or counting: the GC
    sweep and the count-saturation pass are side-effects an
    :class:`EvalRecord` replay would silently skip.

    **Semi-naive re-evaluation.**  A store lookup is ``getsNDSet``
    (paper 5.3.2): every fetched value is its own branch, so one step
    over a value set is the union of the steps over its elements.  When
    the step is a :class:`~repro.core.fused.FusedTransition` (whose
    contract includes this distributivity), the merge is
    :class:`_VersionedMerge`, abstract GC is off, ``warm_start`` and
    ``capture`` are both ``None``, and a configuration's last evaluation
    made exactly one store observation (one ``fetch``; an ``update``
    also counts), then a retrigger re-evaluates it on the *delta*: the
    first fetch of the same address returns only the values that were
    not in the set it fetched last time, in the full set's iteration
    order (see :class:`~repro.core.store.RecordingStore`).  This is
    exact: a single-observation evaluation reads nothing while it
    processes each value, so the old values' successors are already
    numbered and re-binding them cannot grow the store (a counting store
    would only bump counts, which the post-convergence saturation raises
    to MANY anyway).  The rest keep full re-evaluation: the persistent
    merge collects branches into a set, whose order fewer elements would
    change; the GC sweep reads every successor's reachable set, old ones
    included; a capture must record complete successors and writes, and
    a warm start replays such records; a generic step may use a fetched
    set as a whole; and an evaluation with several observations can
    combine them (a CPS argument product).  ``delta_evaluations``
    counts the re-evaluations that took this path.

    The worklist is a :class:`FifoWorklist` over configuration ids; its
    suppressed re-enqueues are reported as the ``dedup_hits`` stat.
    ``trace``, when supplied, receives every real (non-replayed)
    evaluation's configuration in evaluation order -- the raw feed
    behind ``tools/profile_analysis.py --schedule-trace``.
    """
    inner = collecting.inner
    recorder = inner.store_like
    if not isinstance(recorder, RecordingStore):
        raise TypeError(
            "the global-store engine needs the collecting domain's store to be "
            "a RecordingStore: its read/write log drives dependency tracking"
        )
    base_store = unwrap_store(recorder)
    counting = isinstance(base_store, ACounter)
    gc_on = getattr(inner, "collector", None) is not None
    if (warm_start is not None or capture is not None) and (gc_on or counting):
        what = "warm starts" if warm_start is not None else "evaluation capture"
        raise TypeError(
            f"{what} do not compose with abstract GC or counting: the "
            "per-evaluation sweep and the count saturation are effects "
            "an evaluation record cannot replay"
        )
    seed_configs, seed_store = collecting.inject(initial_state)
    versioned = isinstance(base_store, (VersionedStore, VersionedCountingStore))
    merge = (_VersionedMerge if versioned else _PersistentMerge)(
        inner, base_store, seed_store, warm_start
    )
    warm_records = None
    live_writes: set = set()
    dirty: set = set()
    if warm_start is not None:
        warm_records = warm_start.records
        live_writes = set(seed_store.keys())
        dirty = merge.seeded_growth()
    # configuration <-> id, numbered at discovery (see the docstring)
    configs: list = list(seed_configs)  # a set: no duplicates
    index: dict = {config: cid for cid, config in enumerate(configs)}
    worklist = FifoWorklist(range(len(configs)))
    # the semi-naive fast path: ``observed`` holds each configuration's
    # sole fetch ``(addr, values)`` from its last evaluation, by id,
    # moved to ``primed`` when a retrigger re-queues it
    no_replay = warm_start is None and capture is None
    delta_ok = (
        no_replay and versioned and not gc_on and isinstance(step, FusedTransition)
    )
    # nothing reads the write log of a plain versioned drain
    log_writes = not (no_replay and versioned and not counting)
    observed: dict = {}
    primed: dict = {}
    # reader sets hold configurations, not ids: their iteration order
    # is the retrigger order
    deps: defaultdict = defaultdict(set)
    written_all: set = set()
    evals = 0
    retriggers = 0
    reused = 0
    delta_evals = 0
    begin_log, end_log = recorder.begin_log, recorder.end_log
    evaluate, commit = merge.evaluate, merge.commit
    discovered, retrigger = worklist.discovered, worklist.retrigger

    while worklist:
        cid = worklist.pop()
        config = configs[cid]
        prior = primed.pop(cid, None) if primed else None

        if warm_records is not None:
            record = warm_records.get(config)
            if record is not None and dirty.isdisjoint(record.reads):
                # replay: the record's reads still hold their seeded
                # values, so the evaluation would reproduce exactly the
                # recorded successors, and its writes are already part of
                # the seeded store -- discovery without stepping.  The
                # reads still enter the dependency map: if a cell grows
                # later, the replayed configuration is re-enqueued and
                # (now dirty) evaluated for real.
                reused += 1
                live_writes |= record.writes
                for addr in record.reads:
                    deps[addr].add(config)
                for pair in record.successors:
                    fresh = len(configs)
                    if index.setdefault(pair, fresh) == fresh:
                        configs.append(pair)
                        discovered(fresh)
                if capture is not None:
                    capture.records[config] = record
                continue

        evals += 1
        if evals > max_evals:
            raise FixpointDiverged(
                f"no fixed point within {max_evals} configuration evaluations"
            )
        if trace is not None:
            trace.append(config)

        if prior is not None:
            delta_evals += 1
        begin_log(log_writes, prior)
        try:
            pairs = evaluate(step, config)
        finally:
            # always close the bracket: a step that raises must not
            # leave the recorder logging (begin_log refuses reentry)
            reads, writes = end_log()
        for addr in reads:
            deps[addr].add(config)
        if delta_ok:
            sole = recorder.sole_fetch()
            if sole is not None:
                observed[cid] = sole
        if counting:
            written_all |= writes
        if warm_records is not None:
            live_writes |= writes

        for pair in pairs:
            fresh = len(configs)
            if index.setdefault(pair, fresh) == fresh:
                configs.append(pair)
                discovered(fresh)
        if capture is not None:
            capture.records[config] = EvalRecord(
                reads=frozenset(reads),
                writes=frozenset(writes),
                successors=tuple(dict.fromkeys(pairs)),
            )

        # re-enqueue only the readers of addresses whose value set grew
        for addr in commit(writes):
            if warm_records is not None:
                dirty.add(addr)
            readers = deps.get(addr)
            if readers is None:
                continue
            for reader in readers:
                rid = index[reader]
                if retrigger(rid):
                    retriggers += 1
                    if observed:
                        entry = observed.pop(rid, None)
                        if entry is not None:
                            primed[rid] = entry

    global_store = merge.result(written_all)
    if warm_records is not None:
        # drop seeded cells no surviving configuration wrote: a donor
        # configuration that is unreachable in this program must not
        # leak its bindings into the result (cold-equality contract)
        global_store = global_store.restrict(live_writes.__contains__)
    if stats is not None:
        stats.update(
            evaluations=evals,
            retriggers=retriggers,
            configurations=len(configs),
            tracked_addresses=len(deps),
            reused=reused,
            dedup_hits=worklist.dedup_hits,
            delta_evaluations=delta_evals,
        )
    # built from the dict, the frozenset reuses the stored hashes
    return (frozenset(index), global_store)


class _PersistentMerge:
    """The depgraph store merge over immutable PMap stores.

    Every evaluation runs against the current global store and returns
    one result store per branch (with abstract GC each arrives already
    swept: the collector is woven into the step); :meth:`commit` joins
    them through the store lattice and compares growth address by
    address.
    """

    def __init__(self, inner, base_store, seed_store, warm_start):
        self._inner = inner
        self._recorder = recorder = inner.store_like
        self._base_store = base_store
        self._store_lattice = recorder.lattice()
        self._value_lattice = recorder.value_lattice
        self._results: Iterable = ()
        self.store = seed_store
        if warm_start is not None:
            warm_store = warm_start.store
            if isinstance(warm_store, StoreSnapshot):
                warm_store = warm_store.data
            self.store = self._store_lattice.join(seed_store, warm_store)

    def seeded_growth(self) -> set:
        """Nothing has grown past a joined-in seed yet."""
        return set()

    def evaluate(self, step: Callable[[Any], Any], config: Hashable) -> list:
        """Step ``config`` against the global store; the successor pairs."""
        self._results = self._inner.run_config(step, (config, self.store))
        return [pair for pair, _result_store in self._results]

    def commit(self, writes: Iterable) -> list:
        """Join the last evaluation's result stores; the addresses that grew."""
        old_store = self.store
        new_store = old_store
        for _pair, result_store in self._results:
            new_store = self._store_lattice.join(new_store, result_store)
        if new_store is old_store:
            return []
        self.store = new_store
        # the comparison goes through ``fetch`` because that is all a
        # re-evaluation can observe (counting stores: count-only drift
        # is invisible to fetch, so it never retriggers)
        fetch, leq = self._recorder.fetch, self._value_lattice.leq
        # the grown addresses come back in the order of a frozen copy of
        # the write log (the order the retriggers follow): the log's own
        # set can be laid out differently once it holds five addresses
        return [
            a
            for a in frozenset(writes)
            if not leq(fetch(new_store, a), fetch(old_store, a))
        ]

    def result(self, written: set) -> Any:
        """The fixed-point store, with step-written counts saturated."""
        if isinstance(self._base_store, ACounter):
            return self._base_store.saturate(self.store, written)
        return self.store


def _successor_live_addresses(
    sweep_like: Any, overlay: Any, pairs: Iterable, touching: Any
) -> set:
    """Addresses reachable from any successor state, swept over ``overlay``.

    This is the engine-side image of the paper's ``Gamma`` (6.4): one
    reachability closure per successor, unioned.  The sweep goes through
    ``sweep_like`` -- the engine's
    :class:`~repro.core.store.RecordingStore` -- so every address it
    fetches lands in the open read log.  That includes addresses *bound
    after the log opened* (this evaluation's own writes, visible through
    the overlay): missing those reads would leave the dependency map
    without the GC roots, and a configuration whose reachable set grows
    through such an address would never be retriggered.
    """
    # reachability distributes over root unions, so one closure over the
    # union of every successor's roots equals the per-successor sweeps
    # at a fraction of the cost (each address is visited once, not once
    # per successor that reaches it)
    roots: set = set()
    for pstate, _guts in pairs:
        roots |= touching.touched_by_state(pstate)
    return set(
        reachable_addresses(sweep_like, overlay, roots, touching.touched_by_value)
    )


class _VersionedMerge:
    """The O(delta) depgraph store merge over one mutable store.

    Same fixed point, different bookkeeping: the engine owns one
    :class:`~repro.core.store.MutableStore` which every evaluation
    mutates in place (join-only, so sharing it across monadic branches
    *is* the global-store widening), and growth is read off the store's
    changelog instead of joining and re-comparing persistent maps:

    * "did this evaluation change anything" is ``mark()`` before versus
      after -- an integer comparison;
    * "which readers to retrigger" walks only ``changed_since(mark)``,
      the addresses whose value sets actually grew.

    With abstract GC the shared store cannot take writes directly; each
    evaluation instead runs against a
    :class:`~repro.core.store.GCOverlay` and the engine merges only the
    writes reachable from some successor state (the sweep happens inside
    the read-log bracket -- see :func:`_successor_live_addresses`).  The
    merge's version bumps are exactly what retriggers the readers of a
    GC'd-then-rebound address.  With a counting store, step-written
    counts are saturated after convergence (module docstring).

    The result is frozen back to a PMap, so callers see the exact shape
    (and value) the persistent merge produces.
    """

    def __init__(self, inner, base_store, seed_store, warm_start):
        self._inner = inner
        self._base_store = base_store
        collector = getattr(inner, "collector", None)
        self._touching = collector.touching if collector is not None else None
        self._mark = 0
        if warm_start is not None:
            # resume the mutable store from the seeded snapshot: restore()
            # leaves the changelog empty, so changed_since() reports
            # exactly the growth past the seed -- which is also the dirty
            # set that invalidates evaluation records
            self.store = MutableStore.restore(StoreSnapshot.of_mapping(warm_start.store))
            for addr in seed_store.keys():
                base_store.bind(self.store, addr, seed_store.get(addr))
        else:
            self.store = base_store.thaw(seed_store)

    def seeded_growth(self) -> set:
        """The addresses the injection grew past the restored seed."""
        return set(self.store.changed_since(0))

    def evaluate(self, step: Callable[[Any], Any], config: Hashable) -> list:
        """Step ``config`` against the shared store; the successor pairs."""
        self._mark = self.store.mark()
        if self._touching is None:
            return self._inner.run_config_pairs(step, (config, self.store))
        overlay = GCOverlay(self.store)
        pairs = self._inner.run_config_pairs(step, (config, overlay))
        # the sweep must stay inside the bracket: its reads (even of
        # addresses bound after the log opened) are the GC roots of the
        # dependency map
        live = _successor_live_addresses(
            self._inner.store_like, overlay, pairs, self._touching
        )
        # merge the live writes straight into the mutable store (not
        # through the recorder, so the logs are unaffected); dead
        # bindings never reach the store
        for addr, entry in overlay.written().items():
            if addr in live:
                self._base_store.merge_entry(self.store, addr, entry)
        return pairs

    def commit(self, writes: Iterable) -> set:
        """The addresses whose value sets grew since :meth:`evaluate` began."""
        return set(self.store.changed_since(self._mark))

    def result(self, written: set) -> Any:
        """The fixed-point store, saturated and frozen back to a PMap."""
        if isinstance(self._base_store, ACounter):
            self._base_store.saturate(self.store, written)
        return self._base_store.freeze(self.store)
