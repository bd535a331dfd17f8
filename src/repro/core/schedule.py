"""Worklist scheduling policies for the global-store engines.

Every engine since the first worklist drained a plain FIFO deque: pop
left, evaluate, append newly-discovered successors and retriggered
readers on the right.  That order is *correct* for any drain order --
chaotic iteration of a monotone functional converges to the least fixed
point regardless -- but it is not *cheap*: on chain- and loop-shaped
programs a store bump deep in the chain re-enqueues readers in
dependency-backwards order, so the same configuration is re-evaluated
once per growth wave instead of once per stable input.

This module factors the drain order out of the engines as two
interchangeable worklist objects behind one small protocol:

* :class:`FifoWorklist` -- the historical order, unchanged: FIFO with an
  in-worklist membership set so a configuration is never queued twice
  (the engines always had the set; here the *suppressed* enqueues become
  a counted stat, ``dedup_hits``).
* :class:`PriorityWorklist` -- Bourdoncle-style weak-topological
  iteration order approximated online, with no pre-pass over the
  transition graph.  Each configuration gets a *rank*: seeds rank 0,
  successors discovered during stepping ``rank(parent) + 1``, and a
  retriggered reader keeps the rank it was first discovered at.  The
  queue drains in ascending ``(wave, rank, insertion sequence)`` order:
  fresh discoveries join the current wave at their rank, while a
  retriggered reader re-enters in the *next* wave -- behind everything
  currently queued, exactly where FIFO would have put it -- and the
  wave then drains shallowest-rank-first.  Store growth therefore
  flows *forward* along the dependency depth within each wave, and a
  stale reader re-runs only once per wave, after the whole join of
  that wave's downstream growth has landed, instead of once per bump.

The wave term in the key is what makes the rank order *pay*.  A pure
``(rank, sequence)`` heap is eager: a retriggered shallow reader
preempts deeper pending work and re-runs before its inputs stabilize,
which measured strictly worse than FIFO corpus-wide (FIFO's
append-at-tail is an implicit batcher).  Deferring retriggers by one
wave keeps FIFO's batching and adds the topological in-wave order --
on the dependency-tracked engine it is neutral to modestly better (the
dependency map already suppresses most wasted work).

Both policies share the dedup/rank bookkeeping so their stats are
comparable cell-for-cell in benchmark reports:

``dedup_hits``
    retrigger requests suppressed because the configuration was already
    in the worklist (it will observe the new store state anyway when it
    is popped);
``max_rank``
    the deepest dependency rank assigned -- a cheap proxy for the
    longest discovery chain in the workload.

Determinism: ranks are assigned once, at first discovery, and never
updated -- so the priority order is a *static* key plus an insertion
sequence number for ties.  Two consequences the test suite pins down:

* no starvation: a queued entry's key is fixed at insertion, the wave
  counter only ever advances past it, and only finitely many entries
  can carry a smaller key, so everything queued is eventually popped
  (termination of the fake-domain property tests is exactly this
  argument);
* determinism: given the same discovery/retrigger call sequence the
  drain order is fully determined; no heap tie is ever broken by
  configuration identity (the sequence number is unique), so
  configurations never need to be comparable.

Ranks are scheduling state, not analysis state: they are derived from
discovery order, differ between ``fifo`` and ``priority`` runs of the
same workload, and must never leak into
:class:`~repro.core.fixpoint.EvalRecord` or the fixpoint cache --
cache entries are shared across schedules precisely because the fixed
point is schedule-independent (``AnalysisConfig.cache_key()`` excludes
``schedule`` for the same reason).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Hashable, Iterable

#: The interchangeable worklist drain orders (the ``schedule=`` axis of
#: :class:`~repro.config.AnalysisConfig`).
SCHEDULES = ("fifo", "priority")


class FifoWorklist:
    """FIFO drain order with enqueue dedup and rank bookkeeping.

    The rank accounting mirrors :class:`PriorityWorklist` exactly (same
    assignment rule, same ``max_rank`` stat) but never influences the
    drain order -- so a ``fifo`` run reports the same structural stats a
    ``priority`` run does, and benchmark cells compare like for like.
    """

    __slots__ = ("_queue", "_queued", "ranks", "dedup_hits", "max_rank", "_seq", "_wave")

    def __init__(self, seeds: Iterable[Hashable] = ()) -> None:
        self._queue = self._empty_queue()
        self._queued: set = set()
        #: rank at first discovery; never updated afterwards
        self.ranks: dict = {}
        #: retrigger requests suppressed because the config was queued
        self.dedup_hits = 0
        #: deepest rank assigned (0 when only seeds were ever queued)
        self.max_rank = 0
        self._seq = 0
        self._wave = 0
        for config in seeds:
            self.discovered(config)

    def _empty_queue(self):
        return deque()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def discovered(self, config: Hashable, parent: Hashable | None = None) -> None:
        """Queue a configuration seen for the first time.

        Seeds (``parent is None``) get rank 0; successors get
        ``rank(parent) + 1``.  Callers guard with their own ``seen`` set,
        so this runs exactly once per configuration -- which is what
        makes the rank assignment static.
        """
        rank = 0 if parent is None else self.ranks.get(parent, 0) + 1
        self.ranks[config] = rank
        if rank > self.max_rank:
            self.max_rank = rank
        self._push(config, rank, defer=False)

    def retrigger(self, config: Hashable) -> bool:
        """Re-queue an already-seen configuration; ``False`` if suppressed.

        A configuration already in the worklist will observe the grown
        store when it is popped, so queueing it again would only buy a
        wasted re-evaluation -- the suppression is counted in
        ``dedup_hits``.  The configuration keeps its original rank and
        (under ``priority``) re-enters in the next wave.
        """
        if config in self._queued:
            self.dedup_hits += 1
            return False
        self._push(config, self.ranks.get(config, 0), defer=True)
        return True

    def pop(self) -> Hashable:
        config = self._queue.popleft()
        self._queued.discard(config)
        return config

    def _push(self, config: Hashable, rank: int, defer: bool) -> None:
        self._queued.add(config)
        self._queue.append(config)


class PriorityWorklist(FifoWorklist):
    """Drain in ascending ``(wave, rank, insertion sequence)`` order.

    Fresh discoveries join the wave currently draining; retriggered
    readers are deferred to the next wave (see the module docstring for
    why the deferral, not the rank alone, is what beats FIFO).  The
    wave counter advances lazily: popping an entry from a later wave
    means the current wave has fully drained.

    Backed by a binary heap; the membership set guarantees each
    configuration appears at most once, so there are no stale heap
    entries to lazily skip and ``len(heap) == len(queued)`` always.
    """

    __slots__ = ()

    def _empty_queue(self):
        return []

    def pop(self) -> Hashable:
        wave, _rank, _seq, config = heapq.heappop(self._queue)
        if wave > self._wave:
            self._wave = wave
        self._queued.discard(config)
        return config

    def _push(self, config: Hashable, rank: int, defer: bool) -> None:
        self._queued.add(config)
        self._seq += 1
        # the unique sequence number breaks every tie, so heap ordering
        # never falls through to comparing configurations
        heapq.heappush(
            self._queue, (self._wave + (1 if defer else 0), rank, self._seq, config)
        )


def make_worklist(schedule: str, seeds: Iterable[Hashable] = ()) -> FifoWorklist:
    """Build the worklist for a schedule name (see :data:`SCHEDULES`)."""
    if schedule == "fifo":
        return FifoWorklist(seeds)
    if schedule == "priority":
        return PriorityWorklist(seeds)
    raise ValueError(f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")

