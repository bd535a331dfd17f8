"""The depgraph loop's FIFO worklist: drain order, dedup, termination, trace.

What this file pins, layer by layer:

* **Worklist units** -- :class:`~repro.core.fixpoint.FifoWorklist`
  drains in insertion order, re-queues a retriggered configuration at
  the tail, and counts the retriggers it suppresses because the
  configuration is already queued.
* **No starvation / termination** -- on randomly generated monotone
  fake-domain systems the FIFO drain terminates, evaluates every
  discovered configuration at least once, and lands on the reference
  least fixed point; a retrigger-storm system cannot keep deep pending
  work out of the drain forever.  The depgraph loop itself
  (``global_store_explore``, both store impls) reaches the same
  reference on the same systems and still honours its divergence budget.
* **Semi-naive re-evaluation** -- a staged (``FusedTransition``) fake
  step that fetches once and is distributive over that fetch reaches
  the same reference on the versioned store while re-stepping only the
  values a retrigger added; a staged step that fetches twice, a
  plain-callable step and the persistent store re-step in full.
* **Drain accounting on the corpora** -- on every corpus program of all
  three languages, both store impls (and GC / counting for CPS and FJ),
  every evaluation is either a first discovery or an admitted retrigger,
  and the fused step drains the configurations in exactly the generic
  step's order.
* **Trace** -- the ``trace=`` hook records one configuration per real
  evaluation, and only the depgraph engine accepts it.
"""

import random

import pytest

from repro.config import AnalysisConfig, assemble, preset_config
from repro.core.fixpoint import (
    STORE_IMPLS,
    FifoWorklist,
    FixpointDiverged,
    global_store_explore,
)
from repro.core.fused import FusedTransition
from repro.core.store import BasicStore, RecordingStore, VersionedStore
from repro.corpus import corpus_program, corpus_programs

# ---------------------------------------------------------------------------
# Worklist units
# ---------------------------------------------------------------------------


class TestFifoWorklist:
    def test_pops_in_insertion_order(self):
        worklist = FifoWorklist(["a", "b"])
        worklist.discovered("c")
        assert [worklist.pop() for _ in range(3)] == ["a", "b", "c"]

    def test_retrigger_appends_at_the_tail(self):
        worklist = FifoWorklist(["a", "b"])
        assert worklist.pop() == "a"
        assert worklist.retrigger("a") is True
        assert [worklist.pop(), worklist.pop()] == ["b", "a"]

    def test_queued_retrigger_is_suppressed_and_counted(self):
        worklist = FifoWorklist(["a"])
        assert worklist.retrigger("a") is False
        assert worklist.retrigger("a") is False
        assert worklist.dedup_hits == 2
        assert worklist.pop() == "a"
        assert not worklist


# ---------------------------------------------------------------------------
# No starvation / termination on fake monotone systems
# ---------------------------------------------------------------------------


def _random_system(seed, configs=12, addresses=8):
    """A random monotone equation system over frozenset-valued addresses:
    each configuration
    reads a few addresses and writes the union of what it read plus its
    own token, so the least fixed point is unique and every chaotic
    iteration must land on it exactly."""
    rng = random.Random(seed)
    addrs = [f"a{i}" for i in range(addresses)]
    table = {}
    for c in range(configs):
        reads = rng.sample(addrs, rng.randint(1, 3))
        writes = rng.sample(addrs, rng.randint(1, 2))
        successors = rng.sample(range(configs), rng.randint(0, 3))
        table[c] = (tuple(reads), tuple(writes), tuple(successors))
    return table


def _reference_fixpoint(table, seeds):
    """An independent whole-system Kleene iteration (no worklist code)."""
    store = {}
    seen = set(seeds)
    while True:
        changed = False
        for config in sorted(seen):
            reads, writes, successors = table[config]
            gathered = frozenset({("token", config)})
            for addr in reads:
                gathered |= store.get(addr, frozenset())
            for addr in writes:
                joined = store.get(addr, frozenset()) | gathered
                if joined != store.get(addr, frozenset()):
                    store[addr] = joined
                    changed = True
            for successor in successors:
                if successor not in seen:
                    seen.add(successor)
                    changed = True
        if not changed:
            return frozenset(seen), store


def _drain_system(table, seeds, fuel=20_000):
    """Drain a fake system through the FIFO worklist, exactly the way
    the depgraph engine does: evaluate, join writes, retrigger readers
    of grown cells, discover successors.  ``fuel`` bounds the drain so a
    starving or diverging drain fails the test instead of hanging."""
    store = {}
    readers = {}
    seen = set(seeds)
    worklist = FifoWorklist(sorted(seen))
    popped = []
    while worklist:
        assert len(popped) < fuel, "drain did not converge"
        config = worklist.pop()
        popped.append(config)
        reads, writes, successors = table[config]
        gathered = frozenset({("token", config)})
        for addr in reads:
            readers.setdefault(addr, set()).add(config)
            gathered |= store.get(addr, frozenset())
        for addr in writes:
            joined = store.get(addr, frozenset()) | gathered
            if joined != store.get(addr, frozenset()):
                store[addr] = joined
                for reader in sorted(readers.get(addr, ())):
                    worklist.retrigger(reader)
        for successor in successors:
            if successor not in seen:
                seen.add(successor)
                worklist.discovered(successor)
    return frozenset(seen), store, popped, worklist


class TestFakeDomainProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_reaches_the_unique_lfp(self, seed):
        table = _random_system(seed)
        ref_configs, ref_store = _reference_fixpoint(table, seeds={0, 1})
        configs, store, popped, worklist = _drain_system(table, {0, 1})
        assert configs == ref_configs
        assert store == ref_store
        # no starvation: everything discovered was evaluated at least once
        assert set(popped) == set(ref_configs)
        assert len(worklist) == 0

    def test_retrigger_storm_cannot_starve_pending_work(self):
        """A chain whose head is retriggered by every deeper write: the
        retriggered head re-joins the tail behind the pending links, so
        the deep tail still drains -- every link evaluates, the drain
        terminates."""
        n = 40
        table = {
            i: (
                (f"a{i}",),  # link i reads its own cell
                (f"a{max(i - 1, 0)}", "a0"),  # and bumps upstream + the head
                (i + 1,) if i + 1 < n else (),
            )
            for i in range(n)
        }
        ref_configs, ref_store = _reference_fixpoint(table, seeds={0})
        configs, store, popped, _ = _drain_system(table, {0})
        assert configs == ref_configs
        assert store == ref_store
        assert set(popped) == set(range(n))


class _FakeInner:
    """The per-state surface the depgraph loop drives: one fake
    configuration evaluated against a given store."""

    def __init__(self, store_like):
        self.store_like = store_like

    def run_config(self, step, config_pair):
        # persistent path: every successor carries the evaluation's
        # store; the configuration is its own successor so its writes
        # reach the engine's join even when the table lists none
        config, store = config_pair
        successors, store = step(config, store)
        return [(successor, store) for successor in (config, *successors)]

    def run_config_pairs(self, step, config_pair):
        # versioned path: the step has already mutated the shared store
        config, store = config_pair
        successors, _ = step(config, store)
        return list(successors)


class _FakeCollecting:
    def __init__(self, inner, seeds):
        self.inner = inner
        self._seeds = frozenset(seeds)

    def inject(self, _initial_state):
        return self._seeds, self.inner.store_like.empty()


def _fake_engine(store_impl, seeds):
    """A fake shared-store domain wired the way ``repro.config.prepare_store``
    wires a real one: the recording wrapper around the chosen store."""
    base = VersionedStore() if store_impl == "versioned" else BasicStore()
    recorder = RecordingStore(base)
    return _FakeCollecting(_FakeInner(recorder), seeds), recorder


def _system_step(recorder, table):
    """The fake system as an engine step, reading and writing through
    the recording store so the read/write log drives retriggering."""

    def step(config, store):
        reads, writes, successors = table[config]
        gathered = frozenset({("token", config)})
        for addr in reads:
            gathered |= recorder.fetch(store, addr)
        for addr in writes:
            store = recorder.bind(store, addr, gathered)
        return successors, store

    return step


class TestFakeDomainEngine:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("store_impl", STORE_IMPLS)
    def test_depgraph_reaches_the_unique_lfp(self, store_impl, seed):
        table = _random_system(seed)
        collecting, recorder = _fake_engine(store_impl, seeds={0, 1})
        stats: dict = {}
        configs, store = global_store_explore(
            collecting,
            _system_step(recorder, table),
            None,
            stats=stats,
        )
        ref_configs, ref_store = _reference_fixpoint(table, seeds={0, 1})
        assert configs == ref_configs
        assert dict(store) == ref_store
        assert stats["evaluations"] >= len(ref_configs)

    @pytest.mark.parametrize("store_impl", STORE_IMPLS)
    def test_divergence_budget_still_applies(self, store_impl):
        collecting, recorder = _fake_engine(store_impl, seeds={0})

        # an ever-growing write keeps retriggering config 0 forever
        def step(config, store):
            current = recorder.fetch(store, "a")
            return (0,), recorder.bind(store, "a", frozenset({len(current)}))

        with pytest.raises(FixpointDiverged):
            global_store_explore(collecting, step, None, max_evals=50)


class _StagedFakeInner(_FakeInner):
    """The fake per-state surface with the staged calling convention:
    ``step(config, guts, store) -> [(successor, store)]``."""

    def run_config(self, step, config_pair):
        config, store = config_pair
        return step(config, None, store)

    def run_config_pairs(self, step, config_pair):
        config, store = config_pair
        return [successor for successor, _store in step(config, None, store)]


def _staged_engine(store_impl, seeds):
    base = VersionedStore() if store_impl == "versioned" else BasicStore()
    recorder = RecordingStore(base)
    return _FakeCollecting(_StagedFakeInner(recorder), seeds), recorder


def _one_read_system(seed):
    """``_random_system`` with every configuration reading one address."""
    return {
        config: (reads[:1], writes, successors)
        for config, (reads, writes, successors) in _random_system(seed).items()
    }


def _per_value_step(recorder, table, fetches=1):
    """A step distributive over its fetch: the token write, then one
    write per fetched value.  ``fetches=2`` fetches the read address
    twice, which leaves the fixed point alone but makes the evaluation
    multi-observation.  Returns the step and its per-value call counter."""
    calls = [0]

    def step(config, _guts, store):
        reads, writes, successors = table[config]
        for addr in writes:
            store = recorder.bind(store, addr, frozenset({("token", config)}))
        for _ in range(fetches - 1):
            recorder.fetch(store, reads[0])
        for value in recorder.fetch(store, reads[0]):
            calls[0] += 1
            for addr in writes:
                store = recorder.bind(store, addr, frozenset({value}))
        # the configuration is its own successor, as in ``_FakeInner``
        return [(successor, store) for successor in (config, *successors)]

    return step, calls


def _staged_run(table, store_impl, staged, fetches=1):
    """One drain of ``table``: ``(configs, store, stats, per-value calls)``."""
    collecting, recorder = _staged_engine(store_impl, seeds={0, 1})
    step, calls = _per_value_step(recorder, table, fetches)
    stats: dict = {}
    configs, store = global_store_explore(
        collecting, FusedTransition(step) if staged else step, None, stats=stats
    )
    return configs, dict(store), stats, calls[0]


class TestSemiNaiveDelta:
    @pytest.mark.parametrize("seed", range(6))
    def test_staged_distributive_step_restep_only_the_delta(self, seed):
        table = _one_read_system(seed)
        ref_configs, ref_store = _reference_fixpoint(table, seeds={0, 1})
        configs, store, stats, calls = _staged_run(table, "versioned", staged=True)
        assert (configs, store) == (ref_configs, ref_store)
        assert stats["delta_evaluations"] > 0
        # the same step as a plain callable re-steps every value: same
        # drain, same fixed point, more per-value calls
        *full, full_stats, full_calls = _staged_run(table, "versioned", staged=False)
        assert full == [ref_configs, ref_store]
        assert full_stats["delta_evaluations"] == 0
        for key in ("evaluations", "retriggers", "dedup_hits", "configurations"):
            assert stats[key] == full_stats[key], key
        assert calls < full_calls

    @pytest.mark.parametrize("seed", range(6))
    def test_a_step_that_fetches_twice_is_restepped_in_full(self, seed):
        table = _one_read_system(seed)
        ref = _reference_fixpoint(table, seeds={0, 1})
        *fp, stats, calls = _staged_run(table, "versioned", staged=True, fetches=2)
        *_, full_calls = _staged_run(table, "versioned", staged=False, fetches=2)
        assert fp == list(ref)
        assert stats["delta_evaluations"] == 0
        assert calls == full_calls

    @pytest.mark.parametrize("seed", range(6))
    def test_the_persistent_store_restep_in_full(self, seed):
        table = _one_read_system(seed)
        ref = _reference_fixpoint(table, seeds={0, 1})
        *fp, stats, _calls = _staged_run(table, "persistent", staged=True)
        assert fp == list(ref)
        assert stats["delta_evaluations"] == 0


# ---------------------------------------------------------------------------
# Drain accounting on the real corpora
# ---------------------------------------------------------------------------

#: Every corpus program of the three engine languages.
CORPUS_CELLS = [
    (lang, name) for lang in ("cps", "lam", "fj") for name in sorted(corpus_programs(lang))
]

#: GC and counting run on the CPS and FJ corpora; on the lam corpus the
#: GC'd Church-arithmetic programs cost seconds each, and the engine
#: paths they exercise are language-independent.
REFINED_CELLS = [
    (lang, name, refinement)
    for lang, name in CORPUS_CELLS
    for refinement in (("plain", "gc", "counting") if lang != "lam" else ("plain",))
]


def _traced_run(lang, name, store_impl, refinement="plain", transition="generic"):
    """One traced 1-CFA depgraph run: ``(configurations, stats, trace)``."""
    program = corpus_program(lang, name)
    config = AnalysisConfig(
        language=lang,
        k=1,
        engine="depgraph",
        store_impl=store_impl,
        gc=refinement == "gc",
        counting=refinement == "counting",
        transition=transition,
    ).validated()
    analysis = assemble(config, program=program)
    trace: list = []
    result = analysis.run(program, trace=trace)
    return result.fp[0], analysis.last_stats, trace


class TestDrainAccounting:
    @pytest.mark.parametrize("lang,name,refinement", REFINED_CELLS)
    @pytest.mark.parametrize("store_impl", STORE_IMPLS)
    def test_every_evaluation_is_a_discovery_or_a_retrigger(
        self, store_impl, lang, name, refinement
    ):
        """A cold drain pops each configuration once when it is first
        discovered and once per retrigger the worklist admits (a
        suppressed one is a dedup hit and pops nothing)."""
        configs, stats, trace = _traced_run(lang, name, store_impl, refinement)
        assert stats["configurations"] == len(configs)
        assert stats["evaluations"] == stats["configurations"] + stats["retriggers"]
        assert len(trace) == stats["evaluations"]
        assert set(trace) == configs
        assert stats["reused"] == 0

    @pytest.mark.parametrize("lang,name", CORPUS_CELLS)
    @pytest.mark.parametrize("store_impl", STORE_IMPLS)
    def test_fused_drain_replays_the_generic_one(self, store_impl, lang, name):
        """The staged step leaves the same read/write logs and successor
        order as the monadic one, so the FIFO drain is evaluation-for-
        evaluation the same: same trace, same work counters."""
        _, generic_stats, generic_trace = _traced_run(lang, name, store_impl)
        _, fused_stats, fused_trace = _traced_run(
            lang, name, store_impl, transition="fused"
        )
        assert fused_trace == generic_trace
        for key in ("evaluations", "retriggers", "dedup_hits", "configurations"):
            assert fused_stats[key] == generic_stats[key], key
        # only the staged step on the versioned store re-steps deltas
        assert generic_stats["delta_evaluations"] == 0
        if store_impl == "persistent":
            assert fused_stats["delta_evaluations"] == 0


class TestScheduleTrace:
    def test_trace_records_every_evaluation(self):
        program = corpus_program("lam", "eta")
        analysis = assemble(preset_config("1cfa", "lam"), program=program)
        trace = []
        result = analysis.run(program, trace=trace)
        assert len(trace) == analysis.last_stats["evaluations"]
        assert set(trace) == result.fp[0]

    def test_trace_is_sequential_only(self):
        program = corpus_program("lam", "eta")
        per_state = assemble(preset_config("1cfa-per-state", "lam"), program=program)
        with pytest.raises(ValueError, match="engine"):
            per_state.run(program, trace=[])
