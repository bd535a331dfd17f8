"""The ``schedule`` axis: worklist drain orders, dedup, and equivalence.

What this file pins, layer by layer:

* **Worklist units** -- :class:`FifoWorklist` preserves the historical
  insertion order while counting suppressed enqueues;
  :class:`PriorityWorklist` drains in ``(wave, rank, sequence)`` order:
  rank-ascending within a wave, retriggers deferred one wave, ties by
  insertion.
* **No starvation / termination** -- on randomly generated monotone
  fake-domain systems, both schedules terminate, evaluate every
  discovered configuration at least once, and land on the reference
  least fixed point; a retrigger-storm system cannot keep deep pending
  work out of the drain forever.  The depgraph loop itself
  (``global_store_explore``, both store impls) reaches the same
  reference on the same systems and still honours its divergence budget.
* **Corpus scheduler-equivalence** -- for every engine preset and
  language, the ``priority`` fixed point is bit-identical to the
  ``fifo`` fixed point across the full corpus (chaotic iteration is
  drain-order-insensitive); likewise for persistent stores, GC,
  counting, and warm starts.
* **Configuration surface** -- unknown schedules and worklist-free
  engines are rejected, ``cache_key`` ignores the schedule axis (same
  fixed point, same content address), warm donors are shared across
  schedules, and the trace hook needs the depgraph engine.
"""

import random

import pytest

from repro.config import LANGUAGES, PRESETS, AnalysisConfig, assemble, preset_config
from repro.core.fixpoint import STORE_IMPLS, FixpointDiverged, global_store_explore
from repro.core.schedule import (
    SCHEDULES,
    FifoWorklist,
    PriorityWorklist,
    make_worklist,
)
from repro.core.store import BasicStore, RecordingStore, VersionedStore
from repro.corpus import corpus_program, corpus_programs
from repro.corpus.cps_programs import id_chain, id_chain_edited
from repro.service.cache import FixpointCache
from repro.service.incremental import reanalyse, warmable
from preset_cells import cell_config, preset_cells

# ---------------------------------------------------------------------------
# Worklist units
# ---------------------------------------------------------------------------


class TestFifoWorklist:
    def test_pops_in_insertion_order(self):
        worklist = FifoWorklist(["a", "b"])
        worklist.discovered("c", parent="a")
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

    def test_rank_bookkeeping_matches_priority(self):
        worklist = FifoWorklist(["seed"])
        worklist.discovered("child", parent="seed")
        worklist.discovered("grandchild", parent="child")
        assert worklist.ranks == {"seed": 0, "child": 1, "grandchild": 2}
        assert worklist.max_rank == 2


class TestPriorityWorklist:
    def test_drains_rank_ascending_with_insertion_ties(self):
        worklist = PriorityWorklist(["root"])
        worklist.discovered("deep", parent="root")
        worklist.discovered("deeper", parent="deep")
        worklist.discovered("also-deep", parent="root")
        drained = [worklist.pop() for _ in range(4)]
        # rank 0, then the two rank-1 entries in insertion order, then rank 2
        assert drained == ["root", "deep", "also-deep", "deeper"]

    def test_retrigger_defers_to_the_next_wave(self):
        """A retriggered rank-0 reader must NOT preempt pending deeper
        work from the current wave -- the wave term is what keeps FIFO's
        batching (a pure rank heap re-runs the reader first, which
        measured strictly worse than FIFO)."""
        worklist = PriorityWorklist(["root"])
        worklist.discovered("child", parent="root")
        assert worklist.pop() == "root"
        assert worklist.retrigger("root") is True
        assert worklist.pop() == "child"  # wave 0 drains first
        assert worklist.pop() == "root"  # the deferred wave-1 entry
        assert not worklist

    def test_waves_drain_rank_first_after_advancing(self):
        worklist = PriorityWorklist(["a"])
        worklist.discovered("b", parent="a")
        assert [worklist.pop(), worklist.pop()] == ["a", "b"]  # wave 0 drains
        # defer both into wave 1, shallow one last
        assert worklist.retrigger("b") is True
        assert worklist.retrigger("a") is True
        # wave 1 drains rank-ascending regardless of retrigger order
        assert [worklist.pop(), worklist.pop()] == ["a", "b"]

    def test_queued_retrigger_is_suppressed_and_counted(self):
        worklist = PriorityWorklist(["a", "b"])
        assert worklist.retrigger("b") is False
        assert worklist.dedup_hits == 1
        assert [worklist.pop(), worklist.pop()] == ["a", "b"]
        assert len(worklist) == 0

    def test_configs_never_need_to_be_comparable(self):
        """The sequence number breaks every heap tie, so unorderable
        configurations (dicts aren't, frozensets aren't totally) work."""
        a, b = frozenset({1}), frozenset({2})
        worklist = PriorityWorklist([a, b])
        worklist.discovered((a, b), parent=a)
        assert [worklist.pop() for _ in range(3)] == [a, b, (a, b)]


class TestMakeWorklist:
    def test_factory_builds_both_schedules(self):
        assert isinstance(make_worklist("fifo", ["x"]), FifoWorklist)
        assert isinstance(make_worklist("priority", ["x"]), PriorityWorklist)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            make_worklist("lifo")

    def test_schedules_tuple_is_the_registry(self):
        assert SCHEDULES == ("fifo", "priority")


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


def _drain_system(table, seeds, schedule, fuel=20_000):
    """Drain a fake system through a scheduled worklist, exactly the way
    the depgraph engine does: evaluate, join writes, retrigger readers
    of grown cells, discover successors.  ``fuel`` bounds the drain so a
    starving or diverging scheduler fails the test instead of hanging."""
    store = {}
    readers = {}
    seen = set(seeds)
    worklist = make_worklist(schedule, sorted(seen))
    popped = []
    while worklist:
        assert len(popped) < fuel, f"{schedule} drain did not converge"
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
                worklist.discovered(successor, config)
    return frozenset(seen), store, popped, worklist


class TestFakeDomainProperties:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_reaches_the_unique_lfp(self, seed, schedule):
        table = _random_system(seed)
        ref_configs, ref_store = _reference_fixpoint(table, seeds={0, 1})
        configs, store, popped, worklist = _drain_system(table, {0, 1}, schedule)
        assert configs == ref_configs
        assert store == ref_store
        # no starvation: everything discovered was evaluated at least once
        assert set(popped) == set(ref_configs)
        assert len(worklist) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_both_schedules_land_on_the_same_fixpoint(self, seed):
        table = _random_system(seed, configs=16, addresses=10)
        fifo_configs, fifo_store, _, _ = _drain_system(table, {0}, "fifo")
        prio_configs, prio_store, _, prio_worklist = _drain_system(
            table, {0}, "priority"
        )
        assert prio_configs == fifo_configs
        assert prio_store == fifo_store
        assert prio_worklist.max_rank <= len(table)

    def test_retrigger_storm_cannot_starve_pending_work(self):
        """A chain whose head is retriggered by every deeper write: the
        adversarial shape for a rank-ordered queue.  Keys are fixed at
        insertion and the wave counter only advances, so the deep tail
        still drains -- every link evaluates, the drain terminates."""
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
        for schedule in SCHEDULES:
            configs, store, popped, _ = _drain_system(table, {0}, schedule)
            assert configs == ref_configs, schedule
            assert store == ref_store, schedule
            assert set(popped) == set(range(n)), schedule


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

    def run_config_pairs(self, step, config_pair, instrument=True):
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
    """A fake shared-store domain wired the way ``prepare_engine_store``
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
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("store_impl", STORE_IMPLS)
    def test_depgraph_reaches_the_unique_lfp(self, store_impl, schedule, seed):
        table = _random_system(seed)
        collecting, recorder = _fake_engine(store_impl, seeds={0, 1})
        stats: dict = {}
        configs, store = global_store_explore(
            collecting,
            _system_step(recorder, table),
            None,
            stats=stats,
            schedule=schedule,
        )
        ref_configs, ref_store = _reference_fixpoint(table, seeds={0, 1})
        assert configs == ref_configs
        assert dict(store) == ref_store
        assert stats["schedule"] == schedule
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


# ---------------------------------------------------------------------------
# Corpus scheduler-equivalence: priority == fifo, preset by preset
# ---------------------------------------------------------------------------

#: Every preset with a worklist to order, under both transitions (the
#: kleene presets have none, and the per-state/concrete presets have no
#: engine at all).
SCHEDULED_PRESETS = preset_cells(
    name for name, preset in sorted(PRESETS.items()) if preset.config.engine == "depgraph"
)

#: Cells whose engine run is prohibitively slow (same exclusion the
#: preset matrix makes): Church arithmetic under k=2.
EXPENSIVE = {("2cfa", "lam"): {"church-two-two"}}

#: fifo reference fixed points, shared across presets that differ only
#: in schedule/label (1cfa-priority's fifo reference == 1cfa's).
_fifo_cache: dict = {}


def _fixpoint(config, program):
    analysis = assemble(config, program=program)
    result = analysis.run(program, worklist=not config.shared)
    return result.fp, dict(analysis.last_stats)


def _fifo_reference(config, lang, name, program):
    key = (
        lang,
        name,
        config.addressing,
        config.k,
        config.engine,
        config.store_impl,
        config.transition,
        config.gc,
        config.counting,
    )
    if key not in _fifo_cache:
        _fifo_cache[key] = _fixpoint(config.replace(schedule="fifo"), program)
    return _fifo_cache[key]


class TestCorpusEquivalence:
    @pytest.mark.parametrize("lang", LANGUAGES)
    @pytest.mark.parametrize("preset_name,transition", SCHEDULED_PRESETS)
    def test_priority_fixpoint_is_bit_identical_to_fifo(self, preset_name, transition, lang):
        config = cell_config(preset_name, transition, lang)
        skip = EXPENSIVE.get((preset_name, lang), set())
        for name in sorted(corpus_programs(lang)):
            if name in skip:
                continue
            program = corpus_program(lang, name)
            fifo_fp, _ = _fifo_reference(config, lang, name, program)
            priority_fp, stats = _fixpoint(
                config.replace(schedule="priority").validated(), program
            )
            assert priority_fp == fifo_fp, f"{preset_name} on {lang}/{name}"
            assert stats["schedule"] == "priority", f"{preset_name} on {lang}/{name}"
            assert stats["dedup_hits"] >= 0

class TestManualConfigEquivalence:
    """Axes no preset covers: persistent stores."""

    PROGRAMS = (("cps", "mj09"), ("lam", "church-two-two"), ("fj", "visitor"))

    @pytest.mark.parametrize("lang,name", PROGRAMS)
    @pytest.mark.parametrize("transition", ("generic", "fused"))
    def test_depgraph_over_persistent_store(self, transition, lang, name):
        program = corpus_program(lang, name)
        config = AnalysisConfig(
            k=1,
            engine="depgraph",
            store_impl="persistent",
            transition=transition,
            language=lang,
        ).validated()
        fifo_fp, _ = _fixpoint(config, program)
        priority_fp, stats = _fixpoint(
            config.replace(schedule="priority").validated(), program
        )
        assert priority_fp == fifo_fp
        assert stats["schedule"] == "priority"

    @pytest.mark.parametrize("gc", (False, True))
    @pytest.mark.parametrize("counting", (False, True))
    def test_gc_and_counting_over_persistent_store(self, gc, counting):
        program = corpus_program("lam", "church-two-two")
        config = AnalysisConfig(
            k=1,
            engine="depgraph",
            store_impl="persistent",
            gc=gc,
            counting=counting,
            language="lam",
        ).validated()
        fifo_fp, _ = _fixpoint(config, program)
        priority_fp, _ = _fixpoint(
            config.replace(schedule="priority").validated(), program
        )
        assert priority_fp == fifo_fp


class TestWarmStartEquivalence:
    def test_priority_warm_start_matches_cold_and_fifo(self, tmp_path):
        """An edit replayed through the priority worklist: same fixed
        point as a cold priority run and as any fifo run, at a fraction
        of the evaluations (clean records replay instead of stepping)."""
        config = preset_config("1cfa-priority", "cps").validated()
        cache = FixpointCache(root=tmp_path / "cache")
        first = reanalyse(config, id_chain(40), cache)
        assert first.mode == "cold"
        second = reanalyse(config, id_chain_edited(40), cache)
        assert second.mode == "warm"
        cold = assemble(config).run(id_chain_edited(40))
        assert second.fp == cold.fp
        fifo = assemble(config.replace(schedule="fifo")).run(id_chain_edited(40))
        assert second.fp == fifo.fp
        # the warm run pays for the edit, not the program
        assert second.stats["evaluations"] < first.stats["evaluations"]

    def test_warm_donors_are_shared_across_schedules(self, tmp_path):
        """A fifo run's cache entry warm-starts a priority run of the
        edited program (and the digest of the unedited program is a
        plain cache hit): the cache key ignores the schedule axis."""
        fifo_config = preset_config("1cfa", "cps").validated()
        priority_config = fifo_config.replace(schedule="priority").validated()
        cache = FixpointCache(root=tmp_path / "cache")
        reanalyse(fifo_config, id_chain(40), cache)
        hit = reanalyse(priority_config, id_chain(40), cache)
        assert hit.mode == "cache-hit"
        warm = reanalyse(priority_config, id_chain_edited(40), cache)
        assert warm.mode == "warm"
        assert warm.fp == assemble(fifo_config).run(id_chain_edited(40)).fp


# ---------------------------------------------------------------------------
# Configuration surface
# ---------------------------------------------------------------------------


class TestScheduleConfig:
    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            AnalysisConfig(engine="depgraph", schedule="lifo").validated()

    def test_priority_needs_a_worklist_engine(self):
        with pytest.raises(ValueError, match="worklist"):
            AnalysisConfig(engine="kleene", schedule="priority").validated()
        with pytest.raises(ValueError, match="worklist"):
            AnalysisConfig(k=1, schedule="priority").validated()  # per-state

    def test_priority_presets_registered_and_valid(self):
        for name in ("1cfa-priority",):
            config = PRESETS[name].config
            assert config.schedule == "priority"
            assert config.validated() == config

    def test_cache_key_ignores_the_schedule_axis(self):
        assert (
            preset_config("1cfa-priority", "lam").cache_key()
            == preset_config("1cfa", "lam").cache_key()
        )

    def test_describe_names_the_schedule(self):
        assert "priority" in preset_config("1cfa-priority").describe()
        assert "priority" not in preset_config("1cfa").describe()

    def test_warmable_under_priority(self):
        assert warmable(preset_config("1cfa-priority", "cps"))

    def test_stats_report_the_schedule(self):
        program = corpus_program("lam", "eta")
        for preset_name, expected in (("1cfa", "fifo"), ("1cfa-priority", "priority")):
            _, stats = _fixpoint(preset_config(preset_name, "lam"), program)
            assert stats["schedule"] == expected


class TestScheduleTrace:
    def test_trace_records_every_evaluation_with_its_rank(self):
        program = corpus_program("lam", "eta")
        for preset_name in ("1cfa", "1cfa-priority"):
            config = preset_config(preset_name, "lam")
            analysis = assemble(config, program=program)
            trace = []
            analysis.run(program, trace=trace)
            stats = analysis.last_stats
            assert len(trace) == stats["evaluations"]
            ranks = [rank for rank, _config in trace]
            assert ranks[0] == 0 and max(ranks) == stats["max_rank"]

    def test_trace_is_sequential_only(self):
        program = corpus_program("lam", "eta")
        per_state = assemble(preset_config("1cfa-per-state", "lam"), program=program)
        with pytest.raises(ValueError, match="engine"):
            per_state.run(program, trace=[])
