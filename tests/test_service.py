"""The service layer: cache, batch pool, warm starts -- all bit-identical.

The acceptance matrix this file pins: for every preset x language in the
existing configuration matrix (depgraph presets under both transitions),
four ways of obtaining the fixed point must agree exactly --

* **cold**: one process, ``assemble(config).run(program)``;
* **cache hit**: the same cell loaded from the content-addressed
  fixpoint cache (pickle round-trip + intern rehydration);
* **batch**: the cell computed by a spawn-started ``multiprocessing``
  worker inside ``run_batch(..., workers=4)``;
* **warm start after an identity edit**: re-analysing the unchanged
  program seeded with its own previous fixed point (for warmable
  configurations this replays every evaluation record: zero step
  evaluations).

Plus the real-edit contract: appending a link to ``id_chain`` and
warm-starting from the unedited chain's fixed point gives a result
identical to cold with strictly fewer evaluations.

And the adaptive batch pool's fallbacks: sub-threshold batches never
spawn workers; a dead worker or damaged transport falls back to inline
evaluation for its chunk only, counted in ``inline_fallbacks``, with
every fixed point still bit-identical.
"""

import pickle

import pytest

from repro.config import LANGUAGES, PRESETS, assemble, preset_config
from repro.core.fixpoint import STORE_IMPLS, FixpointCapture, WarmStart
from repro.corpus import corpus_program
from repro.corpus.cps_programs import id_chain, id_chain_edited
from repro.service.batch import BatchJob, jobs_for, run_batch
from repro.service.cache import FixpointCache, cache_key, program_digest
from repro.service.incremental import edit_distance, reanalyse, warmable
from preset_cells import cell_config, cell_id, preset_cells, preset_transitions

#: One small corpus program per language; every preset (including
#: ``concrete``, which needs a finite concrete state space) runs on it.
MATRIX_PROGRAMS = {"cps": "mj09", "lam": "eta", "fj": "animals"}

CELLS = [
    (preset_name, transition, lang)
    for preset_name, transition in preset_transitions()
    for lang in LANGUAGES
]


def _program(lang):
    return corpus_program(lang, MATRIX_PROGRAMS[lang])


def _cold_fp(config, lang):
    program = _program(lang)
    analysis = assemble(config, program=program)
    return analysis.run(program, worklist=not config.shared).fp


@pytest.fixture(scope="module")
def cold_fps():
    """Cold single-process fixed points for every matrix cell."""
    return {
        (preset_name, transition, lang): _cold_fp(
            cell_config(preset_name, transition, lang), lang
        )
        for preset_name, transition, lang in CELLS
    }


@pytest.fixture(scope="module")
def matrix_jobs():
    return [
        BatchJob(
            config=cell_config(preset_name, transition, lang),
            corpus=MATRIX_PROGRAMS[lang],
            label=f"{lang}/{cell_id(preset_name, transition)}",
        )
        for preset_name, transition, lang in CELLS
    ]


@pytest.fixture(scope="module")
def service_cache(tmp_path_factory):
    return FixpointCache(root=tmp_path_factory.mktemp("fixcache"))


@pytest.fixture(scope="module")
def pooled_report(matrix_jobs, service_cache):
    """The whole matrix through a 4-worker spawn pool, filling the cache."""
    return run_batch(matrix_jobs, workers=4, cache=service_cache)


class TestMatrixEquivalence:
    """cold == cache-hit == run_batch(jobs=4) == warm-started, cell by cell."""

    def test_pooled_batch_matches_cold(self, pooled_report, cold_fps):
        assert len(pooled_report.outcomes) == len(CELLS)
        assert pooled_report.hit_count == 0  # first contact: all computed
        for outcome, cell in zip(pooled_report.outcomes, CELLS):
            assert outcome.fp == cold_fps[cell], outcome.job.label

    def test_cache_hits_match_cold(self, pooled_report, matrix_jobs, service_cache, cold_fps):
        rerun = run_batch(matrix_jobs, workers=1, cache=service_cache)
        assert rerun.hit_count == len(CELLS)  # second contact: all cached
        for outcome, cell in zip(rerun.outcomes, CELLS):
            assert outcome.fp == cold_fps[cell], outcome.job.label

    @pytest.mark.parametrize(
        "preset_name,transition,lang",
        [
            pytest.param(name, transition, lang, id=f"{cell_id(name, transition)}-{lang}")
            for name, transition, lang in CELLS
        ],
    )
    def test_identity_edit_reanalysis_matches_cold(
        self, preset_name, transition, lang, pooled_report, service_cache, cold_fps
    ):
        """Re-submitting an unchanged program is a digest hit for every
        preset -- the degenerate warm start available to all of them."""
        config = cell_config(preset_name, transition, lang)
        outcome = reanalyse(config, _program(lang), service_cache)
        assert outcome.mode == "cache-hit"
        assert outcome.fp == cold_fps[(preset_name, transition, lang)]
        assert outcome.stats["evaluations"] == 0

    @pytest.mark.parametrize(
        "preset_name,transition",
        preset_cells(n for n in sorted(PRESETS) if warmable(PRESETS[n].config)),
    )
    @pytest.mark.parametrize("lang", LANGUAGES)
    def test_identity_edit_warm_engine_run_matches_cold(
        self, preset_name, transition, lang, pooled_report, service_cache, cold_fps
    ):
        """For warmable presets, force the *engine-level* warm start (not
        the digest shortcut): every evaluation replays, none re-steps."""
        config = cell_config(preset_name, transition, lang)
        program = _program(lang)
        donor = service_cache.get(program, config)
        assert donor is not None and donor.warmable
        analysis = assemble(config, program=program)
        result = analysis.run(program, warm_start=donor.warm_start())
        assert result.fp == cold_fps[(preset_name, transition, lang)]
        assert analysis.last_stats["evaluations"] == 0
        assert analysis.last_stats["reused"] == analysis.last_stats["configurations"]


class TestRealEditWarmStart:
    """Append a link to ``id_chain``: identical result, strictly less work."""

    @pytest.mark.parametrize("store_impl", ["versioned", "persistent"])
    def test_chain_append_is_exact_and_cheaper(self, store_impl):
        config = preset_config("1cfa", "cps").replace(store_impl=store_impl)
        base, edited = id_chain(40), id_chain_edited(40)

        capture = FixpointCapture()
        base_analysis = assemble(config)
        base_result = base_analysis.run(base, capture=capture)

        cold_analysis = assemble(config)
        cold_result = cold_analysis.run(edited)

        warm_analysis = assemble(config)
        warm_result = warm_analysis.run(
            edited, warm_start=capture.warm_start(base_result.fp[1])
        )
        assert warm_result.fp == cold_result.fp
        warm_evals = warm_analysis.last_stats["evaluations"]
        cold_evals = cold_analysis.last_stats["evaluations"]
        assert 0 < warm_evals < cold_evals
        assert warm_analysis.last_stats["reused"] > 0

    def test_chain_append_through_the_cache_pipeline(self, tmp_path):
        """``reanalyse`` finds the unedited chain's entry as donor and
        warm-starts automatically; a chain of edits stays warm."""
        cache = FixpointCache(root=tmp_path / "cache")
        config = preset_config("1cfa", "cps")
        first = reanalyse(config, id_chain(40), cache)
        assert first.mode == "cold"
        second = reanalyse(config, id_chain_edited(40), cache)
        assert second.mode == "warm"
        assert second.stats["reused"] > 0
        cold = assemble(config).run(id_chain_edited(40))
        assert second.fp == cold.fp
        # and the warm run's own records warm the next identity submission
        third = reanalyse(config, id_chain_edited(40), cache)
        assert third.mode == "cache-hit" and third.fp == cold.fp

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize(
        "addressing,k",
        [("kcfa", 0), ("kcfa", 1), ("kcfa", 2), ("kcfa", 3), ("lcontext", 2)],
    )
    def test_chain_append_is_cold_equal_at_every_k(self, addressing, k, n, tmp_path):
        """The subterm gate's argument holds only for contexts of one call
        site: from k = 2 a warm-started extension keeps donor-only states
        (id_chain(5) at k = 2: 17 against 13), so the cascade runs it cold."""
        config = preset_config("1cfa", "cps").replace(addressing=addressing, k=k)
        cache = FixpointCache(root=tmp_path / "cache")
        reanalyse(config, id_chain(n), cache)
        edited = reanalyse(config, id_chain_edited(n), cache)
        cold = reanalyse(
            config,
            id_chain_edited(n),
            FixpointCache(root=tmp_path / "fresh"),
            allow_warm=False,
        )
        assert edited.fp == cold.fp
        assert edited.mode == ("warm" if k <= 1 else "cold")

    def test_unrelated_program_is_not_auto_warm_started(self, tmp_path):
        """The donor gate: mj09's entry is not a subterm of the chain, so
        the chain re-runs cold instead of risking an inexact warm seed."""
        cache = FixpointCache(root=tmp_path / "cache")
        config = preset_config("1cfa", "cps")
        reanalyse(config, corpus_program("cps", "mj09"), cache)
        outcome = reanalyse(config, id_chain(12), cache)
        assert outcome.mode == "cold"
        assert outcome.fp == assemble(config).run(id_chain(12)).fp

    def test_sibling_edit_is_not_auto_warm_started(self, tmp_path):
        """A sibling edit (shared sub-terms, different surroundings) can
        share *addresses* with the donor while disagreeing on values; an
        auto warm start here would be silently over-approximate, so the
        subterm gate sends it cold -- and cold equality holds."""
        from repro.cps.parser import parse_program

        trampoline = "(lambda (f y q) (f y q))"
        shared = "(lambda (x j) (j x))"
        sibling_a = parse_program(
            f"({trampoline} {shared} (lambda (a ka) (ka a)) (lambda (r) (exit)))"
        )
        sibling_b = parse_program(
            f"({trampoline} {shared} (lambda (b kb) (kb b)) (lambda (r) (exit)))"
        )
        cache = FixpointCache(root=tmp_path / "cache")
        config = preset_config("1cfa", "cps")
        reanalyse(config, sibling_a, cache)
        outcome = reanalyse(config, sibling_b, cache)
        assert outcome.mode == "cold"
        assert outcome.fp == assemble(config).run(sibling_b).fp

    def test_explicit_unrelated_donor_stays_exact(self, tmp_path):
        """Passing donor= bypasses the gate; for an address-disjoint
        donor the EvalRecord ``writes`` restriction still keeps the
        result exactly cold-equal (the donor's cells must not leak)."""
        cache = FixpointCache(root=tmp_path / "cache")
        config = preset_config("1cfa", "cps")
        reanalyse(config, corpus_program("cps", "mj09"), cache)
        donor = cache.latest_for(config)
        assert donor is not None and donor.warmable
        warm = reanalyse(config, id_chain(12), cache, donor=donor)
        assert warm.mode == "warm"  # forced; nothing replayable
        assert warm.fp == assemble(config).run(id_chain(12)).fp
        # a gate-bypassed result must not be cached as if it were exact
        assert reanalyse(config, id_chain(12), cache).mode == "cold"

    def test_snapshot_shaped_warm_seed_runs_on_the_versioned_path(self):
        """WarmStart.store may be a StoreSnapshot (the documented shape);
        the versioned engine must accept it, versions included."""
        from repro.core.store import StoreSnapshot

        config = preset_config("1cfa", "cps")
        capture = FixpointCapture()
        analysis = assemble(config)
        base = analysis.run(id_chain(15), capture=capture)
        seed = WarmStart(
            store=StoreSnapshot.of_mapping(base.fp[1]),
            records=dict(capture.records),
        )
        rerun_analysis = assemble(config)
        rerun = rerun_analysis.run(id_chain(15), warm_start=seed)
        assert rerun.fp == base.fp
        assert rerun_analysis.last_stats["evaluations"] == 0

    def test_edit_distance_reports_the_delta(self):
        base, edited = id_chain(40), id_chain_edited(40)
        identical = edit_distance(base, base)
        assert identical["new_terms"] == 0 and identical["ratio"] == 0.0
        delta = edit_distance(base, edited)
        assert 0 < delta["new_terms"] < delta["total"] * 0.1
        unrelated = edit_distance(corpus_program("cps", "mj09"), base)
        assert unrelated["ratio"] > 0.9


class TestWarmStartRefusals:
    """Configurations the warm path cannot serve fail loudly, not wrongly."""

    # the refusal sits once in the depgraph loop, in front of both store
    # merges: each store representation must hit it
    @pytest.mark.parametrize("store_impl", STORE_IMPLS)
    def test_gc_config_refuses_warm_start(self, store_impl):
        config = preset_config("1cfa-gc", "cps").replace(store_impl=store_impl)
        analysis = assemble(config)
        seed = WarmStart(store={}, records={})
        with pytest.raises(TypeError, match="GC or counting"):
            analysis.run(id_chain(4), warm_start=seed)

    @pytest.mark.parametrize("store_impl", STORE_IMPLS)
    def test_counting_config_refuses_capture(self, store_impl):
        config = preset_config("kcfa-counting-fast", "cps").replace(
            store_impl=store_impl
        )
        analysis = assemble(config)
        with pytest.raises(TypeError, match="GC or counting"):
            analysis.run(id_chain(4), capture=FixpointCapture())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warm_start": WarmStart(store={}, records={})},
            {"capture": FixpointCapture()},
            {"trace": []},
        ],
        ids=["warm_start", "capture", "trace"],
    )
    def test_kleene_refuses_per_configuration_hooks(self, kwargs):
        config = preset_config("1cfa", "cps").replace(
            engine="kleene", store_impl="persistent"
        )
        analysis = assemble(config)
        with pytest.raises(ValueError, match="kleene"):
            analysis.run(id_chain(4), **kwargs)

    def test_per_state_run_refuses_warm_start(self):
        analysis = assemble(preset_config("1cfa-per-state", "cps"))
        with pytest.raises(ValueError, match="engine"):
            analysis.run(id_chain(4), warm_start=WarmStart(store={}, records={}))

    def test_non_warmable_presets_are_classified(self):
        assert warmable(preset_config("1cfa", "cps"))
        assert warmable(preset_config("1cfa", "cps").replace(transition="generic"))
        assert not warmable(preset_config("1cfa-gc", "cps"))
        assert not warmable(preset_config("kcfa-counting-fast", "cps"))
        assert not warmable(preset_config("1cfa-per-state", "cps"))
        assert not warmable(preset_config("concrete", "cps"))


class TestDigestsAndKeys:
    def test_digest_is_parse_stable(self):
        from repro.cps.parser import parse_program
        from repro.corpus.cps_programs import MJ09

        assert program_digest(parse_program(MJ09)) == program_digest(
            parse_program(MJ09)
        )

    def test_digest_distinguishes_programs(self):
        assert program_digest(id_chain(10)) != program_digest(id_chain(11))
        assert program_digest(id_chain(10)) != program_digest(id_chain_edited(10))

    def test_digest_survives_pickling(self):
        """An unpickled term is the pool's canonical node, and a copy
        rebuilt into a cleared pool -- equal but not identical --
        digests identically: the digest is structural."""
        from repro.util.intern import clear_intern_pool

        term = id_chain(20)
        payload = pickle.dumps(term)
        assert pickle.loads(payload) is term
        clear_intern_pool()
        copy = pickle.loads(payload)
        assert copy == term and copy is not term
        assert program_digest(copy) == program_digest(term)

    def test_digest_is_deep_safe(self):
        assert len(program_digest(id_chain(600))) == 64

    def test_cache_key_ignores_labels(self):
        program = _program("cps")
        preset = preset_config("1cfa", "cps")
        hand_built = preset.replace(label="something-else")
        assert cache_key(program, preset) == cache_key(program, hand_built)

    def test_cache_key_separates_configs(self):
        program = _program("cps")
        assert cache_key(program, preset_config("1cfa", "cps")) != cache_key(
            program, preset_config("2cfa", "cps")
        )


class TestFixpointCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = FixpointCache(root=tmp_path / "c")
        config = preset_config("1cfa", "cps")
        program = _program("cps")
        assert cache.get(program, config) is None
        fp = _cold_fp(config, "cps")
        cache.put(program, config, fp)
        loaded = cache.get(program, config)
        assert loaded is not None and loaded.fp == fp
        assert cache.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "stores": 1,
            # session counters above; lifetime accumulates across
            # processes through the index document (fresh dir: equal)
            "lifetime": {"hits": 1, "misses": 1, "evictions": 0, "stores": 1},
        }

    def test_loads_are_pool_canonical(self, tmp_path):
        """Terms inside a loaded fixed point are the intern pool's
        canonical nodes -- the identity fast path survives the disk
        round trip."""
        import dataclasses

        cache = FixpointCache(root=tmp_path / "c")
        config = preset_config("1cfa", "cps")
        program = id_chain(10)
        fp = assemble(config).run(program).fp
        cache.put(program, config, fp)
        loaded = cache.get(program, config)
        # every control term in the loaded fixed point IS its pool
        # node (rebuilding a node returns the canonical one)...
        for pair, _guts in loaded.fp[0]:
            assert dataclasses.replace(pair.ctrl) is pair.ctrl
        # ...and in particular the program's own states are pointer-equal
        # to the locally interned program term
        loaded_roots = {pair.ctrl for pair, _guts in loaded.fp[0] if pair.ctrl == program}
        assert all(ctrl is program for ctrl in loaded_roots)

    def test_lru_eviction(self, tmp_path):
        cache = FixpointCache(root=tmp_path / "c", max_entries=2)
        config = preset_config("1cfa", "cps")
        programs = [id_chain(n) for n in (3, 4, 5)]
        for program in programs:
            cache.put(program, config, assemble(config).run(program).fp)
        assert cache.stats()["entries"] == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(programs[0], config) is None  # the oldest went
        assert cache.get(programs[2], config) is not None

    def test_index_is_deterministic_and_survives_reload(self, tmp_path):
        root = tmp_path / "c"
        cache = FixpointCache(root=root)
        config = preset_config("1cfa", "cps")
        program = _program("cps")
        cache.put(program, config, _cold_fp(config, "cps"))
        first = cache.index_path.read_bytes()
        cache._write_index()
        assert cache.index_path.read_bytes() == first  # byte-stable
        reopened = FixpointCache(root=root)
        assert reopened.get(program, config) is not None

    def test_dangling_entry_is_repaired_and_does_not_shadow_donors(self, tmp_path):
        """An index entry whose object file vanished is dropped on first
        touch, and latest_for falls back to the next (older, valid)
        records-bearing entry instead of returning None forever."""
        cache = FixpointCache(root=tmp_path / "c")
        config = preset_config("1cfa", "cps")
        old_key = reanalyse(config, id_chain(5), cache).key
        new_key = reanalyse(config, id_chain(6), cache).key
        cache._object_path(new_key).unlink()  # simulate external cleanup
        donor = cache.latest_for(config)
        assert donor is not None and donor.key == old_key
        assert new_key not in cache._index  # repaired, not just skipped

    def test_latest_for_reads_the_index_under_the_lock(self, tmp_path):
        """``put`` grows the index under ``_lock`` from server worker
        threads, so the donor scan must snapshot it under the same lock:
        while another thread holds the lock, ``latest_for`` waits."""
        import threading

        cache = FixpointCache(root=tmp_path / "c")
        config = preset_config("1cfa", "cps")
        key = reanalyse(config, id_chain(5), cache).key
        found: list = []
        done = threading.Event()

        def probe():
            found.append(cache.latest_for(config))
            done.set()

        with cache._lock:
            scanner = threading.Thread(target=probe)
            scanner.start()
            assert not done.wait(timeout=0.2), "scanned the index without the lock"
        assert done.wait(timeout=60)
        scanner.join(timeout=60)
        assert not scanner.is_alive()
        assert found[0] is not None and found[0].key == key

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = FixpointCache(root=tmp_path / "c")
        config = preset_config("1cfa", "cps")
        program = _program("cps")
        key = cache.put(program, config, _cold_fp(config, "cps"))
        with open(cache._object_path(key), "wb") as handle:
            pickle.dump({"schema": -1, "fp": None, "records": None}, handle)
        assert cache.get(program, config) is None

    def test_truncated_object_is_a_miss_not_a_crash(self, tmp_path):
        """A process killed mid-write must degrade to a recomputation,
        never poison the cache directory."""
        cache = FixpointCache(root=tmp_path / "c")
        config = preset_config("1cfa", "cps")
        program = _program("cps")
        key = cache.put(program, config, _cold_fp(config, "cps"))
        payload = cache._object_path(key).read_bytes()
        cache._object_path(key).write_bytes(payload[: len(payload) // 2])
        assert cache.get(program, config) is None
        assert key not in cache._index  # forgotten, so the next put heals

    def test_corrupt_records_sidecar_degrades_to_records_free(self, tmp_path):
        """Sidecar damage costs the warm start only: the entry still
        serves its fixed point, and donor probes fall back to cold."""
        cache = FixpointCache(root=tmp_path / "c")
        config = preset_config("1cfa", "cps")
        key = reanalyse(config, id_chain(5), cache).key
        cache._records_path(key).write_bytes(b"not a pickle")
        entry = cache.get_key(key)
        assert entry is not None and entry.records is None
        assert cache.latest_for(config) is None  # no usable donor -> cold
        assert reanalyse(config, id_chain_edited(5), cache).mode == "cold"

    def test_corrupt_index_degrades_to_an_empty_cache(self, tmp_path):
        root = tmp_path / "c"
        cache = FixpointCache(root=root)
        config = preset_config("1cfa", "cps")
        program = _program("cps")
        cache.put(program, config, _cold_fp(config, "cps"))
        cache.index_path.write_text("{ truncated")
        reopened = FixpointCache(root=root)  # must not raise
        assert reopened.stats()["entries"] == 0
        assert reopened.get(program, config) is None
        # a fresh put heals the directory in place
        reopened.put(program, config, _cold_fp(config, "cps"))
        assert FixpointCache(root=root).get(program, config) is not None

    def test_rejected_donor_probe_does_not_count_as_a_hit(self, tmp_path):
        cache = FixpointCache(root=tmp_path / "c")
        config = preset_config("1cfa", "cps")
        reanalyse(config, id_chain(5), cache)
        hits_before = cache.stats()["hits"]
        outcome = reanalyse(config, corpus_program("cps", "mj09"), cache)
        assert outcome.mode == "cold"  # donor probed but rejected
        assert cache.stats()["hits"] == hits_before

    def test_no_cache_never_creates_the_directory(self, tmp_path):
        jobs = [BatchJob(config=preset_config("1cfa", "cps"), corpus="mj09")]
        target = tmp_path / "never-created"
        report = run_batch(jobs, workers=1, cache_dir=str(target), use_cache=False)
        assert report.cache_stats is None
        assert not target.exists()


class TestBatchRunner:
    def test_job_validation(self):
        config = preset_config("1cfa", "cps")
        with pytest.raises(ValueError, match="exactly one"):
            BatchJob(config=config)
        with pytest.raises(ValueError, match="exactly one"):
            BatchJob(config=config, source="x", corpus="y")
        with pytest.raises(ValueError, match="language"):
            BatchJob(config=preset_config("1cfa"), corpus="mj09")

    def test_jobs_for_builds_the_grid(self):
        grid = jobs_for(
            [("cps", "p", "(exit)"), ("lam", "q", "(lambda (x) x)")],
            ["1cfa", "0cfa"],
        )
        assert len(grid) == 4
        assert {job.config.language for job in grid} == {"cps", "lam"}

    def test_no_cache_keeps_a_configured_cache_cold(self, tmp_path):
        cache = FixpointCache(root=tmp_path / "c")
        jobs = [BatchJob(config=preset_config("1cfa", "cps"), corpus="mj09")]
        report = run_batch(jobs, workers=1, cache=cache, use_cache=False)
        assert report.hit_count == 0
        assert cache.stats()["entries"] == 0

    def test_batch_keys_match_reanalyse_keys(self, tmp_path):
        """run_batch must address the cache with the *validated* config:
        an unvalidated engine config (widening still at its default) has
        to land under the same key reanalyse and latest_for derive."""
        from repro.config import AnalysisConfig

        raw = AnalysisConfig(
            language="cps", k=1, engine="depgraph", store_impl="versioned"
        )
        assert raw != raw.validated()  # widening normalizes to "store"
        cache = FixpointCache(root=tmp_path / "c")
        run_batch([BatchJob(config=raw, corpus="mj09")], workers=1, cache=cache)
        followup = reanalyse(raw.validated(), corpus_program("cps", "mj09"), cache)
        assert followup.mode == "cache-hit"
        assert cache.latest_for(raw.validated()) is not None

    def test_duplicate_cells_are_computed_once(self, tmp_path):
        """Two jobs with one content address are one computation (and one
        cache store), inline and pooled alike."""
        cache = FixpointCache(root=tmp_path / "c")
        job = BatchJob(config=preset_config("1cfa", "cps"), corpus="mj09")
        twin = BatchJob(
            config=preset_config("1cfa", "cps"), corpus="mj09", label="twin"
        )
        report = run_batch([job, twin], workers=1, cache=cache)
        assert report.hit_count == 0  # both rows report the computation
        assert report.outcomes[0].fp == report.outcomes[1].fp
        assert cache.stats()["stores"] == 1  # one computation, one entry

    def test_report_document_is_deterministic(self, tmp_path):
        cache = FixpointCache(root=tmp_path / "c")
        jobs = [
            BatchJob(config=preset_config("1cfa", "cps"), corpus="mj09"),
            BatchJob(config=preset_config("0cfa", "cps"), corpus="id-id"),
        ]
        run_batch(jobs, workers=1, cache=cache)
        rendered = run_batch(jobs, workers=1, cache=cache).render()
        document = run_batch(jobs, workers=1, cache=cache).to_document()
        assert document["schema"] == "batch-report/1"
        assert all(row["cache"] == "hit" for row in document["jobs"])
        assert rendered.startswith("{\n")
        assert rendered.endswith("\n")


# ---------------------------------------------------------------------------
# The adaptive batch pool
# ---------------------------------------------------------------------------


def _small_jobs():
    from repro.service.batch import BatchJob

    fused = preset_config("1cfa", "lam")
    generic = fused.replace(transition="generic")
    return [
        BatchJob(config=fused, corpus="eta"),
        BatchJob(config=generic, corpus="eta"),
        BatchJob(config=fused, corpus="church-two-two"),
        BatchJob(config=generic, corpus="church-two-two"),
    ]


class _FakeFuture:
    def __init__(self, value=None, error=None):
        self._value, self._error = value, error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class _FakePool:
    """A ProcessPoolExecutor stand-in that computes chunks in-process.

    ``breaker(chunk)`` may return an exception (the whole "worker" dies)
    or a mutator applied to the packed payloads (damaged transport);
    ``None`` passes the chunk through the real ``_run_chunk``.
    """

    captured: list = []

    def __init__(self, max_workers=None, mp_context=None):
        type(self).captured.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, chunk):
        breaker = type(self).breaker
        outcome = breaker(chunk) if breaker is not None else None
        if isinstance(outcome, Exception):
            return _FakeFuture(error=outcome)
        packed = fn(chunk)
        if callable(outcome):
            packed = outcome(packed)
        return _FakeFuture(value=packed)

    breaker = None


@pytest.fixture
def forced_pool(monkeypatch):
    """Route run_batch's pool through _FakePool on a pretend 4-core box."""
    import repro.service.batch as batch_mod

    monkeypatch.setattr(batch_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(
        batch_mod, "as_completed", lambda futures: list(futures), raising=True
    )
    _FakePool.captured = []
    _FakePool.breaker = None
    return batch_mod


class TestAdaptiveBatchPool:
    def test_sub_threshold_batch_never_spawns_workers(self):
        from repro.service.batch import run_batch

        report = run_batch(_small_jobs(), workers=4, min_pool_seconds=3600.0)
        assert report.pool_workers == 0
        assert report.inline_fallbacks == 0

    def test_single_core_box_never_spawns_workers(self, monkeypatch):
        import repro.service.batch as batch_mod

        monkeypatch.setattr(batch_mod.os, "cpu_count", lambda: 1)
        report = batch_mod.run_batch(_small_jobs(), workers=4, min_pool_seconds=0.0)
        assert report.pool_workers == 0

    def test_engaged_pool_matches_serial(self, forced_pool):
        serial = forced_pool.run_batch(_small_jobs(), workers=1)
        pooled = forced_pool.run_batch(_small_jobs(), workers=4, min_pool_seconds=0.0)
        assert pooled.pool_workers >= 2
        assert pooled.inline_fallbacks == 0
        for left, right in zip(serial.outcomes, pooled.outcomes):
            assert left.fp == right.fp

    def test_dead_worker_falls_back_inline_for_its_chunk_only(self, forced_pool):
        doomed: set = set()

        def kill_first_chunk(chunk):
            if not doomed:
                doomed.update(index for index, _job in chunk)
                return RuntimeError("worker died")
            return None

        _FakePool.breaker = staticmethod(kill_first_chunk)
        serial = forced_pool.run_batch(_small_jobs(), workers=1)
        pooled = forced_pool.run_batch(_small_jobs(), workers=4, min_pool_seconds=0.0)
        assert pooled.inline_fallbacks == len(doomed) > 0
        for left, right in zip(serial.outcomes, pooled.outcomes):
            assert left.fp == right.fp

    def test_damaged_transport_falls_back_for_that_job_only(self, forced_pool):
        def corrupt_first_payload(packed):
            index, payload = packed[0]
            return [(index, {**payload, "object_blob": b"not a pickle"})] + packed[1:]

        _FakePool.breaker = staticmethod(lambda chunk: corrupt_first_payload)
        serial = forced_pool.run_batch(_small_jobs(), workers=1)
        pooled = forced_pool.run_batch(_small_jobs(), workers=4, min_pool_seconds=0.0)
        assert pooled.inline_fallbacks >= 1
        for left, right in zip(serial.outcomes, pooled.outcomes):
            assert left.fp == right.fp

    def test_pooled_payloads_write_through_the_cache(self, forced_pool, tmp_path):
        from repro.service.cache import FixpointCache

        cache = FixpointCache(root=tmp_path / "fixcache")
        pooled = forced_pool.run_batch(
            _small_jobs(), workers=4, cache=cache, min_pool_seconds=0.0
        )
        assert pooled.pool_workers >= 2
        reread = FixpointCache(root=tmp_path / "fixcache")
        for outcome in pooled.outcomes:
            entry = reread.get_key(outcome.key)
            assert entry is not None and entry.fp == outcome.fp
            assert entry.records  # warmable cells keep their sidecar

    def test_report_document_carries_the_new_fields(self, forced_pool):
        report = forced_pool.run_batch(_small_jobs(), workers=4, min_pool_seconds=0.0)
        document = report.to_document()
        assert document["pool_workers"] == report.pool_workers >= 2
        assert document["inline_fallbacks"] == 0
