"""The fused transition backend: staged steps == the monadic normal form.

The tentpole claim of the staging work (``repro/core/fused.py`` and the
three ``*/fused.py`` backends): for every analysis configuration, the
fused first-order step computes the **identical fixed point** to the
generic monadic path -- same configurations, same stores, same flow
tables -- because it is the same transition with the monad unfolded at
assembly time rather than interpreted per bind.

Coverage here:

* corpus-wide fused-vs-generic equivalence on the global-store engines
  (every engine x store-impl, k=1 and k=0), all three languages;
* composition with abstract GC and counting (engine paths) and with the
  per-state-store domains and the concrete reference semantics;
* the observational contract underneath the depgraph engine: a staged
  evaluation leaves the *same read/write logs* in the RecordingStore as
  the monadic step, so dependency-tracked retriggering is unchanged;
* the staged calling convention itself (``FusedTransition``, registry).

The preset matrix in ``tests/test_config.py`` additionally pins the
``*-fused`` presets against their generic Kleene references, and
``benchmarks/bench_gates.py`` gates the speedup this buys.
"""

import pytest

from config_helpers import run_config
from repro.config import TRANSITIONS, AnalysisConfig, assemble, request_config
from repro.core.fused import FusedTransition, build_fused
from repro.core.store import RecordingStore
from repro.corpus.cps_programs import PROGRAMS as CPS_PROGRAMS
from repro.corpus.cps_programs import id_chain
from repro.corpus.fj_programs import PROGRAMS as FJ_PROGRAMS
from repro.corpus.lam_programs import PROGRAMS as LAM_PROGRAMS

CPS_NAMES = sorted(CPS_PROGRAMS)
LAM_NAMES = sorted(LAM_PROGRAMS)
FJ_NAMES = sorted(FJ_PROGRAMS)

#: Every engine x store-impl pair the global-store loop supports.
ENGINE_IMPLS = (
    ("kleene", "persistent"),
    ("depgraph", "persistent"),
    ("depgraph", "versioned"),
)


class TestTransitionAxis:
    def test_transitions_are_named(self):
        assert TRANSITIONS == ("generic", "fused")

    def test_default_is_generic(self):
        assert AnalysisConfig().validated().transition == "generic"

    def test_unknown_transition_rejected(self):
        with pytest.raises(ValueError, match="unknown transition"):
            AnalysisConfig(transition="jit").validated()

    def test_fused_composes_with_every_engine_combination(self):
        for engine, impl in ENGINE_IMPLS:
            AnalysisConfig(
                engine=engine, store_impl=impl, gc=True, transition="fused"
            ).validated()

    def test_fused_composes_with_per_state_and_concrete(self):
        AnalysisConfig(transition="fused").validated()
        AnalysisConfig(addressing="concrete", transition="fused").validated()

    def test_describe_mentions_fused(self):
        config = AnalysisConfig(engine="depgraph", transition="fused").validated()
        assert "fused" in config.describe()
        assert "fused" not in AnalysisConfig().validated().describe()

    def test_fused_presets_exist(self):
        from repro.config import PRESETS

        for name in ("0cfa", "1cfa", "2cfa", "1cfa-gc", "kcfa-counting-fast"):
            config = PRESETS[name].config
            assert config.transition == "fused"
            assert config.engine == "depgraph" and config.store_impl == "versioned"


class TestFusedCalling:
    def test_analysis_step_is_a_fused_transition(self):
        analysis = assemble(request_config("cps", "1cfa"))
        assert isinstance(analysis.step(), FusedTransition)
        generic = assemble(request_config("cps", "1cfa", {"transition": "generic"}))
        assert generic.step().__class__ is not FusedTransition

    def test_build_fused_resolves_all_three_languages(self):
        for preset, make in (
            ("1cfa", lambda: assemble(request_config("cps", "1cfa"))),
            ("1cfa", lambda: assemble(request_config("lam", "1cfa"))),
        ):
            analysis = make()
            staged = build_fused(
                "cps" if "CPS" in type(analysis).__name__ else "lam",
                analysis.interface,
            )
            assert isinstance(staged, FusedTransition)

    def test_build_fused_rejects_unknown_language(self):
        with pytest.raises(ValueError, match="no fused backend"):
            build_fused("cobol", object())

    def test_fused_step_returns_desugared_branches(self):
        """One staged call == ``monad.run`` of the monadic step."""
        from repro.cps.semantics import inject, mnext

        program = CPS_PROGRAMS["mj09"]
        generic = assemble(
            AnalysisConfig(
                language="cps", k=1, engine="depgraph", store_impl="persistent"
            )
        )
        fused = assemble(
            AnalysisConfig(
                language="cps",
                k=1,
                engine="depgraph",
                store_impl="persistent",
                transition="fused",
            )
        )
        pstate = inject(program)
        store = generic.interface.store_like.empty()
        want = generic.interface.monad.run(
            mnext(generic.interface, pstate), (), store
        )
        got = fused.step()(pstate, (), store)
        assert frozenset(got) == frozenset(want)


class TestCPSFusedEquivalence:
    @pytest.mark.parametrize("name", CPS_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_corpus(self, name, engine, impl):
        program = CPS_PROGRAMS[name]
        generic = run_config("cps", program, k=1, engine=engine, store_impl=impl)
        fused = run_config(
            "cps", program, k=1, engine=engine, store_impl=impl, transition="fused"
        )
        assert fused.fp == generic.fp
        assert fused.flows_to() == generic.flows_to()

    @pytest.mark.parametrize("name", CPS_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_corpus_k0(self, name, engine, impl):
        program = CPS_PROGRAMS[name]
        generic = run_config("cps", program, k=0, engine=engine, store_impl=impl)
        fused = run_config(
            "cps", program, k=0, engine=engine, store_impl=impl, transition="fused"
        )
        assert fused.fp == generic.fp

    def test_generated_family(self):
        program = id_chain(40)
        generic = run_config(
            "cps", program, k=1, engine="depgraph", store_impl="versioned"
        )
        fused = run_config(
            "cps",
            program,
            k=1,
            engine="depgraph",
            store_impl="versioned",
            transition="fused",
        )
        assert fused.fp == generic.fp

    @pytest.mark.parametrize("name", CPS_NAMES)
    def test_per_state_domain(self, name):
        program = CPS_PROGRAMS[name]
        generic = run_config("cps", program, k=1)
        fused = run_config("cps", program, k=1, transition="fused")
        assert fused.fp == generic.fp

    def test_concrete_reference_semantics(self):
        for name in ("id-id", "identity", "mj09", "self-apply"):
            program = CPS_PROGRAMS[name]
            generic = run_config("cps", program, addressing="concrete")
            fused = run_config(
                "cps", program, addressing="concrete", transition="fused"
            )
            assert fused.fp == generic.fp, name


class TestLamFusedEquivalence:
    @pytest.mark.parametrize("name", LAM_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_corpus(self, name, engine, impl):
        expr = LAM_PROGRAMS[name]
        generic = run_config("lam", expr, k=1, engine=engine, store_impl=impl)
        fused = run_config(
            "lam", expr, k=1, engine=engine, store_impl=impl, transition="fused"
        )
        assert fused.fp == generic.fp
        assert fused.flows_to() == generic.flows_to()
        assert fused.final_values() == generic.final_values()

    @pytest.mark.parametrize("name", LAM_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_corpus_k0(self, name, engine, impl):
        expr = LAM_PROGRAMS[name]
        generic = run_config("lam", expr, k=0, engine=engine, store_impl=impl)
        fused = run_config(
            "lam", expr, k=0, engine=engine, store_impl=impl, transition="fused"
        )
        assert fused.fp == generic.fp

    def test_per_state_domain(self):
        expr = LAM_PROGRAMS["mj09"]
        generic = run_config("lam", expr, k=1)
        fused = run_config("lam", expr, k=1, transition="fused")
        assert fused.fp == generic.fp


class TestFJFusedEquivalence:
    @pytest.mark.parametrize("name", FJ_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_corpus(self, name, engine, impl):
        program = FJ_PROGRAMS[name]
        generic = run_config("fj", program, k=1, engine=engine, store_impl=impl)
        fused = run_config(
            "fj", program, k=1, engine=engine, store_impl=impl, transition="fused"
        )
        assert fused.fp == generic.fp
        assert fused.class_flows() == generic.class_flows()
        assert fused.final_classes() == generic.final_classes()

    @pytest.mark.parametrize("name", FJ_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_corpus_k0(self, name, engine, impl):
        program = FJ_PROGRAMS[name]
        generic = run_config("fj", program, k=0, engine=engine, store_impl=impl)
        fused = run_config(
            "fj", program, k=0, engine=engine, store_impl=impl, transition="fused"
        )
        assert fused.fp == generic.fp

    def test_per_state_domain(self):
        program = FJ_PROGRAMS["visitor"]
        generic = run_config("fj", program, k=1)
        fused = run_config("fj", program, k=1, transition="fused")
        assert fused.fp == generic.fp


class TestFusedWithRefinements:
    """GC and counting compose with the staged step on every path."""

    @pytest.mark.parametrize("name", CPS_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_cps_gc_corpus(self, name, engine, impl):
        program = CPS_PROGRAMS[name]
        generic = run_config(
            "cps", program, k=1, gc=True, engine=engine, store_impl=impl
        )
        fused = run_config(
            "cps",
            program,
            k=1,
            gc=True,
            engine=engine,
            store_impl=impl,
            transition="fused",
        )
        assert fused.fp == generic.fp

    @pytest.mark.parametrize("name", CPS_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_cps_counting_corpus(self, name, engine, impl):
        program = CPS_PROGRAMS[name]
        generic = run_config(
            "cps", program, k=1, counting=True, engine=engine, store_impl=impl
        )
        fused = run_config(
            "cps",
            program,
            k=1,
            counting=True,
            engine=engine,
            store_impl=impl,
            transition="fused",
        )
        assert fused.fp == generic.fp
        # singleton (must-alias) facts agree too; go through the
        # store-like so persistent and versioned counting compare alike
        assert fused.store_like.singleton_addresses(
            fused.global_store()
        ) == generic.store_like.singleton_addresses(generic.global_store())

    @pytest.mark.parametrize("name", LAM_NAMES)
    def test_lam_gc_fast_path(self, name):
        expr = LAM_PROGRAMS[name]
        generic = run_config(
            "lam", expr, k=1, gc=True, engine="depgraph", store_impl="versioned"
        )
        fused = run_config(
            "lam",
            expr,
            k=1,
            gc=True,
            engine="depgraph",
            store_impl="versioned",
            transition="fused",
        )
        assert fused.fp == generic.fp

    @pytest.mark.parametrize("name", FJ_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_fj_gc_and_counting_corpus(self, name, engine, impl):
        program = FJ_PROGRAMS[name]
        for fields in (dict(gc=True), dict(counting=True)):
            config = AnalysisConfig(
                language="fj", k=1, engine=engine, store_impl=impl, **fields
            )
            generic = assemble(config, program=program).run(program)
            fused = assemble(
                config.replace(transition="fused"), program=program
            ).run(program)
            assert fused.fp == generic.fp, tuple(fields)

    def test_cps_per_state_gc(self):
        program = CPS_PROGRAMS["mj09"]
        generic = run_config("cps", program, k=1, gc=True)
        fused = run_config("cps", program, k=1, gc=True, transition="fused")
        assert fused.fp == generic.fp

    def test_noop_collector_is_a_noop_on_the_fused_path(self):
        """The base GarbageCollector collects nothing in the monad; the
        fused path's per-branch ``collector.collect`` must mirror that
        no-op instead of assuming a real sweeper's attributes."""
        from repro.core.collecting import PerStateStoreCollecting
        from repro.core.gc import GarbageCollector
        from repro.cps.semantics import inject

        program = CPS_PROGRAMS["mj09"]
        results = {}
        for transition in ("generic", "fused"):
            analysis = assemble(
                AnalysisConfig(language="cps", k=1, transition=transition)
            )
            noop = GarbageCollector(analysis.interface.monad)
            analysis.collecting = PerStateStoreCollecting(
                analysis.interface.monad,
                analysis.interface.store_like,
                (),
                collector=noop,
            )
            config = next(iter(analysis.collecting.inject(inject(program))))
            results[transition] = analysis.collecting.run_config(
                analysis.step(), config
            )
            assert results[transition]  # the no-op must not crash or prune
        assert results["fused"] == results["generic"]


class TestFusedReadWriteParity:
    """The observational contract under the depgraph engine: a staged
    evaluation leaves the same RecordingStore footprint as the monadic
    one, so dependency-tracked retriggering cannot diverge."""

    @pytest.mark.parametrize("gc", [False, True])
    def test_single_evaluation_logs_match(self, gc):
        from repro.cps.semantics import inject

        program = CPS_PROGRAMS["mj09"]
        footprints = {}
        for transition in ("generic", "fused"):
            analysis = assemble(
                AnalysisConfig(
                    language="cps",
                    k=1,
                    gc=gc,
                    engine="depgraph",
                    store_impl="versioned",
                    transition=transition,
                )
            )
            recorder = analysis.interface.store_like
            assert isinstance(recorder, RecordingStore)
            # drive the engine to a fixed point, then replay the seed
            # configuration once under a fresh bracket to observe its logs
            analysis.run(program)
            inner = analysis.collecting.inner
            seed_configs, seed_store = analysis.collecting.inject(inject(program))
            from repro.core.store import VersionedStore

            mstore = VersionedStore().thaw(seed_store)
            recorder.begin_log()
            try:
                inner.run_config_pairs(
                    analysis.step(), (next(iter(seed_configs)), mstore)
                )
            finally:
                reads, writes = recorder.end_log()
            footprints[transition] = (reads, writes)
        assert footprints["fused"] == footprints["generic"]

    def test_engine_work_counters_match(self):
        """Same logs => same retriggering: the deterministic work
        counters (evaluations, retriggers, configurations) agree."""
        program = id_chain(25)
        stats = {}
        for transition in ("generic", "fused"):
            analysis = assemble(
                AnalysisConfig(
                    language="cps",
                    k=1,
                    engine="depgraph",
                    store_impl="versioned",
                    transition=transition,
                )
            )
            analysis.run(program)
            stats[transition] = analysis.last_stats
        assert stats["fused"] == stats["generic"]


class TestFusedAcceptance:
    """The acceptance shape: every engine x store-impl x gc /
    counting combination runs fused with the identical fixed point (one
    program per language here; the corpus-wide matrices above and the
    preset matrix in test_config.py cover the rest)."""

    @pytest.mark.parametrize("lang", ["cps", "lam", "fj"])
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    @pytest.mark.parametrize("refinement", ["plain", "gc", "counting"])
    def test_matrix_cell(self, lang, engine, impl, refinement):
        program = {
            "cps": CPS_PROGRAMS["mj09"],
            "lam": LAM_PROGRAMS["mj09"],
            "fj": FJ_PROGRAMS["visitor"],
        }[lang]
        fixed_points = {}
        for transition in ("generic", "fused"):
            config = AnalysisConfig(
                language=lang,
                k=1,
                engine=engine,
                store_impl=impl,
                gc=refinement == "gc",
                counting=refinement == "counting",
                transition=transition,
            ).validated()
            analysis = assemble(config, program=program)
            fixed_points[transition] = analysis.run(program).fp
        assert fixed_points["fused"] == fixed_points["generic"]
