"""Engine equivalence: kleene / depgraph agree everywhere.

The two engines are interchangeable fixed-point strategies over the
store-widened collecting domain (paper 5.2's third degree of freedom,
pushed further): whole-domain Kleene rounds and dependency-tracked
frontier re-evaluation.  Chaotic iteration of a monotone functional
converges to the same least fixed point regardless of evaluation
order, so both must agree on the reached
configurations, the global store's flow tables, and hence every derived
metric -- across all three languages and context depths.
"""

import pytest

from config_helpers import run_config
from repro.config import AnalysisConfig, assemble
from repro.core.analysis import EngineRequired
from repro.core.fixpoint import ENGINES, STORE_IMPLS, global_store_explore
from repro.core.store import BasicStore, CountingStore, RecordingStore, unwrap_store
from repro.corpus.cps_programs import PROGRAMS as CPS_PROGRAMS
from repro.corpus.cps_programs import id_chain
from repro.corpus.fj_programs import PROGRAMS as FJ_PROGRAMS
from repro.corpus.lam_programs import PROGRAMS as LAM_PROGRAMS
from repro.util.intern import clear_intern_pool

CPS_NAMES = sorted(CPS_PROGRAMS)
LAM_NAMES = sorted(LAM_PROGRAMS)
FJ_NAMES = sorted(FJ_PROGRAMS)


class TestCPSEngineEquivalence:
    @pytest.mark.parametrize("name", CPS_NAMES)
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("impl", STORE_IMPLS)
    def test_engines_agree_with_kleene(self, name, k, impl):
        program = CPS_PROGRAMS[name]
        reference = run_config("cps", program, k=k, engine="kleene")
        result = run_config("cps", program, k=k, engine="depgraph", store_impl=impl)
        assert result.configs() == reference.configs()
        assert result.num_states() == reference.num_states()
        assert result.flows_to() == reference.flows_to()

    def test_depgraph_on_generated_family(self):
        program = id_chain(6)
        reference = run_config("cps", program, k=1, engine="kleene")
        analysis = assemble(AnalysisConfig(language="cps", k=1, engine="depgraph"))
        result = analysis.run(program)
        stats = analysis.last_stats
        assert result.flows_to() == reference.flows_to()
        assert stats["evaluations"] >= stats["configurations"] > 0

    def test_counting_store_works_under_kleene_engine(self):
        """Counting composes with the kleene engine."""
        program = CPS_PROGRAMS["mj09"]
        plain = run_config("cps", program, k=1, engine="kleene")
        counted = run_config("cps", program, k=1, engine="kleene", counting=True)
        assert counted.flows_to() == plain.flows_to()
        assert counted.configs() == plain.configs()


class TestCESKEngineEquivalence:
    # k=2 is left to the preset matrix (tests/test_config.py): Church
    # arithmetic at k=2 makes the whole-domain Kleene reference explode
    @pytest.mark.parametrize("name", LAM_NAMES)
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("impl", STORE_IMPLS)
    def test_engines_agree_with_kleene(self, name, k, impl):
        expr = LAM_PROGRAMS[name]
        reference = run_config("lam", expr, k=k, engine="kleene")
        result = run_config("lam", expr, k=k, engine="depgraph", store_impl=impl)
        assert result.configs() == reference.configs()
        assert result.num_states() == reference.num_states()
        assert result.flows_to() == reference.flows_to()

    def test_final_values_agree(self):
        expr = LAM_PROGRAMS["mj09"]
        results = {e: run_config("lam", expr, engine=e) for e in ENGINES}
        finals = {e: r.final_values() for e, r in results.items()}
        assert finals["kleene"] == finals["depgraph"]


class TestFJEngineEquivalence:
    @pytest.mark.parametrize("name", FJ_NAMES)
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("impl", STORE_IMPLS)
    def test_engines_agree_with_kleene(self, name, k, impl):
        program = FJ_PROGRAMS[name]
        reference = run_config("fj", program, k=k, engine="kleene")
        result = run_config("fj", program, k=k, engine="depgraph", store_impl=impl)
        assert result.configs() == reference.configs()
        assert result.num_states() == reference.num_states()
        assert result.class_flows() == reference.class_flows()

    def test_final_classes_agree(self):
        program = FJ_PROGRAMS["animals"]
        finals = {
            e: run_config("fj", program, engine=e).final_classes() for e in ENGINES
        }
        assert finals["kleene"] == finals["depgraph"]


class TestStoreImplEquivalence:
    """``versioned`` and ``persistent`` store backings agree everywhere.

    The versioned store changes how the depgraph engine detects and
    propagates store growth (mutable store + changelog instead of
    persistent-map joins), not what it computes: both store impls
    must produce the identical widened fixed
    point -- configurations *and* global store -- across all three
    languages and the whole corpus.
    """

    @pytest.mark.parametrize("name", CPS_NAMES)
    @pytest.mark.parametrize("engine", ["depgraph"])
    def test_cps_corpus(self, name, engine):
        program = CPS_PROGRAMS[name]
        persistent = run_config("cps", program, k=1, engine=engine)
        versioned = run_config(
            "cps", program, k=1, engine=engine, store_impl="versioned"
        )
        assert versioned.fp == persistent.fp
        assert versioned.flows_to() == persistent.flows_to()

    @pytest.mark.parametrize("name", LAM_NAMES)
    @pytest.mark.parametrize("engine", ["depgraph"])
    def test_lam_corpus(self, name, engine):
        expr = LAM_PROGRAMS[name]
        persistent = run_config("lam", expr, k=1, engine=engine)
        versioned = run_config("lam", expr, k=1, engine=engine, store_impl="versioned")
        assert versioned.fp == persistent.fp
        assert versioned.flows_to() == persistent.flows_to()

    @pytest.mark.parametrize("name", FJ_NAMES)
    @pytest.mark.parametrize("engine", ["depgraph"])
    def test_fj_corpus(self, name, engine):
        program = FJ_PROGRAMS[name]
        persistent = run_config("fj", program, k=1, engine=engine)
        versioned = run_config(
            "fj", program, k=1, engine=engine, store_impl="versioned"
        )
        assert versioned.fp == persistent.fp
        assert versioned.class_flows() == persistent.class_flows()

    @pytest.mark.parametrize("k", [0, 1])
    def test_versioned_agrees_with_kleene(self, k):
        program = CPS_PROGRAMS["mj09"]
        kleene = run_config("cps", program, k=k, engine="kleene")
        versioned = run_config(
            "cps", program, k=k, engine="depgraph", store_impl="versioned"
        )
        assert versioned.fp == kleene.fp

    def test_versioned_on_generated_family(self):
        program = id_chain(8)
        persistent = run_config("cps", program, k=1, engine="depgraph")
        analysis = assemble(
            AnalysisConfig(
                language="cps", k=1, engine="depgraph", store_impl="versioned"
            )
        )
        versioned = analysis.run(program)
        stats = analysis.last_stats
        assert versioned.fp == persistent.fp
        assert stats["evaluations"] >= stats["configurations"] > 0

    def test_store_impls_are_named(self):
        assert STORE_IMPLS == ("persistent", "versioned")

    def test_kleene_rejects_versioned(self):
        with pytest.raises(ValueError, match="kleene"):
            assemble(
                AnalysisConfig(
                    language="cps", k=1, engine="kleene", store_impl="versioned"
                )
            )

    def test_unknown_store_impl_rejected(self):
        with pytest.raises(ValueError, match="store impl"):
            assemble(
                AnalysisConfig(
                    language="cps", k=1, engine="depgraph", store_impl="magnetic-tape"
                )
            )

    def test_versioned_needs_an_engine(self):
        with pytest.raises(ValueError, match="engine"):
            assemble(AnalysisConfig(language="cps", k=1, store_impl="versioned"))

    def test_counting_runs_on_versioned(self):
        """Counting stores have a versioned counterpart since the engines
        learned to saturate counts; the fixed point matches kleene."""
        program = CPS_PROGRAMS["mj09"]
        kleene = run_config("cps", program, k=1, counting=True, engine="kleene")
        fast = run_config(
            "cps",
            program,
            k=1,
            counting=True,
            engine="depgraph",
            store_impl="versioned",
        )
        assert fast.fp == kleene.fp


def _parsed_after_clear(parse, source):
    """Parse ``source`` into a freshly cleared intern pool.

    The result is structurally equal to every earlier parse of the same
    source but shares no node with it: the pool that made those
    canonical is gone.
    """
    clear_intern_pool()
    return parse(source)


class TestInternedVsPlain:
    """Hash-consing is invisible to the analyses.

    A program parsed before :func:`clear_intern_pool` and the same
    source parsed after it are structurally equal but not identical, so
    every analysis must produce equal fixed points for the two -- across
    languages and engines.  This pins down that node identity is only a
    fast path: the cached-hash/identity-eq layer changed the cost of
    hashing and equality, never their meaning.
    """

    @pytest.mark.parametrize("name", CPS_NAMES)
    def test_cps_corpus(self, name):
        from repro.cps.parser import parse_program
        from repro.cps.syntax import pp

        program = CPS_PROGRAMS[name]
        after = _parsed_after_clear(parse_program, pp(program))
        assert after == program and after is not program
        for engine in ENGINES:
            before_result = run_config("cps", program, k=1, engine=engine)
            after_result = run_config("cps", after, k=1, engine=engine)
            assert before_result.fp == after_result.fp, engine

    def test_lam_spot_check(self):
        from repro.corpus.lam_programs import CHURCH_TWO_TWO
        from repro.lam.parser import parse_expr

        expr = LAM_PROGRAMS["church-two-two"]
        after = _parsed_after_clear(parse_expr, CHURCH_TWO_TWO)
        assert after == expr and after is not expr
        for engine in ENGINES:
            assert (
                run_config("lam", expr, k=1, engine=engine).fp
                == run_config("lam", after, k=1, engine=engine).fp
            ), engine

    def test_fj_spot_check(self):
        from repro.corpus.fj_programs import VISITOR
        from repro.fj.parser import parse_program

        program = FJ_PROGRAMS["visitor"]
        after = _parsed_after_clear(parse_program, VISITOR)
        assert after == program and after is not program
        for engine in ENGINES:
            assert (
                run_config("fj", program, k=1, engine=engine).fp
                == run_config("fj", after, k=1, engine=engine).fp
            ), engine


class TestRecordingStore:
    def test_logs_reads_and_writes_only_while_bracketed(self):
        store_like = RecordingStore(BasicStore())
        sigma = store_like.bind(store_like.empty(), "a", frozenset([1]))
        assert store_like.reads == set() and store_like.writes == set()

        store_like.begin_log()
        store_like.fetch(sigma, "a")
        sigma = store_like.bind(sigma, "b", frozenset([2]))
        reads, writes = store_like.end_log()
        assert reads == frozenset(["a"])
        assert writes == frozenset(["b"])

        store_like.fetch(sigma, "b")  # after end_log: not recorded
        assert store_like.reads == {"a"}

    def test_update_counts_as_read_and_write(self):
        store_like = RecordingStore(CountingStore())
        sigma = store_like.bind(store_like.empty(), "a", frozenset([1]))
        store_like.begin_log()
        store_like.update(sigma, "a", frozenset([2]))
        reads, writes = store_like.end_log()
        assert "a" in reads and "a" in writes

    def test_store_elements_are_interchangeable(self):
        plain = BasicStore()
        recording = RecordingStore(BasicStore())
        s1 = plain.bind(plain.empty(), "x", frozenset([1]))
        s2 = recording.bind(recording.empty(), "x", frozenset([1]))
        assert s1 == s2
        assert unwrap_store(recording).__class__ is BasicStore


class TestEngineGuards:
    @pytest.mark.parametrize("option", ["warm_start", "capture", "trace"])
    def test_run_options_need_an_engine(self, option):
        analysis = assemble(AnalysisConfig(language="cps", k=1))
        with pytest.raises(EngineRequired, match="engine-backed"):
            analysis.run(CPS_PROGRAMS["mj09"], **{option: []})

    @pytest.mark.parametrize(
        "language,program",
        [
            ("cps", CPS_PROGRAMS["mj09"]),
            ("lam", LAM_PROGRAMS["mj09"]),
            ("fj", FJ_PROGRAMS["animals"]),
        ],
    )
    def test_shared_domains_ignore_worklist(self, language, program):
        """Every language takes the same ``run``: the store-widened domain
        iterates ``exploreFP`` whatever ``worklist`` says."""
        config = AnalysisConfig(language=language, k=1, engine="kleene")
        analysis = assemble(config, program=program)
        widened = analysis.run(program, worklist=False).fp
        assert analysis.run(program, worklist=True).fp == widened

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            assemble(AnalysisConfig(language="cps", k=1, engine="magic"))

    def test_gc_allowed_on_kleene_engine(self):
        analysis = assemble(
            AnalysisConfig(language="cps", k=1, gc=True, engine="kleene")
        )
        result = analysis.run(CPS_PROGRAMS["mj09"])
        assert result.num_states() > 0

    def test_depgraph_requires_recording_store(self):
        """Calling the raw engine on an unwrapped domain fails loudly."""
        # kleene rounds: the plain persistent store, no recording wrapper
        analysis = assemble(AnalysisConfig(language="cps", k=1, engine="kleene"))
        with pytest.raises(TypeError, match="RecordingStore"):
            global_store_explore(
                analysis.collecting,
                analysis.step(),
                CPS_PROGRAMS["mj09"],
            )


class TestGCEngineEquivalence:
    """Abstract GC runs on the depgraph engine (both store impls) and
    computes the identical fixed point to the Kleene+GC baseline.

    On the persistent path each branch's result store arrives already
    swept by the woven-in collector; on the versioned path the engine
    runs each evaluation against a write overlay, sweeps reachability
    from every successor, and merges only the live writes.  The Kleene+GC
    iterates are monotone on every corpus program, so the grow-only
    worklist image converges to the same least fixed point.  (The full
    preset-by-preset corpus sweep lives in tests/test_config.py; these
    are the direct engine-level checks.)
    """

    ENGINE_IMPLS = [
        ("depgraph", "persistent"),
        ("depgraph", "versioned"),
    ]

    @pytest.mark.parametrize("name", CPS_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_cps_corpus(self, name, engine, impl):
        program = CPS_PROGRAMS[name]
        reference = run_config("cps", program, k=1, gc=True, engine="kleene")
        result = run_config(
            "cps", program, k=1, gc=True, engine=engine, store_impl=impl
        )
        assert result.fp == reference.fp

    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_lam_spot_check(self, engine, impl):
        expr = LAM_PROGRAMS["mj09"]
        reference = run_config("lam", expr, k=1, gc=True, engine="kleene")
        result = run_config("lam", expr, k=1, gc=True, engine=engine, store_impl=impl)
        assert result.fp == reference.fp

    @pytest.mark.parametrize("name", FJ_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_fj_corpus(self, name, engine, impl):
        program = FJ_PROGRAMS[name]
        reference = run_config("fj", program, k=1, gc=True, engine="kleene")
        result = run_config("fj", program, k=1, gc=True, engine=engine, store_impl=impl)
        assert result.fp == reference.fp

    def test_gc_sweeps_dead_bindings_out_of_the_global_store(self):
        """The GC'd global store is a subset of the unswept one."""
        program = LAM_PROGRAMS["church-two-two"]
        plain = run_config(
            "lam", program, k=1, engine="depgraph", store_impl="versioned"
        )
        swept = run_config(
            "lam", program, k=1, gc=True, engine="depgraph", store_impl="versioned"
        )
        plain_addrs = set(plain.global_store().keys())
        swept_addrs = set(swept.global_store().keys())
        assert swept_addrs <= plain_addrs

    def test_gc_engine_stats_report_fewer_evaluations_than_kleene(self):
        from repro.corpus.cps_programs import id_chain

        program = id_chain(12)
        kleene_stats: dict = {}
        fast_stats: dict = {}
        kleene = assemble(AnalysisConfig(language="cps", k=1, gc=True, engine="kleene"))
        kleene.run(program)
        kleene_stats = kleene.last_stats
        fast = assemble(
            AnalysisConfig(
                language="cps", k=1, gc=True, engine="depgraph", store_impl="versioned"
            )
        )
        fast.run(program)
        fast_stats = fast.last_stats
        assert fast_stats["evaluations"] < kleene_stats["evaluations"]


class TestCountingEngineEquivalence:
    """Counting stores run on the depgraph engine (both store impls) via
    count saturation.

    At the Kleene fixed point every step-written address has count MANY
    (the confirming round re-binds it once more), so the engines track
    written addresses through the write log and saturate their counts
    after convergence -- the identical fixed point, store included.
    """

    ENGINE_IMPLS = TestGCEngineEquivalence.ENGINE_IMPLS

    @pytest.mark.parametrize("name", CPS_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_cps_corpus(self, name, engine, impl):
        program = CPS_PROGRAMS[name]
        reference = run_config("cps", program, k=1, engine="kleene", counting=True)
        result = run_config(
            "cps", program, k=1, counting=True, engine=engine, store_impl=impl
        )
        assert result.fp == reference.fp

    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_lam_spot_check(self, engine, impl):
        expr = LAM_PROGRAMS["church-two-two"]
        reference = run_config("lam", expr, k=1, counting=True, engine="kleene")
        result = run_config(
            "lam", expr, k=1, counting=True, engine=engine, store_impl=impl
        )
        assert result.fp == reference.fp

    @pytest.mark.parametrize("name", FJ_NAMES)
    @pytest.mark.parametrize("engine,impl", ENGINE_IMPLS)
    def test_fj_corpus(self, name, engine, impl):
        program = FJ_PROGRAMS[name]
        reference = run_config("fj", program, k=1, counting=True, engine="kleene")
        result = run_config(
            "fj", program, k=1, counting=True, engine=engine, store_impl=impl
        )
        assert result.fp == reference.fp

    def test_seed_bindings_keep_their_counts(self):
        """Saturation only touches step-written addresses: the halt
        continuation, bound once when the store is seeded, stays ONE."""
        from repro.cesk.machine import HALT_ADDRESS
        from repro.core.lattice import AbsNat

        expr = LAM_PROGRAMS["id-simple"]
        result = run_config(
            "lam", expr, k=1, counting=True, engine="depgraph", store_impl="versioned"
        )
        assert result.store_like.count(result.global_store(), HALT_ADDRESS) is AbsNat.ONE

    def test_gc_and_counting_compose_on_worklist_engines(self):
        program = CPS_PROGRAMS["mj09"]
        reference = run_config(
            "cps", program, k=1, counting=True, gc=True, engine="kleene"
        )
        for engine, impl in self.ENGINE_IMPLS:
            result = run_config(
                "cps",
                program,
                k=1,
                counting=True,
                gc=True,
                engine=engine,
                store_impl=impl,
            )
            assert result.fp == reference.fp, (engine, impl)


class TestFusedTransitionMatrix:
    """The transition axis joins the equivalence matrix: on every engine
    the staged (fused) step computes the generic kleene fixed point.

    The deep fused-vs-generic matrices (per engine x store-impl cell, GC
    and counting composition, per-state domains, read/write-log parity)
    live in ``tests/test_fused.py``; this class keeps the fused axis
    visible next to the engine and store-impl matrices it extends --
    every row compares against the one generic kleene reference.
    """

    ENGINE_IMPLS = [
        ("kleene", "persistent"),
        ("depgraph", "persistent"),
        ("depgraph", "versioned"),
    ]

    @pytest.mark.parametrize("name", CPS_NAMES)
    def test_cps_corpus(self, name):
        program = CPS_PROGRAMS[name]
        reference = run_config("cps", program, k=1, engine="kleene")
        for engine, impl in self.ENGINE_IMPLS:
            result = run_config(
                "cps", program, k=1, engine=engine, store_impl=impl, transition="fused"
            )
            assert result.fp == reference.fp, (engine, impl)

    @pytest.mark.parametrize("name", LAM_NAMES)
    def test_lam_corpus(self, name):
        expr = LAM_PROGRAMS[name]
        reference = run_config("lam", expr, k=1, engine="kleene")
        for engine, impl in self.ENGINE_IMPLS:
            result = run_config(
                "lam", expr, k=1, engine=engine, store_impl=impl, transition="fused"
            )
            assert result.fp == reference.fp, (engine, impl)

    @pytest.mark.parametrize("name", FJ_NAMES)
    def test_fj_corpus(self, name):
        program = FJ_PROGRAMS[name]
        reference = run_config("fj", program, k=1, engine="kleene")
        for engine, impl in self.ENGINE_IMPLS:
            result = run_config(
                "fj", program, k=1, engine=engine, store_impl=impl, transition="fused"
            )
            assert result.fp == reference.fp, (engine, impl)
