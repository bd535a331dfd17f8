"""The ``repro.config`` subsystem: validation, presets and the matrix.

Two layers of checks:

* :class:`AnalysisConfig` validation is the single home of the
  compatibility rules that used to live as scattered checks in the
  driver and the per-language constructors -- every rule is pinned
  here, with its historical error-message wording.
* The **preset matrix**: every preset in the registry produces a fixed
  point identical to its :func:`~repro.config.reference_config` run,
  across the full corpus in all three languages.  For engine presets
  the reference swaps the engine for ``kleene`` over the persistent
  store; for per-state presets it evaluates the same domain by
  whole-domain Kleene rounds (``explore_fp``) instead of the frontier
  worklist.  Either way it takes the generic monadic step.  The
  ``concrete`` preset is compared on the corpus programs with finite
  concrete state spaces.
"""

import pytest

from repro.config import (
    PRESETS,
    AnalysisConfig,
    assemble,
    list_presets,
    preset_config,
    reference_config,
    request_config,
)
from repro.corpus.cps_programs import PROGRAMS as CPS_PROGRAMS
from repro.corpus.fj_programs import PROGRAMS as FJ_PROGRAMS
from repro.corpus.lam_programs import PROGRAMS as LAM_PROGRAMS
from preset_cells import cell_config, preset_cells

LANG_PROGRAMS = {
    "cps": CPS_PROGRAMS,
    "lam": LAM_PROGRAMS,
    "fj": FJ_PROGRAMS,
}

#: Corpus programs whose *concrete* state space is finite (the concrete
#: preset diverges, correctly, on the others).
TERMINATING = {
    "cps": ["id-id", "identity", "mj09", "self-apply"],
    "lam": ["church-two-two", "eta", "id-simple", "mj09"],
    "fj": sorted(FJ_PROGRAMS),
}

#: Cells excluded from the matrix because the *reference* computation is
#: prohibitive, not because equivalence is in doubt: Church arithmetic
#: under per-state stores exhibits exactly the heap-cloning exponential
#: blowup of 6.5 (regenerated by benchmarks/bench_widening.py), and the
#: same program under k=2 makes whole-domain Kleene rounds explode.  The
#: per-state presets and the 2-CFA preset skip it; every other program
#: runs in every cell.
EXPENSIVE = {
    ("1cfa-per-state", "lam"): {"church-two-two"},
    ("1cfa-gc-per-state", "lam"): {"church-two-two"},
    ("1cfa-counting-per-state", "lam"): {"church-two-two"},
    ("2cfa", "lam"): {"church-two-two"},
    # unique-address stores make every configuration's store distinct, so
    # the whole-domain Kleene reference is quadratic in thousands of
    # configurations on these two
    ("concrete", "lam"): {"church-two-two"},
    ("concrete", "fj"): {"list-walk"},
}

LANGUAGES = ("cps", "lam", "fj")


class TestAnalysisConfigValidation:
    def test_defaults_validate(self):
        config = AnalysisConfig().validated()
        assert config.engine is None and not config.shared

    def test_engine_implies_store_widening(self):
        config = AnalysisConfig(engine="depgraph")
        assert config.shared
        assert config.validated() is config  # validation never rewrites

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError, match="unknown language"):
            AnalysisConfig(language="cobol").validated()

    def test_unknown_addressing_rejected(self):
        with pytest.raises(ValueError, match="unknown addressing"):
            AnalysisConfig(addressing="9cfa").validated()

    @pytest.mark.parametrize("engine", ["magic", "worklist"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            AnalysisConfig(engine=engine).validated()

    def test_unknown_store_impl_rejected(self):
        with pytest.raises(ValueError, match="store impl"):
            AnalysisConfig(engine="depgraph", store_impl="magnetic-tape").validated()

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            AnalysisConfig(k=-1).validated()

    def test_versioned_needs_an_engine(self):
        with pytest.raises(ValueError, match="engine"):
            AnalysisConfig(store_impl="versioned").validated()

    def test_kleene_rejects_versioned(self):
        with pytest.raises(ValueError, match="kleene"):
            AnalysisConfig(engine="kleene", store_impl="versioned").validated()

    def test_concrete_rejects_engines_and_widening(self):
        for engine in ("kleene", "depgraph"):
            with pytest.raises(ValueError, match="concrete"):
                AnalysisConfig(addressing="concrete", engine=engine).validated()

    def test_gc_and_counting_compose_with_every_engine(self):
        """The old kleene-only restriction is gone: every engine/store
        combination with GC and counting validates."""
        for engine in ("kleene", "depgraph"):
            for store_impl in ("persistent", "versioned"):
                if engine == "kleene" and store_impl == "versioned":
                    continue
                AnalysisConfig(
                    engine=engine, store_impl=store_impl, gc=True, counting=True
                ).validated()

    def test_replace_round_trips(self):
        config = AnalysisConfig(k=2).replace(gc=True)
        assert config.k == 2 and config.gc


class TestPresetRegistry:
    def test_required_presets_exist(self):
        for name in ("concrete", "0cfa", "1cfa-gc", "kcfa-counting-fast"):
            assert name in PRESETS

    def test_every_preset_validates(self):
        for name, preset in PRESETS.items():
            assert preset.config.validated() == preset.config, name
            assert preset.description, name
            assert preset.config.label == name

    def test_fast_presets_use_depgraph_versioned(self):
        for name in ("0cfa", "1cfa", "2cfa", "1cfa-gc", "kcfa-counting-fast"):
            config = PRESETS[name].config
            assert config.engine == "depgraph" and config.store_impl == "versioned"
            assert config.transition == "fused", name

    def test_presets_are_distinct_configurations(self):
        """No preset duplicates another: each differs in a field that the
        cache key sees."""
        shapes = {p.config.cache_key() for p in PRESETS.values()}
        assert len(shapes) == len(PRESETS)

    def test_unknown_preset_has_helpful_error(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("definitely-not-a-preset")

    @pytest.mark.parametrize("lang", LANGUAGES)
    @pytest.mark.parametrize("order", ["fifo", "priority"])
    def test_schedule_is_not_a_config_field(self, order, lang):
        """The depgraph loop has one FIFO drain order, so ``schedule`` is
        an unknown override like any other typo'd field -- no shim."""
        with pytest.raises(ValueError, match="unknown config override"):
            request_config(lang, "1cfa", {"schedule": order})
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("1cfa-priority", lang)

    def test_list_presets_rows(self):
        rows = list_presets()
        assert len(rows) == len(PRESETS)
        names = [name for name, _summary, _desc in rows]
        assert "1cfa-gc" in names

    def test_preset_config_fills_language(self):
        config = preset_config("1cfa", "lam")
        assert config.language == "lam"
        assert preset_config("1cfa").language is None

    def test_assemble_requires_language(self):
        with pytest.raises(ValueError, match="language"):
            assemble(preset_config("1cfa"))

    def test_assemble_fj_requires_program(self):
        with pytest.raises(ValueError, match="program"):
            assemble(preset_config("1cfa", "fj"))

    def test_explicit_defaults_override_presets(self):
        """An override is any field the caller passed: explicitly passing
        the historical defaults (persistent store, kleene engine) must
        override a versioned preset rather than being silently dropped."""
        from repro.core.store import BasicStore, unwrap_store

        paired_back = assemble(
            request_config(
                "cps", "1cfa", {"engine": "kleene", "store_impl": "persistent"}
            )
        )
        assert paired_back.engine == "kleene"
        persistent = assemble(
            request_config("cps", "1cfa", {"store_impl": "persistent"})
        )
        assert isinstance(
            unwrap_store(persistent.interface.store_like), BasicStore
        )


def _run(config, lang, program, worklist):
    analysis = assemble(config.replace(language=lang), program=program)
    return analysis.run(program, worklist=worklist)


_reference_cache: dict = {}


def _reference(lang, name, config):
    """The :func:`reference_config` run of ``config`` on one corpus program.

    The reference always runs the *generic* monadic transition by
    whole-domain Kleene rounds: the fused and worklist cells are thereby
    checked against the monadic normal form itself.
    """
    ref = reference_config(config)
    key = (lang, name, ref.cache_key())
    if key not in _reference_cache:
        program = LANG_PROGRAMS[lang][name]
        _reference_cache[key] = _run(ref, lang, program, worklist=False)
    return _reference_cache[key]


class TestReferenceConfig:
    """The oracle of every preset: one spelling, fixed by the domain."""

    @pytest.mark.parametrize("lang", LANGUAGES)
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_reference_of_every_preset(self, name, lang):
        config = preset_config(name, lang)
        ref = reference_config(config)
        assert config == config.validated()
        assert ref == ref.validated()
        assert reference_config(ref) == ref
        assert ref.shared == config.shared
        assert ref.transition == "generic"
        if config.shared:
            assert ref == config.replace(
                engine="kleene", store_impl="persistent", transition="generic"
            )
        else:
            assert ref == config.replace(transition="generic")
            assert ref.engine is None and ref.store_impl == "persistent"


class TestPresetMatrix:
    """Every preset == its :func:`reference_config` run, corpus-wide."""

    @pytest.mark.parametrize("lang", LANGUAGES)
    @pytest.mark.parametrize("preset_name,transition", preset_cells())
    def test_preset_matches_kleene_equivalent(self, preset_name, transition, lang):
        config = cell_config(preset_name, transition)
        names = (
            TERMINATING[lang]
            if config.addressing == "concrete"
            else sorted(LANG_PROGRAMS[lang])
        )
        skip = EXPENSIVE.get((preset_name, lang), set())
        for name in names:
            if name in skip:
                continue
            program = LANG_PROGRAMS[lang][name]
            result = _run(config, lang, program, worklist=not config.shared)
            reference = _reference(lang, name, config)
            assert result.fp == reference.fp, f"{preset_name} vs reference on {lang}/{name}"

    @pytest.mark.parametrize("lang", LANGUAGES)
    def test_acceptance_1cfa_gc_runs_depgraph_versioned(self, lang):
        """The headline criterion: ``1cfa-gc`` is a depgraph/versioned
        analysis whose fixed point equals the Kleene+GC baseline."""
        from repro.core.store import RecordingStore, VersionedStore, unwrap_store

        config = preset_config("1cfa-gc", lang)
        for name in sorted(LANG_PROGRAMS[lang]):
            program = LANG_PROGRAMS[lang][name]
            analysis = assemble(config, program=program)
            assert analysis.engine == "depgraph"
            assert isinstance(analysis.interface.store_like, RecordingStore)
            assert isinstance(
                unwrap_store(analysis.interface.store_like), VersionedStore
            )
            fast = analysis.run(program)
            baseline = _reference(lang, name, config)
            assert fast.fp == baseline.fp, f"{lang}/{name}"
