"""Experiment E8 as a test: the meta-level components are shared verbatim.

The paper's central claim (sections 1, 6.1, 9): components implementing
nondeterministic transitions, polyvariance and abstract counting are
semantics-independent and can be reused for different calculi.  Here we
(1) drive all three machines with the *same component objects* -- one
``Addressable``, one ``StoreLike`` -- and (2) check that corresponding
programs in different languages get corresponding answers.
"""

import pytest
from config_helpers import run_config

from repro.analysis.report import result_summary
from repro.config import PRESETS, AnalysisConfig, assemble, preset_config
from repro.core.analysis import Analysis, AnalysisResult
from repro.core.addresses import KCFA, ZeroCFA
from repro.core.monads import StorePassing
from repro.core.store import BasicStore, CountingStore
from repro.cps.analysis import AbstractCPSInterface
from repro.cesk.analysis import AbstractCESKInterface
from repro.fj.analysis import AbstractFJInterface
from repro.fj.class_table import ClassTable
from repro.lam.cps_transform import cps_convert
from repro.corpus import cps_programs, fj_programs, lam_programs


class TestComponentSharing:
    """One component object drives machines for three languages."""

    def test_one_addressable_three_interfaces(self):
        addressing = KCFA(1)  # a single instance...
        cps_iface = AbstractCPSInterface(addressing, BasicStore())
        cesk_iface = AbstractCESKInterface(addressing, BasicStore())
        fj_table = ClassTable.of(fj_programs.PROGRAMS["pair"])
        fj_iface = AbstractFJInterface(fj_table, addressing, BasicStore())
        assert cps_iface.addressing is cesk_iface.addressing is fj_iface.addressing

    def test_one_store_like_shared(self):
        store = CountingStore()
        cps_iface = AbstractCPSInterface(ZeroCFA(), store)
        cesk_iface = AbstractCESKInterface(ZeroCFA(), store)
        assert cps_iface.store_like is cesk_iface.store_like

    def test_all_machines_use_store_passing(self):
        fj_table = ClassTable.of(fj_programs.PROGRAMS["pair"])
        interfaces = [
            AbstractCPSInterface(ZeroCFA(), BasicStore()),
            AbstractCESKInterface(ZeroCFA(), BasicStore()),
            AbstractFJInterface(fj_table, ZeroCFA(), BasicStore()),
        ]
        assert all(isinstance(i.monad, StorePassing) for i in interfaces)

    def test_shared_component_analyses_actually_run(self):
        addressing = KCFA(1)  # one instance assembled into all three
        cps_result = assemble(
            AnalysisConfig(language="cps", k=1), addressing=addressing
        ).run(cps_programs.PROGRAMS["mj09"])
        cesk_result = assemble(
            AnalysisConfig(language="lam", k=1), addressing=addressing
        ).run(lam_programs.PROGRAMS["mj09"])
        fj_program = fj_programs.PROGRAMS["id-twice"]
        fj_result = assemble(
            AnalysisConfig(language="fj", k=1),
            program=fj_program,
            addressing=addressing,
        ).run(fj_program)
        assert cps_result.num_states() > 0
        assert cesk_result.num_states() > 0
        assert fj_result.num_states() > 0

    def test_one_analysis_type_for_every_language(self):
        """Only the interface, the touching relation and the result views
        are per-language: ``assemble`` builds the one generic analysis."""
        programs = {
            "cps": cps_programs.PROGRAMS["mj09"],
            "lam": lam_programs.PROGRAMS["mj09"],
            "fj": fj_programs.PROGRAMS["id-twice"],
        }
        for language, program in programs.items():
            analysis = assemble(AnalysisConfig(language=language), program=program)
            assert type(analysis) is Analysis
            assert analysis.language.name == language
            result = analysis.run(program)
            assert isinstance(result, AnalysisResult)
            assert issubclass(analysis.language.result, AnalysisResult)


#: One small program per language for the preset-wide wrap checks.
WRAP_PROGRAMS = {
    "cps": cps_programs.PROGRAMS["mj09"],
    "lam": lam_programs.PROGRAMS["mj09"],
    "fj": fj_programs.PROGRAMS["id-twice"],
}


@pytest.mark.parametrize("language", sorted(WRAP_PROGRAMS))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_wrap_result_reproduces_the_run(language, preset):
    """The hot and disk tiers rewrap a bare fixed point through the one
    ``wrap_result(fp, program)``; the view must equal the run's."""
    program = WRAP_PROGRAMS[language]
    analysis = assemble(preset_config(preset, language), program=program)
    result = analysis.run(program)
    rewrapped = analysis.wrap_result(result.fp, program)
    assert type(rewrapped) is type(result)
    assert result_summary(rewrapped) == result_summary(result)


class TestCorrespondingAnswers:
    """The mj09 pattern gives the same verdicts in every calculus."""

    def test_mj09_zerocfa_merges_everywhere(self):
        cps_flows = run_config(
            "cps", cps_programs.PROGRAMS["mj09"], addressing="zerocfa"
        ).flows_to()
        cesk_flows = run_config(
            "lam", lam_programs.PROGRAMS["mj09"], addressing="zerocfa"
        ).flows_to()
        fj_flows = run_config(
            "fj", fj_programs.PROGRAMS["id-twice"], addressing="zerocfa"
        ).class_flows()
        # the shared identity's parameter merges both arguments in all three
        assert len(cps_flows["x"]) == 2
        assert len(cesk_flows["x"]) == 2
        assert len(fj_flows["x"]) == 2

    def test_mj09_onecfa_separates_everywhere(self):
        cps_result = run_config("cps", cps_programs.PROGRAMS["mj09"], k=1)
        cesk_result = run_config("lam", lam_programs.PROGRAMS["mj09"], k=1)
        fj_result = run_config("fj", fj_programs.PROGRAMS["id-twice"], k=1)
        assert len(cps_result.flows_to()["b"]) == 1
        assert len(cesk_result.flows_to()["b"]) == 1
        # per-context x bindings are singletons in FJ too
        store = fj_result.global_store()
        x_addrs = [
            a
            for a in fj_result.store_like.addresses(store)
            if getattr(a, "var", None) == "x"
        ]
        assert x_addrs
        assert all(len(fj_result.store_like.fetch(store, a)) == 1 for a in x_addrs)


class TestTransformConsistency:
    """CESK on e agrees with CPS on cps(e) about user-lambda flows."""

    def _user_flow_skeletons(self, flows):
        """Compare flows by user parameter lists (continuation params are
        an artifact of the transform)."""
        out = {}
        for var, lams in flows.items():
            if var.startswith("$"):
                continue
            out[var] = frozenset(
                tuple(p for p in lam.params if not p.startswith("$")) for lam in lams
            )
        return out

    def test_mj09_flows_correspond(self):
        direct = lam_programs.PROGRAMS["mj09"]
        cesk_flows = run_config("lam", direct, k=1).flows_to()
        cps_flows = run_config("cps", cps_convert(direct), k=1).flows_to()
        cesk_user = self._user_flow_skeletons(cesk_flows)
        cps_user = self._user_flow_skeletons(cps_flows)
        for var in ("a", "b", "id"):
            assert len(cesk_user[var]) == len(cps_user[var])

    def test_final_answer_corresponds(self):
        direct = lam_programs.PROGRAMS["mj09"]
        cesk_final = run_config("lam", direct, k=1).final_values()
        cps_result = run_config("cps", cps_convert(direct), k=1)
        cps_answers = cps_result.flows_to().get("r", frozenset())
        cesk_skeletons = {
            tuple(p for p in lam.params if not p.startswith("$")) for lam in cesk_final
        }
        cps_skeletons = {
            tuple(p for p in lam.params if not p.startswith("$")) for lam in cps_answers
        }
        assert cesk_skeletons == cps_skeletons
