"""The full configuration matrix, per language.

The paper's framework promises that the degrees of freedom compose:
any ``Addressable`` x any ``StoreLike`` x {per-state, shared} x {GC, no
GC} is a sound analysis.  This module runs the entire matrix on one
small program per language and checks the two invariants every cell
must satisfy:

* the concrete answer is covered;
* the analysis terminates with a non-trivial state set.
"""

import pytest

from repro.config import AnalysisConfig, assemble

#: Addressing as config fields (``addressing`` defaults to ``kcfa``).
ADDRESSINGS = [
    pytest.param(dict(addressing="zerocfa"), id="0cfa"),
    pytest.param(dict(k=1), id="1cfa"),
    pytest.param(dict(k=2), id="2cfa"),
    pytest.param(dict(addressing="lcontext", k=2), id="lctx2"),
    pytest.param(dict(addressing="boundednat", k=16), id="bound16"),
]
STORES = [
    pytest.param(False, id="basic"),
    pytest.param(True, id="counting"),
]
SHAPES = [
    pytest.param((False, False), id="per-state"),
    pytest.param((True, False), id="shared"),
    pytest.param((False, True), id="per-state+gc"),
    pytest.param((True, True), id="shared+gc"),
]


def cell(language, addressing, counting, shape):
    """The matrix cell's config."""
    shared, gc = shape
    return AnalysisConfig(
        language=language,
        engine="kleene" if shared else None,
        gc=gc,
        counting=counting,
        **addressing,
    )


@pytest.mark.parametrize("addressing", ADDRESSINGS)
@pytest.mark.parametrize("counting", STORES)
@pytest.mark.parametrize("shape", SHAPES)
class TestCPSMatrix:
    def test_cps_cell(self, addressing, counting, shape):
        from repro.cps.concrete import interpret
        from repro.corpus.cps_programs import PROGRAMS

        program = PROGRAMS["mj09"]
        interpret(program)  # sanity: the program terminates concretely
        analysis = assemble(cell("cps", addressing, counting, shape))
        result = analysis.run(program, worklist=not shape[0])
        assert result.num_states() >= 3
        # the Exit control point is reached in every configuration
        assert result.reaching_exit()


@pytest.mark.parametrize("addressing", ADDRESSINGS)
@pytest.mark.parametrize("counting", STORES)
@pytest.mark.parametrize("shape", SHAPES)
class TestCESKMatrix:
    def test_cesk_cell(self, addressing, counting, shape):
        from repro.cesk.concrete import evaluate
        from repro.corpus.lam_programs import PROGRAMS

        program = PROGRAMS["mj09"]
        concrete = evaluate(program)
        analysis = assemble(cell("lam", addressing, counting, shape))
        result = analysis.run(program, worklist=not shape[0])
        assert concrete.lam in result.final_values()


@pytest.mark.parametrize("addressing", ADDRESSINGS)
@pytest.mark.parametrize("counting", STORES)
@pytest.mark.parametrize("shape", SHAPES)
class TestFJMatrix:
    def test_fj_cell(self, addressing, counting, shape):
        from repro.fj.concrete import evaluate_fj
        from repro.corpus.fj_programs import PROGRAMS

        program = PROGRAMS["animals"]
        concrete = evaluate_fj(program)
        analysis = assemble(cell("fj", addressing, counting, shape), program=program)
        result = analysis.run(program, worklist=not shape[0])
        assert concrete.cls in result.final_classes()


class TestMatrixCoherence:
    """Cross-cell relationships that must hold regardless of configuration."""

    @pytest.mark.parametrize("addressing", ADDRESSINGS)
    def test_shared_covers_per_state_everywhere(self, addressing):
        from repro.corpus.cps_programs import PROGRAMS

        program = PROGRAMS["mj09"]
        per_state = assemble(AnalysisConfig(language="cps", **addressing)).run(program)
        shared = assemble(
            AnalysisConfig(language="cps", engine="kleene", **addressing)
        ).run(program)
        for var, lams in per_state.flows_to().items():
            assert lams <= shared.flows_to().get(var, frozenset())

    @pytest.mark.parametrize("counting", STORES)
    def test_store_choice_does_not_change_flows(self, counting):
        from repro.corpus.cps_programs import PROGRAMS

        program = PROGRAMS["mj09"]
        reference = assemble(AnalysisConfig(language="cps", k=1)).run(program)
        result = assemble(
            AnalysisConfig(language="cps", k=1, counting=counting)
        ).run(program)
        assert result.flows_to() == reference.flows_to()

    @pytest.mark.parametrize("addressing", ADDRESSINGS)
    def test_gc_only_shrinks_stores(self, addressing):
        from repro.corpus.cps_programs import PROGRAMS

        program = PROGRAMS["mj09"]
        plain = assemble(AnalysisConfig(language="cps", **addressing)).run(program)
        swept = assemble(
            AnalysisConfig(language="cps", gc=True, **addressing)
        ).run(program)
        assert swept.store_size() <= plain.store_size()
