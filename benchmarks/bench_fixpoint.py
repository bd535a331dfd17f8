"""E9 -- fixed-point computation decoupled from the semantics (5.2).

Claims regenerated: Kleene iteration (the paper's ``kleeneIt``), the
frontier worklist, and widened iteration are interchangeable evaluation
strategies for the same collecting semantics -- identical fixed points,
different costs.  Nothing in the semantics or the monad changes.  The
same holds one level up for the global-store engines: kleene and the
dependency-tracked worklist agree on the widened domain.
"""

from repro.analysis.report import fmt_table, timed
from repro.config import AnalysisConfig, assemble
from repro.core.fixpoint import ENGINES
from repro.corpus.cps_programs import PROGRAMS, id_chain


def test_e9_kleene_equals_worklist():
    names = ["identity", "mj09", "omega", "self-apply"]

    def run():
        out = {}
        for name in names:
            analysis = assemble(AnalysisConfig(language="cps", k=1))
            out[name] = (
                analysis.run(PROGRAMS[name], worklist=False).fp,
                analysis.run(PROGRAMS[name], worklist=True).fp,
            )
        return out

    results = run()
    for name, (kleene_fp, worklist_fp) in results.items():
        assert kleene_fp == worklist_fp, name


def test_e9_strategy_cost_comparison():
    program = id_chain(5)

    def run():
        analysis = assemble(AnalysisConfig(language="cps", k=1))
        kleene, t_kleene = timed(lambda: analysis.run(program, worklist=False))
        worklist, t_worklist = timed(lambda: analysis.run(program, worklist=True))
        return kleene, t_kleene, worklist, t_worklist

    kleene, t_kleene, worklist, t_worklist = run()
    print()
    print(
        fmt_table(
            ["strategy", "time", "|fp|"],
            [
                ("Kleene iteration", f"{t_kleene:.3f}s", kleene.num_elements()),
                ("frontier worklist", f"{t_worklist:.3f}s", worklist.num_elements()),
            ],
        )
    )
    assert kleene.fp == worklist.fp
    # the worklist touches each configuration once; Kleene re-steps the
    # whole set every round -- the worklist should never be slower by much
    assert t_worklist <= t_kleene * 1.5


def test_e9_global_store_engine_comparison():
    """The two global-store engines: same fixed point, ranked costs."""
    program = id_chain(8)

    def run():
        out = {}
        for engine in ENGINES:
            analysis = assemble(AnalysisConfig(language="cps", k=1, engine=engine))
            result, seconds = timed(lambda: analysis.run(program))
            out[engine] = (result, seconds, analysis.last_stats)
        return out

    results = run()
    rows = [
        (
            engine,
            f"{seconds:.3f}s",
            result.num_states(),
            stats.get("evaluations", "-"),
            stats.get("retriggers", "-"),
        )
        for engine, (result, seconds, stats) in results.items()
    ]
    print()
    print(fmt_table(["engine", "time", "states", "evaluations", "retriggers"], rows))
    kleene, depgraph = results["kleene"], results["depgraph"]
    assert depgraph[0].configs() == kleene[0].configs()
    assert depgraph[0].flows_to() == kleene[0].flows_to()
    # dependency tracking never evaluates more than whole-domain rounds
    assert depgraph[2]["evaluations"] <= kleene[2]["evaluations"]


def test_e9_widened_iteration_is_sound():
    """A widening operator slots into the same loop (kleene_iterate_widened)."""
    from repro.core.fixpoint import kleene_iterate, kleene_iterate_widened
    from repro.core.lattice import PowersetLattice

    ps = PowersetLattice()

    def functional(xs):
        return frozenset([0]) | frozenset(x + 1 for x in xs if x < 40)

    def widen(_prev, nxt):
        return nxt if len(nxt) < 5 else nxt | frozenset(range(41))

    def run():
        exact = kleene_iterate(ps, functional)
        widened = kleene_iterate_widened(ps, functional, widen)
        return exact, widened

    exact, widened = run()
    assert ps.leq(exact, widened)  # widening only over-approximates
    assert functional(widened) <= widened  # and lands on a post-fixed point
