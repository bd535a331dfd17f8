"""E10 -- the global-store worklist engine across all three languages.

Claims regenerated: (1) the kleene and depgraph engines compute
identical widened fixed points for CPS, direct-style lambda and FJ --
the strategy is the third degree of freedom, independent of both the
semantics and the monad; (2) dependency-tracked re-evaluation is the
cheaper of the two on every workload, because a store change
re-evaluates only the configurations that actually read a changed
address.
"""

import os

from repro.analysis.report import fmt_table, timed
from repro.config import AnalysisConfig, assemble
from repro.core.fixpoint import ENGINES
from repro.corpus.cps_programs import id_chain
from repro.corpus.fj_programs import PROGRAMS as FJ_PROGRAMS
from repro.corpus.lam_programs import PROGRAMS as LAM_PROGRAMS


def _engine_run(language, program, engine, stats, **fields):
    """Assemble and run k=1 under ``engine``; its counters land in ``stats``."""
    config = AnalysisConfig(language=language, k=1, engine=engine, **fields)
    analysis = assemble(config, program=program)
    result = analysis.run(program)
    stats.update(analysis.last_stats)
    return result


def _sweep(run_engine):
    out = {}
    for engine in ENGINES:
        stats = {}
        result, seconds = run_engine(engine, stats)
        out[engine] = (result, seconds, stats)
    return out


def _print_rows(title, results):
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
    print(title)
    print(fmt_table(["engine", "time", "states", "evaluations", "retriggers"], rows))


def test_e10_cps_engines_agree():
    program = id_chain(8)

    def run():
        return _sweep(
            lambda engine, stats: timed(
                lambda: _engine_run("cps", program, engine, stats)
            )
        )

    results = run()
    _print_rows("CPS id_chain(8), k=1", results)
    kleene, depgraph = results["kleene"][0], results["depgraph"][0]
    assert depgraph.flows_to() == kleene.flows_to()
    assert depgraph.configs() == kleene.configs()


def test_e10_cesk_engines_agree():
    expr = LAM_PROGRAMS["church-two-two"]

    def run():
        return _sweep(
            lambda engine, stats: timed(
                lambda: _engine_run("lam", expr, engine, stats)
            )
        )

    results = run()
    _print_rows("lam church-two-two, k=1", results)
    kleene, depgraph = results["kleene"][0], results["depgraph"][0]
    assert depgraph.flows_to() == kleene.flows_to()
    assert depgraph.configs() == kleene.configs()


def test_e10_fj_engines_agree():
    program = FJ_PROGRAMS["visitor"]

    def run():
        return _sweep(
            lambda engine, stats: timed(
                lambda: _engine_run("fj", program, engine, stats)
            )
        )

    results = run()
    _print_rows("FJ visitor, k=1", results)
    kleene, depgraph = results["kleene"][0], results["depgraph"][0]
    assert depgraph.class_flows() == kleene.class_flows()
    assert depgraph.configs() == kleene.configs()


def test_e10_depgraph_does_least_work_everywhere():
    """Dependency tracking evaluates the fewest configurations on every
    language's workload.

    The enforced bound is the deterministic evaluation count, not
    wall-clock (which a loaded CI runner can invert spuriously); the
    timing table is printed for the curious.
    """
    workloads = [
        ("cps", lambda e, s: timed(lambda: _engine_run("cps", id_chain(8), e, s))),
        (
            "lam",
            lambda e, s: timed(
                lambda: _engine_run("lam", LAM_PROGRAMS["church-two-two"], e, s)
            ),
        ),
        (
            "fj",
            lambda e, s: timed(
                lambda: _engine_run("fj", FJ_PROGRAMS["visitor"], e, s)
            ),
        ),
    ]

    def run():
        out = {}
        for lang, runner in workloads:
            stats_k: dict = {}
            stats_d: dict = {}
            _result_k, t_kleene = runner("kleene", stats_k)
            _result_d, t_depgraph = runner("depgraph", stats_d)
            out[lang] = (t_kleene, t_depgraph, stats_k, stats_d)
        return out

    results = run()
    rows = [
        (
            lang,
            f"{tk:.3f}s",
            f"{td:.3f}s",
            stats_k["evaluations"],
            stats_d["evaluations"],
        )
        for lang, (tk, td, stats_k, stats_d) in results.items()
    ]
    print()
    print(
        fmt_table(
            ["language", "kleene time", "depgraph time", "kleene evals", "depgraph evals"],
            rows,
        )
    )
    for lang, (_tk, _td, stats_k, stats_d) in results.items():
        assert stats_d["evaluations"] <= stats_k["evaluations"], lang
        # every configuration is evaluated at least once, and the only
        # extra work is the retriggered re-evaluations
        assert stats_d["evaluations"] == stats_d["configurations"] + stats_d["retriggers"], lang


def test_versioned_store_speedup_on_chain():
    """The tentpole claim: the versioned (mutable, change-versioned) store
    makes the depgraph engine's hot loop O(delta) instead of O(|store|).

    On the id-chain family at k=1 the store grows linearly with the
    chain, so the persistent path's per-evaluation PMap copies and
    store-lattice joins turn the run quadratic while the versioned path
    stays linear.  At length 200 the local speedup is >5x (and >1000x
    over the pre-hash-consing engine of PR 1); CI runners are noisy and
    share cores, so the enforced bound there is a conservative 2x.
    """
    program = id_chain(200)
    threshold = 2.0 if os.environ.get("CI") else 5.0

    def run():
        stats_p: dict = {}
        stats_v: dict = {}
        persistent, t_persistent = timed(
            lambda: _engine_run("cps", program, "depgraph", stats_p)
        )
        versioned, t_versioned = timed(
            lambda: _engine_run(
                "cps", program, "depgraph", stats_v, store_impl="versioned"
            )
        )
        return persistent, t_persistent, versioned, t_versioned, stats_p, stats_v

    persistent, t_persistent, versioned, t_versioned, stats_p, stats_v = run()
    print()
    print(
        fmt_table(
            ["store impl", "time", "states", "evaluations"],
            [
                ("persistent", f"{t_persistent:.3f}s", persistent.num_states(), stats_p["evaluations"]),
                ("versioned", f"{t_versioned:.3f}s", versioned.num_states(), stats_v["evaluations"]),
            ],
        )
    )
    print(f"speedup: {t_persistent / t_versioned:.1f}x (enforced: {threshold:.0f}x)")
    assert versioned.fp == persistent.fp
    assert t_versioned * threshold <= t_persistent, (
        f"versioned {t_versioned:.3f}s vs persistent {t_persistent:.3f}s "
        f"(needed {threshold:.0f}x)"
    )


def test_fused_transition_speedup_on_chain():
    """The staging claim: compiling the monad stack out of the step makes
    each evaluation cheap.

    Same engine (depgraph), same store (versioned), same evaluation
    count -- only the transition's execution differs: the generic path
    rebuilds a tower of ``StateT`` closures and pays a ``Monad.bind``
    dispatch per bind on every evaluation, the fused path runs the
    staged first-order step (``repro/core/fused.py``).  Locally the
    chain workload shows >3x; CI runners are noisy, so the enforced
    bound there is a conservative 1.5x.  (`benchmarks/bench_gates.py`
    gates the fuller 2x claim over interleaved best-of-N timings.)
    """
    program = id_chain(200)
    threshold = 1.5 if os.environ.get("CI") else 2.5

    def run():
        stats_g: dict = {}
        stats_f: dict = {}
        generic, t_generic = timed(
            lambda: _engine_run(
                "cps", program, "depgraph", stats_g, store_impl="versioned"
            )
        )
        fused, t_fused = timed(
            lambda: _engine_run(
                "cps",
                program,
                "depgraph",
                stats_f,
                store_impl="versioned",
                transition="fused",
            )
        )
        return generic, t_generic, fused, t_fused, stats_g, stats_f

    generic, t_generic, fused, t_fused, stats_g, stats_f = run()
    print()
    print(
        fmt_table(
            ["transition", "time", "states", "evaluations"],
            [
                ("generic", f"{t_generic:.3f}s", generic.num_states(), stats_g["evaluations"]),
                ("fused", f"{t_fused:.3f}s", fused.num_states(), stats_f["evaluations"]),
            ],
        )
    )
    print(f"speedup: {t_generic / t_fused:.1f}x (enforced: {threshold:.1f}x)")
    assert fused.fp == generic.fp
    assert stats_f == stats_g, "staging must not change the work counters"
    assert t_fused * threshold <= t_generic, (
        f"fused {t_fused:.3f}s vs generic {t_generic:.3f}s "
        f"(needed {threshold:.1f}x)"
    )
