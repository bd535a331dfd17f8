"""E3 -- the k-CFA family from one ``Addressable`` swap (8.1, 2.4.1).

Claims regenerated: (1) swapping only the address/context policy yields
the whole k-CFA family; (2) precision improves monotonically with k on
context-sensitive programs (mj09, id-chains); (3) state counts and time
grow with k.
"""

from repro.analysis.report import fmt_table, precision_summary, timed
from repro.config import AnalysisConfig, assemble
from repro.corpus.cps_programs import PROGRAMS, id_chain

#: k-CFA over per-state stores, and over Shivers' single-threaded store.
PER_STATE = AnalysisConfig(language="cps")
SHARED = PER_STATE.replace(widening="store")


def test_e3_k_sweep_mj09():
    program = PROGRAMS["mj09"]

    def run():
        return {k: assemble(PER_STATE.replace(k=k)).run(program) for k in (0, 1, 2)}

    results = run()
    rows = []
    for k, result in sorted(results.items()):
        flows = result.flows_to()
        summary = precision_summary(flows)
        rows.append((f"k={k}", result.num_states(), len(flows["a"]), len(flows["b"]), summary["mean_flow"]))
    print()
    print(fmt_table(["analysis", "states", "|flows(a)|", "|flows(b)|", "mean flow"], rows))
    # paper shape: 0CFA conflates (2 lambdas reach a and b), k>=1 is exact
    assert rows[0][2] == 2 and rows[1][2] == 1 and rows[2][2] == 1


def test_e3_k_sweep_id_chain():
    # id-chains under monovariant *per-state* stores clone exponentially
    # (continuation merging times heap cloning), so this sweep uses the
    # single-threaded store -- standard practice, and sound (E4).
    program = id_chain(6)

    def run():
        return {k: assemble(SHARED.replace(k=k)).run(program) for k in (0, 1)}

    results = run()
    f0 = precision_summary(results[0].flows_to())
    f1 = precision_summary(results[1].flows_to())
    print()
    print(
        fmt_table(
            ["analysis", "states", "mean flow", "max flow"],
            [
                ("0CFA", results[0].num_states(), f0["mean_flow"], f0["max_flow"]),
                ("1CFA", results[1].num_states(), f1["mean_flow"], f1["max_flow"]),
            ],
        )
    )
    # monovariance merges all 6 chain arguments through the shared parameter
    assert f0["max_flow"] == 6
    assert f1["mean_flow"] < f0["mean_flow"]


def test_e3_cost_grows_with_k():
    program = id_chain(5)

    def run():
        out = {}
        for k in (0, 1, 2):
            result, seconds = timed(
                lambda k=k: assemble(SHARED.replace(k=k)).run(program)
            )
            out[k] = (result.num_elements(), seconds)
        return out

    costs = run()
    rows = [(f"k={k}", elements, f"{seconds:.4f}s") for k, (elements, seconds) in sorted(costs.items())]
    print()
    print(fmt_table(["analysis", "fixed-point size", "time"], rows))
    # finer contexts can only refine (split) the configuration space
    assert costs[2][0] >= costs[1][0] >= costs[0][0] > 0


def test_e3_depgraph_engine_speedup_k1():
    # the global-store worklist with dependency tracking computes the same
    # widened fixed point as Kleene iteration but re-evaluates only the
    # configurations whose store reads changed; at k=1 on the id-chain
    # family this is an order of magnitude, asserted conservatively at 2x
    program = id_chain(10)

    def run():
        kleene, t_kleene = timed(lambda: assemble(SHARED).run(program))
        analysis = assemble(SHARED.replace(engine="depgraph"))
        depgraph, t_depgraph = timed(lambda: analysis.run(program))
        return kleene, t_kleene, depgraph, t_depgraph, analysis.last_stats

    kleene, t_kleene, depgraph, t_depgraph, stats = run()
    print()
    print(
        fmt_table(
            ["engine", "time", "states", "evaluations"],
            [
                ("kleene (shared store)", f"{t_kleene:.3f}s", kleene.num_states(), "-"),
                (
                    "depgraph",
                    f"{t_depgraph:.3f}s",
                    depgraph.num_states(),
                    stats["evaluations"],
                ),
            ],
        )
    )
    assert depgraph.flows_to() == kleene.flows_to()
    assert depgraph.configs() == kleene.configs()
    assert t_depgraph * 2 <= t_kleene, f"depgraph {t_depgraph:.3f}s vs kleene {t_kleene:.3f}s"


def test_e3_precision_monotone_in_k_everywhere():
    names = ["identity", "mj09", "id-id", "self-apply", "omega"]

    def run():
        return {
            name: (
                assemble(PER_STATE.replace(k=0)).run(PROGRAMS[name]),
                assemble(PER_STATE).run(PROGRAMS[name]),
            )
            for name in names
        }

    results = run()
    for name, (r0, r1) in results.items():
        f0, f1 = r0.flows_to(), r1.flows_to()
        for var, lams in f1.items():
            assert lams <= f0.get(var, lams), f"{name}:{var}"
