"""E7 -- polyvariance policies beyond k-CFA, from one class (2.3.1, 3.4, 6.1).

Claims regenerated: the ``Addressable`` abstraction covers 0CFA, k-CFA,
Lakhotia-style l-contexts and bounded-natural contexts; all are sound
(they cover the concrete flows); their precision ordering on the
id-chain family matches expectations (contexts that separate call
sites recover exactness; monovariance merges).
"""

from repro.analysis.report import fmt_table, precision_summary
from repro.config import AnalysisConfig, assemble
from repro.cps.concrete import ConcreteCPSInterface, inject
from repro.cps.semantics import mnext
from repro.corpus.cps_programs import PROGRAMS, id_chain

#: Each policy as the shared-store config naming its ``Addressable``.
POLICIES = [
    ("0CFA", AnalysisConfig(language="cps", engine="kleene", addressing="zerocfa")),
    ("1CFA", AnalysisConfig(language="cps", engine="kleene", k=1)),
    ("2CFA", AnalysisConfig(language="cps", engine="kleene", k=2)),
    (
        "l-ctx(2)",
        AnalysisConfig(language="cps", engine="kleene", addressing="lcontext", k=2),
    ),
    (
        "boundN(32)",
        AnalysisConfig(language="cps", engine="kleene", addressing="boundednat", k=32),
    ),
]


def concrete_flows(program):
    interface = ConcreteCPSInterface()
    state = inject(program)
    flows: dict = {}
    for _ in range(100_000):
        if state.is_final():
            break
        state = mnext(interface, state)
        for var, addr in state.env.items():
            if addr in interface.heap:
                flows.setdefault(var, set()).add(interface.heap[addr].lam)
    return flows


def test_e7_policy_sweep_mj09():
    program = PROGRAMS["mj09"]

    def run():
        return {name: assemble(config).run(program) for name, config in POLICIES}

    results = run()
    rows = []
    for name, result in results.items():
        summary = precision_summary(result.flows_to())
        rows.append((name, result.num_states(), summary["mean_flow"], summary["max_flow"]))
    print()
    print(fmt_table(["policy", "states", "mean flow", "max flow"], rows))
    by_name = dict((r[0], r) for r in rows)
    # monovariance merges; every context-bearing policy separates mj09
    assert by_name["0CFA"][3] == 2
    for contextual in ("1CFA", "2CFA", "l-ctx(2)", "boundN(32)"):
        assert by_name[contextual][3] <= by_name["0CFA"][3]


def test_e7_policy_sweep_id_chain():
    # the widened (shared-store) domain keeps monovariant chains tractable
    program = id_chain(5)

    def run():
        return {name: assemble(config).run(program) for name, config in POLICIES}

    results = run()
    rows = []
    for name, result in results.items():
        merged = precision_summary(result.flows_to())["max_flow"]
        per_addr = max(len(lams) for lams in result.flows_per_address().values())
        rows.append((name, merged, per_addr))
    print()
    print(fmt_table(["policy", "max flow (per var)", "max flow (per address)"], rows))
    by_name = {name: per_addr for name, _merged, per_addr in rows}
    # per-address width is the real precision measure: contexts split
    # the merged variable into exact bindings
    assert by_name["0CFA"] == 5  # all five arguments merge at one address
    assert by_name["1CFA"] == 1  # call-site contexts are exact here
    assert by_name["boundN(32)"] == 1  # "sufficiently big N" is exact (3.4)


def test_e7_all_policies_sound():
    program = PROGRAMS["mj09"]
    reference = concrete_flows(program)

    def run():
        return {
            name: assemble(config).run(program).flows_to() for name, config in POLICIES
        }

    results = run()
    for name, flows in results.items():
        for var, lams in reference.items():
            assert lams <= flows.get(var, frozenset()), f"{name}:{var}"
