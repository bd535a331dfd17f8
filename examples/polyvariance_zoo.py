"""The polyvariance zoo: every ``Addressable`` policy on one program (§6.1).

The paper's point in §3.4/§6.1: the *nature of addresses* determines
polyvariance and context-sensitivity, and abstracting over it covers
0CFA, k-CFA, Lakhotia-style l-contexts and bounded-natural contexts
with one interface.  This script sweeps all of them over an id-chain
and reports per-address precision.

Run with::

    python examples/polyvariance_zoo.py
"""

from repro.analysis.report import fmt_table
from repro.config import AnalysisConfig, assemble
from repro.corpus.cps_programs import id_chain

#: Each policy as the config fields naming its ``Addressable``.
POLICIES = [
    ("0CFA (Addr = Var)", dict(addressing="zerocfa")),
    ("1CFA (last call site)", dict(k=1)),
    ("2CFA (last two call sites)", dict(k=2)),
    ("l-contexts, l=2 (unique sites)", dict(addressing="lcontext", k=2)),
    ("bounded naturals, N=4", dict(addressing="boundednat", k=4)),
    ("bounded naturals, N=64", dict(addressing="boundednat", k=64)),
]


def main() -> None:
    program = id_chain(5)
    print("workload: one identity function applied to 5 distinct lambdas\n")

    rows = []
    for label, policy in POLICIES:
        config = AnalysisConfig(language="cps", widening="store", **policy)
        result = assemble(config).run(program)
        per_addr = result.flows_per_address()
        widest = max(len(lams) for lams in per_addr.values())
        rows.append((label, result.num_states(), len(per_addr), widest))

    print(
        fmt_table(
            ["policy", "states", "addresses", "max values/address"], rows
        )
    )
    print()
    print(
        "0CFA funnels all five arguments through one address (width 5).\n"
        "Context-bearing policies split that address; N=4 saturates before\n"
        "the run ends and stays imprecise -- the paper's 'sufficiently big\n"
        "N' caveat -- while N=64 is exact."
    )


if __name__ == "__main__":
    main()
