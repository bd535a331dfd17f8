"""E5 -- abstract counting plugs in without touching the semantics (6.3, 8.3).

Claims regenerated: replacing the store with a ``CountingStore`` (a) is
invisible to the flow results, (b) certifies singleton cardinalities on
straight-line bindings (the must-alias/environment-analysis payload),
and (c) reports MANY exactly where rebinding happens (loops).
"""

from repro.analysis.report import fmt_table
from repro.config import AnalysisConfig, assemble
from repro.core.lattice import AbsNat
from repro.corpus.cps_programs import PROGRAMS, id_chain

TERMINATING = ["identity", "id-id", "mj09", "self-apply"]

#: 1-CFA over per-state stores, plain and with the counting store.
PLAIN = AnalysisConfig(language="cps", k=1)
COUNTING = PLAIN.replace(counting=True)


def test_e5_counting_preserves_flows():
    def run():
        return {
            name: (
                assemble(PLAIN).run(PROGRAMS[name]).flows_to(),
                assemble(COUNTING).run(PROGRAMS[name]).flows_to(),
            )
            for name in TERMINATING
        }

    results = run()
    for name, (plain, counted) in results.items():
        assert plain == counted, name


def test_e5_singleton_certification():
    def run():
        return {name: assemble(COUNTING).run(PROGRAMS[name]) for name in TERMINATING}

    results = run()
    rows = []
    for name, result in results.items():
        store = result.global_store()
        counting = result.store_like
        addrs = list(counting.addresses(store))
        singles = result.singleton_counts()
        rows.append((name, len(addrs), len(singles), f"{len(singles)/len(addrs):.0%}"))
    print()
    print(fmt_table(["program", "addresses", "count=1", "fraction"], rows))
    # straight-line corpus programs allocate every address exactly once
    for name, total, singles, _pct in rows:
        assert singles == total, name


def test_e5_loops_counted_many():
    def run():
        return assemble(COUNTING.replace(k=0)).run(PROGRAMS["omega"])

    result = run()
    store = result.global_store()
    counting = result.store_like
    counts = {a: counting.count(store, a) for a in counting.addresses(store)}
    assert AbsNat.MANY in counts.values()  # omega rebinds forever


def test_e5_counting_overhead():
    """The counting store's bookkeeping cost on a larger workload."""
    program = id_chain(6)
    result = assemble(COUNTING).run(program)
    assert result.singleton_counts()
