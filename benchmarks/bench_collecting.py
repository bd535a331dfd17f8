"""E2 -- the store-passing collecting semantics (5.3).

Claim regenerated: with unique (concrete) addresses the collecting
semantics enumerates exactly the concrete control points -- no merging
-- and every abstraction's result covers it.
"""

from repro.analysis.report import fmt_table, precision_summary
from repro.config import AnalysisConfig, assemble
from repro.cps.concrete import interpret_trace
from repro.corpus.cps_programs import PROGRAMS, id_chain

TERMINATING = ["identity", "id-id", "mj09", "self-apply"]

#: The concrete collecting semantics: unique addresses, per-state stores.
COLLECTING = AnalysisConfig(language="cps", addressing="concrete")


def test_e2_collecting_semantics_corpus():
    def run():
        return {name: assemble(COLLECTING).run(PROGRAMS[name]) for name in TERMINATING}

    results = run()
    rows = []
    for name, result in results.items():
        concrete_ctrls = {s.ctrl for s in interpret_trace(PROGRAMS[name])}
        abstract_ctrls = {s.ctrl for s in result.states()}
        assert abstract_ctrls == concrete_ctrls  # exactness with unique addrs
        per_addr = result.flows_per_address()
        widest = max(len(lams) for lams in per_addr.values())
        rows.append((name, result.num_states(), widest))
    print()
    print(fmt_table(["program", "states", "max values per address (1 = exact)"], rows))
    # unique addresses: every address of a deterministic run holds one value
    assert all(row[2] == 1 for row in rows)


def test_e2_collecting_scaling():
    programs = {n: id_chain(n) for n in (2, 4, 8)}

    def run():
        return {n: assemble(COLLECTING).run(p).num_states() for n, p in programs.items()}

    states = run()
    assert states[8] > states[4] > states[2]


def test_e2_abstraction_covers_collecting():
    program = PROGRAMS["mj09"]

    def run():
        zero = AnalysisConfig(language="cps", k=0)
        return assemble(COLLECTING).run(program), assemble(zero).run(program)

    exact, abstract = run()
    for var, lams in exact.flows_to().items():
        assert lams <= abstract.flows_to().get(var, frozenset())
