"""E6 -- abstract garbage collection (6.4).

Claims regenerated: weaving ``gc`` into ``applyStep`` (one line, store
effect only) prunes unreachable bindings, which (a) shrinks stores, (b)
can shrink the reachable configuration space, and (c) never loses
coverage of the concrete run.  The paper promises "an often dramatic
increase in precision as well as a corresponding drop in analysis time";
the chain family below shows both directions measurably.
"""

from repro.analysis.report import fmt_table, timed
from repro.cesk.concrete import evaluate
from repro.config import AnalysisConfig, assemble
from repro.corpus.cps_programs import PROGRAMS, id_chain
from repro.corpus.lam_programs import eta_chain

TERMINATING = ["identity", "id-id", "mj09", "self-apply"]

#: 1-CFA over per-state stores, without and with abstract GC.
PLAIN = AnalysisConfig(language="cps", k=1)
GC = PLAIN.replace(gc=True)


def test_e6_gc_shrinks_stores():
    def run():
        out = {}
        for name in TERMINATING:
            plain = assemble(PLAIN).run(PROGRAMS[name])
            gc = assemble(GC).run(PROGRAMS[name])
            out[name] = (plain.store_size(), gc.store_size())
        return out

    results = run()
    rows = [(name, plain, gc) for name, (plain, gc) in results.items()]
    print()
    print(fmt_table(["program", "store (plain)", "store (gc)"], rows))
    assert all(gc <= plain for _name, plain, gc in rows)
    assert any(gc < plain for _name, plain, gc in rows)


def test_e6_gc_time_and_space_on_chains():
    def run():
        out = {}
        for n in (4, 8):
            program = id_chain(n)
            plain, t_plain = timed(lambda p=program: assemble(PLAIN).run(p))
            gc, t_gc = timed(lambda p=program: assemble(GC).run(p))
            out[n] = (plain.num_elements(), t_plain, gc.num_elements(), t_gc)
        return out

    table = run()
    rows = [
        (n, ps, f"{tp:.3f}s", gs, f"{tg:.3f}s")
        for n, (ps, tp, gs, tg) in sorted(table.items())
    ]
    print()
    print(fmt_table(["n", "|fp| plain", "time plain", "|fp| gc", "time gc"], rows))
    for n, (plain_elems, _tp, gc_elems, _tg) in table.items():
        assert gc_elems <= plain_elems


def test_e6_gc_never_loses_the_concrete_answer():
    def run():
        return {name: assemble(GC).run(PROGRAMS[name]) for name in TERMINATING}

    results = run()
    for name, result in results.items():
        assert result.reaching_exit(), name


def test_e6_gc_on_cesk():
    """The same collector machinery drives the direct-style machine."""
    program = eta_chain(3)

    def run():
        plain = PLAIN.replace(language="lam")
        return assemble(plain).run(program), assemble(plain.replace(gc=True)).run(program)

    plain, gc = run()
    assert gc.store_size() <= plain.store_size()
    assert evaluate(program).lam in gc.final_values()
