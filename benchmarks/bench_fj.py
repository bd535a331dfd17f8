"""E8 supplement -- Featherweight Java analysis costs and cast safety.

Rows for the FJ side of the framework: dispatch-chain scaling, dynamic
dispatch precision (animals), and the cast-safety client built on the
class-flow results.
"""

from repro.analysis.report import fmt_table, timed
from repro.config import AnalysisConfig, assemble
from repro.fj.class_table import ClassTable
from repro.fj.concrete import evaluate_fj
from repro.corpus.fj_programs import PROGRAMS, dispatch_chain

NAMES = ["pair", "id-twice", "animals", "visitor", "safe-cast"]

ZERO_CFA = AnalysisConfig(language="fj", addressing="zerocfa")
ONE_CFA = AnalysisConfig(language="fj", k=1)


def fixpoint(config, program):
    """``config`` assembled over ``program``'s class table, run on it."""
    return assemble(config, program=program).run(program)


def test_fj_corpus_sweep():
    def run():
        return {name: fixpoint(ONE_CFA, PROGRAMS[name]) for name in NAMES}

    results = run()
    rows = []
    for name, result in results.items():
        concrete = evaluate_fj(PROGRAMS[name]).cls
        finals = sorted(result.final_classes())
        assert concrete in finals
        rows.append((name, result.num_states(), result.store_size(), ",".join(finals)))
    print()
    print(fmt_table(["program", "states", "store", "final classes (1CFA)"], rows))


def test_fj_dispatch_precision():
    program = PROGRAMS["animals"]

    def run():
        return fixpoint(ZERO_CFA, program), fixpoint(ONE_CFA, program)

    r0, r1 = run()
    print()
    print(
        fmt_table(
            ["policy", "final classes"],
            [
                ("0CFA", ",".join(sorted(r0.final_classes()))),
                ("1CFA", ",".join(sorted(r1.final_classes()))),
            ],
        )
    )
    assert r0.final_classes() == frozenset(["Bark", "Meow"])
    assert r1.final_classes() == frozenset(["Bark"])


def test_fj_chain_scaling():
    def run():
        out = {}
        for n in (2, 4, 6):
            program = dispatch_chain(n)
            shared = ONE_CFA.replace(engine="kleene")
            result, seconds = timed(lambda p=program: fixpoint(shared, p))
            out[n] = (result.num_states(), seconds)
        return out

    table = run()
    rows = [(n, states, f"{secs:.3f}s") for n, (states, secs) in sorted(table.items())]
    print()
    print(fmt_table(["chain n", "states", "time"], rows))
    assert table[6][0] > table[2][0]


def test_fj_cast_safety_client():
    def run():
        safe_table = ClassTable.of(PROGRAMS["safe-cast"])
        safe = fixpoint(ONE_CFA, PROGRAMS["safe-cast"]).possible_cast_failures(safe_table)
        bad_table = ClassTable.of(PROGRAMS["bad-cast"])
        bad = fixpoint(ONE_CFA, PROGRAMS["bad-cast"]).possible_cast_failures(bad_table)
        return safe, bad

    safe, bad = run()
    assert not safe  # proved safe
    assert ("A", "B") in bad  # possible failure found
