"""E1 -- the concrete interpreter recovered from the monadic semantics (4).

Claim regenerated: plugging the Identity/real-heap implementation into
the *same* ``mnext`` yields a working interpreter; its answers anchor
every abstraction.  The rows report machine steps per program and the
interpreter's throughput.
"""

from repro.analysis.report import fmt_table
from repro.cps.concrete import interpret, interpret_trace
from repro.lam.cps_transform import cps_convert
from repro.cesk.concrete import evaluate
from repro.corpus.cps_programs import PROGRAMS, deep_call_tower, id_chain
from repro.corpus.lam_programs import church_add_program

TERMINATING = ["identity", "id-id", "mj09", "self-apply"]


def test_e1_interpret_corpus():
    def run():
        return {name: interpret(PROGRAMS[name]) for name in TERMINATING}

    finals = run()
    assert all(state.is_final() for state in finals.values())
    rows = [
        (name, len(interpret_trace(PROGRAMS[name])), "exit")
        for name in TERMINATING
    ]
    print()
    print(fmt_table(["program", "steps", "result"], rows))


def test_e1_interpret_id_chain_scaling():
    programs = {n: id_chain(n) for n in (4, 16, 64)}

    def run():
        return {n: len(interpret_trace(p)) for n, p in programs.items()}

    steps = run()
    assert steps[64] > steps[16] > steps[4]
    print()
    print(fmt_table(["chain n", "steps"], sorted(steps.items())))


def test_e1_interpret_call_tower():
    program = deep_call_tower(32)
    final = interpret(program)
    assert final.is_final()


def test_e1_cps_transform_agrees_with_cesk():
    """The concrete anchor across the transform: cps(e) and e agree."""
    program = church_add_program(2, 3)

    def run():
        direct = evaluate(program)
        final = interpret(cps_convert(program))
        return direct, final

    direct, final = run()
    assert final.is_final()
    assert direct.lam.params == ("q",)
