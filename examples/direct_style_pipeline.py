"""Direct-style analysis two ways: native CESK vs CPS-transform + CPS machine.

The paper's artifact replays the monadic development for a direct-style
lambda calculus; this example shows both routes on one source program
and checks they tell the same story:

1. analyze the direct-style term with the monadic CESK machine;
2. CPS-convert the term (one-pass, no administrative redexes) and
   analyze the result with the monadic CPS machine.

Run with::

    python examples/direct_style_pipeline.py
"""

from repro.analysis.report import fmt_table
from repro.cesk.concrete import evaluate
from repro.config import AnalysisConfig, assemble
from repro.lam.cps_transform import cps_convert
from repro.lam.parser import parse_expr
from repro.lam.syntax import pp

SOURCE = """
(let* ((id (lambda (x) x))
       (a (id (lambda (z) z)))
       (b (id (lambda (y) y))))
  b)
"""


def user_params(lam) -> tuple:
    """A lambda's user-facing parameters (transform-added conts stripped)."""
    return tuple(p for p in lam.params if not p.startswith("$"))


def main() -> None:
    expr = parse_expr(SOURCE)
    print("direct-style source:")
    print(" ", pp(expr))
    print()

    value = evaluate(expr)
    print(f"concrete CESK value: {value.lam!r}")
    print()

    cesk0 = assemble(AnalysisConfig(language="lam", addressing="zerocfa")).run(expr)
    cesk1 = assemble(AnalysisConfig(language="lam", k=1)).run(expr)
    cps_program = cps_convert(expr)
    cps1 = assemble(AnalysisConfig(language="cps", k=1)).run(cps_program)

    print("CPS image (one-pass transform):")
    from repro.cps.syntax import pp as cps_pp

    print(" ", cps_pp(cps_program))
    print()

    cesk_answers = {user_params(lam) for lam in cesk1.final_values()}
    cps_answers = {
        user_params(lam) for lam in cps1.flows_to().get("r", frozenset())
    }

    rows = [
        ("CESK 0CFA final values", len(cesk0.final_values())),
        ("CESK 1CFA final values", len(cesk1.final_values())),
        ("CPS 1CFA answers at halt", len(cps_answers)),
    ]
    print(fmt_table(["analysis", "count"], rows))
    print()
    assert cesk_answers == cps_answers, "the two pipelines disagree!"
    print("CESK-on-e and CPS-on-cps(e) agree on the final user value(s).")


if __name__ == "__main__":
    main()
