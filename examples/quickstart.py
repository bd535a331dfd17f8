"""Quickstart: parse a CPS program, run it, then analyze it.

Run with::

    python examples/quickstart.py

The program is the paper's running pattern (one identity, two call
sites).  We (1) execute it with the concrete interpreter recovered from
the monadic semantics (section 4), then (2) compute a monovariant and a
1-CFA analysis by swapping a single component, and print the flows-to
tables side by side.
"""

from repro.analysis.report import fmt_table
from repro.config import AnalysisConfig, assemble, preset_config
from repro.cps.concrete import interpret
from repro.cps.parser import parse_program
from repro.cps.syntax import pp

SOURCE = """
((lambda (id k)
   (id (lambda (z kz) (kz z))
       (lambda (a)
         (id (lambda (y ky) (ky y))
             (lambda (b) (exit))))))
 (lambda (x j) (j x))
 (lambda (r) (exit)))
"""


def main() -> None:
    program = parse_program(SOURCE)
    print("program:")
    print(" ", pp(program))
    print()

    final = interpret(program)
    print(f"concrete run finished at: {final.ctrl!r}")
    print()

    mono = assemble(AnalysisConfig(language="cps", addressing="zerocfa")).run(program)
    poly = assemble(AnalysisConfig(language="cps", k=1)).run(program)

    rows = []
    for var in sorted(set(mono.flows_to()) | set(poly.flows_to())):
        flows0 = mono.flows_to().get(var, frozenset())
        flows1 = poly.flows_to().get(var, frozenset())
        rows.append((var, len(flows0), len(flows1)))
    print(fmt_table(["variable", "|flows| 0CFA", "|flows| 1CFA"], rows))
    print()
    print(
        "0CFA conflates the two uses of the identity (a and b each see 2\n"
        "lambdas); 1CFA distinguishes the call sites and is exact."
    )
    print()

    # the same analyses by name: the preset registry drives the CLI,
    # the benchmarks and the tests through one assemble() entry point
    fast = assemble(preset_config("1cfa-gc", "cps")).run(program)
    print(
        f"preset 1cfa-gc (depgraph engine, versioned store, abstract GC):\n"
        f"  {fast.num_states()} states, store of {fast.store_size()} live addresses"
    )


if __name__ == "__main__":
    main()
