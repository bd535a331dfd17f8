"""The spectrum of machines from one semantics (the paper in one script).

One CPS program; one transition function (Figure 2's ``mnext``); and a
spectrum of machines obtained purely by swapping monadic components:

* the concrete interpreter (Identity monad, real heap),
* the concrete collecting semantics (unique addresses),
* 0CFA / 1CFA / 2CFA (swap the ``Addressable``),
* the store-widened 1CFA (swap the ``Collecting``),
* 1CFA with a counting store (swap the ``StoreLike``),
* 1CFA with abstract garbage collection (swap in a collector).

Run with::

    python examples/monad_spectrum.py
"""

import time

from repro.analysis.report import fmt_table, precision_summary
from repro.config import AnalysisConfig, assemble
from repro.cps.concrete import interpret_trace
from repro.cps.parser import parse_program

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

    rows = []

    start = time.perf_counter()
    trace = interpret_trace(program)
    rows.append(("concrete interpreter", len(trace), "-", f"{time.perf_counter()-start:.4f}s"))

    spectrum = [
        ("concrete collecting", dict(addressing="concrete")),
        ("0CFA", dict(addressing="zerocfa")),
        ("1CFA", dict(k=1)),
        ("2CFA", dict(k=2)),
        ("1CFA + shared store", dict(k=1, widening="store")),
        ("1CFA + counting", dict(k=1, counting=True)),
        ("1CFA + abstract GC", dict(k=1, gc=True)),
    ]
    for label, fields in spectrum:
        start = time.perf_counter()
        result = assemble(AnalysisConfig(language="cps", **fields)).run(program)
        elapsed = time.perf_counter() - start
        mean_flow = precision_summary(result.flows_to())["mean_flow"]
        rows.append((label, result.num_states(), mean_flow, f"{elapsed:.4f}s"))

    print(fmt_table(["machine", "states/steps", "mean flow", "time"], rows))
    print()
    print(
        "Same mnext, same program -- every row is a different plug-in\n"
        "combination of monad, Addressable, StoreLike and Collecting."
    )


if __name__ == "__main__":
    main()
