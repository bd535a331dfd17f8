"""Featherweight Java: type checking, execution and class-flow analysis.

The same monadic components that analyze the lambda calculi drive a
class-flow (CFA) analysis for FJ: which classes reach which variables,
how dynamic dispatch resolves, and which casts can fail.

Run with::

    python examples/fj_class_flow.py
"""

from repro.analysis.report import fmt_table
from repro.config import AnalysisConfig, assemble
from repro.fj.class_table import ClassTable
from repro.fj.concrete import evaluate_fj
from repro.fj.parser import parse_program
from repro.fj.typecheck import typecheck_program

SOURCE = """
class Animal extends Object {
  Object speak() { return new Silence(); }
}
class Silence extends Object { }
class Bark extends Object { }
class Meow extends Object { }
class Dog extends Animal {
  Object speak() { return new Bark(); }
}
class Cat extends Animal {
  Object speak() { return new Meow(); }
}
class Kennel extends Object {
  Object poke(Animal a) { return a.speak(); }
}
class Pair extends Object {
  Object fst;
  Object snd;
}
new Pair(new Kennel().poke(new Dog()), new Kennel().poke(new Cat())).fst
"""


def main() -> None:
    program = parse_program(SOURCE)

    check = typecheck_program(program)
    print(f"typechecked: main expression has type {check.main_type}")
    for warning in check.warnings:
        print(f"  warning: {warning}")
    print()

    value = evaluate_fj(program)
    print(f"concrete run returns an instance of: {value.cls}")
    print()

    mono = assemble(
        AnalysisConfig(language="fj", addressing="zerocfa"), program=program
    ).run(program)
    poly = assemble(AnalysisConfig(language="fj", k=1), program=program).run(program)

    rows = []
    keys = sorted(set(mono.class_flows()) | set(poly.class_flows()))
    for key in keys:
        c0 = ",".join(sorted(mono.class_flows().get(key, ())))
        c1 = ",".join(sorted(poly.class_flows().get(key, ())))
        rows.append((key, c0, c1))
    print(fmt_table(["variable/field", "classes (0CFA)", "classes (1CFA)"], rows))
    print()
    print(f"possible results 0CFA: {sorted(mono.final_classes())}")
    print(f"possible results 1CFA: {sorted(poly.final_classes())}")
    print()

    table = ClassTable.of(program)
    failures = poly.possible_cast_failures(table)
    if failures:
        print(f"casts that may fail: {failures}")
    else:
        print("all casts proved safe (there are none here).")
    print()
    print(
        "0CFA merges the two poke() calls, so both speak() bodies appear\n"
        "reachable from either; 1CFA resolves each dispatch exactly."
    )


if __name__ == "__main__":
    main()
