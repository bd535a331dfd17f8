"""Randomized end-to-end soundness: abstract covers concrete, by construction.

hypothesis generates small *closed* direct-style programs; for each one
that terminates within a step budget we check the executable soundness
statement on three pipelines:

* the CESK 0CFA/1CFA final values cover the concrete CESK value;
* the CPS transform preserves the concrete answer;
* the CPS 0CFA analysis of the transformed program covers it too.

Divergent or stuck samples are skipped (CPS-converted programs are
closed and well-formed by construction, so sticking cannot happen; the
budget only filters omega-like loops).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from config_helpers import run_config
from repro.cesk.concrete import CESKTimeout, evaluate
from repro.cps.concrete import InterpreterTimeout, interpret_with_heap
from repro.lam.cps_transform import cps_convert
from repro.lam.syntax import App, Expr, Lam, Let, Var, free_vars


@st.composite
def closed_programs(draw, max_depth=4):
    """Small closed direct-style programs over a fixed variable pool.

    Built top-down, tracking the variables in scope so every reference
    is bound; every program is a ``let`` of an identity first, so there
    is always at least one value to apply.
    """

    def go(depth, scope):
        choices = []
        if scope:
            choices.append("var")
        choices.extend(["lam", "app", "let"] if depth > 0 else ["lam"])
        kind = draw(st.sampled_from(choices))
        if kind == "var":
            return Var(draw(st.sampled_from(sorted(scope))))
        if kind == "lam":
            param = f"v{len(scope)}"
            body = go(depth - 1, scope | {param}) if depth > 0 else Var(param)
            return Lam((param,), body)
        if kind == "let":
            name = f"v{len(scope)}"
            rhs = go(depth - 1, scope)
            body = go(depth - 1, scope | {name})
            return Let(name, rhs, body)
        fun = go(depth - 1, scope)
        arg = go(depth - 1, scope)
        return App(fun, (arg,))

    program = go(max_depth, frozenset())
    return Let("base", Lam(("b0",), Var("b0")), program)


def user_params(lam) -> tuple:
    return tuple(p for p in lam.params if not p.startswith("$"))


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(closed_programs())
def test_cesk_abstract_covers_concrete(program: Expr):
    assert not free_vars(program)
    try:
        concrete = evaluate(program, max_steps=2_000)
    except CESKTimeout:
        return  # divergent sample
    abstract = run_config("lam", program, k=0, engine="kleene").final_values()
    assert concrete.lam in abstract


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(closed_programs())
def test_transform_preserves_and_cps_covers(program: Expr):
    from repro.lam.syntax import uniquify

    # compare on the uniquified source: the transform renames duplicate
    # binders apart, so parameter names align only after uniquification
    program = uniquify(program)
    try:
        concrete = evaluate(program, max_steps=2_000)
    except CESKTimeout:
        return
    cps_program = cps_convert(program)
    try:
        final, heap = interpret_with_heap(cps_program, max_steps=20_000)
    except InterpreterTimeout:  # pragma: no cover - budget mismatch only
        return
    cps_value = heap[final.env["r"]]
    assert user_params(cps_value.lam) == concrete.lam.params

    result = run_config("cps", cps_program, k=0, engine="kleene")
    answers = result.flows_to().get("r", frozenset())
    assert user_params(concrete.lam) in {user_params(a) for a in answers} or any(
        user_params(a) == concrete.lam.params for a in answers
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(closed_programs())
def test_precision_monotone_on_random_programs(program: Expr):
    f0 = run_config("lam", program, k=0, engine="kleene").flows_to()
    f1 = run_config("lam", program, k=1, engine="kleene").flows_to()
    for var, lams in f1.items():
        assert lams <= f0.get(var, lams)
