"""Soundness smoke tests: the concrete run is covered by every abstraction.

The a posteriori soundness theorem (paper 6.1) says any allocation
policy abstracts the collecting semantics with unique addresses.  We
check the executable consequence on terminating corpus programs: for
every state in the concrete trace, some abstract state with the same
control expression is reached, and the concrete value of each variable
live there is represented in the abstract flows.
"""

import pytest

from config_helpers import run_config
from repro.cps.concrete import ConcreteCPSInterface, interpret_trace
from repro.cps.semantics import inject, mnext
from repro.corpus.cps_programs import PROGRAMS, id_chain

TERMINATING = ["identity", "id-id", "mj09", "self-apply"]


def concrete_flows(program):
    """var -> set of lambdas actually bound during the concrete run."""
    interface = ConcreteCPSInterface()
    state = inject(program)
    flows: dict = {}
    for _ in range(100_000):
        if state.is_final():
            break
        state = mnext(interface, state)
        for var, addr in state.env.items():
            if addr in interface.heap:
                value = interface.heap[addr]
                flows.setdefault(var, set()).add(value.lam)
    return flows


def assert_covers(abstract_flows, concrete):
    for var, lams in concrete.items():
        assert var in abstract_flows, f"variable {var} missing from abstract result"
        assert lams <= abstract_flows[var], f"flows for {var} not covered"


@pytest.mark.parametrize("name", TERMINATING)
def test_zerocfa_covers_concrete(name):
    program = PROGRAMS[name]
    assert_covers(
        run_config("cps", program, addressing="zerocfa").flows_to(),
        concrete_flows(program),
    )


@pytest.mark.parametrize("name", TERMINATING)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_kcfa_covers_concrete(name, k):
    program = PROGRAMS[name]
    assert_covers(run_config("cps", program, k=k).flows_to(), concrete_flows(program))


@pytest.mark.parametrize("name", TERMINATING)
def test_shared_store_covers_concrete(name):
    program = PROGRAMS[name]
    assert_covers(
        run_config("cps", program, k=1, engine="kleene").flows_to(),
        concrete_flows(program),
    )


@pytest.mark.parametrize("name", TERMINATING)
def test_gc_covers_live_concrete_bindings(name):
    """GC drops dead bindings, so coverage is owed only for *live* ones:
    variables free in the control expression of some visited state."""
    from repro.cps.syntax import free_vars

    program = PROGRAMS[name]
    interface = ConcreteCPSInterface()
    state = inject(program)
    live_flows: dict = {}
    for _ in range(100_000):
        if state.is_final():
            break
        state = mnext(interface, state)
        for var in free_vars(state.ctrl):
            if var in state.env and state.env[var] in interface.heap:
                value = interface.heap[state.env[var]]
                live_flows.setdefault(var, set()).add(value.lam)
    abstract = run_config("cps", program, k=1, gc=True).flows_to()
    for var, lams in live_flows.items():
        assert var in abstract
        assert lams <= abstract[var]


@pytest.mark.parametrize("k", [0, 1])
def test_concrete_trace_states_covered(k):
    """Every control point the concrete machine visits appears abstractly."""
    for name in TERMINATING:
        program = PROGRAMS[name]
        concrete_ctrls = {s.ctrl for s in interpret_trace(program)}
        abstract_ctrls = {s.ctrl for s in run_config("cps", program, k=k).states()}
        assert concrete_ctrls <= abstract_ctrls


def test_concrete_collecting_covers_trace_exactly():
    """With unique addresses the collecting semantics visits exactly the
    concrete control points (no spurious merging)."""
    for name in TERMINATING:
        program = PROGRAMS[name]
        concrete_ctrls = {s.ctrl for s in interpret_trace(program)}
        collected = run_config("cps", program, addressing="concrete")
        abstract_ctrls = {s.ctrl for s in collected.states()}
        assert abstract_ctrls == concrete_ctrls


def test_generated_chain_soundness():
    program = id_chain(3)
    assert_covers(
        run_config("cps", program, addressing="zerocfa").flows_to(),
        concrete_flows(program),
    )
