"""Transition-graph construction and DOT export."""

import pytest

from repro.analysis.graph import TransitionGraph, to_dot, transition_graph
from repro.core.addresses import KCFA, ZeroCFA
from repro.core.collecting import PerStateStoreCollecting
from repro.core.fixpoint import FixpointDiverged
from repro.core.store import BasicStore
from repro.cps.analysis import AbstractCPSInterface
from repro.cps.semantics import inject, mnext
from repro.corpus.cps_programs import PROGRAMS


def build_graph(name, addressing=None, max_states=100_000):
    addressing = addressing or KCFA(1)
    store = BasicStore()
    interface = AbstractCPSInterface(addressing, store)
    collecting = PerStateStoreCollecting(interface.monad, store, addressing.tau0())
    step = lambda ps: mnext(interface, ps)
    return transition_graph(
        collecting, step, inject(PROGRAMS[name]), max_states=max_states
    )


class TestConstruction:
    def test_identity_is_a_chain(self):
        graph = build_graph("identity")
        assert graph.node_count() >= 3
        # deterministic program: no branching nodes
        assert graph.branching_nodes() == []

    def test_exit_is_terminal_self_loop(self):
        graph = build_graph("identity")
        terminals = graph.terminal_nodes()
        assert terminals
        for t in terminals:
            assert graph.successors(t) in ([], [t])

    def test_mj09_matches_worklist_reachability(self):
        from repro.core.fixpoint import worklist_explore

        addressing = KCFA(1)
        store = BasicStore()
        interface = AbstractCPSInterface(addressing, store)
        collecting = PerStateStoreCollecting(interface.monad, store, addressing.tau0())
        step = lambda ps: mnext(interface, ps)
        graph = transition_graph(collecting, step, inject(PROGRAMS["mj09"]))
        fp = worklist_explore(
            collecting, step, inject(PROGRAMS["mj09"]), collecting.successors_of
        )
        assert frozenset(graph.nodes) == fp

    def test_omega_has_a_cycle(self):
        graph = build_graph("omega", addressing=ZeroCFA())
        # a cycle: some reachable node has an edge back to a predecessor
        on_cycle = [
            (src, dst) for src, dst in graph.edges if dst <= src and src != dst
        ]
        # index order is exploration order, so a back edge witnesses the loop
        assert on_cycle or any(src == dst for src, dst in graph.edges)

    def test_budget_enforced(self):
        with pytest.raises(FixpointDiverged):
            build_graph("mj09", max_states=2)

    def test_initial_node_is_injection(self):
        graph = build_graph("identity")
        (pstate, _guts), _store = graph.nodes[graph.initial]
        assert pstate == inject(PROGRAMS["identity"])

    def test_predecessors_inverse_of_successors(self):
        graph = build_graph("mj09")
        for src, dst in graph.edges:
            assert dst in graph.successors(src)
            assert src in graph.predecessors(dst)


class TestDot:
    def test_dot_structure(self):
        graph = build_graph("identity")
        dot = to_dot(graph)
        assert dot.startswith("digraph abstract_transitions {")
        assert dot.rstrip().endswith("}")
        assert "start -> n0" in dot
        assert dot.count("->") == graph.edge_count() + 1  # + the start edge

    def test_dot_is_deterministic(self):
        assert to_dot(build_graph("mj09")) == to_dot(build_graph("mj09"))

    def test_labels_escaped_and_truncated(self):
        graph = TransitionGraph(nodes=["x"], edges=[(0, 0)], initial=0)
        dot = to_dot(graph, label=lambda _c: 'quote " and ' + "y" * 100)
        assert '\\"' in dot

    def test_custom_label(self):
        graph = build_graph("identity")
        dot = to_dot(graph, label=lambda config: "NODE")
        assert 'label="NODE"' in dot
