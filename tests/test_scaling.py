"""Hardware-free scaling cells: work counts of ``id_chain`` that must not creep.

A creeping quadratic shows up in counts long before it shows up in a
timing gate, and counts are the same on every host.  The first cell
analyses a freshly built ``id_chain(n)`` at ``1cfa``, n = 50..3200 (the
pool is cleared first, so no memo survives from a smaller n), and pins,
exactly:

* evaluations = configurations = 2n + 2 (each configuration once);
* tracked addresses = 2n + 1;
* free-variable computations = distinct syntax nodes: each node's set is
  computed once, in the analysis or in the closing closedness check,
  and never again -- a walk that re-derived a body per enclosing lambda
  (the old per-call cache) would count O(n^2) here.

A second cell pins a known super-linear cost as it stands: the CPS fused
step's store threading per branch-product combination under ``0cfa``
(:data:`BRANCH_PRODUCT`).

The whole sweep runs in about a second; nothing is timed.
"""

from __future__ import annotations

import pytest

import repro.cps.syntax as cps_syntax
from repro.config import assemble, preset_config
from repro.corpus.cps_programs import id_chain
from repro.service.jobs import iter_subvalues
from repro.util.intern import _INTERNED, clear_intern_pool

SIZES = [50, 100, 200, 400, 800, 1600, 3200]


@pytest.fixture
def fv_computations(monkeypatch):
    """A list that grows by one per computed CPS free-variable set."""
    computed: list = []
    combine = cps_syntax._fv_combine

    def counting(term, child_vars):
        computed.append(term)
        return combine(term, child_vars)

    monkeypatch.setattr(cps_syntax, "_fv_combine", counting)
    return computed


@pytest.mark.parametrize("n", SIZES)
def test_id_chain_work_is_linear(n, fv_computations):
    clear_intern_pool()
    program = id_chain(n)
    nodes = sum(type(node) in _INTERNED for node in iter_subvalues(program))
    analysis = assemble(preset_config("1cfa", "cps"))
    analysis.run(program)
    stats = analysis.last_stats
    assert stats["evaluations"] == stats["configurations"] == 2 * n + 2
    assert stats["tracked_addresses"] == 2 * n + 1
    assert stats["retriggers"] == 0
    assert cps_syntax.is_closed(program)
    assert len(fv_computations) == nodes
    assert len(set(map(id, fv_computations))) == nodes


#: ``id_chain(n)`` under ``0cfa``: (evaluations, ``thread_bindings`` calls).
#: The CPS fused step threads one store per combination of the branch
#: product over the fetched argument sets, so under one shared address per
#: variable the calls grow quadratically while evaluations stay linear.
#: Pinned as measured: a change to the branch product must move these.
BRANCH_PRODUCT = {4: (10, 35), 8: (18, 213), 16: (34, 1_513), 24: (50, 4_925)}


@pytest.mark.parametrize("n", sorted(BRANCH_PRODUCT))
def test_cps_fused_branch_product_cost(n, monkeypatch):
    import repro.cps.fused as cps_fused

    calls = 0
    thread = cps_fused.thread_bindings

    def counting(*args):
        nonlocal calls
        calls += 1
        return thread(*args)

    monkeypatch.setattr(cps_fused, "thread_bindings", counting)
    analysis = assemble(preset_config("0cfa", "cps"))
    analysis.run(id_chain(n))
    assert (analysis.last_stats["evaluations"], calls) == BRANCH_PRODUCT[n]
