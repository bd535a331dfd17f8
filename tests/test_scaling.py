"""Hardware-free scaling cell: work counts of ``id_chain`` at ``1cfa``, n = 50..3200.

A creeping quadratic shows up in counts long before it shows up in a
timing gate, and counts are the same on every host.  Each cell analyses
a freshly built ``id_chain(n)`` (the pool is cleared first, so no memo
survives from a smaller n) and pins, exactly:

* evaluations = configurations = 2n + 2 (each configuration once);
* tracked addresses = 2n + 1;
* free-variable computations = distinct syntax nodes: each node's set is
  computed once, in the analysis or in the closing closedness check,
  and never again -- a walk that re-derived a body per enclosing lambda
  (the old per-call cache) would count O(n^2) here.

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
