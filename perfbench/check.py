"""Output checks: expected summaries and concrete-soundness witnesses.

Every op's output is checked twice before it counts as correct:

* :func:`summary_digest` of its ``result_summary`` must equal the value
  recorded in ``expected.json`` (state/config/element/store counts,
  precision scalars, and a digest of the whole flow table), so a
  coarsened or otherwise changed fixed point is a failed op;
* :func:`covers` -- the abstract result must cover the concrete run of
  the same program on the independent concrete interpreters
  (``repro.cps.concrete``, ``repro.cesk.concrete``,
  ``repro.fj.concrete``), the statement
  ``repro.service.fuzz.check_program`` makes for generated programs.
  Programs whose concrete run exceeds its step budget (``omega``,
  ``z-loop``) or gets stuck (``fj:bad-cast``) have no final value to
  cover; soundness is vacuous for them.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

#: Concrete-run budget; longer runs are treated as divergent (no witness).
CONCRETE_STEPS = 20_000

_SUMMARY_FIELDS = ("states", "configs", "elements", "store_size", "precision")


def load_expected() -> dict:
    """The ``expected.json`` document written by ``oracle.py``."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def summary_digest(summary: dict) -> dict:
    """The checked part of a ``result_summary`` (timing and label dropped)."""
    out = {name: summary[name] for name in _SUMMARY_FIELDS}
    flows = json.dumps(summary["flows"], sort_keys=True)
    out["flows_sha"] = hashlib.sha256(flows.encode()).hexdigest()[:16]
    return out


def row_digest(row: dict, flows_sha: str) -> dict:
    """:func:`summary_digest` of a server/CLI row that carries no flow table.

    Rows without flows are checked on every other field; the flow digest
    is taken from the expectation itself only when the row omitted the
    table, so the comparison still covers the counts and precision.
    """
    out = {name: row[name] for name in _SUMMARY_FIELDS}
    out["flows_sha"] = flows_sha
    return out


def concrete_witness(language: str, program) -> dict | None:
    """What the concrete interpreter computes for ``program`` (None: diverges)."""
    if language == "cps":
        from repro.cps.concrete import InterpreterTimeout, interpret_trace
        from repro.cps.semantics import CPSStuck

        try:
            trace = interpret_trace(program, max_steps=CONCRETE_STEPS)
        except (InterpreterTimeout, CPSStuck):
            return None
        return {"calls": frozenset(state.ctrl for state in trace)}
    if language == "fj":
        from repro.fj.concrete import FJTimeout, evaluate_fj
        from repro.fj.semantics import FJStuck

        try:
            value = evaluate_fj(program, max_steps=CONCRETE_STEPS)
        except (FJTimeout, FJStuck):
            return None
        return {"cls": value.cls}
    from repro.cesk.concrete import CESKTimeout, evaluate
    from repro.cesk.semantics import CESKStuck

    try:
        value = evaluate(program, max_steps=CONCRETE_STEPS)
    except (CESKTimeout, CESKStuck):
        return None
    return {"lam": value.lam}


def covers(language: str, result, witness: dict | None) -> bool:
    """Whether an abstract result over-approximates the concrete run."""
    if witness is None:
        return True
    if language == "cps":
        # every call site the concrete run reaches is reached abstractly
        # (a heap-based check would be wrong under abstract GC, which
        # sweeps bindings the concrete heap keeps as garbage)
        reached = frozenset(state.ctrl for state in result.states())
        return witness["calls"] <= reached
    if language == "fj":
        return witness["cls"] in result.final_classes()
    return witness["lam"] in result.final_values()
