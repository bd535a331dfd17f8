"""Regenerate ``expected.json``: the cell set and every cell's expected output.

Run from the repository root after a change to ``cells.py`` (or to the
analyses' results, which should never change)::

    PYTHONPATH=src python3 perfbench/oracle.py

For each candidate cell (:func:`cells.candidates`) this

1. runs the benchmarked configuration (``1cfa`` preset plus the cell's
   overrides) with ``max_steps=EVAL_BUDGET``; a cell the engine aborts
   is excluded, with the reason recorded -- the admission rule is an
   evaluation count, so every machine keeps the same cells;
2. runs the paper-literal oracle -- Kleene iteration over the persistent
   store with the generic (monadic) transition, same addressing, ``k``,
   GC and counting -- within ``ORACLE_BUDGET`` whole-domain evaluations
   (rounds x configurations), and records its summary as the expected
   output.  The two runs must agree exactly; a disagreement is an error,
   not an expected value.  Where the oracle does not finish within its
   budget, the engine's own summary is recorded, marked
   ``"source": "engine"``.

The recorded summary is what :func:`check.summary_digest` reads off
``repro.analysis.report.result_summary``: the state, configuration,
element and store counts, the precision scalars, and a digest of the
full flow table.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cells  # noqa: E402
from check import summary_digest  # noqa: E402

#: Whole-domain evaluations the Kleene oracle may spend on one cell.
ORACLE_BUDGET = 400_000


class Excluded(Exception):
    """A candidate cell over the evaluation budget."""


def expect(cell: dict) -> dict:
    """Run one cell and its oracle; its ``expected.json`` entry."""
    from repro.analysis.report import result_summary
    from repro.config import assemble, request_config
    from repro.core.fixpoint import FixpointDiverged

    language = cells.analysis_language(cell["language"])
    program = cells.parse(cell["language"], cell["source"])
    config = request_config(language, "1cfa", cell["overrides"])
    analysis = assemble(config, program=program)
    try:
        result = analysis.run(
            program, worklist=not config.shared, max_steps=cells.EVAL_BUDGET
        )
    except (FixpointDiverged, RecursionError) as error:
        raise Excluded(f"over the evaluation budget: {error}") from None
    summary = summary_digest(result_summary(result))
    oracle_config = config.replace(
        engine="kleene", store_impl="persistent", transition="generic"
    )
    rounds = max(1, ORACLE_BUDGET // max(1, summary["configs"]))
    oracle = assemble(oracle_config, program=program)
    try:
        expected = summary_digest(result_summary(oracle.run(program, max_steps=rounds)))
        source = "oracle"
    except (FixpointDiverged, RecursionError):
        expected, source = summary, "engine"
    if expected != summary:
        raise AssertionError(f"{cell['id']}: {summary} != oracle {expected}")
    return {
        "evaluations": analysis.last_stats["evaluations"],
        "source": source,
        "expected": expected,
    }


def main() -> int:
    admitted: dict = {}
    excluded: dict = {}
    warm: dict = {}
    for cell in cells.candidates():
        started = time.perf_counter()
        try:
            admitted[cell["id"]] = entry = expect(cell)
        except Excluded as error:
            excluded[cell["id"]] = str(error)
            print(f"exclude {cell['id']}", flush=True)
            continue
        print(
            f"{cell['id']:32s} {entry['evaluations']:6d} evals "
            f"{(time.perf_counter() - started) * 1e3:8.1f} ms {entry['source']}",
            flush=True,
        )
    for cell in cells.warm_cells():
        warm[cell["id"]] = expect(cell)
    excluded.update(cells.EXCLUDED)
    document = {
        "eval_budget": cells.EVAL_BUDGET,
        "oracle_budget": ORACLE_BUDGET,
        "cells": admitted,
        "excluded": excluded,
        "warm": warm,
    }
    write(document)
    print(f"{len(admitted)} cells admitted, {len(excluded)} excluded")
    return 0


def write(document: dict) -> None:
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
