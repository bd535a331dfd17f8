"""Golden engine counts: the depgraph loop's work on the whole corpus, pinned.

Every cps, lam, fj and imp corpus program runs under the five perfbench
variants of the ``1cfa`` preset (``1cfa``, ``0cfa``, ``2cfa``, ``gc``,
``count``), source-free (the registered programs), and five counts of
each run are compared with ``tests/golden/engine_counts.json``:
``evaluations``, ``retriggers``, ``dedup_hits``, ``delta_evaluations``
and ``configurations``.  A run over :data:`BUDGET` evaluations is pinned
as ``"over budget"`` (the engine raises before it reports counts).

The drain order follows set iteration order, which moves with the
string-hash seed, and so do the counts: one pass of the perfbench cells
makes 30,547, 30,552 and 30,551 evaluations at seeds 0, 1 and 7.  So the
counts are taken in child processes under :data:`SEEDS`, whatever seed
the test runner itself has, and the golden holds one table per seed.
Bookkeeping changes in the engine (how configurations are keyed,
queued or logged) must leave every entry as it is.

Regenerate after an intentional change to the drain with::

    REGEN_ENGINE_COUNTS=1 python -m pytest tests/test_engine_counts.py

and review the diff like any other code change.  Run directly
(``python tests/test_engine_counts.py``), the module prints the table
for the current process's seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "engine_counts.json"
REGEN = os.environ.get("REGEN_ENGINE_COUNTS") == "1"

SEEDS = ("0", "1")
LANGUAGES = ("cps", "lam", "fj", "imp")
COUNTS = ("evaluations", "retriggers", "dedup_hits", "delta_evaluations", "configurations")

#: The perfbench variants, as overrides of the ``1cfa`` preset.
VARIANTS = {
    "1cfa": {},
    "0cfa": {"addressing": "zerocfa"},
    "2cfa": {"k": 2},
    "gc": {"gc": True},
    "count": {"counting": True},
}

#: Evaluations a cell may spend; keeps the two children near 2 s each.
BUDGET = 2_000


def engine_counts() -> dict:
    """``{"lang:name/variant": counts}`` for every corpus cell, in this process."""
    from repro.config import assemble, request_config
    from repro.core.fixpoint import FixpointDiverged
    from repro.corpus import corpus_programs

    table: dict = {}
    for language in LANGUAGES:
        analysis_language = "lam" if language == "imp" else language
        for name, program in sorted(corpus_programs(language).items()):
            for variant, overrides in VARIANTS.items():
                config = request_config(analysis_language, "1cfa", overrides)
                analysis = assemble(config, program=program)
                try:
                    analysis.run(program, max_steps=BUDGET)
                except FixpointDiverged:
                    entry: object = "over budget"
                else:
                    entry = {key: analysis.last_stats[key] for key in COUNTS}
                table[f"{language}:{name}/{variant}"] = entry
    return table


def counts_under(seed: str) -> dict:
    """:func:`engine_counts` in a fresh interpreter with ``PYTHONHASHSEED=seed``."""
    from cli_helpers import SRC

    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout)


def test_engine_counts_match_the_golden():
    with ThreadPoolExecutor(len(SEEDS)) as pool:
        tables = dict(zip(SEEDS, pool.map(counts_under, SEEDS)))
    if REGEN:
        GOLDEN.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == list(SEEDS)
    for seed in SEEDS:
        got, want = tables[seed], golden[seed]
        assert sorted(got) == sorted(want), f"seed {seed}: the cell set moved"
        moved = {cell: (want[cell], got[cell]) for cell in want if got[cell] != want[cell]}
        assert not moved, f"seed {seed}: {len(moved)} cells moved: {moved}"
    # the reason the counts are taken per seed at all
    assert tables["0"] != tables["1"]


if __name__ == "__main__":
    print(json.dumps(engine_counts(), sort_keys=True))
