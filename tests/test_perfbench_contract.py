"""The perfbench contract: every library name the benchmark calls still works.

``perfbench/`` drives the package through its public names -- the
``analyze`` cells, the server stages replayed by ``layers.traced_request``,
the off-path probe, the one-shot CLI -- and no other test runs it, so a
rename or a deleted function would leave the suite green and only crash
the benchmark.  This test runs one small instance of each path the
benchmark takes, without timing anything:

* one cell per language through ``analyze.execute`` and ``analyze.verify``;
* ``probe.probe_rows``: the startup spawns, ``ServerHandle``/``ServeClient``
  and ``layers.traced_request`` on the cold, hot and disk tiers, with
  ``Spans.reconcile`` and ``layers.tier_rows``;
* a warm ``reanalyse`` of an ``id_chain``/``id_chain_edited`` pair through
  ``traced_request``, inside ``layers.intern_delta`` (which reads the
  ``hits``/``misses`` keys of ``intern_stats()``);
* ``CoreCounts.add`` on an analysis's ``last_stats`` and summary;
* ``Spans.write_and_validate``, which runs ``tools/check_trace.py``;
* ``cli.run_op`` once on the cold tier and once on the disk tier.

The benchmark's modules have top-level names (``cli``, ``check``,
``serve``, ...) that would shadow other modules in this process, so the
script below runs in a subprocess from the repository root, as the benchmark
itself does.  It takes a few seconds, and removes only the temporary
directories it made (``perfbench/common.py``'s ``remove_tmp`` would also
delete those of a benchmark running from the same checkout).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r'''
import json, os, shutil, sys
sys.path.insert(0, "perfbench")
sys.path.insert(1, os.path.abspath("src"))
import analyze, cells, check, cli, common, layers, probe
from repro.service.cache import FixpointCache
from repro.service.jobs import HotTier

def made():
    return set(os.listdir(common.TMP_ROOT)) if os.path.isdir(common.TMP_ROOT) else set()

checks = {}
existing = made()
try:
    expected = check.load_expected()
    catalogue = cells.catalogue(expected)
    for language in ("cps", "lam", "fj", "imp"):
        op = next(op for op in catalogue if op["language"] == language)
        program = cells.parse(language, op["source"])
        op["witness"] = check.concrete_witness(
            cells.analysis_language(language), program
        )
        summary, result, stats = analyze.execute(op)
        checks[f"analyze.verify {op['id']}"] = analyze.verify(op, summary, result)

    counts = layers.CoreCounts()
    counts.add(stats, summary)
    rows = counts.rows()
    checks["CoreCounts.add"] = (
        rows["core.evaluations"][0] == stats["evaluations"] > 0
        and rows["core.configurations"][0] == summary["configs"]
    )

    rows = probe.probe_rows(common.child_env(1))
    checks["probe_rows startup"] = rows["startup.repro_modules"][0] > 0
    checks["probe_rows wire"] = rows["serve.roundtrip_ms"][0] > 0
    checks["probe_rows tiers"] = all(
        rows[f"jobs.tier_{tier}"][0] > 0 for tier in ("hot", "disk", "cold")
    )
    checks["probe_rows layers"] = all(
        f"{name}_ms" in rows for name in layers.TIME_LAYERS
        if name != "core.fixpoint"
    )

    warm = {cell["id"]: cell for cell in cells.warm_cells()}
    size = cells.WARM_SIZES[0]
    spans = layers.Spans()
    cache = FixpointCache(root=common.make_tmp("contract-cache-"))
    hot = HotTier(max_entries=4)
    tiers = []
    intern_rows = {}
    with layers.intern_delta(intern_rows):
        for method, name in (("analyse", "id_chain"), ("reanalyse", "id_chain_edited")):
            params = {
                "language": "cps",
                "source": warm[f"warm:{name}:{size}"]["source"],
                "preset": "1cfa",
                "overrides": {},
            }
            line = json.dumps({"id": 1, "method": method, "params": params}) + "\n"
            with spans.op("contract"):
                _row, tier, _stats = layers.traced_request(
                    spans, line.encode(), cache, hot
                )
            tiers.append(tier)
    checks["traced_request cold then warm"] = tiers == ["cold", "warm"]
    checks["intern_delta"] = sorted(intern_rows) == [
        "intern.hit_ratio", "intern.new_nodes"
    ]
    layer_rows, ops, _reconciled = spans.reconcile()
    checks["Spans.reconcile"] = ops == 2 and "core.fixpoint_ms" in layer_rows
    checks["Spans.write_and_validate"] = spans.write_and_validate(
        os.path.join(common.make_tmp("trace-"), "contract.json")
    )

    env = common.child_env(1)
    cell = cli.cli_cells(expected)[0]
    cli.write_sources([cell], common.make_tmp("cli-src-"))
    shared = common.make_tmp("cli-cache-")
    checks["cli.run_op cold"] = cli.run_op(cell, "cold", shared, env)[1]
    checks["cli.run_op disk"] = cli.run_op(cell, "disk", shared, env)[1]
finally:
    for name in made() - existing:
        shutil.rmtree(os.path.join(common.TMP_ROOT, name), ignore_errors=True)
    if not made():
        shutil.rmtree(common.TMP_ROOT, ignore_errors=True)
print(json.dumps(checks))
'''


def test_perfbench_paths_run_on_the_current_library():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    checks = json.loads(completed.stdout.strip().splitlines()[-1])
    assert len(checks) == 15
    failed = sorted(name for name, ok in checks.items() if not ok)
    assert not failed, failed
