"""The ``cli`` workload: one-shot ``python3 -m repro analyze`` processes.

Sequential closed loop, one process at a time, on small corpus cells.
Three in five ops run against a pre-populated ``--cache-dir`` (answered
from the disk tier), the others against a fresh directory (a cold run
and a cache write); each op's cell is drawn from the seed.  Interpreter
start and ``import repro.cli`` dominate each op, so lazy-import work
shows here and nowhere else.  Each op's latency is the median of the
run's ops on the same cell and tier, each scaled to the reference core
(:mod:`pace`).

Every op is checked: exit status 0, the ``states``/``store``/``mean
flow`` line equal to ``expected.json``, and the ``cache:`` line naming
the tier the op was scheduled for.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time

import cells
import check
from common import (
    SETUP_REPS,
    child_env,
    children_peak_rss_mb,
    latency_metrics,
    make_tmp,
    median,
)
from pace import BLOCK_RUNS, HostPace, kernel_row, kernel_seconds, op_medians, scaled_call

#: CLI cells are the catalogue's cheapest (an evaluation count): process
#: start-up, not the fixpoint, is what this workload measures.
CLI_EVAL_LIMIT = 60
#: Variants the CLI can express as flags on top of ``--preset 1cfa``.
FLAGS = {"1cfa": [], "gc": ["--gc"], "count": ["--counting"]}
SUFFIX = {"cps": "cps", "lam": "lam", "fj": "fj", "imp": "imp"}
#: Cells in the pre-populated cache (every disk op draws from these),
#: then the cells cold ops run in fresh directories.  Few enough that
#: each repeats several times a run (its median is steady, see
#: :func:`pace.op_medians`); six cold cells put the 90th percentile in
#: the middle of one of them, not on the edge between two.
DISK_CELLS = 8
COLD_CELLS = 6
WARMUP_OPS = 2
MIN_OPS = 100

_SUMMARY = re.compile(r"^states: (\d+)  store: (\d+)  mean flow: ([0-9.]+)", re.M)
_CACHE = re.compile(r"^cache: (hit|miss) \((\w+)\)", re.M)


def cli_cells(expected: dict) -> list[dict]:
    """The fixed CLI cell list (seed-independent)."""
    evals = {cid: entry["evaluations"] for cid, entry in expected["cells"].items()}
    out = []
    for cell in sorted(cells.catalogue(expected), key=lambda cell: cell["id"]):
        variant = cell["id"].rsplit("/", 1)[1]
        if variant in FLAGS and evals[cell["id"]] <= CLI_EVAL_LIMIT:
            out.append(dict(cell, flags=FLAGS[variant]))
    random.Random(0).shuffle(out)  # fixed: disk cells from every language
    return out


def write_sources(cell_list: list[dict], directory: str) -> None:
    for index, cell in enumerate(cell_list):
        path = os.path.join(directory, f"cell{index}.{SUFFIX[cell['language']]}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cell["source"])
        cell["path"] = path


def plan(cell_list: list[dict], seed: int, count: int) -> list[tuple[dict, str]]:
    """``count`` ops: ``(cell, tier)``, three in five ``disk``, the rest ``cold``.

    Not half and half: a cold op costs about 0.1 s more than a disk hit,
    so with equal shares the median would sit in the gap between the
    two bands and flip between them with the parity of the op count.
    At 3:2 the median lies inside the disk band and the 90th percentile
    inside the cold band.  Each tier walks its cells in rounds, every
    round in a seeded order, so every cell of a tier runs equally often.
    """
    rng = random.Random(seed)
    rounds = {
        "disk": cell_list[:DISK_CELLS],
        "cold": cell_list[DISK_CELLS : DISK_CELLS + COLD_CELLS],
    }
    queues: dict = {"disk": [], "cold": []}
    ops = []
    for index in range(count):
        tier = "disk" if index % 5 in (0, 2, 4) else "cold"
        if not queues[tier]:
            queues[tier] = rng.sample(rounds[tier], len(rounds[tier]))
        ops.append((queues[tier].pop(), tier))
    return ops


def command(cell: dict, cache_dir: str) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "analyze",
        cell["path"],
        "--preset",
        "1cfa",
        *cell["flags"],
        "--cache-dir",
        cache_dir,
    ]


def verify(cell: dict, tier: str, completed: subprocess.CompletedProcess) -> bool:
    if completed.returncode != 0:
        return False
    summary = _SUMMARY.search(completed.stdout)
    cache = _CACHE.search(completed.stdout)
    if summary is None or cache is None:
        return False
    expected = cell["expected"]
    return (
        int(summary.group(1)) == expected["states"]
        and int(summary.group(2)) == expected["store_size"]
        and float(summary.group(3)) == expected["precision"]["mean_flow"]
        and cache.group(2) == tier
    )


def run_op(
    cell: dict, tier: str, cache_dir: str, env: dict, pace: HostPace | None = None
) -> tuple[float, bool]:
    """One process, timed (scaled by ``pace`` if given) and checked."""
    started = time.perf_counter()
    completed = subprocess.run(
        command(cell, cache_dir), env=env, capture_output=True, text=True, timeout=120
    )
    elapsed = time.perf_counter() - started
    if pace is not None:
        elapsed = pace.scale(elapsed)
    return elapsed, verify(cell, tier, completed)


def setup(cell_list: list[dict], env: dict) -> tuple[str, int]:
    """Write the sources, populate the shared cache, warm up; a failure count."""
    write_sources(cell_list, make_tmp("cli-src-"))
    shared = make_tmp("cli-cache-")
    failures = 0
    for cell in cell_list[:DISK_CELLS]:
        failures += not run_op(cell, "cold", shared, env)[1]
    for cell in cell_list[:WARMUP_OPS]:
        failures += not run_op(cell, "disk", shared, env)[1]
    return shared, failures


def run(seed: int, seconds: float, trace: bool) -> dict:
    env = child_env(seed)
    expected = check.load_expected()
    cell_list = cli_cells(expected)
    if trace:
        return traced(seed, cell_list, env)
    reps = []
    setup_failures = 0
    for _rep in range(SETUP_REPS):
        (shared, failures), rep_s = scaled_call(lambda: setup(cell_list, env))
        reps.append(rep_s)
        setup_failures += failures
    samples: list[tuple[tuple[str, str], float]] = []
    failed = 0
    pace = HostPace()
    deadline = time.perf_counter() + seconds
    for cell, tier in plan(cell_list, seed, 100_000):
        if time.perf_counter() >= deadline and len(samples) >= MIN_OPS:
            break
        cache_dir = shared if tier == "disk" else make_tmp("cli-fresh-")
        elapsed, ok = run_op(cell, tier, cache_dir, env, pace)
        samples.append(((cell["id"], tier), elapsed))
        failed += not ok
    latencies = op_medians(samples)
    metrics = {"setup_s": (median(reps), "s")}
    metrics.update(latency_metrics(latencies, sum(latencies)))
    metrics["peak_rss_mb"] = (children_peak_rss_mb(), "MB")
    return {
        "correct": failed == 0 and setup_failures == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }


#: Ops the traced run replays in-process (twice: untraced, then traced).
TRACED_OPS = 200


def traced(seed: int, cell_list: list[dict], env: dict) -> dict:
    """Per-layer rows: start-up spawns, then the ops replayed in-process."""
    import json

    from common import startup_layer
    from layers import CoreCounts, Spans, intern_delta, tier_rows, traced_request
    from probe import probe_rows
    from repro.service.cache import FixpointCache
    from serve import plain_request

    ops = plan(cell_list, seed, TRACED_OPS)

    def line(cell: dict) -> bytes:
        params = {
            "language": cell["language"],
            "source": cell["source"],
            "preset": "1cfa",
            "overrides": cell["overrides"],
        }
        return (json.dumps({"id": 1, "method": "analyse", "params": params}) + "\n").encode()

    def replay(spans=None, counts=None, rows=None):
        shared = FixpointCache(root=make_tmp("cli-cache-"))
        for cell in cell_list[:DISK_CELLS]:
            plain_request(line(cell), shared, None)
        hits, misses = shared.hits, shared.misses
        tiers: dict = {}
        busy = 0.0
        failed = 0
        fresh_hits = fresh_misses = 0
        for cell, tier in ops:
            cache = shared if tier == "disk" else FixpointCache(root=make_tmp("cli-fresh-"))
            started = time.perf_counter()
            if spans is None:
                row, got = plain_request(line(cell), cache, None, wire=False)
                stats: dict = {}
            else:
                with spans.op("cli"):
                    row, got, stats = traced_request(
                        spans, line(cell), cache, None, wire=False
                    )
            busy += time.perf_counter() - started
            if cache is not shared:
                fresh_hits += cache.hits
                fresh_misses += cache.misses
            failed += got != tier or check.row_digest(
                row, cell["expected"]["flows_sha"]
            ) != cell["expected"]
            tiers[got] = tiers.get(got, 0) + 1
            if counts is not None and got == "cold":
                counts.add(stats, row)
        if rows is not None:
            rows.update(
                tier_rows(
                    tiers,
                    shared.hits - hits + fresh_hits,
                    shared.misses - misses + fresh_misses,
                )
            )
        return busy, failed

    rows: dict = {}
    with intern_delta(rows):  # the first replay interns every node needed
        _busy, failed = replay()
    plain_busy, plain_failed = replay()
    spans = Spans()
    counts = CoreCounts()
    traced_busy, traced_failed = replay(spans, counts, rows)
    failed += plain_failed + traced_failed
    layer_rows, _ops, reconciled = spans.reconcile()
    valid = spans.write_and_validate(os.path.join(make_tmp("trace-"), "cli.json"))
    metrics = probe_rows(env)
    metrics.update(kernel_row([kernel_seconds(BLOCK_RUNS)]))
    metrics.update(startup_layer(env, reps=9))
    metrics.update(layer_rows)
    metrics.update(counts.rows())
    metrics.update(rows)
    metrics["trace.overhead_ratio"] = (traced_busy / plain_busy, "ratio")
    return {
        "correct": failed == 0 and reconciled and valid,
        "attempted": 3 * len(ops),
        "failed": failed,
        "metrics": metrics,
    }
