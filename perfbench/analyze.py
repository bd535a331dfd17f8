"""The ``analyze`` workload: library calls, one in-process caller, no cache.

Each op takes one cell from source text to ``request_config`` ->
``assemble`` -> ``.run()`` -> ``result_summary``.  A pass runs every
admitted cell once, in an order drawn from the seed; the caller loops
over whole passes (closed loop, one caller) for the measured time.  The
fixpoint does most of the work here; startup, wire and cache do none.

Each cell's latency is the median of its passes' times, each scaled to
the reference core (:mod:`pace`): ``latency_p50_ms``/``latency_p90_ms``
are percentiles of those, and ``ops_per_s`` is cells per second of a
pass taken at them.
"""

from __future__ import annotations

import random
import time
from statistics import fmean

import cells
import check
from common import (
    MIN_REPEATS,
    SETUP_REPS,
    latency_metrics,
    median,
    self_peak_rss_mb,
)
from pace import HostPace, kernel_row, op_medians, scaled_call


def build_ops(expected: dict) -> list[dict]:
    """The admitted cells with their concrete-soundness witnesses."""
    ops = cells.catalogue(expected)
    witnesses: dict = {}
    for op in ops:
        source = op["source"]
        if source not in witnesses:
            language = cells.analysis_language(op["language"])
            program = cells.parse(op["language"], source)
            witnesses[source] = check.concrete_witness(language, program)
        op["witness"] = witnesses[source]
    return ops


def execute(op: dict):
    """One op, source text to summary; returns ``(summary, result, stats)``."""
    from repro.analysis.report import result_summary
    from repro.config import assemble, request_config

    language = cells.analysis_language(op["language"])
    program = cells.parse(op["language"], op["source"])
    config = request_config(language, "1cfa", op["overrides"])
    analysis = assemble(config, program=program)
    result = analysis.run(program, worklist=not config.shared)
    return result_summary(result), result, analysis.last_stats


def verify(op: dict, summary: dict, result) -> bool:
    """Expected summary and concrete coverage (see ``check``)."""
    language = cells.analysis_language(op["language"])
    return check.summary_digest(summary) == op["expected"] and check.covers(
        language, result, op["witness"]
    )


def run_op(op: dict, pace: HostPace | None = None) -> tuple[float, bool]:
    """Time one op; return ``(seconds, ok)`` -- the check is not timed.

    With ``pace`` the seconds are scaled to the reference core
    (:mod:`pace`).
    """
    started = time.perf_counter()
    try:
        summary, result, _stats = execute(op)
    except Exception:  # any raise is a failed op, counted below
        summary = result = None
    seconds = time.perf_counter() - started
    if pace is not None:
        seconds = pace.scale(seconds)
    return seconds, summary is not None and verify(op, summary, result)


def timed_loop(ops: list[dict], rng: random.Random, seconds: float, pace: HostPace):
    """Closed-loop whole passes until ``seconds`` have passed (at least
    :data:`common.MIN_REPEATS`).

    Whole passes, so every run measures the same cell mix (a partial
    last pass would weight a random subset).  Returns ``(latencies,
    attempted, failed)``: each sample's latency is its cell's median
    scaled time over the passes (:func:`pace.op_medians`).
    """
    samples: list[tuple[str, float]] = []
    failed = passes = 0
    deadline = time.perf_counter() + seconds
    while passes < MIN_REPEATS or time.perf_counter() < deadline:
        order = ops[:]
        rng.shuffle(order)
        for op in order:
            elapsed, ok = run_op(op, pace)
            samples.append((op["id"], elapsed))
            failed += not ok
        passes += 1
    return op_medians(samples), len(samples), failed


def import_layers() -> None:
    import repro.analysis.report  # noqa: F401  (imports are part of setup)
    import repro.config  # noqa: F401


def prepare(expected: dict) -> tuple[list[dict], int]:
    """One set-up: the ops with their witnesses, then an untimed pass."""
    ops = build_ops(expected)
    return ops, sum(not run_op(op)[1] for op in ops)


def run(seed: int, seconds: float, trace: bool) -> dict:
    _none, import_s = scaled_call(import_layers)
    expected = check.load_expected()
    rng = random.Random(seed)
    if trace:
        from layers import intern_delta

        # the intern rows count what one pass's parsing and runs intern
        intern_rows: dict = {}
        with intern_delta(intern_rows):
            ops, setup_failures = prepare(expected)
        return traced(ops, seed, seconds, intern_rows, setup_failures)
    setup_failures = 0
    reps = []
    for _rep in range(SETUP_REPS):
        (ops, failures), rep_s = scaled_call(lambda: prepare(expected))
        setup_failures += failures
        reps.append(rep_s)
    latencies, attempted, failed = timed_loop(ops, rng, seconds, HostPace())
    metrics = {"setup_s": (import_s + median(reps), "s")}
    metrics.update(latency_metrics(latencies, sum(latencies)))
    metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MB")
    return {
        "correct": failed == 0 and setup_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced(ops, seed, seconds, intern_rows, setup_failures) -> dict:
    """Per-layer rows: an untraced half, then a traced half, then probes."""
    from common import child_env
    from layers import CoreCounts, Spans
    from probe import probe_rows
    from repro.analysis.report import render_json, result_summary
    from repro.config import assemble, request_config

    rng = random.Random(seed)
    pace = HostPace()
    plain, untraced, failed = timed_loop(ops, rng, seconds / 2, pace)
    spans = Spans()
    counts = CoreCounts()
    traced_samples: list[tuple[str, float]] = []
    deadline = time.perf_counter() + seconds / 2
    first_pass = True
    while first_pass or time.perf_counter() < deadline:
        order = ops[:]
        rng.shuffle(order)
        for op in order:
            language = cells.analysis_language(op["language"])
            op_started = time.perf_counter()
            with spans.op("analyze"):
                with spans.layer("frontend.parse"):
                    program = cells.parse(op["language"], op["source"])
                with spans.layer("config.assemble"):
                    config = request_config(language, "1cfa", op["overrides"])
                    analysis = assemble(config, program=program)
                with spans.layer("core.fixpoint"):
                    result = analysis.run(program, worklist=not config.shared)
                with spans.layer("report.summary"):
                    summary = result_summary(result)
                    render_json(summary)
            elapsed = pace.scale(time.perf_counter() - op_started)
            traced_samples.append((op["id"], elapsed))
            failed += not verify(op, summary, result)
            if first_pass:
                counts.add(analysis.last_stats, summary)
        first_pass = False
    rows, _n, reconciled = spans.reconcile()
    valid = spans.write_and_validate(_trace_path("analyze"))
    metrics = probe_rows(child_env(seed))
    metrics.update(rows)
    metrics.update(counts.rows())
    metrics.update(intern_rows)
    metrics.update(kernel_row(pace.kernel))
    # both sides as scaled per-cell medians, like ``ops_per_s``
    metrics["trace.overhead_ratio"] = (
        fmean(op_medians(traced_samples)) / fmean(plain),
        "ratio",
    )
    return {
        "correct": failed == 0 and setup_failures == 0 and reconciled and valid,
        "attempted": untraced + len(traced_samples),
        "failed": failed,
        "metrics": metrics,
    }


def _trace_path(name: str) -> str:
    import os

    from common import make_tmp

    return os.path.join(make_tmp("trace-"), f"{name}.json")
