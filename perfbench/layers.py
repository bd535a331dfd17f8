"""Per-layer attribution for traced runs: spans, reconciliation, replay.

Spans are recorded from the benchmark's own code, around each public
call into a layer, into a ``repro.obs.trace.Tracer`` used as a plain
span sink (it is never installed as the current tracer, so the spans
the library records internally stay out of it).  Every op is one
``op`` span; the layer spans inside it are its children.  A layer's
self time is its span's duration (layer spans do not nest), and the
op's own self time -- op wall time minus the layer spans it contains --
is the ``trace.unaccounted`` row: glue between the public calls.

Reconciliation rule (checked per op, :data:`TOLERANCE_MS` +
:data:`TOLERANCE_SHARE` of the op's wall time): the layer self times
must add up to the op's wall time up to that remainder.  More than
:data:`TOLERANCE_OPS` of the ops over the tolerance makes the traced
run incorrect.

:func:`traced_request` replays one server request in-process through
the same public stages the server runs (``decode_request`` ->
``normalize_job`` -> parse -> ``assemble`` -> ``cache_key`` -> hot tier
-> disk tier -> warm/cold run -> ``complete`` -> ``outcome_row`` ->
``encode``), so the hot path splits by layer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager

#: Per-op reconciliation tolerance: fixed part plus a share of wall time.
TOLERANCE_MS = 0.5
TOLERANCE_SHARE = 0.10
#: Share of ops that may exceed it (a cyclic-GC pause can land between
#: two spans of an op and count as unaccounted time).
TOLERANCE_OPS = 0.01

#: Time layers reported per op, in milliseconds.
TIME_LAYERS = (
    "serve.decode",
    "jobs.normalize",
    "frontend.parse",
    "config.assemble",
    "cache.digest",
    "jobs.hot",
    "cache.load",
    "core.fixpoint",
    "cache.store",
    "report.summary",
    "serve.encode",
)


class Spans:
    """A span sink plus the bookkeeping to reconcile it per op."""

    def __init__(self) -> None:
        from repro.obs.trace import Tracer

        self.tracer = Tracer(process_name="perfbench")

    @contextmanager
    def op(self, name: str):
        with self.tracer.span(name, cat="op"):
            yield

    def layer(self, name: str):
        return self.tracer.span(name, cat="layer")

    def reconcile(self) -> tuple[dict, int, int]:
        """Layer self-time rows, the op count, and whether it reconciles.

        Only layers that occurred get a row; time rows are per op.

        Layer spans are emitted before the op span that encloses them
        (a span is recorded when its ``with`` block exits), so each op
        claims the layer spans pending since the previous op.
        """
        totals: dict = defaultdict(float)
        pending: list = []
        ops = violations = 0
        wall_total = unaccounted_total = 0.0
        for event in self.tracer.events():
            if event.get("ph") != "X":
                continue
            if event["cat"] == "layer":
                pending.append(event)
                continue
            start, end = event["ts"], event["ts"] + event["dur"]
            inside = [
                child
                for child in pending
                if child["ts"] >= start - 1e-3
                and child["ts"] + child["dur"] <= end + 1e-3
            ]
            if len(inside) != len(pending):
                raise RuntimeError("a layer span lies outside every op span")
            pending = []
            layered = sum(child["dur"] for child in inside)
            unaccounted = event["dur"] - layered
            ops += 1
            wall_total += event["dur"]
            unaccounted_total += unaccounted
            for child in inside:
                totals[child["name"]] += child["dur"]
            allowed = TOLERANCE_MS * 1e3 + TOLERANCE_SHARE * event["dur"]
            if unaccounted < -1.0 or unaccounted > allowed:
                violations += 1
        rows = {}
        for name in TIME_LAYERS:
            if name in totals:
                rows[f"{name}_ms"] = (totals[name] / 1e3 / max(ops, 1), "ms")
        rows["trace.unaccounted_ms"] = (unaccounted_total / 1e3 / max(ops, 1), "ms")
        rows["trace.unaccounted_share"] = (
            unaccounted_total / wall_total if wall_total else 0.0,
            "ratio",
        )
        rows["trace.ops_over_tolerance"] = (violations, "count")
        return rows, ops, violations <= TOLERANCE_OPS * ops

    def write_and_validate(self, path: str) -> bool:
        """Write the trace file and validate it with ``tools/check_trace.py``."""
        self.tracer.write(path)
        checker = os.path.join("tools", "check_trace.py")
        if not os.path.exists(checker):
            return False
        result = subprocess.run(
            [sys.executable, checker, path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        return result.returncode == 0


class CoreCounts:
    """Fixpoint work counts summed over a fixed, seed-determined op set."""

    def __init__(self) -> None:
        self.evaluations = self.retriggers = self.dedup_hits = 0
        self.configurations = self.store_entries = 0

    def add(self, stats: dict, summary: dict) -> None:
        self.evaluations += stats.get("evaluations") or 0
        self.retriggers += stats.get("retriggers") or 0
        self.dedup_hits += stats.get("dedup_hits") or 0
        self.configurations += summary["configs"]
        self.store_entries += summary["store_size"]

    def rows(self) -> dict:
        return {
            "core.evaluations": (self.evaluations, "count"),
            "core.retriggers": (self.retriggers, "count"),
            "core.dedup_hits": (self.dedup_hits, "count"),
            "core.configurations": (self.configurations, "count"),
            "core.store_entries": (self.store_entries, "count"),
            "core.evals_per_config": (
                self.evaluations / max(self.configurations, 1),
                "ratio",
            ),
        }


@contextmanager
def intern_delta(out: dict):
    """Record ``intern.*`` rows for the ``with`` body into ``out``."""
    from repro.util.intern import intern_stats

    before = intern_stats()
    yield
    after = intern_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    out["intern.new_nodes"] = (misses, "count")
    out["intern.hit_ratio"] = (hits / max(hits + misses, 1), "ratio")


def traced_request(spans: Spans, line: bytes, cache, hot, wire: bool = True):
    """Replay one request through the server's public stages, with spans.

    Returns ``(row, tier, stats)``.  ``wire=False`` skips the protocol
    decode/encode (the CLI path has no wire); ``line`` is then the
    request's JSON text all the same.
    """
    from repro.config import assemble
    from repro.core.fixpoint import FixpointCapture
    from repro.serve.protocol import decode_request, encode, result_response
    from repro.service.cache import cache_key
    from repro.service.jobs import (
        JobOutcome,
        PreparedJob,
        complete,
        contains_subterm,
        normalize_job,
        outcome_row,
        resolve_program,
        warmable,
        wrap_fixpoint,
    )

    if wire:
        with spans.layer("serve.decode"):
            request = decode_request(line)
    else:
        request = json.loads(line)
    params = request["params"]
    with spans.layer("jobs.normalize"):
        job = normalize_job(
            params["language"],
            source=params.get("source"),
            preset=params.get("preset"),
            overrides=params.get("overrides"),
        )
    config = job.config
    with spans.layer("frontend.parse"):
        program = resolve_program(job)
    with spans.layer("config.assemble"):
        analysis = assemble(config, program=program)
    with spans.layer("cache.digest"):
        key = cache_key(program, config)
    prepared = PreparedJob(
        config=config, program=program, analysis=analysis, key=key, job=job
    )
    language = config.language
    outcome = None
    if hot is not None:
        with spans.layer("jobs.hot"):
            fp = hot.get(key)
        if fp is not None:
            outcome = JobOutcome(
                job=job,
                result=wrap_fixpoint(analysis, fp, program, language),
                key=key,
                cached=True,
                tier="hot",
                seconds=0.0,
                stats={"evaluations": 0},
            )
    if outcome is None:
        with spans.layer("cache.load"):
            entry = cache.get_key(key, with_records=False)
        if entry is not None:
            if hot is not None:
                hot.put(key, entry.fp)
            outcome = JobOutcome(
                job=job,
                result=wrap_fixpoint(analysis, entry.fp, program, language),
                key=key,
                cached=True,
                tier="disk",
                seconds=0.0,
                stats={"evaluations": 0},
            )
    if outcome is None:
        warm_start = None
        if request["method"] == "reanalyse" and warmable(config):
            with spans.layer("cache.load"):
                donor = cache.latest_for(config)
            if (
                donor is not None
                and donor.warmable
                and donor.program is not None
                and contains_subterm(program, donor.program)
            ):
                warm_start = donor.warm_start()
        capture = FixpointCapture() if warmable(config) else None
        with spans.layer("core.fixpoint"):
            result = analysis.run(
                program,
                worklist=not config.shared,
                warm_start=warm_start,
                capture=capture,
            )
        payload = {
            "fp": result.fp,
            "records": dict(capture.records) if capture is not None else None,
            "seconds": 0.0,
            "stats": dict(analysis.last_stats),
        }
        with spans.layer("cache.store"):
            outcome = complete(
                prepared,
                payload,
                cache=cache,
                hot=hot,
                tier="warm" if warm_start is not None else "cold",
                result=result,
            )
    with spans.layer("report.summary"):
        row = outcome_row(outcome)
    if wire:
        with spans.layer("serve.encode"):
            encode(result_response(request["id"], row))
    return row, outcome.tier, outcome.stats


def tier_rows(tiers: dict, hits: int, misses: int) -> dict:
    """``jobs.tier_*``, ``jobs.hot_hit_ratio`` and ``cache.hits``/``misses``."""
    total = sum(tiers.values())
    rows = {
        f"jobs.tier_{tier}": (tiers.get(tier, 0), "count")
        for tier in ("hot", "disk", "warm", "cold")
    }
    rows["jobs.hot_hit_ratio"] = (tiers.get("hot", 0) / max(total, 1), "ratio")
    rows["cache.hits"] = (hits, "count")
    rows["cache.misses"] = (misses, "count")
    return rows
