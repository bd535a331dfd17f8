"""Off-path layer probe: fills the per-layer rows a workload does not touch.

Every traced run reports every per-layer metric.  Layers that lie off a
workload's blocking path (the wire and cache on ``analyze``, the wire
on ``cli``, process startup on ``analyze`` and ``serve``) are measured
here on a small fixed request set, so they read as real, steady
numbers that the workload's own changes are predicted to leave flat.
The workload then overwrites every row it measures itself.
"""

from __future__ import annotations

import json

from common import make_tmp, startup_layer

#: Three cheap corpus cells, each requested twice in a row: with a
#: one-entry hot tier the pattern yields cold, hot and disk answers.
PROBE_CELLS = (
    ("cps", "((lambda (x k) (k x)) (lambda (z j) (j z)) (lambda (r) (exit)))"),
    ("lam", "((lambda (x) x) (lambda (y) y))"),
    ("imp", "let x = 1; let y = x + 2; return y;"),
)
PROBE_ROUNDS = 5


def probe_requests() -> list[bytes]:
    lines = []
    for _round in range(PROBE_ROUNDS):
        for language, source in PROBE_CELLS:
            params = {"language": language, "source": source, "preset": "1cfa"}
            for _twice in range(2):
                request = {"id": len(lines) + 1, "method": "analyse", "params": params}
                lines.append((json.dumps(request) + "\n").encode())
    return lines


def wire_rows(lines: list[bytes]) -> dict:
    """Round trip, server-side and wire time through an in-process server."""
    import time

    from common import percentile_ms
    from repro.serve.client import ServeClient
    from repro.serve.server import ServerHandle

    samples = []
    with ServerHandle(cache_dir=make_tmp("probe-serve-"), hot_entries=1) as handle:
        with ServeClient(port=handle.port) as client:
            for line in lines:
                params = json.loads(line)["params"]
                started = time.perf_counter()
                client.call("analyse", params)
                samples.append(time.perf_counter() - started)
            stats = client.call("stats")
    roundtrip = percentile_ms(samples, 0.5)
    server = stats["latency"]["analyse"]["p50"] * 1e3
    return {
        "serve.roundtrip_ms": (roundtrip, "ms"),
        "serve.server_ms": (server, "ms"),
        "serve.wire_ms": (roundtrip - server, "ms"),
    }


def probe_rows(env: dict) -> dict:
    """Every off-path row: startup, wire, cache and tier layers."""
    from layers import Spans, tier_rows, traced_request
    from repro.service.cache import FixpointCache
    from repro.service.jobs import HotTier

    rows = startup_layer(env, reps=3)
    lines = probe_requests()
    rows.update(wire_rows(lines))
    spans = Spans()
    cache = FixpointCache(root=make_tmp("probe-cache-"))
    hot = HotTier(max_entries=1)
    tiers: dict = {}
    for line in lines:
        with spans.op("probe"):
            _row, tier, _stats = traced_request(spans, line, cache, hot)
        tiers[tier] = tiers.get(tier, 0) + 1
    layer_rows, _ops, _reconciled = spans.reconcile()
    rows.update(layer_rows)
    rows.update(tier_rows(tiers, cache.hits, cache.misses))
    return rows
