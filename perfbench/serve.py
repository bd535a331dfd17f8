"""The ``serve`` workload: the resident server over two connections.

The benchmark starts ``python3 -m repro serve --cache-dir <tmp>`` as a
child process and drives it over :data:`CONNECTIONS` connections from
one closed loop that takes them in turn (next request after the
previous reply; see :func:`drive`).  Every request is checked: its tier
must be the one the schedule predicts and its row must match
``expected.json``.  Each request's latency is the median of the same
request's repeats in the run, each scaled to the reference core
(:mod:`pace`); a cold or warm request runs once and keeps its own.

Each connection owns a disjoint key space -- connection 0 asks for the
``generic`` transition, connection 1 for ``fused`` (identical fixed
points, different cache keys) -- and walks a seeded schedule of:

* ``hot``: one of :data:`HOT_CELLS` cells, round-robin, so each stays
  in the server's hot LRU;
* ``disk``: the next cell of a :data:`DISK_CELLS`-long cycle, longer
  than ``--hot-entries`` on its own, so each is evicted before it
  comes round again and is answered from the disk tier
  (``FixpointCache`` unpickling and rehydration);
* ``warm``: ``analyse`` of a fresh ``id_chain(n)`` (a cold run that
  stores it) followed by ``reanalyse`` of its one-link edit, answered
  by the exactness-gated warm start;
* ``cold``: a cell not yet asked for, under the persistent store (a
  key of its own): a cold run plus a cache write;
* ``stats``: the server's statistics document.

The tier sequence of every connection is therefore a function of the
seed alone.  With most requests answered from memory, the hot path
(decode, parse, ``cache_key``, ``HotTier``, ``outcome_row``, encode)
dominates; a front-end, digest, report or wire gain shows here.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import cells
import check
from common import (
    SETUP_REPS,
    BenchError,
    child_env,
    latency_metrics,
    make_tmp,
    median,
    proc_peak_rss_mb,
)
from pace import (
    BLOCK_RUNS,
    HostPace,
    kernel_row,
    kernel_seconds,
    op_medians,
    scaled_call,
)

CONNECTIONS = 2
#: One analysis worker thread.  With two, the server races: the intern
#: pool's check-then-insert (``repro.util.intern.intern``) can hand a
#: thread a non-canonical node, which fails the pointer-identity warm-start
#: gate, and ``FixpointCache.latest_for`` iterates the index without the
#: cache lock while the other worker's ``put`` grows it.  Either turns a
#: scheduled answer into a wrong tier or an error.  Under the GIL a second
#: worker buys little beyond overlapping socket I/O.
WORKERS = 1
TRANSITIONS = ("generic", "fused")
HOT_ENTRIES = 64
HOT_CELLS = 4
DISK_CELLS = 72
#: Serve cells are the catalogue's cheaper ones (an evaluation count,
#: like every cell choice): a server answers many requests per second.
SERVE_EVAL_LIMIT = 400
COLD_EVAL_LIMIT = 150
#: Request mix (weights per schedule slot; a warm slot is two requests).
#: The median lies in the hot band and the 90th percentile well inside
#: the disk band.  Cold and warm requests run once each, so no median of
#: repeats steadies them (:func:`pace.op_medians`); they are kept to a
#: few per cent of the requests.
MIX = (("hot", 60), ("disk", 36), ("cold", 2), ("warm", 1), ("stats", 1))
#: Untimed warm-up requests per connection, then at most this many more.
WARMUP_OPS = 100
MAX_OPS = 20_000
#: Timed requests per connection at the least, so every disk cell comes
#: round about ``MIN_REPEATS`` times whatever the host's speed.
MIN_OPS = 600


def pools(expected: dict) -> dict:
    """The fixed (seed-independent) cell pools, shared by both connections."""
    catalogue = sorted(cells.catalogue(expected), key=lambda cell: cell["id"])
    evals = {cid: entry["evaluations"] for cid, entry in expected["cells"].items()}
    serveable = [c for c in catalogue if evals[c["id"]] <= SERVE_EVAL_LIMIT]
    spread = random.Random(0)  # a fixed draw: the pools never depend on the seed
    spread.shuffle(serveable)
    hot = serveable[:HOT_CELLS]
    disk = serveable[HOT_CELLS : HOT_CELLS + DISK_CELLS]
    cold = [c for c in catalogue if evals[c["id"]] <= COLD_EVAL_LIMIT]
    spread.shuffle(cold)
    warm = {cell["id"]: cell for cell in cells.warm_cells()}
    for cell_id, entry in expected["warm"].items():
        warm[cell_id]["expected"] = entry["expected"]
    return {"hot": hot, "disk": disk, "cold": cold, "warm": warm}


def request(cell: dict, transition: str, method: str = "analyse", **extra) -> dict:
    overrides = dict(cell["overrides"], transition=transition, **extra)
    return {
        "method": method,
        "cell": cell["id"],
        "params": {
            "language": cell["language"],
            "source": cell["source"],
            "preset": "1cfa",
            "overrides": overrides,
        },
        "expected": cell["expected"],
    }


def schedule(pool: dict, connection: int, seed: int) -> list[dict]:
    """One connection's request sequence (tier predicted per request)."""
    rng = random.Random(seed * 1000 + connection)
    transition = TRANSITIONS[connection]
    names = [name for name, _weight in MIX]
    weights = [weight for _name, weight in MIX]
    out: list[dict] = []
    hot_at = disk_at = cold_at = 0
    warm_at = 0
    while len(out) < MAX_OPS:
        kind = rng.choices(names, weights)[0]
        if kind == "cold" and cold_at >= len(pool["cold"]):
            kind = "hot"
        if kind == "warm" and warm_at >= len(cells.WARM_SIZES):
            kind = "hot"
        if kind == "hot":
            cell = pool["hot"][hot_at % len(pool["hot"])]
            hot_at += 1
            out.append(dict(request(cell, transition), tier="hot"))
        elif kind == "disk":
            cell = pool["disk"][disk_at % len(pool["disk"])]
            disk_at += 1
            out.append(dict(request(cell, transition), tier="disk"))
        elif kind == "cold":
            cell = pool["cold"][cold_at]
            cold_at += 1
            out.append(
                dict(request(cell, transition, store_impl="persistent"), tier="cold")
            )
        elif kind == "warm":
            n = cells.WARM_SIZES[warm_at]
            warm_at += 1
            base = pool["warm"][f"warm:id_chain:{n}"]
            edited = pool["warm"][f"warm:id_chain_edited:{n}"]
            out.append(dict(request(base, transition), tier="cold"))
            out.append(dict(request(edited, transition, "reanalyse"), tier="warm"))
        else:
            out.append({"method": "stats", "params": {}, "tier": None, "cell": None})
    for op in out:
        op["key"] = (connection, op["method"], op["cell"], op["tier"])
    return out


def priming(pool: dict, connection: int) -> list[dict]:
    """Requests that fill the disk tier: every disk cell, then the hot ones."""
    transition = TRANSITIONS[connection]
    return [
        dict(request(cell, transition), tier="cold")
        for cell in pool["disk"] + pool["hot"]
    ]


def verify(op: dict, row: dict) -> bool:
    """Tier as scheduled and output as expected (stats: well-formed)."""
    if op["method"] == "stats":
        return isinstance(row, dict) and "requests" in row
    expected = op["expected"]
    return row.get("tier") == op["tier"] and check.row_digest(
        row, expected["flows_sha"]
    ) == expected


class Server:
    """``repro serve`` as a child process, with its cache in the checkout."""

    def __init__(self, seed: int) -> None:
        from repro.serve.client import ServeClient

        self.cache_dir = make_tmp("serve-cache-")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                self.cache_dir,
                "--hot-entries",
                str(HOT_ENTRIES),
                "--workers",
                str(WORKERS),
            ],
            env=child_env(seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.close()
            raise BenchError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.clients = [ServeClient(port=self.port) for _ in range(CONNECTIONS)]

    def call(self, connection: int, op: dict):
        return self.clients[connection].call(op["method"], op["params"])

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        try:
            if self.proc.poll() is None and getattr(self, "clients", None):
                self.clients[0].call("shutdown")
        except (OSError, ConnectionError):
            pass
        for client in getattr(self, "clients", []):
            client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def drive(
    server: Server,
    per_connection: list[list[dict]],
    deadline: float,
    min_ops: int = 0,
    pace: HostPace | None = None,
) -> list[list]:
    """One closed loop over the connections in turn, until ``deadline``
    and at least ``min_ops`` requests per connection.

    Request ``i`` of connection 0, then request ``i`` of connection 1,
    each sent when the previous reply is in: a request never queues
    behind the other connection's (with one server worker it would wait
    out the other's service time, a share that depends on how the two
    loops happen to align), and the order the server sees -- so every
    predicted tier -- is the same on every run.  Returns, per
    connection, ``(seconds, ok, op, finished_at)`` per request, the
    seconds scaled by ``pace`` if given.
    """
    results: list[list] = [[] for _ in per_connection]
    for index in range(min(len(ops) for ops in per_connection)):
        for connection, ops in enumerate(per_connection):
            op = ops[index]
            started = time.perf_counter()
            try:
                row = server.call(connection, op)
            except Exception:  # a typed error or a dead connection: a failed op
                row = None
            elapsed = time.perf_counter() - started
            finished = time.perf_counter()
            if pace is not None:
                elapsed = pace.scale(elapsed)
            ok = row is not None and verify(op, row)
            results[connection].append((elapsed, ok, op, finished))
        if index + 1 >= min_ops and time.perf_counter() >= deadline:
            break
    return results


def setup(seed: int, pool: dict, schedules: list[list[dict]]):
    """Start a server, fill its disk tier, run the warm-up requests."""
    server = Server(seed)
    try:
        primed = drive(
            server,
            [priming(pool, c) for c in range(CONNECTIONS)],
            float("inf"),
        )
        warmup = drive(
            server, [ops[:WARMUP_OPS] for ops in schedules], float("inf")
        )
    except BaseException:
        server.close()
        raise
    failures = sum(not ok for batch in primed + warmup for _s, ok, _op, _t in batch)
    return server, failures


def import_client() -> None:
    import repro.serve.client  # noqa: F401  (imports are part of setup)


def run(seed: int, seconds: float, trace: bool) -> dict:
    _none, import_s = scaled_call(import_client)
    expected = check.load_expected()
    pool = pools(expected)
    schedules = [schedule(pool, c, seed) for c in range(CONNECTIONS)]
    if trace:
        return traced(seed, seconds, pool, schedules)
    reps = []
    setup_failures = 0
    server = None
    for rep in range(SETUP_REPS):
        (server, failures), rep_s = scaled_call(lambda: setup(seed, pool, schedules))
        reps.append(rep_s)
        setup_failures += failures
        if rep < SETUP_REPS - 1:
            server.close()
    try:
        phase_started = time.perf_counter()
        results = drive(
            server,
            [ops[WARMUP_OPS:] for ops in schedules],
            phase_started + seconds,
            MIN_OPS,
            HostPace(),
        )
        peak = server.peak_rss_mb()
    finally:
        server.close()
    samples = op_medians(
        [(op["key"], elapsed) for batch in results for elapsed, _ok, op, _t in batch]
    )
    failed = sum(not ok for batch in results for _s, ok, _op, _t in batch)
    metrics = {"setup_s": (import_s + median(reps), "s")}
    metrics.update(latency_metrics(samples, sum(samples)))
    metrics["peak_rss_mb"] = (peak, "MB")
    return {
        "correct": failed == 0 and setup_failures == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }


#: Traced runs count work over this many scheduled requests per
#: connection (after the warm-up), so the counts repeat for a seed.
COUNT_OPS = 300


def plain_request(line: bytes, cache, hot, wire: bool = True) -> tuple[dict, str]:
    """The untraced in-process twin of :func:`layers.traced_request`."""
    from repro.serve.protocol import decode_request, encode, result_response
    from repro.service.jobs import dispatch, normalize_job, outcome_row

    request = decode_request(line) if wire else json.loads(line)
    params = request["params"]
    job = normalize_job(
        params["language"],
        source=params.get("source"),
        preset=params.get("preset"),
        overrides=params.get("overrides"),
    )
    outcome = dispatch(
        job=job, cache=cache, hot=hot, allow_warm=request["method"] == "reanalyse"
    )
    row = outcome_row(outcome)
    if wire:
        encode(result_response(request["id"], row))
    return row, outcome.tier


def interleaved(schedules: list[list[dict]]) -> list[tuple[int, dict]]:
    """The schedules' analysis requests, alternating connections."""
    out = []
    for index in range(min(len(ops) for ops in schedules)):
        for connection, ops in enumerate(schedules):
            if ops[index]["method"] != "stats":
                out.append((connection, ops[index]))
    return out


def replay(pool, schedules, spans=None, counts=None):
    """Prime, warm up, then replay a fixed request prefix in-process.

    Single-threaded, alternating the connections' schedules (one of the
    interleavings the server may see, so every predicted tier holds).
    With ``spans`` every request is traced; without, the untraced
    :func:`plain_request` serves.  The replayed prefix is the first
    :data:`COUNT_OPS` requests per connection after the warm-up, so the
    counts repeat for a seed.  Returns ``(ops, busy_s, failed,
    count_rows)``.
    """
    from layers import Spans, tier_rows, traced_request
    from repro.service.cache import FixpointCache
    from repro.service.jobs import HotTier

    cache = FixpointCache(root=make_tmp("replay-cache-"))
    hot = HotTier(max_entries=HOT_ENTRIES)
    scratch = Spans()
    failed = 0
    primed = [priming(pool, c) for c in range(CONNECTIONS)]
    warmup = interleaved([ops[:WARMUP_OPS] for ops in schedules])
    for op in [op for pair in zip(*primed) for op in pair] + [op for _c, op in warmup]:
        row, _tier, _stats = traced_request(scratch, request_line(op, 0), cache, hot)
        failed += not verify(op, row)
    hits, misses = cache.hits, cache.misses
    prefix = interleaved([ops[WARMUP_OPS : WARMUP_OPS + COUNT_OPS] for ops in schedules])
    tiers: dict = {}
    busy = 0.0
    for position, (_connection, op) in enumerate(prefix):
        line = request_line(op, position + 1)
        started = time.perf_counter()
        if spans is None:
            row, tier = plain_request(line, cache, hot)
            stats: dict = {}
        else:
            with spans.op("serve"):
                row, tier, stats = traced_request(spans, line, cache, hot)
        busy += time.perf_counter() - started
        failed += not verify(op, row)
        tiers[tier] = tiers.get(tier, 0) + 1
        if counts is not None and tier in ("cold", "warm"):
            counts.add(stats, row)
    rows = tier_rows(tiers, cache.hits - hits, cache.misses - misses)
    return len(prefix), busy, failed, rows


def traced(seed: int, seconds: float, pool: dict, schedules: list) -> dict:
    """Per-layer rows: the real server's split of round-trip time, then
    untraced and traced in-process replays of the same request prefix."""
    from common import percentile_ms
    from layers import CoreCounts, Spans, intern_delta
    from probe import probe_rows
    from repro.obs.metrics import Histogram

    kernel = [kernel_seconds(BLOCK_RUNS)]
    server, failed = setup(seed, pool, schedules)
    try:
        started = time.perf_counter()
        results = drive(
            server, [ops[WARMUP_OPS:] for ops in schedules], started + seconds / 2
        )
        stats = server.call(0, {"method": "stats", "params": {}})
    finally:
        server.close()
    failed += sum(not ok for batch in results for _s, ok, _op, _t in batch)
    # the server keeps its latest MAX_SAMPLES latencies per method: match
    # them with the client's latest analyse round trips
    analyse = sorted(
        (finished, elapsed)
        for batch in results
        for elapsed, _ok, op, finished in batch
        if op["method"] == "analyse"
    )[-Histogram.MAX_SAMPLES :]
    roundtrip = percentile_ms([elapsed for _t, elapsed in analyse], 0.5)
    server_ms = stats["latency"]["analyse"]["p50"] * 1e3
    # a first, discarded replay interns every node the prefix needs (the
    # intern rows count them), so the untraced and traced replays after
    # it start equally warm
    intern_rows: dict = {}
    with intern_delta(intern_rows):
        first_ops, _busy, first_failed, _rows = replay(pool, schedules)
    plain_ops, plain_busy, plain_failed, _rows = replay(pool, schedules)
    spans = Spans()
    counts = CoreCounts()
    ops, busy, traced_failed, count_rows = replay(pool, schedules, spans, counts)
    failed += first_failed + plain_failed + traced_failed
    layer_rows, _ops, reconciled = spans.reconcile()
    valid = spans.write_and_validate(os.path.join(make_tmp("trace-"), "serve.json"))
    metrics = probe_rows(child_env(seed))
    metrics.update(layer_rows)
    metrics.update(counts.rows())
    metrics.update(count_rows)
    metrics.update(intern_rows)
    kernel.append(kernel_seconds(BLOCK_RUNS))
    metrics.update(kernel_row(kernel))
    metrics["serve.roundtrip_ms"] = (roundtrip, "ms")
    metrics["serve.server_ms"] = (server_ms, "ms")
    metrics["serve.wire_ms"] = (roundtrip - server_ms, "ms")
    metrics["trace.overhead_ratio"] = ((plain_ops / plain_busy) / (ops / busy), "ratio")
    attempted = sum(len(batch) for batch in results) + first_ops + plain_ops + ops
    return {
        "correct": failed == 0 and reconciled and valid,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def request_line(op: dict, request_id: int) -> bytes:
    return (
        json.dumps({"id": request_id, "method": op["method"], "params": op["params"]})
        + "\n"
    ).encode()
