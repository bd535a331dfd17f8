"""The resident analysis server: equality, concurrency, faults, counters.

The acceptance contract this file pins, end to end over a real socket:

* **Tier-blind content** -- for every preset x language matrix cell, the
  ``analyse`` response's analysis content (states, store, flows,
  precision, content address) is byte-identical to a cold in-process
  ``assemble(config).run(program)`` of the same cell, whichever tier
  (cold run, disk cache, hot LRU, warm start) served it.
* **Soak** -- overlapping mixed ``analyse``/``reanalyse`` traffic from
  several client threads produces only correct responses: no stale
  reads from the hot tier, no cross-request bleed, counters that add up.
* **Eviction is never staleness** -- with a one-entry hot tier, an
  evicted cell falls through to the disk tier (or a cold run) and still
  serves identical content.
* **Faults are visible, counted fallbacks** -- a dying worker job, a
  corrupt on-disk cache payload, an exhausted admission queue, and a
  timed-out request each produce a typed error response or a correct
  degraded answer, never a hang or a silently wrong result.
* **One counter source** -- the server's ``stats`` and its batch
  reports read the same ``FixpointCache`` counters, and those counters
  accumulate across server lifetimes via the index document (the
  process-local-stats regression).
"""

import json
import threading
import time

import pytest
import serve_helpers
from serve_helpers import CELLS, cell_params, content_bytes

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ServerHandle
from repro.service.cache import FixpointCache


@pytest.fixture(scope="module")
def cold_rows():
    """The cold in-process reference content for every matrix cell."""
    return {cell: serve_helpers.cold_row(*cell) for cell in CELLS}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One resident server over a fresh cache, shared by the sweep tests."""
    with ServerHandle(
        cache_dir=str(tmp_path_factory.mktemp("servecache")), workers=3
    ) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


class TestMatrixEquality:
    """Server responses == cold assemble(), across the whole matrix."""

    def test_cold_sweep_matches_cold_assemble(self, client, cold_rows):
        seen_keys: set[str] = set()
        for cell in CELLS:
            row = client.call("analyse", cell_params(*cell))
            # presets that differ only in a field the cache key ignores
            # (the label) would share a content address: the first cell
            # per key computes cold, any later one legitimately hits
            if row["key"] not in seen_keys:
                assert row["cache"] == "miss", cell
                seen_keys.add(row["key"])
            assert content_bytes(row) == content_bytes(cold_rows[cell]), cell

    def test_hot_sweep_identical_and_all_hot(self, client, cold_rows):
        """The second identical sweep is served entirely from memory --
        and is byte-identical anyway."""
        for cell in CELLS:
            row = client.call("analyse", cell_params(*cell))
            assert row["cache"] == "hit" and row["tier"] == "hot", cell
            assert row["evaluations"] == 0, cell
            assert content_bytes(row) == content_bytes(cold_rows[cell]), cell

    def test_reanalyse_sweep_identical(self, client, cold_rows):
        """reanalyse differs from analyse only in enabling the warm tier;
        on digest hits they are indistinguishable."""
        for cell in CELLS:
            row = client.call("reanalyse", cell_params(*cell))
            assert row["cache"] == "hit", cell
            assert content_bytes(row) == content_bytes(cold_rows[cell]), cell

    def test_batch_method_matches_cold(self, client, cold_rows):
        report = client.call(
            "batch",
            {
                "jobs": [cell_params(*cell) for cell in CELLS],
                "include_flows": True,  # flows ride at the report level
            },
        )
        assert report["schema"] == "batch-report/1"
        assert len(report["jobs"]) == len(CELLS)
        for row, cell in zip(report["jobs"], CELLS):
            assert content_bytes(row) == content_bytes(cold_rows[cell]), cell


class TestSoak:
    """Overlapping mixed traffic from threads: correct, complete, counted."""

    THREADS = 4
    ROUNDS = 2

    def test_concurrent_mixed_sweep(self, tmp_path, cold_rows):
        """Each thread sweeps the matrix (rotated, so threads collide on
        different cells at different times) with alternating
        analyse/reanalyse; every response must carry the cold content.
        The server starts cold, so early requests race each other into
        the cache -- the writer-lock / idempotent-put path under test."""
        failures: list[str] = []
        totals: list[int] = []

        def sweep(index: int, port: int) -> None:
            served = 0
            try:
                with ServeClient(port=port) as mine:
                    for round_no in range(self.ROUNDS):
                        cells = CELLS[index:] + CELLS[:index]
                        for offset, cell in enumerate(cells):
                            method = (
                                "reanalyse"
                                if (index + round_no + offset) % 2
                                else "analyse"
                            )
                            row = mine.call(method, cell_params(*cell))
                            if content_bytes(row) != content_bytes(cold_rows[cell]):
                                failures.append(f"{method} {cell} diverged")
                            served += 1
            except Exception as error:  # surface in the main thread
                failures.append(f"thread {index}: {type(error).__name__}: {error}")
            totals.append(served)

        with ServerHandle(cache_dir=str(tmp_path / "cache"), workers=3) as handle:
            threads = [
                threading.Thread(target=sweep, args=(index, handle.port))
                for index in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
            assert not failures, failures[:5]
            expected = self.THREADS * self.ROUNDS * len(CELLS)
            assert sum(totals) == expected
            with ServeClient(port=handle.port) as client:
                stats = client.call("stats")
            assert (
                stats["requests"].get("analyse", 0)
                + stats["requests"].get("reanalyse", 0)
                == expected
            )
            # every analysis request was answered by exactly one tier
            assert sum(stats["tiers"].values()) == expected
            assert stats["errors"] == {}


class TestHotTierEviction:
    """An evicted hot entry falls through, never serves stale content."""

    def test_evicted_cell_reloads_identically(self, tmp_path, cold_rows):
        cell_a, cell_b = ("1cfa", "cps"), ("0cfa", "lam")
        with ServerHandle(
            cache_dir=str(tmp_path / "cache"), workers=1, hot_entries=1
        ) as handle:
            with ServeClient(port=handle.port) as client:
                first = client.call("analyse", cell_params(*cell_a))
                assert first["tier"] == "cold"
                other = client.call("analyse", cell_params(*cell_b))
                assert other["tier"] == "cold"  # and it evicted cell_a
                again = client.call("analyse", cell_params(*cell_a))
                # hot tier lost it; the disk tier serves the same bytes
                assert again["tier"] == "disk" and again["cache"] == "hit"
                assert content_bytes(again) == content_bytes(cold_rows[cell_a])
                third = client.call("analyse", cell_params(*cell_a))
                assert third["tier"] == "hot"  # the disk hit re-promoted it
                assert content_bytes(third) == content_bytes(cold_rows[cell_a])
                stats = client.call("stats")
                assert stats["hot"]["evictions"] >= 2
                assert stats["hot"]["max_entries"] == 1

    def test_memory_only_server_recomputes_after_eviction(self, cold_rows):
        """No disk tier at all: eviction falls through to a cold run."""
        cell_a, cell_b = ("0cfa", "cps"), ("0cfa", "lam")
        with ServerHandle(workers=1, hot_entries=1) as handle:
            with ServeClient(port=handle.port) as client:
                assert client.call("analyse", cell_params(*cell_a))["tier"] == "cold"
                assert client.call("analyse", cell_params(*cell_b))["tier"] == "cold"
                again = client.call("analyse", cell_params(*cell_a))
                assert again["tier"] == "cold"  # recomputed, not stale
                assert content_bytes(again) == content_bytes(cold_rows[cell_a])


class TestCounterSource:
    """stats and batch reports read one counter source; it persists."""

    def test_batch_report_and_stats_share_cache_counters(self, tmp_path):
        jobs = [cell_params("1cfa", "cps"), cell_params("0cfa", "lam")]
        with ServerHandle(cache_dir=str(tmp_path / "cache"), workers=1) as handle:
            with ServeClient(port=handle.port) as client:
                report = client.call("batch", {"jobs": jobs})
                stats = client.call("stats")
        # the report's cache block and the stats method counted the same
        # two misses/stores on the same FixpointCache instance
        assert report["cache"]["misses"] == 2
        assert report["cache"]["stores"] == 2
        assert stats["cache"]["misses"] == report["cache"]["misses"]
        assert stats["cache"]["stores"] == report["cache"]["stores"]
        assert stats["cache"]["lifetime"] == report["cache"]["lifetime"]

    def test_lifetime_counters_survive_server_restart(self, tmp_path):
        """The process-local-stats regression: a second server (or CLI)
        over the same cache directory starts from the persisted lifetime
        counters instead of zero."""
        cache_dir = str(tmp_path / "cache")
        params = cell_params("1cfa", "cps")
        with ServerHandle(cache_dir=cache_dir, workers=1) as handle:
            with ServeClient(port=handle.port) as client:
                assert client.call("analyse", params)["cache"] == "miss"
                assert client.call("analyse", params)["cache"] == "hit"
                # hot tier answered the repeat: no disk hit yet
                first_life = client.call("stats")["cache"]["lifetime"]
                client.call("shutdown")
        assert first_life["misses"] == 1 and first_life["stores"] == 1

        with ServerHandle(cache_dir=cache_dir, workers=1) as handle:
            with ServeClient(port=handle.port) as client:
                row = client.call("analyse", params)
                # fresh process: hot tier empty, disk tier warm
                assert row["cache"] == "hit" and row["tier"] == "disk"
                stats = client.call("stats")
                # session counters reset with the process...
                assert stats["cache"]["hits"] == 1 and stats["cache"]["stores"] == 0
                # ...lifetime counters kept accumulating across it
                assert stats["cache"]["lifetime"]["stores"] == 1
                assert stats["cache"]["lifetime"]["misses"] == 1
                assert stats["cache"]["lifetime"]["hits"] == first_life["hits"] + 1
                client.call("shutdown")

    def test_flushed_stats_visible_to_fresh_cache_instance(self, tmp_path):
        """Below the server: the FixpointCache itself persists lifetime
        counters on flush, so hit-only sessions leave a trace."""
        root = tmp_path / "cache"
        params = cell_params("0cfa", "cps")
        with ServerHandle(cache_dir=str(root), workers=1) as handle:
            with ServeClient(port=handle.port) as client:
                client.call("analyse", params)
                client.call("shutdown")
        reader = FixpointCache(root=root)
        assert reader.stats()["hits"] == 0  # this instance did nothing yet
        assert reader.stats()["lifetime"]["stores"] == 1


class TestFaultInjection:
    """Each fault: a typed, counted, visible outcome -- never a hang."""

    def test_worker_death_is_typed_error_and_server_survives(
        self, tmp_path, cold_rows
    ):
        cell = ("1cfa", "cps")
        with ServerHandle(cache_dir=str(tmp_path / "cache"), workers=1) as handle:
            with ServeClient(port=handle.port) as client:
                with pytest.MonkeyPatch.context() as patch:

                    def die(*args, **kwargs):
                        raise RuntimeError("worker died mid-request")

                    patch.setattr("repro.serve.server.dispatch", die)
                    with pytest.raises(ServeError) as caught:
                        client.call("analyse", cell_params(*cell))
                    assert caught.value.name == "analysis-error"
                    assert caught.value.code == -32000
                    assert "worker died mid-request" in str(caught.value)
                # the patch is gone; the same server answers correctly
                row = client.call("analyse", cell_params(*cell))
                assert content_bytes(row) == content_bytes(cold_rows[cell])
                stats = client.call("stats")
                assert stats["errors"]["analysis-error"] == 1

    def test_corrupt_disk_payload_falls_back_to_cold(self, tmp_path, cold_rows):
        """A corrupted object file behind a valid index entry: the disk
        tier reports a miss (counted), the cell recomputes cold, and the
        response content is still exactly right."""
        cell = ("1cfa", "cps")
        other = ("0cfa", "lam")
        cache_dir = tmp_path / "cache"
        with ServerHandle(
            cache_dir=str(cache_dir), workers=1, hot_entries=1
        ) as handle:
            with ServeClient(port=handle.port) as client:
                first = client.call("analyse", cell_params(*cell))
                assert first["tier"] == "cold"
                client.call("analyse", cell_params(*other))  # evict from hot
                # corrupt the stored payload behind the server's back
                payload = cache_dir / "objects" / f"{first['key']}.pkl"
                assert payload.exists()
                payload.write_bytes(b"not a pickle")
                row = client.call("analyse", cell_params(*cell))
                assert row["tier"] == "cold" and row["cache"] == "miss"
                assert content_bytes(row) == content_bytes(cold_rows[cell])
                stats = client.call("stats")
                # the fallback is visible: a counted disk miss, no error
                assert stats["cache"]["misses"] >= 3
                assert stats["errors"] == {}

    def test_queue_exhaustion_is_immediate_typed_error(self, tmp_path):
        release = threading.Event()
        entered = threading.Event()
        from repro.service import jobs as jobs_module

        real_dispatch = jobs_module.dispatch
        blocked_once = []

        def slow_dispatch(*args, **kwargs):
            if not blocked_once:
                blocked_once.append(True)
                entered.set()
                assert release.wait(timeout=60), "test never released the worker"
            return real_dispatch(*args, **kwargs)

        with ServerHandle(
            cache_dir=str(tmp_path / "cache"), workers=1, queue_limit=1
        ) as handle:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("repro.serve.server.dispatch", slow_dispatch)
                slow_result: list = []

                def occupy():
                    with ServeClient(port=handle.port) as mine:
                        slow_result.append(mine.call("analyse", cell_params("1cfa", "cps")))

                occupier = threading.Thread(target=occupy)
                occupier.start()
                assert entered.wait(timeout=60), "first request never admitted"
                with ServeClient(port=handle.port) as client:
                    with pytest.raises(ServeError) as caught:
                        client.call("analyse", cell_params("0cfa", "lam"))
                    assert caught.value.name == "queue-full"
                    assert caught.value.code == -32002
                    release.set()
                    occupier.join(timeout=60)
                    assert slow_result and slow_result[0]["states"] > 0
                    stats = client.call("stats")
                    assert stats["errors"]["queue-full"] == 1

    def test_timeout_orphan_releases_and_counts_nothing(self, tmp_path, cold_rows):
        """A timed-out request: typed error now, slot released when the
        orphaned job actually ends, tier counters untouched by it."""
        release = threading.Event()
        from repro.service import jobs as jobs_module

        real_dispatch = jobs_module.dispatch
        blocked_once = []

        def slow_dispatch(*args, **kwargs):
            if not blocked_once:
                blocked_once.append(True)
                assert release.wait(timeout=60), "test never released the worker"
            return real_dispatch(*args, **kwargs)

        cell = ("1cfa", "cps")
        with ServerHandle(cache_dir=str(tmp_path / "cache"), workers=1) as handle:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("repro.serve.server.dispatch", slow_dispatch)
                with ServeClient(port=handle.port) as client:
                    params = dict(cell_params(*cell), timeout=0.05)
                    with pytest.raises(ServeError) as caught:
                        client.call("analyse", params)
                    assert caught.value.name == "timeout"
                    assert caught.value.code == -32001
                    release.set()
                    # wait for the orphaned job to finish and free its slot
                    deadline = time.monotonic() + 60
                    while handle.server._inflight and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert handle.server._inflight == 0
                    stats = client.call("stats")
                    assert stats["errors"]["timeout"] == 1
                    # the orphan never reached the tier counters
                    assert stats["tiers"] == {}
                    # and the server still answers the same cell correctly
                    row = client.call("analyse", cell_params(*cell))
                    assert content_bytes(row) == content_bytes(cold_rows[cell])


class TestProtocolDiscipline:
    """Cross-cutting wire behavior not pinned byte-for-byte in goldens."""

    def test_malformed_line_gets_error_response_not_disconnect(self, server):
        with serve_helpers.RawConnection(server.port) as raw:
            response = raw.exchange("this is not json")
            assert response["error"]["name"] == "parse-error"
            assert response["id"] is None
            # the connection survived; a real request still works
            pong = raw.exchange(json.dumps({"id": 7, "method": "ping"}))
            assert pong == {"id": 7, "result": {"pong": True}}

    def test_responses_correlate_by_id(self, server):
        with serve_helpers.RawConnection(server.port) as raw:
            for request_id in ("alpha", 42):
                response = raw.exchange(
                    json.dumps({"id": request_id, "method": "ping"})
                )
                assert response["id"] == request_id

    def test_request_past_asyncio_default_limit_is_served(self, server):
        # 200 KB: over asyncio's 64 KiB line default, well under the cap
        pad = "x" * 200_000
        with serve_helpers.RawConnection(server.port) as raw:
            response = raw.exchange(
                json.dumps({"id": 3, "method": "ping", "params": {"pad": pad}})
            )
        assert response == {"id": 3, "result": {"pong": True}}

    def test_oversized_request_gets_typed_error_then_server_answers(self):
        import socket

        from repro.serve.server import MAX_REQUEST_BYTES

        pad = "x" * (MAX_REQUEST_BYTES + 1)
        line = json.dumps({"id": 1, "method": "ping", "params": {"pad": pad}})
        with ServerHandle(workers=1) as handle:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=60) as sock:
                try:
                    sock.sendall(line.encode() + b"\n")
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the server stopped reading at the cap and closed
                with sock.makefile("rb") as stream:
                    response = json.loads(stream.readline())
                    try:
                        rest = stream.readline()
                    except ConnectionResetError:
                        rest = b""  # closed with the line's tail unread
                    assert rest == b""  # only that connection was closed
            assert response["id"] is None
            assert response["error"]["name"] == "request-too-large"
            assert response["error"]["code"] == -32004
            with ServeClient(port=handle.port) as fresh:
                assert fresh.call("ping") == {"pong": True}
                stats = fresh.call("stats")
            assert stats["errors"] == {"request-too-large": 1}
            assert stats["requests"]["invalid"] == 1

    def test_unknown_params_rejected(self, client):
        with pytest.raises(ServeError) as caught:
            client.call("analyse", dict(cell_params("1cfa", "cps"), wat=1))
        assert caught.value.name == "invalid-params"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("quantum", True),
            ("parallelism", "sharded"),
            ("shards", 4),
            ("schedule", "fifo"),
            ("schedule", "priority"),
        ],
    )
    def test_bad_override_rejected(self, client, field, value):
        with pytest.raises(ServeError) as caught:
            client.call(
                "analyse",
                {
                    "language": "cps",
                    "corpus": "mj09",
                    "overrides": {field: value},
                },
            )
        assert caught.value.name == "invalid-params"
        assert field in str(caught.value)

    def test_imp_source_lowers_to_lam(self, client):
        row = client.call(
            "analyse",
            {
                "language": "imp",
                "source": "let x = 1; let y = x; return y;",
                "preset": "1cfa",
            },
        )
        assert row["language"] == "lam"
        assert row["states"] > 0


def _parse_prometheus(text: str) -> dict:
    """Prometheus exposition text -> {(name, frozen labels): value}."""
    parsed = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        metric, value = line.rsplit(" ", 1)
        if "{" in metric:
            name, body = metric[:-1].split("{", 1)
            labels = frozenset(
                tuple(pair.split("=", 1)) for pair in body.split('",') if pair
            )
            labels = frozenset((k, v.strip('"')) for k, v in labels)
        else:
            name, labels = metric, frozenset()
        parsed[(name, labels)] = float(value)
    return parsed


class TestObservability:
    """The metrics method reconciles with stats; tracing rides requests."""

    def test_metrics_reconciles_with_stats(self, tmp_path):
        with ServerHandle(cache_dir=str(tmp_path / "cache"), workers=2) as handle:
            with ServeClient(port=handle.port) as client:
                client.call("ping", {})
                client.call("analyse", cell_params("1cfa", "cps"))
                client.call("analyse", cell_params("1cfa", "cps"))
                with pytest.raises(ServeError):
                    client.call("analyse", {"language": "cps", "corpus": "mj09",
                                            "preset": "no-such-preset"})
                stats = client.call("stats", {})
                prom = _parse_prometheus(
                    client.call("metrics", {})["prometheus"]
                )
        # the metrics request itself was counted at receipt, after the
        # stats snapshot -- every other counter must match exactly
        for method, count in stats["requests"].items():
            expected = count + (1 if method == "metrics" else 0)
            key = ("serve_requests_total", frozenset({("method", method)}))
            assert prom[key] == expected, method
        assert prom[("serve_requests_total",
                     frozenset({("method", "metrics")}))] == 1
        for tier, count in stats["tiers"].items():
            key = ("serve_tier_total", frozenset({("tier", tier)}))
            assert prom[key] == count, tier
        for name, count in stats["errors"].items():
            key = ("serve_errors_total", frozenset({("error", name)}))
            assert prom[key] == count, name
        assert prom[("serve_work_evaluations_total", frozenset())] == (
            stats["work"]["evaluations"]
        )
        # latency summaries exist for every method that completed
        for method, cell in stats["latency"].items():
            key = ("serve_latency_seconds_count", frozenset({("method", method)}))
            assert prom[key] == cell["count"], method

    def test_request_trace_field_returns_events(self, tmp_path):
        with ServerHandle(cache_dir=str(tmp_path / "cache"), workers=2) as handle:
            with ServeClient(port=handle.port) as client:
                plain = client.call("analyse", cell_params("1cfa", "lam"))
                traced = client.call(
                    "analyse", dict(cell_params("1cfa", "lam"), trace=True)
                )
        assert "trace" not in plain
        names = [event["name"] for event in traced["trace"]]
        assert "serve.analyse" in names
        # the traced response's analysis content is still byte-identical
        traced.pop("trace")
        assert content_bytes(traced) == content_bytes(plain)

    def test_server_trace_path_written_on_shutdown(self, tmp_path):
        trace_path = tmp_path / "serve-trace.json"
        with ServerHandle(
            cache_dir=str(tmp_path / "cache"),
            workers=2,
            trace_path=str(trace_path),
        ) as handle:
            with ServeClient(port=handle.port) as client:
                client.call("analyse", cell_params("1cfa", "cps"))
        document = json.loads(trace_path.read_text())
        names = [event["name"] for event in document["traceEvents"]]
        assert "serve.analyse" in names
        assert "fixpoint" in names  # engine spans landed in the same trace
