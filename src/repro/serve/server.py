"""The resident analysis server: asyncio front end over the dispatch core.

One process, three layers:

* an **asyncio TCP front end** speaking the newline-delimited JSON
  protocol (:mod:`repro.serve.protocol`), one task per connection,
  responses in request order per connection;
* a **bounded worker pool** (`ThreadPoolExecutor`) running the actual
  analyses -- threads, not processes, because the whole point of
  residency is sharing the warm intern pool and the hot fixpoint tier,
  which live in this process's memory.  Admission is bounded: at most
  ``queue_limit`` requests in flight (queued + running); the excess get
  an immediate ``queue-full`` error instead of unbounded queueing;
* the **shared dispatch core** (:func:`repro.service.jobs.dispatch`):
  every ``analyse``/``reanalyse``/``batch`` request runs the same hot ->
  disk -> warm -> cold tier cascade the batch runner and CLI use, against
  one :class:`~repro.service.jobs.HotTier` and (optionally) one
  :class:`~repro.service.cache.FixpointCache` -- which is also the single
  counter source the ``stats`` method reports from.

Per-request **timeouts** (``timeout`` in params, or the server default)
are enforced with ``asyncio.wait_for``; a timeout of ``0`` fails
deterministically before any work is submitted (the golden protocol
tests pin that shape).  A timed-out worker job is orphaned, not killed
(threads cannot be): it finishes in the background, its admission slot
is released when it actually ends, and -- per the metrics counting
discipline (:mod:`repro.serve.metrics`) -- it contributes nothing to the
tier counters, because the server never answered from it.

**Graceful shutdown** (the ``shutdown`` method, ``SIGINT``, or
:meth:`ServerHandle.close`): stop accepting connections, refuse new work
with ``shutting-down``, drain the worker pool, and flush the cache's
lifetime counters to disk (:meth:`FixpointCache.flush_stats`) so a
hit-only serving session leaves its traffic on record.

Long-run hygiene: the intern pool grows with every distinct program a
resident process parses.  ``intern_limit`` bounds it -- when the pool
exceeds the limit after a request, it is cleared
(:func:`repro.util.intern.maybe_clear_intern_pool`) and the hot tier is
dropped in the same breath, since its entries' canonical-identity fast
path died with the pool.  Correctness is unaffected either way (equality
stays structural); the next requests simply re-warm.

:class:`ServerHandle` hosts a server on a daemon thread with its own
event loop -- the in-process harness the soak tests, the benchmark's
serve-latency row, and CI's server smoke all share.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.obs.trace import NULL_TRACER, Tracer, current_tracer, use_tracer
from repro.serve import protocol
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import ProtocolError, error_response, result_response
from repro.service.cache import FixpointCache
from repro.service.jobs import HotTier, dispatch, normalize_job, outcome_row
from repro.util.intern import intern_stats, maybe_clear_intern_pool

#: Request params understood by analyse/reanalyse (batch job specs allow
#: the same minus the per-request ones).
_ANALYSE_PARAMS = {
    "language",
    "source",
    "corpus",
    "preset",
    "overrides",
    "label",
    "include_flows",
    "timeout",
    "trace",
}
#: Per-request (not per-job) params, stripped before job validation.
_REQUEST_ONLY_PARAMS = {"include_flows", "timeout", "trace"}
_JOB_PARAMS = _ANALYSE_PARAMS - _REQUEST_ONLY_PARAMS

#: Longest request line a connection may send, in bytes.  asyncio's
#: 64 KiB default is smaller than real programs (a 390 KB source is a
#: legitimate request); a longer line is answered ``request-too-large``
#: and its connection closed.
MAX_REQUEST_BYTES = 4 * 1024 * 1024


class AnalysisServer:
    """One resident analysis engine behind one listening socket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str | None = None,
        workers: int = 2,
        queue_limit: int = 32,
        hot_entries: int = 256,
        default_timeout: float | None = None,
        intern_limit: int | None = None,
        trace_path: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("the server needs at least one worker thread")
        if queue_limit < 1:
            raise ValueError("the server needs queue_limit >= 1")
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_limit = queue_limit
        self.default_timeout = default_timeout
        self.intern_limit = intern_limit
        self.cache = FixpointCache(root=cache_dir) if cache_dir else None
        self.hot = HotTier(max_entries=hot_entries)
        self.metrics = ServerMetrics()
        # lifetime tracer behind ``repro serve --trace FILE``: worker
        # threads inherit it through the process-default indirection
        # (see repro.obs.trace); the file is written on graceful stop
        self.trace_path = trace_path
        self.tracer = Tracer(process_name="repro-serve") if trace_path else None
        self._pool: ThreadPoolExecutor | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._stopping = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._connections: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (port 0 picks a free one) and pool."""
        if self.tracer is not None:
            from repro.obs.trace import set_default_tracer

            set_default_tracer(self.tracer)
        self._stop_event = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (meaningful after :meth:`start`)."""
        return self.host, self.port

    def request_stop(self) -> None:
        """Flag shutdown; :meth:`wait_stopped` completes it (thread-safe
        only from the server's own event loop -- cross-thread callers go
        through ``call_soon_threadsafe``, as :class:`ServerHandle` does)."""
        self._stopping = True
        if self._stop_event is not None:
            self._stop_event.set()

    async def wait_stopped(self) -> None:
        """Serve until shutdown is requested, then tear down gracefully."""
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful teardown: close the socket, drain workers, flush stats."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # close lingering connections so their handler tasks end at EOF
        # instead of being cancelled noisily at loop teardown
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        if self._pool is not None:
            # wait=True drains jobs already running; queued-but-unstarted
            # ones are cancelled (their requesters were answered with
            # shutting-down or have timed out already)
            self._pool.shutdown(wait=True, cancel_futures=True)
        if self.cache is not None:
            self.cache.flush_stats()
        if self.tracer is not None:
            from repro.obs.trace import set_default_tracer

            set_default_tracer(NULL_TRACER)
            self.tracer.write(self.trace_path)

    async def serve_forever(self) -> None:
        """The blocking entry ``repro serve`` runs."""
        await self.start()
        await self.wait_stopped()

    # -- the connection loop -----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # the line overran MAX_REQUEST_BYTES: the rest of it is
                    # still in flight, so answer and drop this connection
                    self.metrics.record_request("invalid")
                    response = self._error(
                        None,
                        protocol.REQUEST_TOO_LARGE,
                        f"request line exceeds {MAX_REQUEST_BYTES} bytes",
                    )
                    writer.write(protocol.encode(response))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response, stop_after = await self._respond(line)
                writer.write(protocol.encode(response))
                await writer.drain()
                if stop_after:
                    self.request_stop()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # loop teardown raced this connection's shutdown close
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _respond(self, line: bytes) -> tuple[dict, bool]:
        """One request line to one ``(response, stop_after)`` pair.

        Every outcome is a response: protocol errors, refused admissions,
        timeouts, and analysis failures all come back as typed error
        objects -- a client is never left hanging on a silently dropped
        request, which is the property the fault-injection tests pin.
        """
        try:
            request = protocol.decode_request(line)
        except ProtocolError as error:
            self.metrics.record_request("invalid")
            return self._error(error.request_id, error.code, str(error)), False
        method = request["method"]
        params = request["params"]
        request_id = request["id"]
        self.metrics.record_request(method)
        started = time.perf_counter()

        if method == "ping":
            response = result_response(request_id, {"pong": True})
        elif method == "stats":
            response = result_response(request_id, self._stats())
        elif method == "metrics":
            # the Prometheus twin of stats: same registry, text format,
            # answered loop-side so a scraper never queues behind work
            response = result_response(
                request_id, {"prometheus": self.metrics.prometheus()}
            )
        elif method == "shutdown":
            # answer first, then trip the stop event (the caller's
            # response must reach the wire before the socket closes)
            self.metrics.record_latency(method, time.perf_counter() - started)
            return result_response(request_id, {"stopping": True}), True
        else:
            response = await self._respond_work(method, params, request_id)
        if "error" not in response:
            self.metrics.record_latency(method, time.perf_counter() - started)
        return response, False

    async def _respond_work(self, method: str, params: dict, request_id: Any) -> dict:
        """Admission-control, run, and shape one analyse/reanalyse/batch."""
        if self._stopping:
            return self._error(
                request_id, protocol.SHUTTING_DOWN, "server is shutting down"
            )
        timeout = params.get("timeout", self.default_timeout)
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, (int, float))
        ):
            return self._error(
                request_id, protocol.INVALID_PARAMS, "timeout must be a number"
            )
        if timeout is not None and timeout <= 0:
            # a zero budget times out before any work starts -- also the
            # deterministic timeout shape the golden tests pin
            return self._error(
                request_id, protocol.TIMEOUT, f"request timed out after {timeout}s"
            )
        with self._inflight_lock:
            if self._inflight >= self.queue_limit:
                return self._error(
                    request_id,
                    protocol.QUEUE_FULL,
                    f"worker queue full ({self.queue_limit} requests in flight)",
                )
            self._inflight += 1
        if method == "batch":
            work = functools.partial(self._run_batch, params)
        else:
            work = functools.partial(
                self._run_analyse, params, allow_warm=(method == "reanalyse")
            )
        loop = asyncio.get_running_loop()
        try:
            result, tiers, work_stats = await asyncio.wait_for(
                loop.run_in_executor(self._pool, self._tracked, work), timeout
            )
        except asyncio.TimeoutError:
            # the worker thread cannot be killed: the job is orphaned and
            # will release its admission slot when it actually finishes;
            # per the metrics discipline it never reaches the tier counts
            return self._error(
                request_id, protocol.TIMEOUT, f"request timed out after {timeout}s"
            )
        except (ValueError, KeyError, SyntaxError) as error:
            # bad preset, unknown override, parse failure, malformed job
            return self._error(
                request_id, protocol.INVALID_PARAMS, self._message(error)
            )
        except Exception as error:  # worker death, engine bugs: visible
            return self._error(
                request_id, protocol.ANALYSIS_ERROR, self._message(error)
            )
        for tier in tiers:
            self.metrics.record_tier(tier)
        for stats in work_stats:
            self.metrics.record_work(stats)
        self._bound_intern_pool()
        return result_response(request_id, result)

    def _tracked(self, work: Any) -> Any:
        """Run one worker job, releasing its admission slot when it ends.

        The release lives *in the worker thread*, not on the awaiting
        side: a timed-out request's orphaned job still occupies a worker,
        so it must keep occupying an admission slot until it truly ends.
        """
        try:
            return work()
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _error(self, request_id: Any, code: int, message: str) -> dict:
        self.metrics.record_error(protocol.ERROR_NAMES.get(code, "error"))
        return error_response(request_id, code, message)

    @staticmethod
    def _message(error: BaseException) -> str:
        text = str(error) or type(error).__name__
        return text if isinstance(error, ValueError) else f"{type(error).__name__}: {text}"

    # -- worker-side request bodies -----------------------------------------

    def _job_from(self, spec: dict, allowed: set | None = None):
        allowed = allowed if allowed is not None else _JOB_PARAMS
        unknown = sorted(set(spec) - allowed - _REQUEST_ONLY_PARAMS)
        if unknown:
            raise ValueError(
                f"unknown request param(s) {unknown}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        language = spec.get("language")
        if not isinstance(language, str):
            raise ValueError("request needs a string 'language' (cps|lam|fj|imp)")
        overrides = spec.get("overrides")
        if overrides is not None and not isinstance(overrides, dict):
            raise ValueError("'overrides' must be an object of config fields")
        return normalize_job(
            language,
            source=spec.get("source"),
            corpus=spec.get("corpus"),
            preset=spec.get("preset"),
            overrides=overrides,
            label=spec.get("label", ""),
        )

    def _run_analyse(self, params: dict, allow_warm: bool) -> tuple[dict, list, list]:
        """One job through the shared dispatch cascade (worker thread).

        A truthy ``trace`` param routes this request's spans into a
        fresh per-request tracer whose events come back on the response
        row (additive ``trace`` field) -- the fixed point itself is
        bit-identical, traced or not (pinned corpus-wide by the
        trace-integrity tests).
        """
        job = self._job_from(params)
        request_tracer = Tracer(process_name="repro-serve") if params.get("trace") else None
        with use_tracer(request_tracer) if request_tracer else contextlib.nullcontext():
            method = "reanalyse" if allow_warm else "analyse"
            with current_tracer().span("serve." + method, cat="serve", label=job.label):
                outcome = dispatch(
                    job=job, cache=self.cache, hot=self.hot, allow_warm=allow_warm
                )
        row = outcome_row(outcome, include_flows=bool(params.get("include_flows")))
        if request_tracer is not None:
            row["trace"] = request_tracer.events()
        return row, [outcome.tier], [outcome.stats]

    def _run_batch(self, params: dict) -> tuple[dict, list, list]:
        """A job grid through the same cascade, one report (worker thread).

        Jobs run sequentially *within* the request -- the server's
        concurrency unit is the request, and its worker pool is already
        bounded; nesting a process pool inside a worker thread would
        fight both.  The report reuses the batch-report shape, so
        consumers of ``repro batch --report`` documents can read it.
        """
        specs = params.get("jobs")
        if not isinstance(specs, list) or not specs:
            raise ValueError("batch needs a non-empty 'jobs' list")
        include_flows = bool(params.get("include_flows"))
        request_tracer = Tracer(process_name="repro-serve") if params.get("trace") else None
        started = time.perf_counter()
        outcomes = []
        with use_tracer(request_tracer) if request_tracer else contextlib.nullcontext():
            with current_tracer().span("serve.batch", cat="serve", jobs=len(specs)):
                for spec in specs:
                    if not isinstance(spec, dict):
                        raise ValueError("each batch job must be an object")
                    outcomes.append(
                        dispatch(
                            job=self._job_from(spec), cache=self.cache, hot=self.hot
                        )
                    )
        report = {
            "schema": "batch-report/1",
            "jobs": [
                outcome_row(outcome, include_flows=include_flows)
                for outcome in outcomes
            ],
            "workers": 1,
            "pool_workers": 0,
            "inline_fallbacks": 0,
            "total_seconds": round(time.perf_counter() - started, 6),
            "cache": self.cache.stats() if self.cache is not None else None,
        }
        if request_tracer is not None:
            report["trace"] = request_tracer.events()
        return report, [outcome.tier for outcome in outcomes], [
            outcome.stats for outcome in outcomes
        ]

    # -- observability -------------------------------------------------------

    def _stats(self) -> dict:
        """The ``stats`` method body: one document, one counter source.

        The cache numbers here are the *same* counters a ``BatchReport``
        built over this server's cache would carry (both read
        :meth:`FixpointCache.stats` on the one instance), and
        ``lifetime`` extends them across every process that ever wrote
        the cache directory.
        """
        document = self.metrics.snapshot()
        document.update(
            pid=os.getpid(),
            workers=self.workers,
            queue_limit=self.queue_limit,
            inflight=self._inflight,
            hot=self.hot.stats(),
            cache=self.cache.stats() if self.cache is not None else None,
            intern=intern_stats(),
        )
        return document

    def _bound_intern_pool(self) -> None:
        """Apply ``intern_limit`` after a request (see module docstring)."""
        if maybe_clear_intern_pool(self.intern_limit):
            # the hot tier's entries survived, but their canonical-
            # identity fast path did not: drop them with the pool
            self.hot.clear()


class ServerHandle:
    """A server hosted on a daemon thread with its own event loop.

    The in-process harness everything non-daemon shares -- tests,
    the benchmark's serve-latency row, CI smoke::

        with ServerHandle(cache_dir=tmp) as handle:
            with ServeClient(port=handle.port) as client:
                client.call("analyse", {...})

    ``__enter__`` returns once the socket is bound (so ``port`` is
    real); ``close``/``__exit__`` runs the server's graceful shutdown
    and joins the thread.
    """

    def __init__(self, **kwargs: Any) -> None:
        self._kwargs = kwargs
        self.server: AnalysisServer | None = None
        self.host: str = kwargs.get("host", "127.0.0.1")
        self.port: int = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-host", daemon=True
        )

    def start(self) -> "ServerHandle":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("analysis server did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("analysis server failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = AnalysisServer(**self._kwargs)
        try:
            await self.server.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self.host, self.port = self.server.address
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.wait_stopped()

    def close(self) -> None:
        """Graceful shutdown from any thread; idempotent."""
        if self._loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.server.request_stop)
        if self._thread.ident is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
