"""The observability layer: metrics registry, tracer, artifact checker.

Four contracts, pinned:

* **Instruments behave** -- counters are monotone, pull gauges read
  their callback, histograms roll samples off past the reservoir bound,
  the one nearest-rank :func:`~repro.obs.metrics.percentile` matches a
  hand-computed oracle, and a name registered as one kind cannot be
  re-requested as another.
* **Exports are deterministic** -- ``snapshot()`` and ``prometheus()``
  render in sorted series order, twice the same bytes, with labels
  escaped; the process-wide :func:`~repro.obs.metrics.default_registry`
  reinstalls its pull gauges after a ``reset()``.
* **Traces are well-formed** -- spans nest (no partial overlap),
  timestamps are monotone per thread, durations are non-negative, the
  Chrome document round-trips through ``json.loads``, and
  ``tools/check_trace.py`` accepts every artifact the tracer writes and
  rejects hand-broken ones.
* **Tracing observes, never perturbs** -- across the corpus matrix, an
  analysis run under a live tracer reaches a bit-identical fixed point
  to the untraced run.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    default_registry,
    percentile,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    set_default_tracer,
    use_tracer,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import check_trace  # noqa: E402  (tools/ is not a package)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample_every_fraction(self):
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert percentile([7.0], fraction) == 7.0

    def test_nearest_rank_oracle(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]  # sorted: 1..5
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 1.0) == 5.0
        # rank rounds to nearest: 0.99 * 4 = 3.96 -> index 4
        assert percentile(samples, 0.99) == 5.0

    def test_does_not_mutate_input(self):
        samples = [3.0, 1.0, 2.0]
        percentile(samples, 0.5)
        assert samples == [3.0, 1.0, 2.0]


class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_pull(self):
        gauge = Gauge()
        gauge.set(2.5)
        assert gauge.value == 2.5
        pulled = Gauge(callback=lambda: 42)
        assert pulled.value == 42

    def test_histogram_reservoir_rolloff(self):
        histogram = Histogram()
        for value in range(Histogram.MAX_SAMPLES + 10):
            histogram.observe(float(value))
        assert len(histogram.samples()) == Histogram.MAX_SAMPLES
        # count and sum keep counting past the rolloff
        assert histogram.count == Histogram.MAX_SAMPLES + 10
        assert histogram.samples()[0] == 10.0  # oldest rolled off

    def test_timer_times_the_block(self):
        timer = Timer()
        with timer.time():
            pass
        assert timer.histogram.count == 1
        assert timer.histogram.sum >= 0.0


class TestRegistry:
    def test_series_are_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", tier="hot")
        second = registry.counter("hits", tier="hot")
        assert first is second
        other = registry.counter("hits", tier="disk")
        assert other is not first

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("requests", method="ping").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("latency").observe(0.5)
        doc = registry.snapshot()
        assert doc["requests"]["method=ping"] == 3
        assert doc["depth"][""] == 2
        cell = doc["latency"][""]
        assert cell["count"] == 1 and cell["p50"] == 0.5

    def test_prometheus_deterministic_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total", method="z").inc()
        registry.counter("b_total", method="a").inc(2)
        registry.gauge("a_gauge").set(1.5)
        registry.describe("b_total", "a counter")
        text = registry.prometheus()
        assert text == registry.prometheus()  # deterministic
        lines = text.splitlines()
        assert lines[0] == "# TYPE a_gauge gauge"
        assert lines[1] == "a_gauge 1.5"
        assert lines[2] == "# HELP b_total a counter"
        assert lines[3] == "# TYPE b_total counter"
        assert lines[4] == 'b_total{method="a"} 2'
        assert lines[5] == 'b_total{method="z"} 1'

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("odd", label='he said "hi"\n').inc()
        text = registry.prometheus()
        assert 'odd{label="he said \\"hi\\"\\n"} 1' in text

    def test_prometheus_summary_export(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        text = registry.prometheus()
        assert "# TYPE lat summary" in text
        assert 'lat{quantile="0.5"} 2' in text
        assert "lat_count 3" in text
        assert "lat_sum 6" in text

    def test_default_registry_reinstalls_pull_gauges_after_reset(self):
        registry = default_registry()
        assert ("intern_pool_size", ()) in registry._series
        registry.reset()
        registry = default_registry()
        assert ("intern_pool_size", ()) in registry._series
        # the pull gauge reads the live pool, never a stale copy
        from repro.util.intern import intern_pool_size

        assert registry.gauge("intern_pool_size").value == intern_pool_size()


class TestTracer:
    def test_null_tracer_is_free_and_inert(self):
        span = NULL_TRACER.span("anything", key="value")
        with span:
            pass
        assert NULL_TRACER.span("other") is span  # one preallocated no-op
        assert not NullTracer().active

    def test_current_tracer_resolution_order(self):
        assert current_tracer() is NULL_TRACER
        process = Tracer()
        set_default_tracer(process)
        try:
            assert current_tracer() is process
            local = Tracer()
            with use_tracer(local):
                assert current_tracer() is local
            assert current_tracer() is process
        finally:
            set_default_tracer(NULL_TRACER)
        assert current_tracer() is NULL_TRACER

    def test_spans_nest_with_monotone_clock(self):
        tracer = Tracer()
        with tracer.span("outer", cat="test"):
            with tracer.span("inner", cat="test"):
                tracer.event("tick", cat="test")
        events = tracer.events()
        names = [event["name"] for event in events]
        # spans append at exit: innermost first
        assert names == ["tick", "inner", "outer"]
        tick, inner, outer = events
        assert outer["ph"] == "X" and inner["ph"] == "X" and tick["ph"] == "i"
        assert outer["dur"] >= 0 and inner["dur"] >= 0
        # proper containment, not partial overlap
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
        assert inner["ts"] <= tick["ts"] <= inner["ts"] + inner["dur"] + 1e-6

    def test_span_records_args(self):
        tracer = Tracer()
        with tracer.span("phase", cat="test", label="x", n=3):
            pass
        (event,) = tracer.events()
        assert event["args"] == {"label": "x", "n": 3}

    def test_thread_ids_compress_and_isolate(self):
        tracer = Tracer()

        def work():
            with tracer.span("worker", cat="test"):
                pass

        threads = [threading.Thread(target=work) for _ in range(2)]
        with tracer.span("main", cat="test"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        tids = {event["tid"] for event in tracer.events()}
        assert len(tids) == 3 and all(isinstance(tid, int) for tid in tids)

    def test_sequential_threads_get_distinct_lanes(self):
        """A thread started after another exited may reuse its OS ident;
        it must still get a lane of its own."""
        tracer = Tracer()

        def work():
            with tracer.span("worker", cat="test"):
                pass

        for _ in range(8):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        tids = [event["tid"] for event in tracer.events()]
        assert sorted(tids) == list(range(8))

    def test_chrome_document_round_trips(self, tmp_path):
        tracer = Tracer(process_name="test-proc")
        with tracer.span("phase", cat="test"):
            tracer.event("mark", cat="test")
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "test-proc"
        assert {event["name"] for event in events[1:]} == {"mark", "phase"}

    def test_jsonl_suffix_selects_line_format(self, tmp_path):
        tracer = Tracer()
        with tracer.span("phase", cat="test"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "phase"


class TestCheckTrace:
    """tools/check_trace.py accepts real artifacts, rejects broken ones."""

    def _write(self, tmp_path, events, name="trace.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"traceEvents": events}))
        return str(path)

    def test_accepts_tracer_output(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", cat="test"):
            with tracer.span("inner", cat="test"):
                tracer.event("mark", cat="test")
        path = tmp_path / "ok.json"
        tracer.write(str(path))
        assert check_trace.main([str(path), "--min-events", "3"]) == 0

    def test_accepts_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only", cat="test"):
            pass
        path = tmp_path / "ok.jsonl"
        tracer.write(str(path))
        assert check_trace.main([str(path)]) == 0

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert check_trace.main([str(path)]) == 1

    def test_rejects_partial_overlap(self, tmp_path):
        events = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 0},
        ]
        assert check_trace.main([self._write(tmp_path, events)]) == 1

    def test_accepts_proper_nesting_and_siblings(self, tmp_path):
        events = [
            {"name": "outer", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0},
            {"name": "left", "ph": "X", "ts": 1, "dur": 3, "pid": 1, "tid": 0},
            {"name": "right", "ph": "X", "ts": 5, "dur": 4, "pid": 1, "tid": 0},
        ]
        assert check_trace.main([self._write(tmp_path, events)]) == 0

    def test_rejects_negative_duration(self, tmp_path):
        events = [{"name": "a", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 0}]
        assert check_trace.main([self._write(tmp_path, events)]) == 1

    def test_rejects_backwards_instants(self, tmp_path):
        events = [
            {"name": "a", "ph": "i", "ts": 10, "pid": 1, "tid": 0, "s": "t"},
            {"name": "b", "ph": "i", "ts": 5, "pid": 1, "tid": 0, "s": "t"},
        ]
        assert check_trace.main([self._write(tmp_path, events)]) == 1

    def test_rejects_empty_trace_from_real_run(self, tmp_path):
        assert check_trace.main([self._write(tmp_path, [])]) == 1


class TestTracingNeverPerturbs:
    """Corpus-wide: a traced run reaches a bit-identical fixed point."""

    @pytest.mark.parametrize("lang", ("cps", "lam", "fj"))
    def test_traced_fixed_point_bit_identical(self, lang, tmp_path):
        from serve_helpers import MATRIX_PROGRAMS

        from repro.config import assemble, preset_config
        from repro.corpus import corpus_program

        config = preset_config("1cfa", lang)
        program = corpus_program(lang, MATRIX_PROGRAMS[lang])
        plain = assemble(config, program=program).run(program)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = assemble(config, program=program).run(program)
        assert traced.fp == plain.fp
        # and the run actually produced a valid artifact
        path = tmp_path / f"{lang}.json"
        tracer.write(str(path))
        assert check_trace.main([str(path)]) == 0

    def test_instrumented_modules_default_to_the_null_tracer(self):
        # the hot path must not require tracer setup to stay a no-op
        assert current_tracer() is NULL_TRACER
