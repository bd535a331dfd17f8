"""Within-run time gates: every wall-clock claim the benchmarks enforce.

Each gate times both sides of one comparison in this process, in turn
(A, B, A, B, ...) so host drift lands on both, keeps each side's best
run, and asserts a fixed threshold on the ratio.  Seconds are never
compared across runs or machines, so there is no recorded baseline:

(a) depgraph/versioned >= 2x over kleene on :data:`ENGINE_GATED`;
(b) fused >= 2x over generic on :data:`FUSED_GATED` (the GC rows are
    exempt: their reachability sweep dominates, see PERFORMANCE.md);
(c) the adaptive batch pool never loses to serial, at any core count;
(d) the pool >= 2x over serial when it engaged on >= 4 cores, else skip;
(e) a one-edit warm start >= 5x over the cold run;
(f) a hot resident-server request >= 20x over a cold ``repro analyze``;
(g) live tracing <= 1.10x, the no-op path <= 1.03x, same fixed points.

Each gate prints its measured ratio::

    PYTHONPATH=src python -m pytest benchmarks/bench_gates.py -q -rs

The tier-1 suite prepares every input of :func:`gate_inputs`, so a
timed job that stops parsing fails there first.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import partial
from math import inf

import pytest

import repro
from repro.config import AnalysisConfig, assemble, preset_config
from repro.core.fixpoint import FixpointCapture
from repro.corpus import corpus_program
from repro.corpus.cps_programs import id_chain_edited
from repro.cps.syntax import pp as cps_pp
from repro.obs.trace import NullTracer, Tracer, use_tracer
from repro.serve.client import ServeClient
from repro.serve.server import ServerHandle
from repro.service.batch import BatchJob, run_batch
from repro.util.workloads import resolve_workload

MIN_ENGINE_SPEEDUP = 2.0
MIN_FUSED_SPEEDUP = 2.0
MIN_POOL_SPEEDUP = 1.0
#: Identical serial and inline-pool runs land on either side of 1.0x by
#: scheduler noise; the never-lose gate (c) subtracts this.
POOL_JITTER_TOLERANCE = 0.05
MIN_ENGAGED_POOL_SPEEDUP = 2.0
MIN_WARM_SPEEDUP = 5.0
MIN_SERVE_SPEEDUP = 20.0
MAX_TRACE_RATIO = 1.10
#: The instrumentation is phase-level (a few ``current_tracer()`` lookups
#: per analysis, nothing per evaluation), so the no-op budget is tight.
MAX_NOOP_TRACE_RATIO = 1.03

#: (engine, transition) of the slow and the fast side of gates (a) and (b).
ENGINE_PAIR = (("kleene", "generic"), ("depgraph", "generic"))
FUSED_PAIR = (("depgraph", "generic"), ("depgraph", "fused"))

#: label -> (language, workload, config fields) of gate (a).
ENGINE_GATED = {
    "cps-id-chain-30-k1": ("cps", "id-chain-30", {}),
    "lam-church-two-two-k1": ("lam", "church-two-two", {}),
    "fj-visitor-k1": ("fj", "visitor", {}),
    "cps-id-chain-30-k1-gc": ("cps", "id-chain-30", {"gc": True}),
    "lam-church-two-two-k1-gc": ("lam", "church-two-two", {"gc": True}),
    "fj-visitor-k1-gc": ("fj", "visitor", {"gc": True}),
    "cps-id-chain-30-k1-counting": ("cps", "id-chain-30", {"counting": True}),
}

#: label -> (language, workload, config fields) of gate (b).
FUSED_GATED = {
    # the scaling workload: kleene is far too slow here, so it has no (a) row
    "cps-id-chain-200-k1": ("cps", "id-chain-200", {}),
    "lam-church-two-two-k1": ("lam", "church-two-two", {}),
    "fj-visitor-k1": ("fj", "visitor", {}),
}

POOL_WORKERS = 4
#: The pool's chain job parses its printed source: id-chain-127 and
#: longer nest deeper than ``repro.cps.parser.MAX_NESTING`` allows.
POOL_CHAIN_LENGTH = 126
WARM_CHAIN_LENGTH = 400
WARM_PRESET = ("1cfa", "cps")
#: Gate (g) runs on gate (b)'s fused scaling cell.
TRACE_CELL = ("cps-id-chain-200-k1", "depgraph", "fused")
SERVE_CELL = ("cps", "mj09", "1cfa")

#: A side faster than this repeats, up to ``_MAX_REPS`` runs: the FJ and
#: small-chain cells are millisecond-scale and one run is all jitter.
_REPEAT_UNDER_SECONDS = 0.25
_MAX_REPS = 9


def _timed(run, *args, **kwargs):
    """``(seconds, value)`` of one call; arguments are evaluated untimed.

    The garbage an earlier run left behind is collected first, untimed,
    so no side pays for the one before it.
    """
    gc.collect()
    start = time.perf_counter()
    value = run(*args, **kwargs)
    return time.perf_counter() - start, value


def _interleaved_best(sides, rounds, enough=inf):
    """Run each side in turn, round after round; the best time of each.

    ``sides`` are thunks returning ``(seconds, value)``.  A side drops
    out of later rounds once its best reaches ``enough`` seconds, so a
    slow side runs once and a fast one up to ``rounds`` times.  Returns
    the best seconds and the last value of every side.
    """
    best = [inf] * len(sides)
    values = [None] * len(sides)
    for _ in range(rounds):
        pending = [i for i, seconds in enumerate(best) if seconds < enough or seconds == inf]
        if not pending:
            break
        for index in pending:
            seconds, values[index] = sides[index]()
            best[index] = min(best[index], seconds)
    return best, values


def _report(capsys, line: str) -> None:
    """Print a gate's measurement past pytest's capture, pass or fail."""
    with capsys.disabled():
        print(f"\n{line}")


def engine_cell(label: str, engine: str, transition: str):
    """``(config, program)`` of one gate (a)/(b) workload under one engine."""
    language, workload, fields = {**ENGINE_GATED, **FUSED_GATED}[label]
    config = AnalysisConfig(
        language=language,
        k=1,
        engine=engine,
        store_impl="persistent" if engine == "kleene" else "versioned",
        transition=transition,
        label=f"gate-{label}-{engine}-{transition}",
        **fields,
    )
    return config, resolve_workload(language, workload)


def _run_cell(config, program):
    """Assemble and run one cell (both timed, as a one-shot caller pays)."""
    return assemble(config, program=program).run(program)


def pool_jobs() -> list:
    """The sweep behind gates (c)/(d): 7 roughly balanced jobs, 7 keys."""
    church = [
        ("1cfa", {}),
        ("1cfa", {"store_impl": "persistent"}),
        ("1cfa-gc", {}),
        ("1cfa-gc", {"transition": "generic"}),
        ("kcfa-counting-fast", {}),
    ]
    jobs = [
        BatchJob(
            config=preset_config(name, "lam").replace(**overrides),
            corpus="church-two-two",
            label=f"lam/church/{name}{'+' if overrides else ''}",
        )
        for name, overrides in church
    ]
    jobs.append(
        BatchJob(
            config=preset_config("1cfa", "cps").replace(store_impl="persistent"),
            source=cps_pp(resolve_workload("cps", f"id-chain-{POOL_CHAIN_LENGTH}")),
            label=f"cps/chain-{POOL_CHAIN_LENGTH}/1cfa-persistent",
        )
    )
    fj = preset_config("1cfa-gc", "fj")
    return jobs + [BatchJob(config=fj, corpus="list-walk", label="fj/list-walk/1cfa-gc")]


def serve_job() -> BatchJob:
    """Gate (f)'s cell: the source text the cold CLI run parses."""
    language, corpus, preset = SERVE_CELL
    return BatchJob(
        config=preset_config(preset, language),
        source=cps_pp(corpus_program(language, corpus)),
        label=f"{language}/{corpus}/{preset}",
    )


def gate_inputs():
    """``(jobs, cells)``: every batch job and in-memory cell timed here."""
    cells = [
        engine_cell(label, *side)
        for gated, pair in ((ENGINE_GATED, ENGINE_PAIR), (FUSED_GATED, FUSED_PAIR))
        for label in gated
        for side in pair
    ]
    warm = preset_config(*WARM_PRESET)
    cells.append((warm, resolve_workload("cps", f"id-chain-{WARM_CHAIN_LENGTH}")))
    cells.append((warm, id_chain_edited(WARM_CHAIN_LENGTH)))
    return pool_jobs() + [serve_job()], cells


def _speedup_gate(capsys, gate, label, pair, threshold):
    """Interleave the slow and fast cell of ``pair``; assert their ratio."""
    sides = [partial(_timed, _run_cell, *engine_cell(label, *side)) for side in pair]
    best, _ = _interleaved_best(sides, _MAX_REPS, _REPEAT_UNDER_SECONDS)
    ratio = best[0] / best[1]
    _report(capsys, f"gate ({gate}) {label}: {best[0]:.4f}s -> {best[1]:.4f}s = {ratio:.2f}x")
    assert ratio >= threshold, f"{label}: only {ratio:.2f}x (need >= {threshold:.1f}x)"


@pytest.mark.parametrize("label", list(ENGINE_GATED))
def test_gate_a_depgraph_over_kleene(label, capsys):
    _speedup_gate(capsys, "a", label, ENGINE_PAIR, MIN_ENGINE_SPEEDUP)


@pytest.mark.parametrize("label", list(FUSED_GATED))
def test_gate_b_fused_over_generic(label, capsys):
    _speedup_gate(capsys, "b", label, FUSED_PAIR, MIN_FUSED_SPEEDUP)


@pytest.fixture(scope="module")
def pool_sweep():
    """``(ratio, line, report)`` of serial vs pooled :func:`pool_jobs` runs."""
    jobs = pool_jobs()
    sides = [partial(_timed, run_batch, jobs, workers=n) for n in (1, POOL_WORKERS)]
    best, (serial, pooled) = _interleaved_best(sides, rounds=2)
    for left, right in zip(serial.outcomes, pooled.outcomes):
        assert left.fp == right.fp, f"pool/serial mismatch on {left.job.label}"
    ratio = best[0] / best[1]
    line = (
        f"serial {best[0]:.3f}s, pool({POOL_WORKERS}->{pooled.pool_workers}) {best[1]:.3f}s "
        f"= {ratio:.2f}x on {os.cpu_count()} core(s)"
    )
    return ratio, line, pooled


def test_gate_c_pool_never_loses(pool_sweep, capsys):
    ratio, line, _ = pool_sweep
    _report(capsys, f"gate (c) batch pool: {line}")
    floor = MIN_POOL_SPEEDUP - POOL_JITTER_TOLERANCE
    assert ratio >= floor, f"the adaptive pool must never lose: {line} (need >= {floor:.2f}x)"


def test_gate_d_engaged_pool_speedup(pool_sweep, capsys):
    ratio, line, report = pool_sweep
    if (os.cpu_count() or 0) < POOL_WORKERS or report.pool_workers < 2:
        pytest.skip(f"needs >= {POOL_WORKERS} cores and an engaged pool: {line}")
    _report(capsys, f"gate (d) engaged pool: {line}")
    assert report.inline_fallbacks == 0
    assert ratio >= MIN_ENGAGED_POOL_SPEEDUP, f"{line} (need >= {MIN_ENGAGED_POOL_SPEEDUP:.1f}x)"


def test_gate_e_warm_start_over_cold(capsys):
    config = preset_config(*WARM_PRESET)
    capture = FixpointCapture()
    base = resolve_workload("cps", f"id-chain-{WARM_CHAIN_LENGTH}")
    seed = capture.warm_start(assemble(config).run(base, capture=capture).fp[1])
    edited = id_chain_edited(WARM_CHAIN_LENGTH)

    def side(**run_args):
        analysis = assemble(config)
        seconds, result = _timed(analysis.run, edited, **run_args)
        return seconds, (result, analysis.last_stats["evaluations"])

    best, ((cold, cold_evals), (warm, warm_evals)) = _interleaved_best(
        [side, partial(side, warm_start=seed)], rounds=3
    )
    assert warm.fp == cold.fp, "warm-start fp mismatch"
    ratio = best[0] / best[1]
    line = f"cold {best[0]:.4f}s -> warm {best[1]:.4f}s = {ratio:.2f}x"
    _report(capsys, f"gate (e) warm start: {line} ({cold_evals} -> {warm_evals} evaluations)")
    assert ratio >= MIN_WARM_SPEEDUP, f"{line} (need >= {MIN_WARM_SPEEDUP:.1f}x)"


def test_gate_f_serve_hot_over_cold_cli(capsys):
    language, corpus, preset = SERVE_CELL
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src_root}
    params = {"language": language, "corpus": corpus, "preset": preset}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{corpus}.{language}")
        with open(path, "w") as handle:
            handle.write(serve_job().source)
        argv = [sys.executable, "-m", "repro", "analyze", path, "--lang", language]
        argv += ["--preset", preset]
        with ServerHandle(cache_dir=os.path.join(tmp, "cache"), workers=2) as server:
            with ServeClient(server.port) as client:
                primer = client.call("analyse", params)
                assert primer["tier"] in ("cold", "disk"), primer["tier"]

                def hot():
                    seconds, row = _timed(client.call, "analyse", params)
                    assert row["tier"] == "hot", f"repeat request not hot: {row['tier']}"
                    return seconds, row

                def cold():
                    return _timed(subprocess.run, argv, env=env, check=True, capture_output=True)

                # three hot sides per cold one: best of 3 cold runs, best of 9 hot requests
                best, _ = _interleaved_best([cold, hot, hot, hot], rounds=3)
    cold_seconds, hot_seconds = best[0], min(best[1:])
    ratio = cold_seconds / hot_seconds
    line = f"cold CLI {cold_seconds:.4f}s -> hot {hot_seconds:.6f}s = {ratio:.1f}x"
    _report(capsys, f"gate (f) serve {language}-{corpus}-{preset}: {line}")
    assert ratio >= MIN_SERVE_SPEEDUP, f"{line} (need >= {MIN_SERVE_SPEEDUP:.1f}x)"


def test_gate_g_trace_overhead(capsys):
    config, program = engine_cell(*TRACE_CELL)

    def side(make_tracer):
        tracer, analysis = make_tracer(), assemble(config, program=program)
        with use_tracer(tracer) if tracer is not None else nullcontext():
            seconds, result = _timed(analysis.run, program)
        return seconds, (result.fp, tracer)

    # untraced, the null tracer (instrumentation fires, every span a no-op), a live tracer
    best, ((plain, _), (noop, _), (traced, live)) = _interleaved_best(
        [partial(side, make) for make in (lambda: None, NullTracer, Tracer)], rounds=5
    )
    assert noop == plain, "null tracer perturbed the fixed point"
    assert traced == plain, "live tracer perturbed the fixed point"
    noop_ratio, traced_ratio = best[1] / best[0], best[2] / best[0]
    _report(
        capsys,
        f"gate (g) trace overhead: plain {best[0]:.4f}s, no-op {noop_ratio:.3f}x, "
        f"traced {traced_ratio:.3f}x ({len(live.events())} events)",
    )
    assert traced_ratio <= MAX_TRACE_RATIO, f"live tracing cost {traced_ratio:.2f}x"
    assert noop_ratio <= MAX_NOOP_TRACE_RATIO, f"the no-op tracing path cost {noop_ratio:.2f}x"
