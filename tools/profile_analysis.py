"""cProfile any preset x workload: where does an analysis spend its time?

The staging work (PERFORMANCE.md, "The fused transition") was guided by
exactly this view: the generic transition's profile is a wall of
``StateT.bind``/``<lambda>`` frames, the fused one is flat.  Keep it that
way -- profile before optimizing::

    PYTHONPATH=src python tools/profile_analysis.py --preset 1cfa \\
        --transition generic --lang cps --workload id-chain-200
    PYTHONPATH=src python tools/profile_analysis.py --preset 1cfa \\
        --lang lam --workload church-two-two --top 15
    PYTHONPATH=src python tools/profile_analysis.py --lang fj \\
        --workload visitor --engine depgraph --store-impl versioned \\
        --transition fused --sort tottime

Workloads are corpus program names (``repro.corpus``); for CPS the
synthetic ``id-chain-N`` family is also understood.  Flags mirror the
CLI: ``--preset`` names a registry entry, and the fine-grained flags
(``--k``, ``--engine``, ``--store-impl``, ``--transition``, ``--gc``,
``--counting``) override its fields.  One deliberate difference from
``repro analyze``: without ``--preset`` this tool profiles the ``1cfa``
preset (depgraph over the versioned store, fused transition), because
that is the hot path worth profiling -- ``repro analyze`` without flags
runs the per-state domain instead.  The flags resolve through
:func:`repro.config.request_config`, so a profiled configuration is
exactly what the CLI, the server and the tests run for the same
settings.

``--schedule-trace`` swaps the profiler for a scheduling view: run the
analysis once with the engine's evaluation-order trace enabled and
print the drain order plus the per-configuration re-evaluation
histogram -- the direct way to eyeball a scheduling pathology (a
configuration re-evaluated dozens of times is a batching failure)::

    PYTHONPATH=src python tools/profile_analysis.py --preset 1cfa \\
        --lang cps --workload id-chain-30 --schedule-trace

``--pickle-cost`` swaps the profiler for a transport-cost measurement:
run the analysis once, then time pickling, compressing and unpickling
its frozen fixed point (and report the byte sizes).  These
are the numbers that ground the batch runner's transport choices
(PERFORMANCE.md, "The adaptive batch pool")::

    PYTHONPATH=src python tools/profile_analysis.py --preset 1cfa \\
        --lang lam --workload church-two-two --pickle-cost --repeat 5

Stdlib only (cProfile/pstats/pickle/zlib), like the rest of the tooling.
"""

from __future__ import annotations

import argparse
import cProfile
import pickle
import pstats
import sys
import time
import zlib


def resolve_workload(lang: str, name: str):
    """A corpus program by name; CPS also accepts synthetic ``id-chain-N``.

    Resolution itself lives in :mod:`repro.util.workloads` (shared with
    ``benchmarks/bench_gates.py``); this wrapper only turns the library
    ``ValueError`` into a tool exit.
    """
    from repro.util.workloads import resolve_workload as resolve

    try:
        return resolve(lang, name)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def build_analysis(args: argparse.Namespace, program):
    from repro.config import assemble, request_config

    overrides = {
        name: value
        for name, value in (
            ("k", args.k),
            ("engine", args.engine),
            ("store_impl", args.store_impl),
            ("transition", args.transition),
            ("gc", args.gc or None),
            ("counting", args.counting or None),
        )
        if value is not None
    }
    try:
        config = request_config(args.lang, args.preset or "1cfa", overrides)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    return assemble(config, program=program), config


def measure_pickle_cost(result, repeat: int) -> dict:
    """Serialize/deserialize cost of a frozen fixed point (best of N).

    Measures the full round trip the batch pool pays per result:
    ``pickle.dumps`` at the highest protocol, zlib compression at the
    level the transport uses (1), and ``pickle.loads`` (which rebuilds
    canonical terms through their interning constructors).  Best of
    ``repeat`` runs, sizes from the first (they are deterministic).
    """
    from repro.service.cache import ensure_deep_pickle

    ensure_deep_pickle()
    fp = result.fp

    def best(fn) -> tuple[float, object]:
        took, value = min(
            (_timed_once(fn) for _ in range(max(1, repeat))), key=lambda pair: pair[0]
        )
        return took, value

    dumps_s, blob = best(lambda: pickle.dumps(fp, protocol=pickle.HIGHEST_PROTOCOL))
    compress_s, packed = best(lambda: zlib.compress(blob, 1))
    loads_s, _ = best(lambda: pickle.loads(blob))
    return {
        "pickle_bytes": len(blob),
        "compressed_bytes": len(packed),
        "dumps_seconds": dumps_s,
        "compress_seconds": compress_s,
        "loads_seconds": loads_s,
    }


def _timed_once(fn) -> tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def schedule_trace(analysis, config, args: argparse.Namespace, program) -> int:
    """Run once with the engine trace on; print order + re-eval histogram.

    The trace is the engine's own pop sequence (one configuration per
    real evaluation -- warm replays never appear), so what is printed is
    exactly what the worklist did, not a reconstruction.

    With ``--trace FILE`` the same run goes through the structured
    tracer (:mod:`repro.obs.trace`): the analysis phases appear as
    spans, and every worklist pop is appended as an instant ``pop``
    event carrying its drain index -- the drain order, viewable next to the phase timeline in Perfetto.
    """
    from collections import Counter

    from repro.obs.trace import Tracer, use_tracer

    if config.engine != "depgraph":
        raise SystemExit(
            "--schedule-trace needs the worklist engine (--engine "
            "depgraph); kleene and per-state runs have no drain order "
            "to trace"
        )
    trace: list = []
    tracer = Tracer(process_name="profile-analysis") if args.trace else None
    if tracer is not None:
        with use_tracer(tracer):
            analysis.run(program, trace=trace)
        for index in range(len(trace)):
            tracer.event("pop", cat="schedule", index=index)
        tracer.write(args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    else:
        analysis.run(program, trace=trace)
    stats = dict(analysis.last_stats)

    print(
        f"schedule trace of {config.describe()} on {args.lang}/{args.workload}"
    )
    print(
        f"  evaluations: {stats.get('evaluations')}  "
        f"retriggers: {stats.get('retriggers')}  "
        f"dedup_hits: {stats.get('dedup_hits')}  "
        f"delta_evaluations: {stats.get('delta_evaluations')}"
    )

    shown = min(len(trace), max(0, args.top))
    print(f"\ndrain order (first {shown} of {len(trace)} evaluations):")
    for index, conf in enumerate(trace[:shown]):
        text = repr(conf)
        if len(text) > 96:
            text = text[:93] + "..."
        print(f"  {index:5d}  {text}")

    runs = Counter(trace)
    histogram = Counter(runs.values())
    print("\nre-evaluation histogram (evaluations-per-configuration: configurations):")
    for count in sorted(histogram):
        print(f"  {count:4d}x: {histogram[count]}")

    worst = runs.most_common(min(5, len(runs)))
    if worst and worst[0][1] > 1:
        print("\nmost re-evaluated configurations:")
        for conf, count in worst:
            if count == 1:
                break
            text = repr(conf)
            if len(text) > 80:
                text = text[:77] + "..."
            print(f"  {count:4d}x  {text}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lang", required=True, choices=("cps", "lam", "fj"))
    parser.add_argument(
        "--workload",
        required=True,
        help="corpus program name (CPS also accepts id-chain-N)",
    )
    parser.add_argument(
        "--preset", default=None, help="repro.config.PRESETS entry (default: 1cfa)"
    )
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument(
        "--engine",
        choices=("kleene", "depgraph"),
        help="fixed-point engine (default: the preset's; kleene needs "
        "--store-impl persistent)",
    )
    parser.add_argument(
        "--store-impl",
        choices=("persistent", "versioned"),
        help="store representation (default: the preset's)",
    )
    parser.add_argument("--transition", choices=("generic", "fused"))
    parser.add_argument("--gc", action="store_true")
    parser.add_argument("--counting", action="store_true")
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort order",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="profile N back-to-back runs"
    )
    parser.add_argument(
        "--schedule-trace",
        action="store_true",
        help="dump the worklist drain order and the per-configuration "
        "re-evaluation histogram instead of profiling (depgraph engine "
        "only; --top bounds the order listing)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="with --schedule-trace: also write the run as a structured "
        "trace (Chrome trace_event JSON, or JSONL for a .jsonl path) "
        "with one instant event per worklist pop",
    )
    parser.add_argument(
        "--pickle-cost",
        action="store_true",
        help="measure serialize/deserialize time and byte size of the "
        "workload's frozen fixed point instead of profiling (--repeat "
        "becomes best-of-N)",
    )
    args = parser.parse_args(argv)

    program = resolve_workload(args.lang, args.workload)
    analysis, config = build_analysis(args, program)

    if args.schedule_trace:
        return schedule_trace(analysis, config, args, program)

    if args.pickle_cost:
        run_start = time.perf_counter()
        result = analysis.run(program)
        run_seconds = time.perf_counter() - run_start
        cost = measure_pickle_cost(result, args.repeat)
        print(f"pickle cost of {config.describe()} on {args.lang}/{args.workload}")
        print(f"  analysis run     {run_seconds * 1e3:10.3f} ms")
        print(f"  pickle.dumps     {cost['dumps_seconds'] * 1e3:10.3f} ms  "
              f"{cost['pickle_bytes']:>10} bytes")
        print(f"  zlib.compress(1) {cost['compress_seconds'] * 1e3:10.3f} ms  "
              f"{cost['compressed_bytes']:>10} bytes "
              f"({cost['compressed_bytes'] / max(1, cost['pickle_bytes']):.2%})")
        print(f"  pickle.loads     {cost['loads_seconds'] * 1e3:10.3f} ms")
        round_trip = cost["dumps_seconds"] + cost["loads_seconds"]
        print(f"  round trip       {round_trip * 1e3:10.3f} ms  "
              f"({round_trip / max(run_seconds, 1e-9):.1%} of one analysis run)")
        return 0

    print(f"profiling {config.describe()} on {args.lang}/{args.workload}", file=sys.stderr)

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(args.repeat):
        analysis.run(program)
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if analysis.last_stats:
        print(f"engine stats: {analysis.last_stats}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
