"""Command-line front end: run and analyze programs in all three languages.

::

    python -m repro analyze --list-presets
    python -m repro run     PROGRAM.cps  --lang cps
    python -m repro analyze PROGRAM.lam  --preset 1cfa-gc
    python -m repro analyze PROGRAM.fj   --lang fj  --k 0 --check-casts
    python -m repro analyze PROGRAM.cps  --engine depgraph
    python -m repro batch   P1.cps P2.lam --preset 1cfa --preset 0cfa \\
                            --jobs 4 --cache-dir .fixcache --report out.json

``batch`` is the service layer's front door (:mod:`repro.service`): it
builds the grid of every given program x every ``--preset``, consults
the content-addressed fixpoint cache (``--cache-dir``; ``--no-cache``
to bypass a configured one), fans the misses across ``--jobs`` worker
processes, and writes a deterministic machine-readable report
(``--report``).  Re-running the same command is then mostly cache hits
-- the CI cache-smoke job asserts exactly that.

``analyze`` prints the reached-state count, the flows-to (or class-flow)
table and, where requested, counting/cast diagnostics.  The language
defaults from the file extension (``.cps``, ``.lam``, ``.fj``).

The recommended interface is ``--preset``: a named configuration from
:data:`repro.config.PRESETS` (``--list-presets`` shows them all).  A
preset fixes the addressing, engine, store implementation and the
GC/counting refinements at once; any explicitly passed fine-grained
flag (``--k``, ``--engine``, ``--store-impl``, ``--gc``, ``--counting``,
``--shared``) then overrides that field of the preset.

The fine-grained flags remain, one per degree of freedom:

* ``--engine`` -- the fixed-point strategy over the global-store domain,
  one of two: ``kleene`` (whole-domain rounds, the paper-literal
  oracle) or ``depgraph`` (frontier-driven, re-evaluating only
  configurations whose store dependencies changed).  Both compute
  identical results; ``depgraph`` is the fast one.
* ``--store-impl`` -- the store representation behind the depgraph
  engine: ``persistent`` (immutable PMap snapshots) or ``versioned``
  (one mutable store with per-address change versions -- O(delta) per
  evaluation, the fastest configuration; see PERFORMANCE.md).
* ``--gc`` / ``--counting`` -- abstract garbage collection and counting;
  both compose with either engine (depgraph sweeps reachability per
  evaluation and saturates counts on convergence).
* ``--transition`` -- how the transition function executes: ``generic``
  runs the monadic normal form through the ``StorePassing`` stack,
  ``fused`` runs the staged first-order step compiled from it
  (identical fixed points; see PERFORMANCE.md, "The fused transition").
  The depgraph presets default to ``fused``; other runs to ``generic``.

Every combination is validated by
:meth:`repro.config.AnalysisConfig.validated` before anything runs;
invalid ones exit with the validation message.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from repro.analysis.report import fmt_table, precision_summary


@contextlib.contextmanager
def _tracing(path: str | None, process_name: str = "repro"):
    """Route the command body's spans to a trace file (no-op without path).

    The artifact is Chrome ``trace_event`` JSON (open in
    ``chrome://tracing`` or https://ui.perfetto.dev), or JSONL when the
    path ends in ``.jsonl``.
    """
    if not path:
        yield None
        return
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer(process_name=process_name)
    with use_tracer(tracer):
        yield tracer
    tracer.write(path)
    print(f"wrote trace to {path}", file=sys.stderr)


def detect_language(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    suffix = Path(path).suffix.lstrip(".")
    if suffix in ("cps", "lam", "fj", "imp"):
        return suffix
    raise SystemExit(
        f"cannot infer language from {path!r}; pass --lang cps|lam|fj|imp"
    )


def read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def parse_source(lang: str, source: str):
    """Front-end ``source`` into the term ``run`` and ``analyze`` consume.

    imp lowers to a lam term; fj is typechecked, its warnings going to
    stderr.  A malformed program exits with ``error: <message>`` instead
    of a traceback.  Only the chosen language's front end is imported.
    """
    if lang == "cps":
        from repro.cps.parser import ParseError as errors
        from repro.cps.parser import parse_program as front_end
    elif lang == "lam":
        from repro.cps.parser import ParseError as errors
        from repro.lam.parser import parse_expr as front_end
    elif lang == "imp":
        from repro.imp.lower import LoweringError, lower_source as front_end
        from repro.imp.parser import ImpParseError

        errors = (ImpParseError, LoweringError)
    else:
        from repro.fj.parser import FJParseError, parse_program
        from repro.fj.typecheck import TypeError_, typecheck_program

        errors = (FJParseError, TypeError_)

        def front_end(text: str):
            program = parse_program(text)
            for warning in typecheck_program(program).warnings:
                print(f"warning: {warning}", file=sys.stderr)
            return program

    try:
        return front_end(source)
    except errors as error:
        raise SystemExit(f"error: {error}") from None


def cmd_run(args: argparse.Namespace) -> int:
    lang = detect_language(args.program, args.lang)
    source = read_source(args.program)
    with _tracing(args.trace):
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        with tracer.span("parse", cat="prepare", language=lang):
            program = parse_source(lang, source)
        with tracer.span("interpret", cat="concrete", language=lang):
            if lang == "cps":
                from repro.cps.concrete import interpret

                final = interpret(program, max_steps=args.max_steps)
                print(f"final state: {final!r}")
            elif lang == "fj":
                from repro.fj.concrete import evaluate_fj

                value = evaluate_fj(program, max_steps=args.max_steps)
                print(f"value: new {value.cls}(...)")
            else:
                from repro.cesk.concrete import evaluate

                value = evaluate(program, max_steps=args.max_steps)
                print(f"value: {value.lam!r}")
    return 0


def _flows_table(flows: dict) -> str:
    rows = [
        (var, len(vals), ", ".join(sorted(repr(v) for v in vals))[:60])
        for var, vals in sorted(flows.items())
    ]
    return fmt_table(["variable", "count", "reaching values"], rows)


def _assemble(thunk):
    """Turn invalid flag combinations (library ``ValueError``s) into exits."""
    try:
        return thunk()
    except ValueError as error:
        raise SystemExit(str(error))


def _print_presets() -> None:
    from repro.config import list_presets

    rows = [(name, summary, desc) for name, summary, desc in list_presets()]
    print(fmt_table(["preset", "configuration", "description"], rows))


def _resolve_config(args: argparse.Namespace, lang: str):
    """The CLI flag surface as a validated :class:`AnalysisConfig`.

    Without ``--preset`` the fine-grained flags are the whole story (with
    the historical default of 1-CFA, monovariant when ``--k 0`` suits the
    per-state CPS path).  With ``--preset`` the named config is the base
    and only explicitly passed flags override its fields.  ``--shared``
    asks for the store-widened domain: on a config without an engine it
    selects ``kleene``, the whole-domain rounds over that domain.
    """
    from repro.config import AnalysisConfig, preset_config, request_config

    k = 1 if args.k is None else args.k
    if args.preset is not None:
        base = _assemble(lambda: preset_config(args.preset))
        engine = args.engine
        if engine is None and args.shared and base.engine is None:
            engine = "kleene"
        # store_true flags can only assert, never un-set
        overrides = {
            name: value
            for name, value in (
                ("engine", engine),
                ("store_impl", args.store_impl),
                ("transition", args.transition),
                ("gc", args.gc or None),
                ("counting", args.counting or None),
            )
            if value is not None
        }
        if args.k is not None:
            overrides["k"] = args.k
            if base.addressing not in ("kcfa", "lcontext", "boundednat"):
                overrides["addressing"] = "kcfa"
        return _assemble(lambda: request_config(lang, args.preset, overrides))
    engine = args.engine or ("kleene" if args.shared else None)
    addressing = "zerocfa" if (lang == "cps" and k == 0 and engine is None) else "kcfa"
    config = AnalysisConfig(
        language=lang,
        addressing=addressing,
        k=k,
        engine=engine,
        store_impl=args.store_impl or "persistent",
        gc=args.gc,
        counting=args.counting,
        transition=args.transition or "generic",
        label=args.preset or "",
    )
    return _assemble(config.validated)


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.list_presets:
        _print_presets()
        return 0
    if args.program is None:
        raise SystemExit("analyze needs a program file (or --list-presets)")
    from repro.service.jobs import dispatch

    lang = detect_language(args.program, args.lang)
    source = read_source(args.program)
    # imp programs lower into the lam pipeline; the analysis is a lam analysis
    config = _resolve_config(args, "lam" if lang == "imp" else lang)

    with _tracing(args.trace):
        from repro.obs.trace import current_tracer

        with current_tracer().span("parse", cat="prepare", language=lang):
            program = parse_source(lang, source)

        # the same tier cascade every other front end runs (repro.service.jobs):
        # without --cache-dir it degrades to exactly the old parse-assemble-run
        cache = None
        if args.cache_dir:
            from repro.service.cache import FixpointCache

            cache = FixpointCache(root=args.cache_dir)
        outcome = _assemble(
            lambda: dispatch(config=config, program=program, cache=cache)
        )
    result, seconds = outcome.result, outcome.seconds
    if lang == "fj":
        flows = result.class_flows()
        if args.check_casts:
            from repro.fj.class_table import ClassTable

            failures = result.possible_cast_failures(ClassTable.of(program))
            if failures:
                print("casts that may fail:")
                for target, actual in failures:
                    print(f"  ({target}) applied to a {actual}")
            else:
                print("all casts proved safe")
    else:
        flows = result.flows_to()

    summary = precision_summary(flows)
    print(_flows_table(flows))
    print()
    label = f"  preset: {args.preset}" if args.preset else ""
    print(
        f"states: {result.num_states()}  store: {result.store_size()}  "
        f"mean flow: {summary['mean_flow']}  time: {seconds:.3f}s{label}"
    )
    if config.engine is not None and outcome.stats:
        stats = outcome.stats
        fused = ", fused" if config.transition == "fused" else ""
        print(
            f"engine: {config.engine} ({config.store_impl}{fused})  "
            f"evaluations: {stats.get('evaluations', '-')}  "
            f"retriggers: {stats.get('retriggers', '-')}  "
            f"dedup: {stats.get('dedup_hits', '-')}"
        )
    if cache is not None:
        print(f"cache: {'hit' if outcome.cached else 'miss'} ({outcome.tier})")
        cache.flush_stats()
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.config import preset_config
    from repro.service.batch import BatchJob, jobs_for, run_batch

    if not args.programs and not args.corpus:
        raise SystemExit("batch needs program files and/or --corpus LANG")
    presets = args.preset or ["1cfa"]

    def batch_source(lang: str, source: str) -> tuple[str, str]:
        """Spawn-safe (language, source): imp lowers to lam source text."""
        if lang == "imp":
            from repro.imp import lower_source
            from repro.lam.syntax import pp

            return "lam", pp(_assemble(lambda: lower_source(source)))
        return lang, source

    grid = []
    for path in args.programs:
        lang, source = batch_source(detect_language(path, args.lang), read_source(path))
        grid.append((lang, Path(path).name, source))
    jobs = _assemble(lambda: jobs_for(grid, presets))
    for lang in args.corpus:
        from repro.corpus import corpus_programs

        programs = _assemble(lambda: corpus_programs(lang))
        # imp corpus programs are registered lowered: the jobs are lam
        # analyses, named spawn-safely under the imp: corpus prefix
        analysis_lang = "lam" if lang == "imp" else lang
        prefix = "imp:" if lang == "imp" else ""
        for name in sorted(programs):
            for preset in presets:
                jobs.append(
                    BatchJob(
                        config=_assemble(lambda: preset_config(preset, analysis_lang)),
                        corpus=f"{prefix}{name}",
                        label=f"{lang}:{name}/{preset}",
                    )
                )

    with _tracing(args.trace):
        report = run_batch(
            jobs,
            workers=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
    rows = [
        (
            outcome.job.describe(),
            "hit" if outcome.cached else "miss",
            f"{outcome.seconds:.4f}",
            str(outcome.result.num_states()),
            str(outcome.result.store_size()),
        )
        for outcome in report.outcomes
    ]
    print(fmt_table(["job", "cache", "seconds", "states", "store"], rows))
    if report.cache_stats:
        stats = report.cache_stats
        print(
            f"\ncache: {stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['entries']} entries"
        )
    print(f"total: {report.total_seconds:.3f}s across {report.workers} worker(s)")
    if args.report:
        Path(args.report).write_text(report.render(include_flows=args.flows))
        print(f"wrote {args.report}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.service.fuzz import FUZZ_PRESETS, render_fuzz_report, run_fuzz

    presets = tuple(args.preset) if args.preset else FUZZ_PRESETS
    report = run_fuzz(
        seed=args.seed,
        count=args.count,
        presets=presets,
        max_steps=args.max_steps,
        max_evals=args.max_evals,
    )
    rendered = render_fuzz_report(report)
    if args.report:
        Path(args.report).write_text(rendered)
        print(f"wrote {args.report}")
    checked = ", ".join(f"{preset}: {n}" for preset, n in report["checked"].items())
    print(
        f"fuzzed {report['count']} programs (seed {report['seed']}, "
        f"digest {report['corpus_digest'][:12]}); "
        f"skipped {report['skipped']}; checked {checked}"
    )
    aborts = {p: n for p, n in report["aborted"].items() if n}
    if aborts:
        print("aborted (analysis budget): "
              + ", ".join(f"{preset}: {n}" for preset, n in aborts.items()))
    violations = report["violations"]
    if violations:
        print(f"\n{len(violations)} soundness violation(s):")
        for violation in violations:
            print(f"\n-- program {violation['index']} under {violation['preset']}:")
            print(violation["shrunk"], end="")
        return 1
    print("no soundness violations")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import AnalysisServer

    server = AnalysisServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.workers,
        queue_limit=args.queue_limit,
        hot_entries=args.hot_entries,
        default_timeout=args.timeout,
        intern_limit=args.intern_limit,
        trace_path=args.trace,
    )

    async def main() -> None:
        await server.start()
        # the "listening" line is the readiness signal scripts (and the CI
        # smoke) wait for; flush so it crosses a pipe immediately
        print(f"repro serve listening on {server.host}:{server.port}", flush=True)
        await server.wait_stopped()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # ^C is the interactive shutdown; the server flushed in stop()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """A ``top``-style view of a running ``repro serve`` (one shot or -w)."""
    import time

    from repro.serve.client import ServeClient, ServeError

    def fetch() -> dict | str:
        try:
            client = ServeClient(port=args.port, host=args.host, timeout=args.timeout)
        except OSError as error:
            raise SystemExit(
                f"cannot reach repro serve at {args.host}:{args.port}: {error}"
            )
        with client:
            try:
                if args.prometheus:
                    return client.call("metrics", {})["prometheus"]
                return client.call("stats", {})
            except ServeError as error:
                raise SystemExit(f"{error.name}: {error}")

    shots = args.count if args.watch else 1
    for shot in range(shots):
        if shot:
            time.sleep(args.watch)
            print()
        document = fetch()
        if args.prometheus:
            print(document, end="")
            continue
        print(
            f"repro serve @ {args.host}:{args.port}  pid {document.get('pid')}  "
            f"up {document.get('uptime_seconds', 0):.1f}s  "
            f"workers {document.get('workers')}  "
            f"inflight {document.get('inflight')}/{document.get('queue_limit')}"
        )
        for title, block in (
            ("requests", document.get("requests", {})),
            ("tiers", document.get("tiers", {})),
            ("errors", document.get("errors", {})),
            ("work", document.get("work", {})),
        ):
            if block:
                body = "  ".join(f"{key} {value}" for key, value in block.items())
                print(f"{title:>9}: {body}")
        latency = document.get("latency", {})
        if latency:
            rows = [
                (method, str(cell["count"]), f"{cell['p50']:.6f}", f"{cell['p99']:.6f}")
                for method, cell in latency.items()
            ]
            print(fmt_table(["method", "count", "p50 (s)", "p99 (s)"], rows))
        hot = document.get("hot") or {}
        cache = document.get("cache") or {}
        intern = document.get("intern") or {}
        print(
            f"      hot: entries {hot.get('entries', 0)}  hits {hot.get('hits', 0)}  "
            f"misses {hot.get('misses', 0)}  evictions {hot.get('evictions', 0)}"
        )
        if cache:
            print(
                f"    cache: entries {cache.get('entries', 0)}  "
                f"hits {cache.get('hits', 0)}  misses {cache.get('misses', 0)}  "
                f"stores {cache.get('stores', 0)}"
            )
        if intern:
            print(
                f"   intern: size {intern.get('size', 0)}  "
                f"hits {intern.get('hits', 0)}  misses {intern.get('misses', 0)}"
            )
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import render_json
    from repro.serve.client import ServeClient, ServeError

    if args.json:
        try:
            params = json.loads(args.json)
        except json.JSONDecodeError as error:
            raise SystemExit(f"--json is not valid JSON: {error}")
        if not isinstance(params, dict):
            raise SystemExit("--json must encode an object")
    else:
        params = {}
    # convenience flags compose with (and override) --json
    if args.program:
        lang = detect_language(args.program, args.lang)
        params.update(language=lang, source=read_source(args.program))
    elif args.lang:
        params.setdefault("language", args.lang)
    if args.corpus:
        params["corpus"] = args.corpus
    if args.preset:
        params["preset"] = args.preset
    if args.flows:
        params["include_flows"] = True

    try:
        client = ServeClient(port=args.port, host=args.host, timeout=args.timeout)
    except OSError as error:
        raise SystemExit(f"cannot reach repro serve at {args.host}:{args.port}: {error}")
    with client:
        try:
            result = client.call(args.method, params)
        except ServeError as error:
            print(
                render_json({"code": error.code, "name": error.name, "message": str(error)}),
                end="",
                file=sys.stderr,
            )
            return 1
    print(render_json(result), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Monadic abstract interpreters: run or analyze programs "
        "in CPS, direct-style lambda calculus, or Featherweight Java.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_help = (
        "write a structured trace of this command here: Chrome trace_event "
        "JSON (chrome://tracing, ui.perfetto.dev), or JSONL if the path "
        "ends in .jsonl"
    )

    run_p = sub.add_parser("run", help="execute with the concrete machine")
    run_p.add_argument("program", help="source file, or - for stdin")
    run_p.add_argument("--lang", choices=("cps", "lam", "fj", "imp"))
    run_p.add_argument("--max-steps", type=int, default=100_000)
    run_p.add_argument("--trace", default=None, metavar="FILE", help=trace_help)
    run_p.set_defaults(fn=cmd_run)

    an_p = sub.add_parser("analyze", help="run an abstract interpretation")
    an_p.add_argument(
        "program", nargs="?", default=None, help="source file, or - for stdin"
    )
    an_p.add_argument("--lang", choices=("cps", "lam", "fj", "imp"))
    an_p.add_argument(
        "--preset",
        default=None,
        help="named analysis configuration from repro.config.PRESETS "
        "(see --list-presets); other flags override its fields",
    )
    an_p.add_argument(
        "--list-presets",
        action="store_true",
        help="print the preset registry and exit",
    )
    an_p.add_argument("--k", type=int, default=None, help="k-CFA context depth")
    an_p.add_argument(
        "--engine",
        choices=("kleene", "depgraph"),
        default=None,
        help="fixed-point strategy over the global store "
        "(kleene = whole-domain rounds, "
        "depgraph = dependency-tracked re-evaluation)",
    )
    an_p.add_argument(
        "--store-impl",
        choices=("persistent", "versioned"),
        default=None,
        help="store representation behind the depgraph engine "
        "(persistent = immutable snapshots, versioned = mutable store "
        "with per-address change versions; needs --engine depgraph)",
    )
    an_p.add_argument(
        "--transition",
        choices=("generic", "fused"),
        default=None,
        help="how the transition executes: the generic monadic normal "
        "form, or the staged (fused) first-order step -- identical fixed "
        "points, no per-bind monad dispatch (see PERFORMANCE.md); the "
        "depgraph presets default to fused, everything else to generic",
    )
    an_p.add_argument(
        "--shared",
        action="store_true",
        help="single-threaded (store-widened) domain; without --engine it "
        "runs the kleene engine",
    )
    an_p.add_argument("--gc", action="store_true", help="abstract garbage collection")
    an_p.add_argument("--counting", action="store_true", help="counting store")
    an_p.add_argument(
        "--check-casts", action="store_true", help="report may-fail casts (FJ only)"
    )
    an_p.add_argument(
        "--cache-dir",
        default=None,
        help="consult (and fill) a fixpoint cache directory, like batch does",
    )
    an_p.add_argument("--trace", default=None, metavar="FILE", help=trace_help)
    an_p.set_defaults(fn=cmd_analyze)

    batch_p = sub.add_parser(
        "batch",
        help="run many (program x preset) analyses through the fixpoint "
        "cache and a worker pool (the repro.service layer)",
    )
    batch_p.add_argument(
        "programs", nargs="*", default=[], help="source files (language by extension)"
    )
    batch_p.add_argument(
        "--corpus",
        action="append",
        default=[],
        metavar="LANG",
        help="add every built-in corpus program of a language (cps|lam|fj); "
        "repeatable",
    )
    batch_p.add_argument(
        "--preset",
        action="append",
        default=None,
        help="preset(s) to run each program under (repeatable; default 1cfa)",
    )
    batch_p.add_argument("--lang", choices=("cps", "lam", "fj", "imp"))
    batch_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for cache misses (1 = inline, no pool)",
    )
    batch_p.add_argument(
        "--cache-dir",
        default=None,
        help="fixpoint cache directory (created if missing); omit to run uncached",
    )
    batch_p.add_argument(
        "--no-cache",
        action="store_true",
        help="neither consult nor fill the cache (even with --cache-dir)",
    )
    batch_p.add_argument(
        "--report", default=None, help="write the machine-readable batch report here"
    )
    batch_p.add_argument(
        "--flows",
        action="store_true",
        help="include full flow tables in the report (larger output)",
    )
    batch_p.add_argument("--trace", default=None, metavar="FILE", help=trace_help)
    batch_p.set_defaults(fn=cmd_batch)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="differential soundness fuzzing: generate seeded imp programs, "
        "run them concretely and abstractly across a preset matrix, assert "
        "abstract covers concrete (the nightly CI lane)",
    )
    fuzz_p.add_argument(
        "--seed", type=int, default=0, help="generator seed (same seed, same corpus)"
    )
    fuzz_p.add_argument(
        "--count", type=int, default=100, help="number of programs to generate"
    )
    fuzz_p.add_argument(
        "--preset",
        action="append",
        default=None,
        help="preset(s) to check coverage under (repeatable; default: the "
        "context-sensitive matrix of repro.service.fuzz.FUZZ_PRESETS)",
    )
    fuzz_p.add_argument(
        "--max-steps",
        type=int,
        default=200_000,
        help="concrete-run budget; programs exceeding it are skipped",
    )
    fuzz_p.add_argument(
        "--max-evals",
        type=int,
        default=10_000,
        help="per-preset abstract evaluation budget; exceeding it aborts "
        "(a deterministic count, so reports stay byte-identical)",
    )
    fuzz_p.add_argument(
        "--report", default=None, help="write the deterministic JSON report here"
    )
    fuzz_p.set_defaults(fn=cmd_fuzz)

    serve_p = sub.add_parser(
        "serve",
        help="run the resident analysis server: a warm in-process engine "
        "(persistent intern pool, hot fixpoint LRU over the disk cache) "
        "behind a newline-JSON socket protocol (see repro.serve)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free one)"
    )
    serve_p.add_argument(
        "--cache-dir",
        default=None,
        help="fixpoint cache directory backing the disk tier (created if "
        "missing); omit to serve from the hot tier alone",
    )
    serve_p.add_argument(
        "--workers", type=int, default=2, help="analysis worker threads"
    )
    serve_p.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help="max requests in flight before queue-full errors",
    )
    serve_p.add_argument(
        "--hot-entries",
        type=int,
        default=256,
        help="hot in-memory LRU capacity (fixed points)",
    )
    serve_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request timeout in seconds (requests may override)",
    )
    serve_p.add_argument(
        "--intern-limit",
        type=int,
        default=None,
        help="clear the intern pool (and hot tier) when it exceeds this "
        "many canonical terms; default unbounded",
    )
    serve_p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="collect a lifetime trace of every served request's analysis "
        "phases; written on graceful shutdown (" + trace_help + ")",
    )
    serve_p.set_defaults(fn=cmd_serve)

    stats_p = sub.add_parser(
        "stats",
        help="top-style view of a running repro serve: requests, tiers, "
        "latency percentiles, hot/cache/intern occupancy",
    )
    stats_p.add_argument("--host", default="127.0.0.1")
    stats_p.add_argument("--port", type=int, required=True)
    stats_p.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="refresh every SECONDS (with --count shots; default one shot)",
    )
    stats_p.add_argument(
        "--count",
        type=int,
        default=10,
        help="shots to take under --watch (default 10)",
    )
    stats_p.add_argument(
        "--prometheus",
        action="store_true",
        help="print the raw Prometheus text exposition (the metrics method) "
        "instead of the rendered view",
    )
    stats_p.add_argument(
        "--timeout", type=float, default=60.0, help="socket timeout in seconds"
    )
    stats_p.set_defaults(fn=cmd_stats)

    client_p = sub.add_parser(
        "client",
        help="send one request to a running repro serve and print the "
        "JSON response",
    )
    client_p.add_argument(
        "method",
        choices=(
            "ping",
            "analyse",
            "reanalyse",
            "batch",
            "stats",
            "metrics",
            "shutdown",
        ),
    )
    client_p.add_argument(
        "program",
        nargs="?",
        default=None,
        help="source file to analyse (language by extension; shorthand for "
        "building params)",
    )
    client_p.add_argument("--host", default="127.0.0.1")
    client_p.add_argument("--port", type=int, required=True)
    client_p.add_argument(
        "--json",
        default=None,
        help="request params as a JSON object (the full surface; "
        "convenience flags below are merged over it)",
    )
    client_p.add_argument("--lang", choices=("cps", "lam", "fj", "imp"))
    client_p.add_argument("--corpus", default=None, help="corpus program name")
    client_p.add_argument("--preset", default=None)
    client_p.add_argument(
        "--flows", action="store_true", help="include full flow tables"
    )
    client_p.add_argument(
        "--timeout", type=float, default=60.0, help="socket timeout in seconds"
    )
    client_p.set_defaults(fn=cmd_client)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
