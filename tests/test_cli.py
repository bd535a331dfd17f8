"""The command-line front end."""

import pytest
from cli_helpers import run_repro

from repro.cli import build_parser, detect_language, main


@pytest.fixture
def cps_file(tmp_path):
    path = tmp_path / "prog.cps"
    path.write_text(
        "((lambda (x k) (k x)) (lambda (z j) (j z)) (lambda (r) (exit)))"
    )
    return str(path)


@pytest.fixture
def lam_file(tmp_path):
    path = tmp_path / "prog.lam"
    path.write_text(
        "(let* ((id (lambda (x) x)) (a (id (lambda (z) z)))"
        " (b (id (lambda (y) y)))) b)"
    )
    return str(path)


@pytest.fixture
def fj_file(tmp_path):
    path = tmp_path / "prog.fj"
    path.write_text(
        """
        class A extends Object { }
        class B extends Object { }
        class Holder extends Object {
          Object get(Object x) { return x; }
        }
        (A) new Holder().get(new B())
        """
    )
    return str(path)


class TestLanguageDetection:
    def test_from_extension(self):
        assert detect_language("x.cps", None) == "cps"
        assert detect_language("x.lam", None) == "lam"
        assert detect_language("x.fj", None) == "fj"

    def test_explicit_wins(self):
        assert detect_language("x.txt", "cps") == "cps"

    def test_unknown_extension_fails(self):
        with pytest.raises(SystemExit):
            detect_language("x.txt", None)


class TestRun:
    def test_run_cps(self, cps_file, capsys):
        assert main(["run", cps_file]) == 0
        assert "final state" in capsys.readouterr().out

    def test_run_lam(self, lam_file, capsys):
        assert main(["run", lam_file]) == 0
        assert "(lambda (y) y)" in capsys.readouterr().out

    def test_run_fj_reports_value(self, tmp_path, capsys):
        path = tmp_path / "ok.fj"
        path.write_text("class A extends Object { } new A()")
        assert main(["run", str(path)]) == 0
        assert "new A" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_cps_default(self, cps_file, capsys):
        assert main(["analyze", cps_file]) == 0
        out = capsys.readouterr().out
        assert "variable" in out and "states:" in out

    def test_analyze_cps_all_flags(self, cps_file, capsys):
        assert main(["analyze", cps_file, "--k", "0", "--shared", "--counting"]) == 0
        assert "mean flow" in capsys.readouterr().out

    def test_analyze_cps_gc(self, cps_file, capsys):
        assert main(["analyze", cps_file, "--gc"]) == 0
        assert "states:" in capsys.readouterr().out

    def test_analyze_lam(self, lam_file, capsys):
        assert main(["analyze", lam_file, "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "b" in out

    def test_analyze_fj_with_cast_check(self, fj_file, capsys):
        assert main(["analyze", fj_file, "--check-casts"]) == 0
        out = capsys.readouterr().out
        assert "casts that may fail" in out
        assert "(A) applied to a B" in out

    def test_analyze_fj_safe_casts(self, tmp_path, capsys):
        path = tmp_path / "safe.fj"
        path.write_text(
            """
            class A extends Object { }
            class Holder extends Object {
              Object get(Object x) { return x; }
            }
            (A) new Holder().get(new A())
            """
        )
        assert main(["analyze", str(path), "--check-casts"]) == 0
        assert "all casts proved safe" in capsys.readouterr().out


class TestEngineFlag:
    @pytest.mark.parametrize("engine", ["kleene", "depgraph"])
    def test_engine_on_every_language(self, engine, cps_file, lam_file, fj_file, capsys):
        for path in (cps_file, lam_file, fj_file):
            assert main(["analyze", path, "--engine", engine]) == 0
            assert "states:" in capsys.readouterr().out

    def test_depgraph_reports_engine_stats(self, cps_file, capsys):
        assert main(["analyze", cps_file, "--engine", "depgraph"]) == 0
        out = capsys.readouterr().out
        assert "engine: depgraph" in out and "evaluations:" in out

    def test_engines_print_identical_flow_tables(self, lam_file, capsys):
        tables = {}
        for engine in ("kleene", "depgraph"):
            assert main(["analyze", lam_file, "--engine", engine]) == 0
            out = capsys.readouterr().out
            tables[engine] = out[: out.index("states:")]
        assert tables["kleene"] == tables["depgraph"]

    def test_gc_with_global_store_engine_supported(self, cps_file, capsys):
        """GC composes with the depgraph engine and agrees with kleene+gc."""
        tables = {}
        for engine in ("kleene", "depgraph"):
            assert main(["analyze", cps_file, "--engine", engine, "--gc"]) == 0
            out = capsys.readouterr().out
            tables[engine] = out[: out.index("states:")]
        assert tables["kleene"] == tables["depgraph"]

    def test_counting_with_global_store_engine_supported(self, cps_file, capsys):
        """Counting composes with the depgraph engine, same flow table."""
        tables = {}
        for engine in ("kleene", "depgraph"):
            assert main(["analyze", cps_file, "--engine", engine, "--counting"]) == 0
            out = capsys.readouterr().out
            tables[engine] = out[: out.index("states:")]
        assert tables["kleene"] == tables["depgraph"]

    def test_counting_with_kleene_engine_allowed(self, cps_file, capsys):
        assert main(["analyze", cps_file, "--engine", "kleene", "--counting"]) == 0
        assert "states:" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["magic", "worklist"])
    def test_unknown_engine_rejected_by_parser(self, cps_file, engine):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", cps_file, "--engine", engine])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["analyze", "x.cps"])
        assert args.k is None  # "not passed": presets keep their own k
        assert args.engine is None
        assert args.preset is None and not args.list_presets
        assert not args.shared and not args.gc and not args.counting

    @pytest.mark.parametrize("order", ["fifo", "priority"])
    def test_schedule_flag_is_gone(self, order):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "x.cps", "--schedule", order])


class TestPresets:
    def test_list_presets(self, capsys):
        assert main(["analyze", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("concrete", "0cfa", "1cfa-gc", "kcfa-counting-fast"):
            assert name in out

    def test_preset_runs_each_language(self, cps_file, lam_file, fj_file, capsys):
        for path in (cps_file, lam_file, fj_file):
            assert main(["analyze", path, "--preset", "1cfa-gc"]) == 0
            out = capsys.readouterr().out
            assert "preset: 1cfa-gc" in out
            assert "engine: depgraph (versioned, fused)" in out

    def test_preset_agrees_with_fine_grained_flags(self, cps_file, capsys):
        assert main(["analyze", cps_file, "--preset", "1cfa"]) == 0
        via_preset = capsys.readouterr().out
        assert (
            main(
                ["analyze", cps_file, "--k", "1", "--engine", "depgraph",
                 "--store-impl", "versioned"]
            )
            == 0
        )
        via_flags = capsys.readouterr().out
        cut = via_preset.index("states:")
        assert via_preset[:cut] == via_flags[: via_flags.index("states:")]

    def test_preset_field_override(self, cps_file, capsys):
        assert main(["analyze", cps_file, "--preset", "1cfa", "--engine", "kleene",
                     "--store-impl", "persistent"]) == 0
        assert "engine: kleene (persistent, fused)" in capsys.readouterr().out

    def test_unknown_preset_rejected(self, cps_file):
        with pytest.raises(SystemExit, match="unknown preset"):
            main(["analyze", cps_file, "--preset", "9cfa-quantum"])

    def test_invalid_preset_override_rejected(self, cps_file):
        # versioned store under the kleene engine: caught by validation
        with pytest.raises(SystemExit, match="kleene"):
            main(["analyze", cps_file, "--preset", "1cfa", "--engine", "kleene"])

    def test_program_required_without_list(self):
        with pytest.raises(SystemExit, match="program"):
            main(["analyze"])


class TestTransitionFlag:
    def test_fused_on_every_language(self, cps_file, lam_file, fj_file, capsys):
        for path in (cps_file, lam_file, fj_file):
            assert main(
                ["analyze", path, "--engine", "depgraph", "--transition", "fused"]
            ) == 0
            assert "states:" in capsys.readouterr().out

    def test_fused_prints_identical_flow_table(self, lam_file, capsys):
        tables = {}
        for transition in ("generic", "fused"):
            assert main(
                ["analyze", lam_file, "--engine", "depgraph",
                 "--transition", transition]
            ) == 0
            out = capsys.readouterr().out
            tables[transition] = out[: out.index("states:")]
        assert tables["generic"] == tables["fused"]

    def test_generic_matches_fused_on_a_wide_fan_out(self, tmp_path, capsys):
        """Three ten-way closure sets meet at one call, so under 0cfa one
        return address collects a thousand argument frames and a single
        step branches a thousand ways.  The generic transition must
        finish it (each alternative once cost a Python frame) with the
        fused transition's fixed point."""
        from repro.config import assemble, preset_config
        from repro.imp import lower_source

        lines = []
        for group in "abc":
            lines.append(f"fn pick{group}(h) {{ return h; }}")
            for i in range(10):
                lines.append(
                    f"let {group}{i} = pick{group}(fn(p0, p1, p2) {{ return p{i % 3}; }});"
                )
        source = "fn id(a) { return a; }\n" + "\n".join(lines) + "\nreturn a0(b0, c0, id(0));\n"
        path = tmp_path / "wide.imp"
        path.write_text(source)
        outputs = {}
        for transition in ("generic", "fused"):
            assert main(
                ["analyze", str(path), "--preset", "0cfa", "--transition", transition]
            ) == 0
            out = capsys.readouterr().out
            outputs[transition] = out[: out.index("  time:")]
        assert outputs["generic"] == outputs["fused"]
        lowered = lower_source(source)
        fps = {
            transition: assemble(
                preset_config("0cfa", "lam").replace(transition=transition)
            ).run(lowered).fp
            for transition in ("generic", "fused")
        }
        assert fps["generic"] == fps["fused"]

    def test_fused_reported_in_engine_stats_line(self, cps_file, capsys):
        assert main(
            ["analyze", cps_file, "--engine", "depgraph", "--transition", "fused"]
        ) == 0
        assert "fused" in capsys.readouterr().out

    def test_fused_preset_runs(self, cps_file, capsys):
        assert main(["analyze", cps_file, "--preset", "1cfa"]) == 0
        out = capsys.readouterr().out
        assert "states:" in out
        assert "engine: depgraph (versioned, fused)" in out

    def test_transition_overrides_preset(self, cps_file, capsys):
        # a generic preset paired with --transition fused runs fused
        assert main(
            ["analyze", cps_file, "--preset", "1cfa-gc-kleene", "--transition", "fused"]
        ) == 0
        assert "fused" in capsys.readouterr().out
        # and a fused preset paired with --transition generic runs generic
        assert main(
            ["analyze", cps_file, "--preset", "1cfa", "--transition", "generic"]
        ) == 0
        assert "engine: depgraph (versioned)  evaluations" in capsys.readouterr().out

    def test_unknown_transition_rejected_by_parser(self, cps_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", cps_file, "--transition", "jit"]
            )

    def test_transition_default_is_not_passed(self):
        args = build_parser().parse_args(["analyze", "x.cps"])
        assert args.transition is None


class TestBatchCommand:
    def test_batch_cold_then_cached(self, cps_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "fixcache")
        report_path = tmp_path / "report.json"
        argv = [
            "batch", cps_file,
            "--preset", "1cfa", "--preset", "0cfa",
            "--cache-dir", cache_dir,
            "--report", str(report_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "miss" in cold and "hit" not in cold.replace("hits", "")
        assert report_path.exists()

        assert main(argv) == 0
        cached = capsys.readouterr().out
        assert "hit" in cached

        import json

        document = json.loads(report_path.read_text())
        assert document["schema"] == "batch-report/1"
        assert len(document["jobs"]) == 2
        assert all(row["cache"] == "hit" for row in document["jobs"])
        assert document["cache"]["hits"] == 2

    def test_batch_corpus_sweep(self, tmp_path, capsys):
        assert main(["batch", "--corpus", "cps", "--preset", "0cfa"]) == 0
        out = capsys.readouterr().out
        assert "cps:mj09/0cfa" in out

    def test_batch_no_cache(self, cps_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "fixcache")
        argv = ["batch", cps_file, "--cache-dir", cache_dir, "--no-cache"]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hit" not in out.replace("hits", "")

    def test_batch_requires_programs(self):
        with pytest.raises(SystemExit, match="batch needs"):
            main(["batch"])


@pytest.fixture
def imp_file(tmp_path):
    path = tmp_path / "prog.imp"
    path.write_text(
        "let i = 0;\nwhile (i < 3) { i = i + 1; }\nreturn i;\n"
    )
    return str(path)


class TestImpFrontend:
    def test_detects_imp_extension(self):
        assert detect_language("x.imp", None) == "imp"

    def test_run_imp(self, imp_file, capsys):
        assert main(["run", imp_file]) == 0
        # the loop counts to 3: a Scott numeral with three successor layers
        assert capsys.readouterr().out.startswith("value: (lambda")

    def test_analyze_imp(self, imp_file, capsys):
        assert main(["analyze", imp_file, "--preset", "1cfa"]) == 0
        out = capsys.readouterr().out
        assert "states" in out

    def test_batch_mixes_imp_files_and_corpus(self, imp_file, tmp_path, capsys):
        argv = [
            "batch", imp_file,
            "--corpus", "imp",
            "--preset", "1cfa",
            "--cache-dir", str(tmp_path / "fixcache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "imp:arith/1cfa" in out


class TestFuzzCommand:
    def test_fuzz_smoke_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "fuzz.json"
        argv = [
            "fuzz", "--seed", "42", "--count", "3",
            "--preset", "1cfa",
            "--report", str(report_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "no soundness violations" in out
        first = report_path.read_text()

        assert main(argv) == 0
        assert report_path.read_text() == first  # byte-identical rerun

        import json

        document = json.loads(first)
        assert document["schema"] == "fuzz-report/1"
        assert document["seed"] == 42
        assert document["violations"] == []


class TestFrontEndErrors:
    """Malformed programs exit with ``error: <message>``, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "analyze"])
    @pytest.mark.parametrize(
        "lang,source",
        [
            ("cps", "((lambda (x k) (k x))"),
            ("lam", "((lambda (x) x) (lambda (y) y)"),
            ("imp", "let x = ;"),
            ("imp", "return y;"),  # parses, but y is unbound when lowering
            ("fj", "class A extends Object {"),
        ],
    )
    def test_malformed_program_is_a_typed_exit(self, command, lang, source, tmp_path):
        path = tmp_path / f"bad.{lang}"
        path.write_text(source)
        with pytest.raises(SystemExit) as caught:
            main([command, str(path)])
        assert str(caught.value.code).startswith("error: ")


def _lam_nest(depth: int) -> str:
    """A lam program whose parentheses nest exactly ``depth`` deep: a
    chain of applications in argument position, the shape that costs the
    parser the most Python frames per level."""
    inner = "x"
    for _ in range(depth - 4):
        inner = f"(f {inner})"
    return f"((lambda (f) ((lambda (x) {inner}) f)) (lambda (y) y))"


def _depth(sexp) -> int:
    """Parenthesis depth of a :func:`~repro.cps.parser.read_sexp` result."""
    if isinstance(sexp, str):
        return 0
    return 1 + max((_depth(item) for item in sexp), default=0)


def _cps_nest(levels: int) -> str:
    """A cps program alternating calls and lambdas ``levels`` times; its
    parentheses nest ``2 * levels + 3`` deep (cps nests are always odd)."""
    body = "(k x)"
    for i in range(levels):
        body = f"(k (lambda (x{i} k) {body}))"
    return f"((lambda (x k) {body}) (lambda (z j) (j z)) (lambda (r) (exit)))"


def _imp_nest(depth: int) -> str:
    """An imp program whose expressions nest exactly ``depth`` deep."""
    return "return " + "(1 + " * (depth - 1) + "1" + ")" * (depth - 1) + ";"


def _fj_nest(depth: int) -> str:
    """An fj program whose main expression nests exactly ``depth`` deep."""
    inner = "new A()"
    for _ in range(depth - 1):
        inner = f"new B({inner})"
    return f"class A extends Object {{ }}\nclass B extends Object {{ Object f; }}\n{inner}"


class TestNestingLimits:
    """At the parser's nesting limit a program runs; one past it is a
    typed parse error -- never a ``RecursionError`` traceback."""

    def _check_at_limit(self, tmp_path, suffix: str, source: str) -> None:
        path = tmp_path / f"deep.{suffix}"
        path.write_text(source)
        for args in (["analyze", str(path), "--preset", "0cfa"], ["run", str(path)]):
            proc = run_repro(*args)
            assert proc.returncode == 0, proc.stderr[-1000:]
            assert "Traceback" not in proc.stderr

    def _check_past_limit(self, tmp_path, suffix: str, source: str, limit: int) -> None:
        path = tmp_path / f"deep.{suffix}"
        path.write_text(source)
        proc = run_repro("analyze", str(path))
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert f"nested deeper than {limit} at token" in proc.stderr

    def test_lam_at_and_past_the_limit(self, tmp_path):
        from repro.cps.parser import MAX_NESTING, read_sexp, tokenize

        at_limit = _lam_nest(MAX_NESTING)
        assert _depth(read_sexp(tokenize(at_limit))[0]) == MAX_NESTING
        self._check_at_limit(tmp_path, "lam", at_limit)
        self._check_past_limit(tmp_path, "lam", _lam_nest(MAX_NESTING + 1), MAX_NESTING)

    def test_cps_at_and_past_the_limit(self, tmp_path):
        from repro.cps.parser import MAX_NESTING

        deepest = _cps_nest((MAX_NESTING - 3) // 2)
        self._check_at_limit(tmp_path, "cps", deepest)
        self._check_past_limit(
            tmp_path, "cps", _cps_nest((MAX_NESTING - 3) // 2 + 1), MAX_NESTING
        )

    @pytest.mark.parametrize("suffix", ["cps", "lam"])
    def test_5000_deep_parentheses(self, tmp_path, suffix):
        from repro.cps.parser import MAX_NESTING

        self._check_past_limit(tmp_path, suffix, "(" * 5000 + ")" * 5000, MAX_NESTING)

    def test_imp_at_and_past_the_limit(self, tmp_path):
        from repro.imp.parser import MAX_NESTING

        self._check_at_limit(tmp_path, "imp", _imp_nest(MAX_NESTING))
        self._check_past_limit(tmp_path, "imp", _imp_nest(MAX_NESTING + 1), MAX_NESTING)
        self._check_past_limit(tmp_path, "imp", _imp_nest(120), MAX_NESTING)

    @pytest.mark.parametrize("shape", ["plus", "and", "calls", "lets"])
    def test_imp_term_depth_at_and_past_the_limit(self, tmp_path, shape):
        """Long operator chains, call chains and blocks parse flat but lower
        to deep terms: at ``MAX_TERM_DEPTH`` they analyse and run, at 3000
        they are a typed error."""
        from test_imp import CHAINS, longest_accepted

        from repro.imp.parser import MAX_TERM_DEPTH

        make = CHAINS[shape]
        self._check_at_limit(tmp_path, "imp", make(longest_accepted(make)))
        path = tmp_path / "long.imp"
        path.write_text(make(3000))
        proc = run_repro("analyze", str(path))
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert f"deeper than {MAX_TERM_DEPTH}" in proc.stderr

    def test_fj_at_and_past_the_limit(self, tmp_path):
        from repro.fj.parser import MAX_NESTING

        self._check_at_limit(tmp_path, "fj", _fj_nest(MAX_NESTING))
        self._check_past_limit(tmp_path, "fj", _fj_nest(MAX_NESTING + 1), MAX_NESTING)

    @pytest.mark.parametrize("shape", ["calls", "fields"])
    def test_fj_term_depth_at_and_past_the_limit(self, tmp_path, shape):
        """Long selector chains parse flat but build deep terms: at
        ``MAX_TERM_DEPTH`` they analyse and run, at 2000 both commands
        fail with a typed error instead of a ``RecursionError``."""
        from test_fj_frontend import fj_call_chain, fj_field_chain

        from repro.fj.parser import MAX_TERM_DEPTH

        make = fj_call_chain if shape == "calls" else fj_field_chain
        self._check_at_limit(tmp_path, "fj", make(MAX_TERM_DEPTH))
        path = tmp_path / "long.fj"
        path.write_text(make(2000))
        for command in ("analyze", "run"):
            proc = run_repro(command, "--lang", "fj", str(path))
            assert proc.returncode != 0
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("error: ")
            assert f"nested 2000 levels deep, deeper than {MAX_TERM_DEPTH}" in proc.stderr

