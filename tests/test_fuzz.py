"""The differential fuzz harness and the shrinker.

``run_fuzz`` must (a) find zero violations on a healthy pipeline, (b)
render byte-identical reports for one seed -- the property CI diffs --
and (c) when handed a broken "analysis", shrink the failure to a
1-minimal reproducer.  The shrinker is tested directly with synthetic
predicates so its minimality guarantees don't depend on manufacturing
a real unsoundness.
"""

from repro.corpus.generate import generate_corpus
from repro.imp import parse_program, pp
from repro.imp.shrink import shrink, variants
from repro.imp.syntax import Program, SReturn, SWhile, program_size, stmt_blocks
from repro.service.fuzz import check_program, render_fuzz_report, run_fuzz

FAST_PRESETS = ("1cfa",)


class TestCheckProgram:
    def test_covered_on_a_simple_program(self):
        program = parse_program("let i = 0; while (i < 2) { i = i + 1; } return i;")
        verdict = check_program(program, presets=FAST_PRESETS)
        assert verdict == {"1cfa": True}

    def test_budget_exhaustion_skips(self):
        program = parse_program("let i = 0; while (i < 3) { i = i + 1; } return i;")
        assert check_program(program, presets=FAST_PRESETS, max_steps=10) == {}

    def test_recursion_blowup_aborts_the_preset(self, monkeypatch):
        import repro.service.fuzz as fuzz_mod

        def exploding(lowered, concrete_lam, preset, max_evals):
            raise RecursionError

        monkeypatch.setattr(fuzz_mod, "_covers", exploding)
        program = parse_program("return 1;")
        verdict = fuzz_mod.check_program(program, presets=FAST_PRESETS)
        assert verdict == {"1cfa": None}
        # an aborted preset is counted, never treated as a pass or a violation
        report = fuzz_mod.run_fuzz(seed=3, count=2, presets=FAST_PRESETS)
        assert report["aborted"] == {"1cfa": 2}
        assert report["checked"] == {"1cfa": 0}
        assert report["violations"] == []

    def test_eval_budget_aborts_deterministically(self):
        # a tiny budget turns every abstract run into a FixpointDiverged
        # abort -- counted per preset, never a violation
        program = parse_program("let i = 0; while (i < 2) { i = i + 1; } return i;")
        verdict = check_program(program, presets=FAST_PRESETS, max_evals=3)
        assert verdict == {"1cfa": None}
        report = run_fuzz(seed=5, count=2, presets=FAST_PRESETS, max_evals=3)
        again = run_fuzz(seed=5, count=2, presets=FAST_PRESETS, max_evals=3)
        assert report["aborted"]["1cfa"] + report["skipped"] == 2
        assert report["max_evals"] == 3
        assert render_fuzz_report(report) == render_fuzz_report(again)


class TestRunFuzz:
    def test_zero_violations_and_deterministic_report(self):
        report = run_fuzz(seed=42, count=6, presets=FAST_PRESETS)
        again = run_fuzz(seed=42, count=6, presets=FAST_PRESETS)
        assert report["violations"] == []
        accounted = (
            report["skipped"]
            + report["checked"]["1cfa"]
            + report["aborted"]["1cfa"]
        )
        assert accounted == 6
        assert render_fuzz_report(report) == render_fuzz_report(again)

    def test_report_has_no_timings(self):
        rendered = render_fuzz_report(run_fuzz(seed=1, count=3, presets=FAST_PRESETS))
        assert "seconds" not in rendered and "time" not in rendered

    def test_corpus_digest_matches_generator(self):
        from repro.corpus.generate import corpus_digest

        report = run_fuzz(seed=9, count=4, presets=FAST_PRESETS)
        assert report["corpus_digest"] == corpus_digest(generate_corpus(9, 4))


class TestShrink:
    def _has_while(self, program: Program) -> bool:
        def walk(block):
            return any(
                isinstance(stmt, SWhile) or any(walk(b) for b in stmt_blocks(stmt))
                for stmt in block
            )

        return walk(program.body)

    def test_shrinks_to_one_minimal_loop(self):
        program = parse_program(
            "let a = 3; let b = a * 2;"
            " fn f(x) { return x + 1; }"
            " let i = 0; while (i < 3) { if (a < 2) { b = b + 1; } i = i + 1; }"
            " return f(b);"
        )
        small = shrink(program, self._has_while)
        assert self._has_while(small)
        # 1-minimal: no single edit both shrinks and keeps the property
        for candidate in variants(small):
            if program_size(candidate) < program_size(small):
                assert not self._has_while(candidate)

    def test_predicate_exceptions_reject(self):
        program = parse_program("let x = 1; return x + 1;")

        def fragile(candidate: Program) -> bool:
            # raises on candidates that drop the let (unbound x): shrink
            # must treat that as rejection, not crash
            from repro.imp.lower import lower_program

            lower_program(candidate)
            return any(
                isinstance(stmt, SReturn) for stmt in candidate.body
            )

        small = shrink(program, fragile)
        assert any(isinstance(stmt, SReturn) for stmt in small.body)

    def test_check_budget_bounds_predicate_calls(self):
        program = generate_corpus(21, 1)[0]
        calls = []

        def counting(candidate: Program) -> bool:
            calls.append(1)
            return True

        shrink(program, counting, max_checks=5)
        assert len(calls) <= 5

    def test_shrink_is_deterministic(self):
        program = generate_corpus(33, 1)[0]
        first = shrink(program, self._has_while) if self._has_while(program) else None
        second = shrink(program, self._has_while) if self._has_while(program) else None
        assert pp(first) == pp(second) if first else True

    def test_variants_are_all_smaller_or_rewrites(self):
        program = parse_program("let x = 2; if (x < 3) { x = 1; } return x;")
        seen = list(variants(program))
        assert seen  # non-empty candidate space
        assert all(isinstance(candidate, Program) for candidate in seen)
