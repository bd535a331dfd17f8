"""The imp surface-language frontend: parser, lowering, semantics, soundness.

The frontend's contract has three layers, tested in order:

1. the parser round-trips its own pretty-printer (``parse(pp(p)) == p``)
   and rejects ill-formed input;
2. the lowering is *concretely adequate*: lowered programs run on the
   CESK machine and decode to the integers/booleans an ordinary
   interpreter would produce -- over the saturated domain
   ``{0..DOMAIN_BOUND}`` (clamping literals, monus subtraction);
3. the lowering is *abstractly affordable and sound*: every preset in
   the fuzz matrix covers the concrete answer on the handwritten corpus.
"""

import pytest

from repro.cesk.concrete import evaluate
from repro.config import assemble
from repro.corpus.imp_programs import SOURCES
from repro.imp import (
    ImpParseError,
    LoweringError,
    as_int,
    evaluate_imp,
    lower_source,
    parse_program,
    pp,
    truthy,
)
from repro.imp.lower import DOMAIN_BOUND
from repro.lam.syntax import free_vars
from preset_cells import cell_config, preset_cells


class TestParser:
    def test_pp_round_trip_on_corpus(self):
        for name, source in SOURCES.items():
            program = parse_program(source)
            assert parse_program(pp(program)) == program, name

    def test_precedence(self):
        program = parse_program("return 1 + 2 * 3;")
        assert pp(program).strip() == "return 1 + 2 * 3;"
        assert pp(parse_program("return (1 + 2) * 3;")).strip() == "return (1 + 2) * 3;"

    def test_comments_and_whitespace(self):
        program = parse_program("# a comment\nreturn 1;  # trailing\n")
        assert pp(program).strip() == "return 1;"

    def test_fn_decl_is_let_sugar(self):
        sugar = parse_program("fn f(x) { return x; } return f(1);")
        explicit = parse_program("let f = fn (x) { return x; }; return f(1);")
        assert sugar == explicit

    def test_dangling_else_if_chains(self):
        program = parse_program(
            "if (true) { return 1; } else if (false) { return 2; } else { return 3; }"
        )
        assert parse_program(pp(program)) == program

    @pytest.mark.parametrize(
        "bad",
        [
            "let __x = 1;",  # reserved prefix
            "return 1",  # missing semicolon
            "let x = ;",  # missing expression
            "fn f() { return 1; } return f();",  # nullary function
            "if true { return 1; }",  # missing parens
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ImpParseError):
            parse_program(bad)

    def test_empty_loop_body_is_valid(self):
        parse_program("while (false) { } return 0;")

    def test_duplicate_params_rejected(self):
        with pytest.raises(ImpParseError):
            parse_program("fn f(x, x) { return x; } return f(1);")


#: Flat shapes that parse without nesting but lower to terms ``n`` deep.
CHAINS = {
    "plus": lambda n: "return " + " + ".join(["1"] * n) + ";",
    "and": lambda n: "return " + " and ".join(["true"] * n) + ";",
    "calls": lambda n: "fn g(x) { return x; }\nreturn g" + "(g)" * n + ";",
    "lets": lambda n: "".join(f"let x{i} = 1;\n" for i in range(n)) + "return x0;",
}


def longest_accepted(make) -> int:
    """The largest ``n`` whose ``make(n)`` program the parser accepts."""
    low, high = 1, 3000  # accepted, rejected
    while high - low > 1:
        mid = (low + high) // 2
        try:
            parse_program(make(mid))
            low = mid
        except ImpParseError:
            high = mid
    return low


class TestTermDepthLimit:
    """Chains and blocks deeper than ``MAX_TERM_DEPTH`` once lowered are a
    typed parse error, not a ``RecursionError`` inside the lowering."""

    @pytest.mark.parametrize("shape", sorted(CHAINS))
    def test_3000_long_chain_is_a_parse_error(self, shape):
        from repro.imp.parser import MAX_TERM_DEPTH

        with pytest.raises(ImpParseError, match=f"deeper than {MAX_TERM_DEPTH}"):
            lower_source(CHAINS[shape](3000))

    @pytest.mark.parametrize("shape", sorted(CHAINS))
    def test_at_limit_chain_lowers(self, shape):
        from repro.imp.parser import MAX_TERM_DEPTH, term_depth

        make = CHAINS[shape]
        n = longest_accepted(make)
        assert MAX_TERM_DEPTH - 1 <= term_depth(parse_program(make(n))) <= MAX_TERM_DEPTH
        assert free_vars(lower_source(make(n))) == frozenset()


class TestLoweringScope:
    def test_lowered_corpus_is_closed(self):
        for name, source in SOURCES.items():
            assert not free_vars(lower_source(source)), name

    def test_unbound_read_rejected(self):
        with pytest.raises(LoweringError):
            lower_source("return y;")

    def test_assignment_needs_declaration(self):
        with pytest.raises(LoweringError):
            lower_source("x = 1; return x;")

    def test_closures_cannot_assign_captured_variables(self):
        with pytest.raises(LoweringError):
            lower_source("let x = 1; fn f(y) { x = y; return x; } return f(2);")

    def test_inner_let_shadowing_does_not_escape(self):
        # the if-local x is a fresh binding; the outer x stays 1
        assert (
            as_int(
                "let x = 1;"
                " if (true) { let x = 3; x = 2; }"
                " return x;"
            )
            == 1
        )


class TestConcreteSemantics:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("return 0;", 0),
            ("return 1 + 2;", 3),
            ("return 2 * 2;", 4),
            ("return 3 - 1;", 2),
            ("return 1 - 3;", 0),  # monus
            ("let x = 2; return x + x;", 4),
            ("let x = 1; x = x + 1; return x;", 2),
            # control flow
            ("if (1 < 2) { return 3; } else { return 0; }", 3),
            ("if (2 < 1) { return 3; } else { return 0; }", 0),
            ("let y = 0; if (true) { y = 2; } return y;", 2),
            # loops
            ("let i = 0; while (i < 3) { i = i + 1; } return i;", 3),
            ("let n = 4; while (0 < n) { n = n - 1; } return n;", 0),
            (
                "let i = 0; let s = 0;"
                " while (i < 3) { s = s + 1; i = i + 1; } return s;",
                3,
            ),
            # functions
            ("fn inc(n) { return n + 1; } return inc(2);", 3),
            (
                "fn twice(f, x) { return f(f(x)); }"
                " fn inc(n) { return n + 1; } return twice(inc, 1);",
                3,
            ),
            ("let f = fn (a, b) { return a * b; }; return f(2, 2);", 4),
        ],
    )
    def test_as_int(self, source, expected):
        assert as_int(source) == expected

    def test_saturation_clamps_at_the_bound(self):
        top = DOMAIN_BOUND
        assert as_int(f"return {top} + {top};") == top
        assert as_int(f"return {top + 3};") == top
        assert as_int("return 3 * 3;") == top

    @pytest.mark.parametrize(
        "source,expected",
        [
            ("return true;", True),
            ("return false;", False),
            ("return !false;", True),
            ("return 2 == 2;", True),
            ("return 2 == 3;", False),
            ("return 2 <= 2;", True),
            ("return 3 < 3;", False),
            ("return true and false;", False),
            ("return true or false;", True),
            ("return !(1 < 2) or (2 < 1 or true);", True),
        ],
    )
    def test_truthy(self, source, expected):
        assert truthy(evaluate_imp(source)) is expected

    def test_program_value_is_the_return(self):
        value = evaluate_imp("let x = 1; return fn (y) { return y; };")
        assert value.lam.params  # a closure, not a numeral


class TestAbstractSoundness:
    """Abstract covers concrete, per preset, on the handwritten corpus."""

    @pytest.mark.parametrize(
        "preset,transition", preset_cells(("1cfa", "2cfa", "kcfa-counting-fast"))
    )
    def test_presets_cover_concrete_on_corpus(self, preset, transition):
        for name, source in SOURCES.items():
            lowered = lower_source(source)
            concrete = evaluate(lowered, max_steps=200_000)
            config = cell_config(preset, transition, language="lam")
            result = assemble(config).run(lowered, worklist=not config.shared)
            assert concrete.lam in result.final_values(), (name, preset, transition)

    def test_lowering_is_deterministic(self):
        for source in SOURCES.values():
            assert lower_source(source) == lower_source(source)
