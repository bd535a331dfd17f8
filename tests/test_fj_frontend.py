"""FJ syntax, class tables, parser."""

import pytest

from repro.fj.class_table import ClassTable, ClassTableError
from repro.fj.parser import FJParseError, parse_expr_fj, parse_program, tokenize_fj
from repro.fj.syntax import (
    Cast,
    ClassDef,
    FieldAccess,
    Invoke,
    New,
    OBJECT,
    Program,
    VarE,
    free_vars,
    program_size,
)
from repro.corpus.fj_programs import PROGRAMS, dispatch_chain


class TestTokenizer:
    def test_basic(self):
        assert tokenize_fj("new A ( ) . f") == ["new", "A", "(", ")", ".", "f"]

    def test_comments(self):
        assert tokenize_fj("x // comment\n.f") == ["x", ".", "f"]

    def test_bad_character(self):
        with pytest.raises(FJParseError):
            tokenize_fj("x + y")


class TestExprParser:
    def test_var(self):
        assert parse_expr_fj("x") == VarE("x")

    def test_field_access(self):
        assert parse_expr_fj("x.f") == FieldAccess(VarE("x"), "f")

    def test_chained_access(self):
        assert parse_expr_fj("x.f.g") == FieldAccess(FieldAccess(VarE("x"), "f"), "g")

    def test_invoke(self):
        assert parse_expr_fj("x.m(y, z)") == Invoke(VarE("x"), "m", (VarE("y"), VarE("z")))

    def test_invoke_no_args(self):
        assert parse_expr_fj("x.m()") == Invoke(VarE("x"), "m", ())

    def test_new(self):
        assert parse_expr_fj("new A(x)") == New("A", (VarE("x"),))

    def test_cast(self):
        assert parse_expr_fj("(A) x") == Cast("A", VarE("x"))

    def test_cast_of_new(self):
        assert parse_expr_fj("(A) new B()") == Cast("A", New("B", ()))

    def test_parenthesized_expr(self):
        assert parse_expr_fj("(x.f)") == FieldAccess(VarE("x"), "f")

    def test_cast_then_member(self):
        t = parse_expr_fj("((A) x.m()).f")
        assert isinstance(t, FieldAccess)
        assert isinstance(t.obj, Cast)

    def test_trailing_garbage(self):
        with pytest.raises(FJParseError):
            parse_expr_fj("x y")


class TestProgramParser:
    def test_empty_class(self):
        p = parse_program("class A extends Object { } new A()")
        assert p.classes[0] == ClassDef("A", OBJECT, (), ())
        assert p.main == New("A", ())

    def test_fields_and_methods(self):
        p = parse_program(
            """
            class Q extends Object { }
            class P extends Object {
              Object fst;
              Object snd;
              Object first() { return this.fst; }
            }
            new P(new Q(), new Q()).first()
            """
        )
        cls = p.class_named("P")
        assert cls.fields == (("Object", "fst"), ("Object", "snd"))
        assert cls.methods[0].name == "first"
        assert cls.methods[0].body == FieldAccess(VarE("this"), "fst")

    def test_field_after_method_rejected(self):
        with pytest.raises(FJParseError):
            parse_program(
                "class A extends Object { Object m() { return this; } Object f; } new A(x)"
            )

    def test_corpus_parses(self):
        for name, program in PROGRAMS.items():
            assert isinstance(program, Program), name

    def test_dispatch_chain_generator(self):
        p = dispatch_chain(3)
        assert p.class_named("P2") is not None
        assert program_size(p) > 5
        with pytest.raises(ValueError):
            dispatch_chain(0)


def fj_call_chain(n: int) -> str:
    """``new A()`` followed by ``n`` ``.id()`` calls: a term ``n`` deep."""
    return "class A extends Object { A id() { return this; } }\nnew A()" + ".id()" * n


def fj_field_chain(n: int) -> str:
    """A method body ``this.f.f...`` with ``n`` field selectors."""
    return (
        "class A extends Object { A f; A g() { return this" + ".f" * n + "; } }\n"
        "class B extends Object { }\nnew B()"
    )


class TestTermDepthLimit:
    """Selector chains parse in a loop but build deep terms: past
    ``MAX_TERM_DEPTH`` they are an ``FJParseError``, not a later
    ``RecursionError`` in the typechecker."""

    @pytest.mark.parametrize("make", [fj_call_chain, fj_field_chain])
    def test_at_the_limit_parses(self, make):
        from repro.fj.parser import MAX_TERM_DEPTH

        parse_program(make(MAX_TERM_DEPTH))

    @pytest.mark.parametrize("make", [fj_call_chain, fj_field_chain])
    @pytest.mark.parametrize("extra", [1, 2000])
    def test_past_the_limit_rejected(self, make, extra):
        from repro.fj.parser import MAX_TERM_DEPTH

        n = MAX_TERM_DEPTH + extra
        with pytest.raises(FJParseError, match=f"nested {n} levels deep, deeper than"):
            parse_program(make(n))

    def test_depth_is_exact_across_nesting(self):
        """Casts, ``new`` with arguments and selector arguments each add
        one level; parentheses add none."""
        from repro.fj.parser import MAX_TERM_DEPTH

        def nested(chain: int) -> str:
            inner = "new A()" + ".id()" * chain
            for _ in range(10):
                inner = f"((A) new B({inner}).f)"
            return (
                "class A extends Object { A id() { return this; } }\n"
                "class B extends Object { A f; }\n" + inner
            )

        parse_program(nested(MAX_TERM_DEPTH - 30))
        with pytest.raises(FJParseError, match="deeper than"):
            parse_program(nested(MAX_TERM_DEPTH - 29))


class TestFreeVars:
    def test_this_is_free(self):
        assert free_vars(parse_expr_fj("this.f")) == frozenset(["this"])

    def test_new_args(self):
        assert free_vars(parse_expr_fj("new A(x, y.f)")) == frozenset(["x", "y"])

    def test_cast(self):
        assert free_vars(parse_expr_fj("(A) x")) == frozenset(["x"])


class TestClassTable:
    def make_table(self):
        return ClassTable.of(PROGRAMS["pair"])

    def test_fields_inherited_order(self):
        p = parse_program(
            """
            class C extends Object { }
            class A extends Object { Object a1; }
            class B extends A { Object b1; }
            new B(new C(), new C())
            """
        )
        table = ClassTable.of(p)
        assert table.fields("B") == (("Object", "a1"), ("Object", "b1"))
        assert table.field_index("B", "a1") == 0
        assert table.field_index("B", "b1") == 1

    def test_subtyping_reflexive_transitive(self):
        p = parse_program(
            """
            class A extends Object { }
            class B extends A { }
            class C extends B { }
            new C()
            """
        )
        table = ClassTable.of(p)
        assert table.is_subtype("C", "C")
        assert table.is_subtype("C", "A")
        assert table.is_subtype("C", OBJECT)
        assert not table.is_subtype("A", "C")

    def test_mbody_walks_up(self):
        p = parse_program(
            """
            class A extends Object { Object m() { return this; } }
            class B extends A { }
            new B().m()
            """
        )
        table = ClassTable.of(p)
        mdef, owner = table.mbody("m", "B")
        assert owner == "A"
        assert mdef.name == "m"
        assert table.mbody("missing", "B") is None

    def test_mtype(self):
        table = self.make_table()
        params, ret = table.mtype("setfst", "Pair")
        assert params == ("Object",)
        assert ret == "Pair"

    def test_cycle_detected(self):
        classes = (
            ClassDef("A", "B", (), ()),
            ClassDef("B", "A", (), ()),
        )
        with pytest.raises(ClassTableError):
            ClassTable(classes)

    def test_undefined_super_detected(self):
        with pytest.raises(ClassTableError):
            ClassTable((ClassDef("A", "Ghost", (), ()),))

    def test_duplicate_class_detected(self):
        with pytest.raises(ClassTableError):
            ClassTable((ClassDef("A", OBJECT, (), ()), ClassDef("A", OBJECT, (), ())))

    def test_object_not_redefinable(self):
        with pytest.raises(ClassTableError):
            ClassTable((ClassDef(OBJECT, OBJECT, (), ()),))

    def test_subclasses_of(self):
        p = parse_program(
            """
            class A extends Object { }
            class B extends A { }
            new B()
            """
        )
        table = ClassTable.of(p)
        assert set(table.subclasses_of("A")) == {"A", "B"}
