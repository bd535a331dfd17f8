"""The concrete FJ machine and the abstract FJ analysis family."""

import pytest

from config_helpers import run_config
from repro.core.lattice import AbsNat
from repro.fj.class_table import ClassTable
from repro.fj.concrete import FJTimeout, evaluate_fj, evaluate_fj_trace, evaluate_fj_with_heap
from repro.fj.parser import parse_program
from repro.fj.semantics import FJCastError, FJStuck
from repro.corpus.fj_programs import PROGRAMS, dispatch_chain

TERMINATING = ["pair", "id-twice", "animals", "visitor", "safe-cast"]


class TestConcreteMachine:
    def test_pair(self):
        assert evaluate_fj(PROGRAMS["pair"]).cls == "B"

    def test_animals_dispatch(self):
        assert evaluate_fj(PROGRAMS["animals"]).cls == "Bark"

    def test_visitor_double_dispatch(self):
        assert evaluate_fj(PROGRAMS["visitor"]).cls == "TagC"

    def test_safe_cast_succeeds(self):
        assert evaluate_fj(PROGRAMS["safe-cast"]).cls == "A"

    def test_bad_cast_raises(self):
        with pytest.raises(FJCastError):
            evaluate_fj(PROGRAMS["bad-cast"])

    def test_field_reads_through_heap(self):
        value, heap = evaluate_fj_with_heap(PROGRAMS["pair"])
        assert value.cls == "B"

    def test_trace_shape(self):
        trace = evaluate_fj_trace(PROGRAMS["pair"])
        assert trace[0].is_eval()
        assert trace[-1].is_return()

    def test_infinite_recursion_times_out(self):
        p = parse_program(
            """
            class Loop extends Object {
              Object go() { return this.go(); }
            }
            new Loop().go()
            """
        )
        with pytest.raises(FJTimeout):
            evaluate_fj(p, max_steps=500)

    def test_missing_method_sticks(self):
        p = parse_program("class A extends Object { } new A().nope()")
        with pytest.raises(FJStuck):
            evaluate_fj(p)

    def test_inherited_method_dispatch(self):
        p = parse_program(
            """
            class Base extends Object { Object me() { return this; } }
            class Derived extends Base { }
            new Derived().me()
            """
        )
        assert evaluate_fj(p).cls == "Derived"

    def test_field_inheritance_layout(self):
        p = parse_program(
            """
            class X extends Object { }
            class Y extends Object { }
            class A extends Object { Object a; }
            class B extends A { Object b; }
            new B(new X(), new Y()).b
            """
        )
        assert evaluate_fj(p).cls == "Y"


class TestAbstractFJ:
    def test_animals_zerocfa_merges_dispatch(self):
        r = run_config("fj", PROGRAMS["animals"], addressing="zerocfa")
        assert r.final_classes() == frozenset(["Bark", "Meow"])

    def test_animals_onecfa_exact(self):
        r = run_config("fj", PROGRAMS["animals"], k=1)
        assert r.final_classes() == frozenset(["Bark"])

    def test_final_classes_cover_concrete(self):
        for name in TERMINATING:
            concrete = evaluate_fj(PROGRAMS[name]).cls
            for k in (0, 1):
                assert concrete in run_config("fj", PROGRAMS[name], k=k).final_classes()

    def test_class_flows_shape(self):
        flows = run_config(
            "fj", PROGRAMS["animals"], addressing="zerocfa"
        ).class_flows()
        assert flows["a"] == frozenset(["Dog", "Cat"])

    def test_infinite_recursion_terminates_abstractly(self):
        p = parse_program(
            """
            class Loop extends Object {
              Object go() { return this.go(); }
            }
            new Loop().go()
            """
        )
        r = run_config("fj", p, addressing="zerocfa")
        assert r.num_states() > 1
        assert not r.final_classes()

    def test_shared_covers_per_state(self):
        for name in ("pair", "animals"):
            per_state = run_config("fj", PROGRAMS[name], k=1)
            shared = run_config("fj", PROGRAMS[name], k=1, engine="kleene")
            for key, classes in per_state.class_flows().items():
                assert classes <= shared.class_flows().get(key, frozenset())

    def test_dispatch_chain_polyvariance(self):
        program = dispatch_chain(3)
        flows0 = run_config("fj", program, addressing="zerocfa").class_flows()
        # monovariant: the shared id parameter merges all three payloads
        assert flows0["x"] == frozenset(["P0", "P1", "P2"])
        r1 = run_config("fj", program, k=1)
        per_addr_x = [
            frozenset(v.cls for v in r1.store_like.fetch(r1.global_store(), a))
            for a in r1.store_like.addresses(r1.global_store())
            if getattr(a, "var", None) == "x"
        ]
        assert per_addr_x and all(len(classes) == 1 for classes in per_addr_x)

    def test_gc_shrinks_or_preserves_store(self):
        for name in ("pair", "animals"):
            plain = run_config("fj", PROGRAMS[name], k=1)
            gc = run_config("fj", PROGRAMS[name], k=1, gc=True)
            assert gc.store_size() <= plain.store_size()
            concrete = evaluate_fj(PROGRAMS[name]).cls
            assert concrete in gc.final_classes()

    def test_counting_straightline_singletons(self):
        r = run_config("fj", PROGRAMS["pair"], k=1, counting=True)
        store = r.global_store()
        counting = r.store_like
        counts = [counting.count(store, a) for a in counting.addresses(store)]
        assert AbsNat.ONE in counts

    def test_counting_preserves_class_flows(self):
        plain = run_config("fj", PROGRAMS["animals"], k=1).class_flows()
        counted = run_config(
            "fj", PROGRAMS["animals"], k=1, counting=True
        ).class_flows()
        assert plain == counted

    def test_list_walk_recursion(self):
        program = PROGRAMS["list-walk"]
        assert evaluate_fj(program).cls == "Nil"
        r = run_config("fj", program, k=1)
        # the traversal's recursive dispatch makes Cons a possible result
        # abstractly (the tail address merges), but Nil must be covered
        assert "Nil" in r.final_classes()

    def test_list_walk_heap_structure(self):
        program = PROGRAMS["list-walk"]
        flows = run_config("fj", program, k=1).class_flows()
        # the Cons.tail field holds both list spines
        assert flows["Cons.tail"] >= frozenset(["Nil"])

    def test_church_bool_dispatch_precision(self):
        program = PROGRAMS["church-bool"]
        assert evaluate_fj(program).cls == "Yes"
        r0 = run_config("fj", program, addressing="zerocfa")
        r1 = run_config("fj", program, k=1)
        assert r0.final_classes() == frozenset(["Yes", "No"])
        assert r1.final_classes() == frozenset(["Yes"])

    def test_cast_safety_analysis(self):
        table = ClassTable.of(PROGRAMS["safe-cast"])
        safe = run_config("fj", PROGRAMS["safe-cast"], k=1)
        assert not safe.possible_cast_failures(table)
        table_bad = ClassTable.of(PROGRAMS["bad-cast"])
        bad = run_config("fj", PROGRAMS["bad-cast"], k=1)
        assert ("A", "B") in bad.possible_cast_failures(table_bad)
