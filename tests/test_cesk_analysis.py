"""The abstract CESK analysis family."""


from config_helpers import run_config
from repro.core.lattice import AbsNat
from repro.cesk.concrete import ConcreteCESKInterface, evaluate
from repro.cesk.machine import inject
from repro.cesk.semantics import is_final, mnext_cesk
from repro.corpus.lam_programs import PROGRAMS, apply_tower, eta_chain

TERMINATING = ["id-simple", "mj09", "eta", "church-two-two"]
# programs safe for per-state (heap-cloning) stores; church-two-two
# clones exponentially there (measured in experiment E4)
PER_STATE_SAFE = ["id-simple", "mj09", "eta"]


class TestPolyvariance:
    def test_mj09_zerocfa_merges(self):
        r = run_config("lam", PROGRAMS["mj09"], addressing="zerocfa")
        assert len(r.flows_to()["b"]) == 2
        assert len(r.final_values()) == 2

    def test_mj09_onecfa_separates(self):
        r = run_config("lam", PROGRAMS["mj09"], k=1)
        assert len(r.flows_to()["b"]) == 1
        assert len(r.final_values()) == 1

    def test_final_value_covers_concrete(self):
        # the shared store keeps church-two-two tractable: per-state stores
        # clone exponentially on it (the 6.5 pathology, measured in E4)
        for name in TERMINATING:
            concrete = evaluate(PROGRAMS[name]).lam
            for k in (0, 1):
                abstract = run_config(
                    "lam", PROGRAMS[name], k=k, widening="store"
                ).final_values()
                assert concrete in abstract

    def test_precision_monotone_in_k(self):
        for name in TERMINATING:
            f1 = run_config("lam", PROGRAMS[name], k=1, widening="store").flows_to()
            f0 = run_config("lam", PROGRAMS[name], k=0, widening="store").flows_to()
            for var, lams in f1.items():
                assert lams <= f0.get(var, lams)

    def test_eta_chain_compounds_monovariant_loss(self):
        # deeper eta chains merge more at the shared identity parameter
        shallow = run_config("lam", eta_chain(1), addressing="zerocfa").flows_to()
        deep = run_config("lam", eta_chain(3), addressing="zerocfa").flows_to()
        assert len(deep.get("x", ())) >= len(shallow.get("x", ()))


class TestTermination:
    def test_omega_terminates(self):
        r = run_config("lam", PROGRAMS["omega"], addressing="zerocfa")
        assert r.num_states() > 2
        assert not r.final_states()

    def test_z_loop_terminates(self):
        r = run_config("lam", PROGRAMS["z-loop"], k=1)
        assert r.num_states() > 2


class TestSharedStore:
    def test_shared_covers_per_state(self):
        for name in PER_STATE_SAFE + ["omega"]:
            per_state = run_config("lam", PROGRAMS[name], k=1)
            shared = run_config("lam", PROGRAMS[name], k=1, widening="store")
            for var, lams in per_state.flows_to().items():
                assert lams <= shared.flows_to().get(var, frozenset())

    def test_shared_fixed_point_is_smaller_or_equal(self):
        program = eta_chain(3)
        per_state = run_config("lam", program, k=1)
        shared = run_config("lam", program, k=1, widening="store")
        assert shared.num_elements() <= per_state.num_elements()


class TestGC:
    def test_gc_store_never_larger(self):
        for name in PER_STATE_SAFE:
            plain = run_config("lam", PROGRAMS[name], k=1)
            gc = run_config("lam", PROGRAMS[name], k=1, gc=True)
            assert gc.store_size() <= plain.store_size()

    def test_gc_preserves_final_values(self):
        for name in PER_STATE_SAFE:
            plain = run_config("lam", PROGRAMS[name], k=1)
            gc = run_config("lam", PROGRAMS[name], k=1, gc=True)
            assert evaluate(PROGRAMS[name]).lam in gc.final_values()
            assert gc.final_values() <= plain.final_values()

    def test_gc_can_reduce_state_count(self):
        # GC prunes dead store structure, collapsing otherwise-distinct configs
        program = eta_chain(3)
        plain = run_config("lam", program, k=1)
        gc = run_config("lam", program, k=1, gc=True)
        assert gc.num_elements() <= plain.num_elements()


class TestCounting:
    def test_straightline_counts_stay_one(self):
        r = run_config("lam", PROGRAMS["id-simple"], k=1, counting=True)
        store = r.global_store()
        counting = r.store_like
        from repro.core.addresses import Binding

        var_counts = {
            a: counting.count(store, a)
            for a in counting.addresses(store)
            if isinstance(a, Binding) and isinstance(a.var, str)
        }
        assert var_counts
        assert all(c is AbsNat.ONE for c in var_counts.values())

    def test_loop_counts_reach_many(self):
        r = run_config("lam", PROGRAMS["omega"], k=0, counting=True)
        store = r.global_store()
        counting = r.store_like
        counts = [counting.count(store, a) for a in counting.addresses(store)]
        assert AbsNat.MANY in counts

    def test_counting_preserves_flows(self):
        plain = run_config("lam", PROGRAMS["mj09"], k=1).flows_to()
        counted = run_config("lam", PROGRAMS["mj09"], k=1, counting=True).flows_to()
        assert plain == counted


class TestSoundnessSmoke:
    def test_concrete_trace_controls_covered(self):
        for name in PER_STATE_SAFE:
            program = PROGRAMS[name]
            iface = ConcreteCESKInterface()
            state = inject(program)
            concrete_exprs = set()
            for _ in range(10_000):
                if is_final(state):
                    break
                if state.is_eval():
                    concrete_exprs.add(state.ctrl)
                state = mnext_cesk(iface, state)
            abstract_exprs = {
                s.ctrl for s in run_config("lam", program, k=1).states() if s.is_eval()
            }
            assert concrete_exprs <= abstract_exprs

    def test_scaling_family_analyzable(self):
        r = run_config("lam", apply_tower(6), addressing="zerocfa")
        assert r.final_values()
