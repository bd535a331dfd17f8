"""The CPS analysis family: collecting semantics, k-CFA, widening, counting, GC."""

import pytest

from config_helpers import run_config
from repro.config import AnalysisConfig, assemble
from repro.core.addresses import Binding
from repro.core.lattice import AbsNat
from repro.core.store import CountingStore
from repro.cps.syntax import Lam
from repro.corpus.cps_programs import PROGRAMS, heap_clone, id_chain


def flow_sizes(result):
    return {var: len(lams) for var, lams in result.flows_to().items()}


class TestCollectingSemantics:
    def test_identity_reaches_exit(self):
        result = run_config("cps", PROGRAMS["identity"], addressing="concrete")
        assert result.reaching_exit()

    def test_concrete_collecting_is_exact_on_identity(self):
        result = run_config("cps", PROGRAMS["identity"], addressing="concrete")
        # unique addresses: every variable flows to exactly one lambda
        assert all(n == 1 for n in flow_sizes(result).values())

    def test_kleene_and_worklist_agree(self):
        program = PROGRAMS["mj09"]
        analysis = assemble(AnalysisConfig(language="cps", k=1))
        fp_kleene = analysis.run(program, worklist=False).fp
        fp_worklist = analysis.run(program, worklist=True).fp
        assert fp_kleene == fp_worklist


class TestPolyvariance:
    """The mj09 example: the heart of experiments E3/E7."""

    def test_zerocfa_merges_the_two_id_results(self):
        flows = flow_sizes(run_config("cps", PROGRAMS["mj09"], addressing="zerocfa"))
        assert flows["a"] == 2
        assert flows["b"] == 2
        assert flows["x"] == 2

    def test_onecfa_separates_the_two_id_results(self):
        flows = flow_sizes(run_config("cps", PROGRAMS["mj09"], k=1))
        assert flows["a"] == 1
        assert flows["b"] == 1

    def test_precision_never_decreases_with_k(self):
        for name in ("identity", "mj09", "id-id", "self-apply"):
            f1 = run_config("cps", PROGRAMS[name], k=1).flows_to()
            f0 = run_config("cps", PROGRAMS[name], k=0).flows_to()
            for var, lams in f1.items():
                assert lams <= f0.get(var, lams)

    def test_id_chain_separation_grows_with_n(self):
        program = id_chain(4)
        flows0 = flow_sizes(run_config("cps", program, addressing="zerocfa"))
        # monovariant: all four arguments merge through the shared parameter
        assert flows0["x"] == 4
        # 1CFA: per-address (per-context) bindings of x each hold one lambda
        per_addr = run_config("cps", program, k=1).flows_per_address()
        x_addrs = [a for a in per_addr if getattr(a, "var", a) == "x"]
        assert len(x_addrs) == 4
        assert all(len(per_addr[a]) == 1 for a in x_addrs)

    def test_kcfa0_equals_zerocfa_flows(self):
        for name in ("identity", "mj09", "omega"):
            fk = run_config("cps", PROGRAMS[name], k=0).flows_to()
            fz = run_config("cps", PROGRAMS[name], addressing="zerocfa").flows_to()
            assert fk == fz


class TestTermination:
    def test_omega_terminates_abstractly(self):
        result = run_config("cps", PROGRAMS["omega"], addressing="zerocfa")
        assert result.num_states() >= 2
        assert not result.reaching_exit()  # omega never exits

    def test_omega_terminates_with_1cfa(self):
        assert run_config("cps", PROGRAMS["omega"], k=1).num_states() >= 2


class TestSharedStoreWidening:
    def test_shared_store_covers_per_state_flows(self):
        for name in ("identity", "mj09", "omega"):
            per_state = run_config("cps", PROGRAMS[name], k=1).flows_to()
            shared = run_config("cps", PROGRAMS[name], k=1, widening="store").flows_to()
            for var, lams in per_state.items():
                assert lams <= shared.get(var, frozenset())

    def test_shared_store_state_set_covers_per_state(self):
        for name in ("identity", "mj09"):
            per_state = run_config("cps", PROGRAMS[name], k=1).states()
            shared = run_config("cps", PROGRAMS[name], k=1, widening="store").states()
            assert per_state <= shared

    def test_heap_cloning_blowup_vs_shared(self):
        program = heap_clone(6)
        per_state = run_config("cps", program, k=1)
        shared = run_config("cps", program, k=1, widening="store")
        # per-state: one store per choice prefix; shared: linear
        assert per_state.num_elements() > 4 * shared.num_elements()

    def test_blowup_is_exponential_in_n(self):
        small = run_config("cps", heap_clone(3), k=1).num_elements()
        big = run_config("cps", heap_clone(6), k=1).num_elements()
        assert big >= 4 * small


class TestCountingStore:
    def test_counting_plugs_in_without_changing_flows(self):
        program = PROGRAMS["mj09"]
        plain = run_config("cps", program, k=1, widening="store").flows_to()
        counted = run_config(
            "cps", program, k=1, widening="store", counting=True
        ).flows_to()
        assert plain == counted

    def test_single_bindings_counted_one(self):
        # per-state stores: each configuration's store is rebuilt
        # deterministically, so straight-line allocations stay at ONE
        result = run_config("cps", PROGRAMS["identity"], k=1, counting=True)
        singles = result.singleton_counts()
        assert singles  # straight-line code: everything allocated once
        for addr in singles:
            assert result.count_of(addr) is AbsNat.ONE

    def test_shared_store_counting_drifts_soundly(self):
        # re-analysis against the global store bumps counts: sound (MANY
        # over-approximates ONE) but deliberately imprecise
        per_state = run_config("cps", PROGRAMS["identity"], k=1, counting=True)
        shared = run_config(
            "cps", PROGRAMS["identity"], k=1, widening="store", counting=True
        )
        assert len(shared.singleton_counts()) <= len(per_state.singleton_counts())

    def test_loop_bindings_counted_many(self):
        result = run_config(
            "cps", PROGRAMS["omega"], k=0, widening="store", counting=True
        )
        store = result.global_store()
        counting = result.store_like
        assert isinstance(counting, CountingStore)
        counts = {a: counting.count(store, a) for a in counting.addresses(store)}
        # omega rebinds its single variable forever: count must reach MANY
        assert AbsNat.MANY in counts.values()

    def test_per_state_counting_also_works(self):
        result = run_config("cps", PROGRAMS["identity"], k=1, counting=True)
        assert result.reaching_exit()


class TestAbstractGC:
    def test_gc_preserves_flows_of_live_variables(self):
        program = PROGRAMS["identity"]
        with_gc = run_config("cps", program, k=1, gc=True).flows_to()
        without = run_config("cps", program, k=1).flows_to()
        # x and k are live (read) while bound: their flows survive GC.
        # r is dead at Exit, so GC legitimately drops it.
        assert with_gc.get("x") == without.get("x")
        assert with_gc.get("k") == without.get("k")
        assert "r" not in with_gc

    def test_gc_shrinks_or_preserves_store(self):
        for name in ("identity", "mj09", "id-id"):
            with_gc = run_config("cps", PROGRAMS[name], k=1, gc=True)
            without = run_config("cps", PROGRAMS[name], k=1)
            assert with_gc.store_size() <= without.store_size()

    def test_gc_never_loses_exit_reachability(self):
        for name in ("identity", "mj09", "id-id", "self-apply"):
            assert run_config("cps", PROGRAMS[name], k=1, gc=True).reaching_exit()

    def test_gc_can_improve_precision(self):
        # dead bindings dropped => flows-to domain can only shrink
        program = PROGRAMS["mj09"]
        gc_flows = run_config("cps", program, k=0, gc=True).flows_to()
        plain_flows = run_config("cps", program, addressing="zerocfa").flows_to()
        for var, lams in gc_flows.items():
            assert lams <= plain_flows.get(var, frozenset())


class TestResultAccessors:
    def test_states_and_configs(self):
        result = run_config("cps", PROGRAMS["identity"], k=1)
        assert result.num_states() <= result.num_configs() <= result.num_elements()

    def test_flows_to_values_are_lambdas(self):
        flows = run_config("cps", PROGRAMS["mj09"], addressing="zerocfa").flows_to()
        for lams in flows.values():
            assert all(isinstance(value, Lam) for value in lams)

    def test_global_store_has_bindings(self):
        result = run_config("cps", PROGRAMS["identity"], k=1)
        assert result.store_size() > 0

    def test_singleton_counts_requires_counting_store(self):
        result = run_config("cps", PROGRAMS["identity"], k=1)
        with pytest.raises(TypeError):
            result.singleton_counts()

    def test_zerocfa_addresses_are_bare_variables(self):
        result = run_config("cps", PROGRAMS["identity"], addressing="zerocfa")
        addrs = set(result.store_like.addresses(result.global_store()))
        assert all(isinstance(a, str) for a in addrs)

    def test_kcfa_addresses_are_bindings(self):
        result = run_config("cps", PROGRAMS["identity"], k=1)
        addrs = set(result.store_like.addresses(result.global_store()))
        assert all(isinstance(a, Binding) for a in addrs)
