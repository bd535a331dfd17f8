"""Direct tests for the generic Collecting instances and the driver."""

from repro.core.addresses import KCFA, ZeroCFA
from repro.core.collecting import PerStateStoreCollecting, SharedStoreCollecting
from repro.core.fixpoint import explore_fp, worklist_explore
from repro.core.gc import MonadicStoreCollector
from repro.core.store import BasicStore
from repro.cps.analysis import AbstractCPSInterface, CPSTouching
from repro.cps.semantics import inject, mnext
from repro.corpus.cps_programs import PROGRAMS


def make_parts(addressing=None, collector=False):
    addressing = addressing or KCFA(1)
    store = BasicStore()
    interface = AbstractCPSInterface(addressing, store)
    gc = (
        MonadicStoreCollector(interface.monad, store, CPSTouching())
        if collector
        else None
    )
    per_state = PerStateStoreCollecting(interface.monad, store, addressing.tau0(), gc)
    step = lambda ps: mnext(interface, ps)
    return interface, per_state, step


class TestPerStateCollecting:
    def test_inject_shape(self):
        _iface, collecting, _step = make_parts()
        seed = collecting.inject("some-state")
        [(pair, store)] = list(seed)
        assert pair == ("some-state", ())
        assert store == collecting.store_like.empty()

    def test_apply_step_unions_successors(self):
        _iface, collecting, step = make_parts()
        fp = collecting.inject(inject(PROGRAMS["identity"]))
        once = collecting.apply_step(step, fp)
        twice = collecting.apply_step(step, once)
        assert once and twice
        assert once != fp

    def test_run_config_returns_frozenset(self):
        _iface, collecting, step = make_parts()
        [config] = list(collecting.inject(inject(PROGRAMS["identity"])))
        successors = collecting.run_config(step, config)
        assert isinstance(successors, frozenset)
        assert len(successors) == 1  # the first transition is deterministic

    def test_lattice_is_powerset(self):
        _iface, collecting, _step = make_parts()
        lat = collecting.lattice()
        assert lat.bottom() == frozenset()
        assert lat.join(frozenset([1]), frozenset([2])) == frozenset([1, 2])

    def test_gc_weaving_changes_stores_not_reachability(self):
        program = PROGRAMS["mj09"]
        _i1, plain, step1 = make_parts()
        _i2, with_gc, step2 = make_parts(collector=True)
        fp_plain = worklist_explore(plain, step1, inject(program), plain.successors_of)
        fp_gc = worklist_explore(with_gc, step2, inject(program), with_gc.successors_of)
        ctrls = lambda fp: {ps.ctrl for (ps, _g), _s in fp}
        assert ctrls(fp_gc) == ctrls(fp_plain)


class TestSharedCollecting:
    def make_shared(self):
        addressing = KCFA(1)
        store = BasicStore()
        interface = AbstractCPSInterface(addressing, store)
        collecting = SharedStoreCollecting(interface.monad, store, addressing.tau0())
        return interface, collecting, (lambda ps: mnext(interface, ps))

    def test_inject_shape(self):
        _iface, collecting, _step = self.make_shared()
        states, store = collecting.inject("s0")
        assert states == frozenset([("s0", ())])
        assert store == collecting.store_like.empty()

    def test_apply_step_keeps_single_store(self):
        _iface, collecting, step = self.make_shared()
        fp = collecting.inject(inject(PROGRAMS["mj09"]))
        for _ in range(3):
            fp = collecting.lattice().join(
                collecting.inject(inject(PROGRAMS["mj09"])),
                collecting.apply_step(step, fp),
            )
        states, store = fp
        assert len(states) >= 2
        assert store  # the global store accumulated bindings

    def test_kleene_against_run_analysis(self):
        _iface, collecting, step = self.make_shared()
        fp = explore_fp(collecting, step, inject(PROGRAMS["identity"]))
        states, _store = fp
        assert any(ps.is_final() for ps, _g in states)


class TestDriver:
    def test_run_analysis_and_worklist_agree(self):
        _iface, collecting, step = make_parts(ZeroCFA())
        initial = inject(PROGRAMS["omega"])
        assert explore_fp(collecting, step, initial) == worklist_explore(
            collecting, step, initial, collecting.successors_of
        )
