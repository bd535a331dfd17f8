"""``StoreLike`` instances: basic, counting and versioned stores (6.2-6.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lattice import AbsNat
from repro.core.store import (
    BasicStore,
    CountingStore,
    GCOverlay,
    MutableStore,
    RecordingStore,
    VersionedCountingStore,
    VersionedStore,
)
from repro.util.pcollections import PMap, pmap

values = st.frozensets(st.integers(0, 5), min_size=1, max_size=3)
addrs = st.sampled_from(["a", "b", "c"])
#: a random script of (addr, value-set) bind operations
bind_scripts = st.lists(st.tuples(addrs, values), max_size=8)


class TestBasicStore:
    def setup_method(self):
        self.s = BasicStore()

    def test_empty_fetch_is_bottom(self):
        assert self.s.fetch(self.s.empty(), "a") == frozenset()

    def test_bind_then_fetch(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        assert self.s.fetch(store, "a") == frozenset([1])

    def test_bind_joins(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.bind(store, "a", frozenset([2]))
        assert self.s.fetch(store, "a") == frozenset([1, 2])

    def test_replace_overwrites(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1, 2]))
        store = self.s.replace(store, "a", frozenset([9]))
        assert self.s.fetch(store, "a") == frozenset([9])

    def test_bind_one_wraps_singleton(self):
        store = self.s.bind_one(self.s.empty(), "a", 7)
        assert self.s.fetch(store, "a") == frozenset([7])

    def test_filter_store(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.bind(store, "b", frozenset([2]))
        filtered = self.s.filter_store(store, lambda addr: addr == "a")
        assert set(self.s.addresses(filtered)) == {"a"}

    def test_update_defaults_to_weak(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.update(store, "a", frozenset([2]))
        assert self.s.fetch(store, "a") == frozenset([1, 2])

    def test_store_lattice_join(self):
        lat = self.s.lattice()
        s1 = self.s.bind(self.s.empty(), "a", frozenset([1]))
        s2 = self.s.bind(self.s.empty(), "a", frozenset([2]))
        joined = lat.join(s1, s2)
        assert self.s.fetch(joined, "a") == frozenset([1, 2])

    @given(bind_scripts)
    def test_fetch_returns_join_of_all_binds(self, script):
        store = self.s.empty()
        expected: dict = {}
        for addr, d in script:
            store = self.s.bind(store, addr, d)
            expected[addr] = expected.get(addr, frozenset()) | d
        for addr, d in expected.items():
            assert self.s.fetch(store, addr) == d

    @given(bind_scripts, addrs, values)
    def test_bind_monotone(self, script, addr, d):
        store = self.s.empty()
        for a, v in script:
            store = self.s.bind(store, a, v)
        bigger = self.s.bind(store, addr, d)
        assert self.s.lattice().leq(store, bigger)


class TestCountingStore:
    def setup_method(self):
        self.s = CountingStore()

    def test_unbound_counts_zero(self):
        assert self.s.count(self.s.empty(), "a") is AbsNat.ZERO

    def test_single_bind_counts_one(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        assert self.s.count(store, "a") is AbsNat.ONE
        assert self.s.fetch(store, "a") == frozenset([1])

    def test_double_bind_counts_many(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.bind(store, "a", frozenset([2]))
        assert self.s.count(store, "a") is AbsNat.MANY
        assert self.s.fetch(store, "a") == frozenset([1, 2])

    def test_replace_preserves_count(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.replace(store, "a", frozenset([9]))
        assert self.s.count(store, "a") is AbsNat.ONE
        assert self.s.fetch(store, "a") == frozenset([9])

    def test_update_is_strong_when_count_is_one(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.update(store, "a", frozenset([9]))
        assert self.s.fetch(store, "a") == frozenset([9])  # strong update

    def test_update_is_weak_when_count_is_many(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.bind(store, "a", frozenset([2]))
        store = self.s.update(store, "a", frozenset([9]))
        assert self.s.fetch(store, "a") == frozenset([1, 2, 9])  # weak update

    def test_singleton_addresses(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.bind(store, "b", frozenset([2]))
        store = self.s.bind(store, "b", frozenset([3]))
        assert self.s.singleton_addresses(store) == frozenset(["a"])

    def test_filter_store(self):
        store = self.s.bind(self.s.empty(), "a", frozenset([1]))
        store = self.s.bind(store, "b", frozenset([2]))
        filtered = self.s.filter_store(store, lambda addr: addr == "b")
        assert set(self.s.addresses(filtered)) == {"b"}
        assert self.s.count(filtered, "a") is AbsNat.ZERO

    def test_store_lattice_joins_counts(self):
        lat = self.s.lattice()
        s1 = self.s.bind(self.s.empty(), "a", frozenset([1]))
        s2 = self.s.bind(self.s.empty(), "a", frozenset([2]))
        joined = lat.join(s1, s2)
        # joining two independent single allocations cannot prove singleness
        # beyond ONE join ONE = ONE (the lattice join, not abstract addition)
        assert self.s.fetch(joined, "a") == frozenset([1, 2])
        assert self.s.count(joined, "a") is AbsNat.ONE

    @given(bind_scripts)
    def test_count_matches_number_of_binds(self, script):
        store = self.s.empty()
        per_addr: dict = {}
        for addr, d in script:
            store = self.s.bind(store, addr, d)
            per_addr[addr] = per_addr.get(addr, 0) + 1
        for addr, n in per_addr.items():
            expected = AbsNat.ONE if n == 1 else AbsNat.MANY
            assert self.s.count(store, addr) is expected

    @given(bind_scripts)
    def test_value_sets_agree_with_basic_store(self, script):
        basic = BasicStore()
        counting = CountingStore()
        bs, cs = basic.empty(), counting.empty()
        for addr, d in script:
            bs = basic.bind(bs, addr, d)
            cs = counting.bind(cs, addr, d)
        for addr, _ in script:
            assert basic.fetch(bs, addr) == counting.fetch(cs, addr)


class TestVersionedStore:
    def setup_method(self):
        self.s = VersionedStore()

    def test_empty_fetch_is_bottom(self):
        assert self.s.fetch(self.s.empty(), "a") == frozenset()
        assert self.s.empty().version("a") == 0

    def test_bind_mutates_in_place(self):
        store = self.s.empty()
        assert self.s.bind(store, "a", frozenset([1])) is store
        assert self.s.fetch(store, "a") == frozenset([1])

    def test_bind_bumps_version_and_logs_only_on_growth(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        assert store.version("a") == 1 and store.changelog == ["a"]
        # a subset re-bind adds nothing: no bump, no log entry
        self.s.bind(store, "a", frozenset([1]))
        assert store.version("a") == 1 and store.changelog == ["a"]
        self.s.bind(store, "a", frozenset([2]))
        assert store.version("a") == 2 and store.changelog == ["a", "a"]
        assert self.s.fetch(store, "a") == frozenset([1, 2])

    def test_mark_and_changed_since(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        mark = store.mark()
        self.s.bind(store, "a", frozenset([1]))  # no growth
        assert store.changed_since(mark) == []
        self.s.bind(store, "b", frozenset([2]))
        self.s.bind(store, "a", frozenset([3]))
        assert store.changed_since(mark) == ["b", "a"]

    def test_replace_overwrites_and_bumps(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1, 2]))
        self.s.replace(store, "a", frozenset([9]))
        assert self.s.fetch(store, "a") == frozenset([9])
        assert store.version("a") == 2
        # replacing with an equal value changes nothing
        self.s.replace(store, "a", frozenset([9]))
        assert store.version("a") == 2

    def test_freeze_and_fetch_from_snapshot(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        snapshot = self.s.freeze(store)
        assert isinstance(snapshot, PMap)
        assert self.s.fetch(snapshot, "a") == frozenset([1])
        assert self.s.fetch(snapshot, "missing") == frozenset()
        assert set(self.s.addresses(snapshot)) == {"a"}

    def test_thaw_copies(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        thawed = self.s.thaw(store)
        assert thawed is not store
        self.s.bind(thawed, "a", frozenset([2]))
        assert self.s.fetch(store, "a") == frozenset([1])
        # thawing a frozen snapshot works too
        from_snapshot = self.s.thaw(self.s.freeze(store))
        assert isinstance(from_snapshot, MutableStore)
        assert self.s.fetch(from_snapshot, "a") == frozenset([1])

    def test_filter_store(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        self.s.bind(store, "b", frozenset([2]))
        filtered = self.s.filter_store(store, lambda addr: addr == "b")
        assert set(self.s.addresses(filtered)) == {"b"}

    @given(bind_scripts)
    def test_freeze_agrees_with_basic_store(self, script):
        basic = BasicStore()
        versioned = VersionedStore()
        bs, vs = basic.empty(), versioned.empty()
        for addr, d in script:
            bs = basic.bind(bs, addr, d)
            versioned.bind(vs, addr, d)
        assert versioned.freeze(vs) == bs

    @given(bind_scripts)
    def test_versions_are_monotone_and_track_growth(self, script):
        versioned = VersionedStore()
        store = versioned.empty()
        history: dict = {}
        for addr, d in script:
            before_value = versioned.fetch(store, addr)
            before_version = store.version(addr)
            versioned.bind(store, addr, d)
            after_value = versioned.fetch(store, addr)
            # value sets only grow, versions never decrease
            assert before_value <= after_value
            assert store.version(addr) >= before_version
            # the version bumps exactly when the value set changed
            assert (store.version(addr) > before_version) == (
                after_value != before_value
            )
            history[addr] = after_value
        # the changelog length is the total number of value changes
        assert store.mark() == sum(store.versions.values())


class TestRecordingStoreBracketing:
    def test_nested_begin_log_raises(self):
        recorder = RecordingStore(BasicStore())
        recorder.begin_log()
        with pytest.raises(RuntimeError, match="already open"):
            recorder.begin_log()
        # the open bracket survives the failed reentry intact
        recorder.bind(recorder.empty(), "a", frozenset([1]))
        reads, writes = recorder.end_log()
        assert writes == frozenset(["a"]) and reads == frozenset()

    def test_sequential_brackets_are_fine(self):
        recorder = RecordingStore(BasicStore())
        sigma = recorder.empty()
        recorder.begin_log()
        sigma = recorder.bind(sigma, "a", frozenset([1]))
        recorder.end_log()
        recorder.begin_log()
        recorder.fetch(sigma, "a")
        reads, writes = recorder.end_log()
        assert reads == frozenset(["a"]) and writes == frozenset()

    def test_sole_fetch_is_the_only_observation(self):
        recorder = RecordingStore(BasicStore())
        sigma = recorder.bind(recorder.empty(), "a", frozenset([1]))
        recorder.begin_log()
        sigma = recorder.bind(sigma, "b", frozenset([2]))  # writes observe nothing
        recorder.fetch(sigma, "a")
        recorder.end_log()
        assert recorder.sole_fetch() == ("a", frozenset([1]))
        for second in (
            lambda: recorder.fetch(sigma, "a"),  # a repeat fetch
            lambda: recorder.update(sigma, "b", frozenset([1])),  # reads a count
        ):
            recorder.begin_log()
            recorder.fetch(sigma, "a")
            second()
            recorder.end_log()
            assert recorder.sole_fetch() is None

    def test_prior_answers_the_first_fetch_with_the_delta_in_order(self):
        recorder = RecordingStore(VersionedStore())
        full = frozenset(range(20))
        sigma = recorder.bind(recorder.empty(), "a", full)
        old = frozenset(range(0, 20, 3))
        recorder.begin_log(prior=("a", old))
        delta = recorder.fetch(sigma, "a")
        again = recorder.fetch(sigma, "a")
        recorder.end_log()
        assert delta == [v for v in full if v not in old]
        assert again == full  # only the first fetch is answered with a delta
        assert recorder.first_fetch == ("a", full)  # the full set is recorded
        # the prior holds for its bracket only, and only for its address
        recorder.begin_log(prior=("b", old))
        assert recorder.fetch(sigma, "a") == full
        recorder.end_log()
        recorder.begin_log()
        assert recorder.fetch(sigma, "a") == full
        recorder.end_log()

    def test_write_logging_is_decided_per_bracket(self):
        recorder = RecordingStore(BasicStore())
        sigma = recorder.empty()
        recorder.begin_log(writes=False)
        sigma = recorder.bind(sigma, "a", frozenset([1]))
        recorder.fetch(sigma, "a")
        reads, writes = recorder.end_log()
        assert (reads, writes) == (frozenset(["a"]), frozenset())
        recorder.begin_log()
        recorder.bind(sigma, "a", frozenset([2]))
        assert recorder.end_log()[1] == frozenset(["a"])


class TestVersionedCountingStore:
    """The counting co-domain on the mutable/versioned representation."""

    def setup_method(self):
        self.s = VersionedCountingStore()

    def test_bind_counts_like_counting_store(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        assert self.s.fetch(store, "a") == frozenset([1])
        assert self.s.count(store, "a") is AbsNat.ONE
        self.s.bind(store, "a", frozenset([2]))
        assert self.s.fetch(store, "a") == frozenset([1, 2])
        assert self.s.count(store, "a") is AbsNat.MANY

    def test_unbound_count_is_zero(self):
        assert self.s.count(self.s.empty(), "a") is AbsNat.ZERO
        assert self.s.fetch(self.s.empty(), "a") == frozenset()

    def test_changelog_records_value_growth_only(self):
        """A count-only change is invisible to ``fetch``, so it must not
        retrigger readers: the changelog skips it."""
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        assert store.changelog == ["a"]
        self.s.bind(store, "a", frozenset([1]))  # count ONE -> MANY, value same
        assert self.s.count(store, "a") is AbsNat.MANY
        assert store.changelog == ["a"]  # no new entry
        self.s.bind(store, "a", frozenset([2]))  # value grows
        assert store.changelog == ["a", "a"]

    def test_update_is_strong_exactly_at_count_one(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        self.s.update(store, "a", frozenset([9]))
        assert self.s.fetch(store, "a") == frozenset([9])  # strong
        self.s.bind(store, "b", frozenset([1]))
        self.s.bind(store, "b", frozenset([1]))
        self.s.update(store, "b", frozenset([9]))
        assert self.s.fetch(store, "b") == frozenset([1, 9])  # weak

    def test_merge_entry_joins_without_double_bump(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        self.s.merge_entry(store, "a", (frozenset([1]), AbsNat.ONE))
        # an entry-level join is not an allocation: count stays ONE
        assert self.s.count(store, "a") is AbsNat.ONE
        self.s.merge_entry(store, "a", (frozenset([2]), AbsNat.MANY))
        assert self.s.fetch(store, "a") == frozenset([1, 2])
        assert self.s.count(store, "a") is AbsNat.MANY

    def test_saturate_bumps_only_named_present_addresses(self):
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        self.s.bind(store, "b", frozenset([2]))
        self.s.saturate(store, ["a", "ghost"])
        assert self.s.count(store, "a") is AbsNat.MANY
        assert self.s.count(store, "b") is AbsNat.ONE
        assert "ghost" not in store

    def test_freeze_matches_counting_store_shape(self):
        persistent = CountingStore()
        p = persistent.bind(persistent.empty(), "a", frozenset([1]))
        p = persistent.bind(p, "a", frozenset([2]))
        store = self.s.empty()
        self.s.bind(store, "a", frozenset([1]))
        self.s.bind(store, "a", frozenset([2]))
        assert self.s.freeze(store) == p

    @given(bind_scripts)
    def test_versions_track_value_changes_exactly(self, script):
        versioned = VersionedCountingStore()
        store = versioned.empty()
        for addr, d in script:
            before_value = versioned.fetch(store, addr)
            before_version = store.version(addr)
            before_count = versioned.count(store, addr)
            versioned.bind(store, addr, d)
            after_value = versioned.fetch(store, addr)
            # value sets and counts only grow, versions never decrease
            assert before_value <= after_value
            assert before_count <= versioned.count(store, addr)
            assert store.version(addr) >= before_version
            # the version bumps exactly when the value set changed
            assert (store.version(addr) > before_version) == (
                after_value != before_value
            )
        assert store.mark() == sum(store.versions.values())


class TestGCOverlay:
    def test_reads_fall_through_to_the_base(self):
        versioned = VersionedStore()
        base = versioned.empty()
        versioned.bind(base, "a", frozenset([1]))
        overlay = GCOverlay(base)
        assert versioned.fetch(overlay, "a") == frozenset([1])
        assert "a" in overlay and len(overlay) == 1

    def test_writes_stay_private_until_merged(self):
        versioned = VersionedStore()
        base = versioned.empty()
        versioned.bind(base, "a", frozenset([1]))
        overlay = GCOverlay(base)
        versioned.bind(overlay, "b", frozenset([2]))
        versioned.bind(overlay, "a", frozenset([3]))
        # the overlay sees both writes, joined over the base values
        assert versioned.fetch(overlay, "b") == frozenset([2])
        assert versioned.fetch(overlay, "a") == frozenset([1, 3])
        # the base saw nothing
        assert versioned.fetch(base, "a") == frozenset([1])
        assert "b" not in base
        assert overlay.written() == {
            "b": frozenset([2]),
            "a": frozenset([1, 3]),
        }

    def test_no_growth_write_records_nothing(self):
        versioned = VersionedStore()
        base = versioned.empty()
        versioned.bind(base, "a", frozenset([1]))
        overlay = GCOverlay(base)
        versioned.bind(overlay, "a", frozenset([1]))  # subset: no growth
        assert overlay.written() == {}

    def test_merge_entry_propagates_live_writes(self):
        versioned = VersionedStore()
        base = versioned.empty()
        versioned.bind(base, "a", frozenset([1]))
        overlay = GCOverlay(base)
        versioned.bind(overlay, "a", frozenset([2]))
        mark = base.mark()
        for addr, entry in overlay.written().items():
            versioned.merge_entry(base, addr, entry)
        assert versioned.fetch(base, "a") == frozenset([1, 2])
        assert base.changed_since(mark) == ["a"]


class TestRecordingStoreGCRoots:
    """Regression: the GC root computation must see every read-log entry,
    including reads of addresses first bound *after* the log opened.

    The engine-side GC sweep runs inside the read/write-log bracket and
    its fetches -- which visit this evaluation's own fresh bindings
    through the overlay -- are the dependency roots.  A sweep performed
    after ``end_log``, or a ``fetch`` that skipped logging because the
    address was already in the write log, would silently drop those
    roots and the dependency-tracked engine would never retrigger the
    configuration (found while wiring GC into the worklist path;
    minimized here and pinned end-to-end below).
    """

    def test_fetch_of_address_bound_after_log_opened_is_recorded(self):
        recorder = RecordingStore(BasicStore())
        sigma = recorder.empty()
        recorder.begin_log()
        sigma = recorder.bind(sigma, "fresh", frozenset(["v"]))
        recorder.fetch(sigma, "fresh")
        reads, writes = recorder.end_log()
        assert "fresh" in writes
        assert "fresh" in reads  # the write must not shadow the read

    def test_gc_sweep_reads_land_in_the_open_log(self):
        from repro.core.gc import reachable_addresses

        recorder = RecordingStore(BasicStore())
        touched = lambda v: frozenset(v[1])  # noqa: E731
        sigma = recorder.bind(recorder.empty(), "root", frozenset([("clo", ("mid",))]))
        recorder.begin_log()
        # "mid" is bound after the log opened, then swept through
        sigma = recorder.bind(sigma, "mid", frozenset([("clo", ("leaf",))]))
        sigma = recorder.bind(sigma, "leaf", frozenset([("clo", ())]))
        live = reachable_addresses(recorder, sigma, frozenset(["root"]), touched)
        reads, _writes = recorder.end_log()
        assert live == frozenset(["root", "mid", "leaf"])
        assert frozenset(["root", "mid", "leaf"]) <= reads

    def test_versioned_gc_engine_retriggers_through_swept_only_address(self):
        """End-to-end minimization on the raw engine with a fake domain.

        Configuration A binds ``cell`` and its successor's GC sweep reads
        it -- that sweep read is A's *only* dependency on ``cell``.  When
        B later grows ``cell``, the engine must retrigger A (whose second
        evaluation reveals an extra successor).  If the sweep ran outside
        the bracket, the dependency would be missed and the extra
        successor never found.
        """
        from repro.core.fixpoint import global_store_explore

        versioned = VersionedStore()
        recorder = RecordingStore(versioned)

        class Touching:
            def touched_by_state(self, pstate):
                return frozenset(["cell"]) if pstate.startswith("S") else frozenset()

            def touched_by_value(self, value):
                return frozenset()

        class Collector:
            touching = Touching()

        class Inner:
            store_like = recorder
            collector = Collector()
            a_evals = 0

            def run_config_pairs(self, step, config):
                (pstate, guts), store = config
                if pstate == "A":
                    Inner.a_evals += 1
                    recorder.bind(store, "cell", frozenset(["v-from-A"]))
                    if Inner.a_evals > 1:
                        return [("SA", 0), ("EXTRA", 0)]
                    return [("SA", 0)]
                if pstate == "B":
                    recorder.bind(store, "cell", frozenset(["v-from-B"]))
                    return [("SB", 0)]
                return []

        class Domain:
            inner = Inner()

            def inject(self, initial):
                return (frozenset([("A", 0), ("B", 0)]), pmap())

        fp_states = {
            pstate
            for (pstate, _guts) in global_store_explore(Domain(), None, "ignored")[0]
        }
        assert "EXTRA" in fp_states


class TestSnapshotRestore:
    """The warm-start boundary: snapshot/restore on the mutable store."""

    def test_snapshot_is_an_immutable_image(self):
        from repro.core.store import VersionedStore

        vs = VersionedStore()
        store = vs.empty()
        vs.bind(store, "a", frozenset([1]))
        snap = store.snapshot()
        vs.bind(store, "a", frozenset([2]))
        vs.bind(store, "b", frozenset([3]))
        assert snap.data == {"a": frozenset([1])}
        assert snap.versions == {"a": 1}
        assert "b" not in snap.data

    def test_restore_resumes_versions_with_an_empty_changelog(self):
        from repro.core.store import MutableStore, VersionedStore

        vs = VersionedStore()
        store = vs.empty()
        vs.bind(store, "a", frozenset([1]))
        vs.bind(store, "a", frozenset([2]))
        resumed = MutableStore.restore(store.snapshot())
        assert resumed.mark() == 0
        assert resumed.changed_since(0) == []
        assert resumed.version("a") == 2  # history continues, not restarts
        # a bind that adds nothing neither bumps nor logs
        vs.bind(resumed, "a", frozenset([1]))
        assert resumed.changed_since(0) == []
        # genuine growth since the snapshot is exactly what the changelog shows
        vs.bind(resumed, "a", frozenset([9]))
        vs.bind(resumed, "c", frozenset([0]))
        assert resumed.changed_since(0) == ["a", "c"]
        assert resumed.version("a") == 3

    def test_of_mapping_wraps_unknown_history(self):
        from repro.core.store import MutableStore, StoreSnapshot
        from repro.util.pcollections import pmap

        snap = StoreSnapshot.of_mapping(pmap({"a": frozenset([1])}))
        assert snap.versions == {"a": 1}
        resumed = MutableStore.restore(snap)
        assert resumed.get("a") == frozenset([1])
        assert StoreSnapshot.of_mapping(resumed).data == snap.data

    def test_restored_store_never_writes_through(self):
        """Restore copies the snapshot's backing dicts: growing the live
        store leaves the snapshot (and its cached hash) untouched."""
        from repro.core.store import MutableStore, StoreSnapshot, VersionedStore
        from repro.util.pcollections import pmap

        snap = StoreSnapshot.of_mapping(pmap({"a": frozenset([1])}))
        before = hash(snap)
        vs = VersionedStore()
        resumed = MutableStore.restore(snap)
        vs.bind(resumed, "a", frozenset([2]))
        vs.bind(resumed, "b", frozenset([3]))
        assert snap.data == {"a": frozenset([1])}
        assert snap.versions == {"a": 1}
        assert hash(snap) == before
        assert pmap(snap.data) == snap.data and pmap(snap.data) is not snap.data

    def test_snapshots_pickle(self):
        import pickle

        from repro.core.store import StoreSnapshot
        from repro.util.pcollections import pmap

        snap = StoreSnapshot.of_mapping(pmap({"a": frozenset([1])}))
        loaded = pickle.loads(pickle.dumps(snap))
        assert loaded == snap
