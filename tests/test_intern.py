"""The hash-consing layer: cached hashes, identity-fast equality, interning.

The contract is that :func:`repro.util.intern.hash_consed` and
:func:`repro.util.intern.interned` change the *cost* of hashing and
equality, never their meaning: structural equality, structural hashes
and reprs are untouched, which is what lets the layer sit under every
syntax node, machine state and address without a semantics test
noticing (the interned-vs-plain equivalence tests in
``tests/test_engines.py`` check exactly that end to end).  On top of
that, syntax nodes are canonical at birth: every way of building one --
construction, keywords, ``dataclasses.replace``, copying, unpickling --
returns the pool's node.
"""

import copy
import dataclasses
import pickle
import sys
import threading

import pytest

from repro.core.addresses import Binding
from repro.cps.parser import parse_cexp
from repro.cps.semantics import PState, inject
from repro.cps.syntax import Call, Exit, Lam, Ref, subterms
from repro.util.intern import _HASH_SLOT, intern_pool_size, intern_stats
from repro.util.pcollections import pmap

MJ09_SRC = """
((lambda (id k)
   (id (lambda (z kz) (kz z))
       (lambda (a)
         (id (lambda (y ky) (ky y))
             (lambda (b) (exit))))))
 (lambda (x j) (j x))
 (lambda (r) (exit)))
"""


def rebuild(value):
    """Build ``value`` again from scratch, field by field, by keyword."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: rebuild(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
        return type(value)(**fields)
    if isinstance(value, tuple):
        return tuple(rebuild(item) for item in value)
    return value


class TestHashConsed:
    def test_hash_is_memoized_at_construction(self):
        node = Ref("x")
        assert object.__getattribute__(node, _HASH_SLOT) == hash(node)

    def test_rebuilt_node_is_the_pool_node(self):
        a = Call(Ref("f"), (Ref("x"),))
        b = rebuild(a)
        assert b is a
        assert hash(b) == hash(a) == hash((Ref("f"), (Ref("x"),)))

    def test_unequal_values_stay_unequal(self):
        assert Ref("x") != Ref("y")
        assert Lam(("v",), Exit()) != Lam(("w",), Exit())

    def test_deep_chain_hashes_without_recursion_blowup(self):
        # eager (bottom-up) memoization: hashing a 3000-deep term must not
        # recurse through the whole spine
        body = Exit()
        for i in range(3000):
            body = Call(Ref(f"f{i}"), (Lam((f"v{i}",), body),))
        assert isinstance(hash(body), int)

    def test_pickle_strips_and_recomputes_the_memo(self):
        # string hashes are per-process-randomized, so the memo must not
        # travel in the pickle; the constructor recomputes it on load
        node = Call(Ref("f"), (Ref("x"),))
        assert _HASH_SLOT.encode() not in pickle.dumps(node)
        clone = pickle.loads(pickle.dumps(node))
        assert clone is node and hash(clone) == hash(node)

    def test_unpickled_values_carry_their_memo(self):
        """Unpickling goes through the constructor, so the memo is always
        there -- for pooled syntax and unpooled machine values alike."""
        node = Ref("zz")
        state = PState(Call(node, ()), pmap({"k": frozenset([node])}))
        assert _HASH_SLOT.encode() not in pickle.dumps(state)
        clone = pickle.loads(pickle.dumps(state))
        assert clone is not state and clone == state
        assert object.__getattribute__(clone, _HASH_SLOT) == hash(state)
        assert clone.ctrl is state.ctrl

    def test_machine_states_and_addresses_are_cached_too(self):
        state = inject(parse_cexp(MJ09_SRC))
        addr = Binding("x", ("call-site",))
        assert object.__getattribute__(state, _HASH_SLOT) == hash(state)
        assert object.__getattribute__(addr, _HASH_SLOT) == hash(addr)

    def test_pstate_eq_is_identity_fast_on_self(self):
        state = PState(Exit(), pmap())
        assert state == state


class TestCanonicalAtBirth:
    def test_construction_canonicalizes_equal_values(self):
        a = Call(Ref("g"), (Ref("q"),))
        b = Call(Ref("g"), (Ref("q"),))
        assert a is b

    def test_distinct_values_stay_distinct(self):
        assert Ref("only-a") is not Ref("only-b")

    def test_parser_shares_whole_trees(self):
        # the same source parsed twice yields pointer-identical trees
        t1 = parse_cexp(MJ09_SRC)
        t2 = parse_cexp(MJ09_SRC)
        assert t1 is t2

    def test_repeated_subterms_are_shared_within_one_parse(self):
        term = parse_cexp("((lambda (x k) (k x)) (lambda (x k) (k x)) (lambda (r) (exit)))")
        fun, arg = term.fun, term.args[0]
        assert fun is arg

    def test_pool_grows_monotonically(self):
        before = intern_pool_size()
        Ref("fresh-pool-entry")
        assert intern_pool_size() >= before

    def test_constructor_argument_errors_stay_type_errors(self):
        with pytest.raises(TypeError):
            Ref()
        with pytest.raises(TypeError):
            Ref("x", "y")
        with pytest.raises(TypeError):
            Ref(name="x")

    def test_keyword_replace_copy_and_pickle_return_the_node(self):
        """Every way of making a node again hands back the canonical one --
        on a 600-link chain, with no ``RecursionError``."""
        from repro.corpus.cps_programs import id_chain
        from repro.service.cache import ensure_deep_pickle

        deep = id_chain(600)
        assert Call(fun=deep.fun, args=deep.args) is deep
        assert Call(deep.fun, args=deep.args) is deep
        assert dataclasses.replace(deep) is deep
        assert dataclasses.replace(deep, args=deep.args) is deep
        assert copy.copy(deep) is deep
        assert copy.deepcopy(deep) is deep
        assert copy.deepcopy({"p": [deep]})["p"][0] is deep
        # pickling a deep term recurses once per level; every service
        # pickle boundary raises the limit first, as here
        ensure_deep_pickle()
        assert pickle.loads(pickle.dumps(deep)) is deep

    def test_replace_with_a_change_is_canonical_too(self):
        term = Call(Ref("r-f"), (Ref("r-x"),))
        swapped = dataclasses.replace(term, fun=Ref("r-g"))
        assert swapped is Call(Ref("r-g"), (Ref("r-x"),))

    def test_concurrent_misses_install_one_canonical_value(self):
        """Two threads building equal, not-yet-pooled nodes must get the
        same canonical object back.

        The keys share their hash with a pooled decoy, so every pool
        probe for a key calls the decoy's ``__eq__``.  A key's first
        probe (the unlocked lookup) marks it probed; its second (the
        install, or the re-check under the lock) waits until the other
        key has probed too.  Both lookups therefore miss before either
        thread installs -- the race, forced without timing.
        """
        probed = {"a": threading.Event(), "b": threading.Event()}
        probes: dict = {}

        class Decoy:
            def __hash__(self) -> int:
                return 7

            def __eq__(self, other: object) -> bool:
                tag = getattr(other, "tag", None)
                if tag in probed:
                    probes[tag] = probes.get(tag, 0) + 1
                    if probes[tag] == 1:
                        probed[tag].set()
                    elif probes[tag] == 2:
                        peer = "b" if tag == "a" else "a"
                        assert probed[peer].wait(timeout=60)
                return False

        class Key:
            def __init__(self, tag: str) -> None:
                self.tag = tag

            def __hash__(self) -> int:
                return 7

            def __eq__(self, other: object) -> bool:
                return isinstance(other, Key)

        Ref(Decoy())
        before = intern_stats()
        results: dict = {}
        threads = [
            threading.Thread(target=lambda k=k: results.__setitem__(k.tag, Ref(k)))
            for k in (Key("a"), Key("b"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results["a"] is results["b"]
        assert intern_stats()["misses"] == before["misses"] + 1

    def test_eight_threads_building_one_term_get_one_object(self):
        """Eight threads build the same fresh term at once: every thread
        gets the same object, and the pool grows by exactly the term's
        distinct nodes."""
        links = 40

        def build():
            term = Ref("race-leaf")
            for i in range(links):
                term = Lam((f"race-v{i}",), Call(Ref("race-k"), (term,)))
            return term

        barrier = threading.Barrier(8)
        results: list = [None] * 8

        def worker(slot: int) -> None:
            barrier.wait(timeout=60)
            results[slot] = build()

        before = intern_stats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        after = intern_stats()
        assert all(result is results[0] for result in results)
        distinct = {id(node) for node in subterms(results[0])}
        assert len(distinct) == 2 * links + 2  # per link a Lam and a Call
        assert after["misses"] - before["misses"] == len(distinct)


class TestPoolLifecycle:
    """``intern_stats`` / ``clear_intern_pool``: the pool in long-lived hosts.

    The pool is global, unbounded and holds strong references -- fine for
    batch corpus analyses, unacceptable for a service that parses
    unboundedly many distinct programs.  These tests pin the escape
    hatch: stats expose growth, clearing bounds it, and clearing never
    breaks the identity-fast ``__eq__`` (equality stays structural; only
    cross-boundary pointer identity is lost).
    """

    def test_intern_stats_shape(self):
        stats = intern_stats()
        assert set(stats) == {"size", "hits", "misses"}
        assert stats["size"] == intern_pool_size()

    def test_stats_count_hits_and_misses(self):
        before = intern_stats()
        Ref("stats-miss-probe")  # new: a miss
        Ref("stats-miss-probe")  # equal again: a hit
        after = intern_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_rebuilding_the_canonical_object_is_a_hit(self):
        """misses == total pool growth: building the canonical node again
        must not count as a miss."""
        canonical = Ref("canonical-hit-probe")
        before = intern_stats()
        assert Ref("canonical-hit-probe") is canonical
        after = intern_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1
        assert after["size"] == before["size"]

    def test_clear_empties_the_pool_but_stats_accumulate(self):
        from repro.util.intern import clear_intern_pool

        Ref("clear-probe")
        grown = intern_stats()
        assert grown["size"] > 0
        clear_intern_pool()
        cleared = intern_stats()
        assert cleared["size"] == 0
        # hits/misses survive the clear: traffic is observable for the
        # process's whole life even when the pool itself is bounded
        assert cleared["misses"] >= grown["misses"]

    def test_clear_does_not_break_identity_fast_eq(self):
        from repro.util.intern import clear_intern_pool

        old = Ref("survivor")
        clear_intern_pool()
        new = Ref("survivor")
        # canonical representatives diverge across the boundary ...
        assert new is not old
        # ... but equality and hashing stay structural in every mix
        assert new == old and old == new
        assert hash(new) == hash(old)
        assert len({new, old}) == 1
        # and the identity fast path still fires within each epoch
        assert Ref("survivor") is new

    def test_clear_keeps_memoized_hashes_valid(self):
        from repro.util.intern import clear_intern_pool

        term = parse_cexp("((lambda (x k) (k x)) (lambda (y j) (j y)) (lambda (r) (exit)))")
        h = hash(term)
        clear_intern_pool()
        assert hash(term) == h  # the memo lives on the instance, not the pool
        assert term == parse_cexp(
            "((lambda (x k) (k x)) (lambda (y j) (j y)) (lambda (r) (exit)))"
        )

    def test_fixpoint_runs_do_not_grow_the_pool(self):
        """Machine values stay out of the pool: once the program is
        parsed, running its analyses builds no pooled node, whatever
        the language."""
        from repro.config import assemble, preset_config
        from repro.corpus.fj_programs import PROGRAMS as FJ_PROGRAMS
        from repro.corpus.lam_programs import PROGRAMS as LAM_PROGRAMS

        cells = [
            ("cps", parse_cexp(MJ09_SRC)),
            ("lam", LAM_PROGRAMS["church-two-two"]),
            ("fj", FJ_PROGRAMS["visitor"]),
        ]
        for language, program in cells:
            for preset in ("0cfa", "1cfa", "1cfa-gc"):
                analysis = assemble(preset_config(preset, language), program=program)
                before = intern_stats()
                analysis.run(program)
                after = intern_stats()
                assert after["misses"] == before["misses"], (language, preset)
                assert after["size"] == before["size"], (language, preset)


class TestCanonicalCopies:
    """Pickled terms come back as the pool's nodes, with no extra pass."""

    def test_unpickled_term_is_canonical(self):
        term = parse_cexp("((lambda (x k) (k x)) (lambda (z j) (j z)) (lambda (r) (exit)))")
        clone = pickle.loads(pickle.dumps(term))
        assert clone is term

    def test_unpickled_containers_hold_canonical_terms(self):
        lam = parse_cexp("((lambda (x k) (exit)) (lambda (z j) (exit)) (lambda (r) (exit)))")
        nest = pickle.loads(
            pickle.dumps((frozenset([lam]), pmap({"k": (lam, [lam])}), {"d": lam}))
        )
        fs, pm, d = nest
        assert next(iter(fs)) is lam
        assert pm["k"][0] is lam and pm["k"][1][0] is lam
        assert d["d"] is lam

    def test_two_unpickled_copies_are_one_node(self):
        """Two separately pickled copies of a term load as one object."""
        term = parse_cexp("((lambda (x k) (exit)) (lambda (z j) (exit)) (lambda (r) (exit)))")
        one = pickle.loads(pickle.dumps(term))
        two = pickle.loads(pickle.dumps(term))
        assert one is two is term

    def test_unpickling_after_a_clear_rebuilds_into_the_new_pool(self):
        from repro.util.intern import clear_intern_pool

        old = parse_cexp("((lambda (w k) (k w)) (lambda (r) (exit)))")
        payload = pickle.dumps(old)
        clear_intern_pool()
        new = pickle.loads(payload)
        assert new == old and new is not old
        assert pickle.loads(payload) is new
        assert parse_cexp("((lambda (w k) (k w)) (lambda (r) (exit)))") is new
