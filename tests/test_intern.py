"""The hash-consing layer: cached hashes, identity-fast equality, interning.

The contract is that :func:`repro.util.intern.hash_consed` and
:func:`repro.util.intern.intern` change the *cost* of hashing and
equality, never their meaning: structural equality, structural hashes
and reprs are untouched, which is what lets the layer sit under every
syntax node, machine state and address without a semantics test
noticing (the interned-vs-plain equivalence tests in
``tests/test_engines.py`` check exactly that end to end).
"""

import dataclasses
import pickle

from repro.core.addresses import Binding
from repro.cps.parser import parse_cexp
from repro.cps.semantics import PState, inject
from repro.cps.syntax import Call, Exit, Lam, Ref
from repro.util.intern import _HASH_SLOT, intern, intern_pool_size
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
    """A structurally equal but pointer-fresh (un-interned) copy."""
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

    def test_hash_and_eq_stay_structural(self):
        a = Call(Ref("f"), (Ref("x"),))
        b = rebuild(a)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

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
        # travel in the pickle; the lazy fallback recomputes it on demand
        node = Call(Ref("f"), (Ref("x"),))
        assert _HASH_SLOT.encode() not in pickle.dumps(node)
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node and hash(clone) == hash(node)

    def test_hash_recomputed_when_memo_missing(self):
        # the lazy fallback (e.g. instances materialized without __init__)
        node = Ref("zz")
        expected = hash(node)
        object.__delattr__(node, _HASH_SLOT)
        assert hash(node) == expected

    def test_machine_states_and_addresses_are_cached_too(self):
        state = inject(parse_cexp(MJ09_SRC))
        addr = Binding("x", ("call-site",))
        assert object.__getattribute__(state, _HASH_SLOT) == hash(state)
        assert object.__getattribute__(addr, _HASH_SLOT) == hash(addr)

    def test_pstate_eq_is_identity_fast_on_self(self):
        state = PState(Exit(), pmap())
        assert state == state


class TestIntern:
    def test_intern_canonicalizes_equal_values(self):
        a = intern(Call(Ref("g"), (Ref("q"),)))
        b = intern(rebuild(a))
        assert a is b

    def test_intern_keeps_distinct_values_distinct(self):
        assert intern(Ref("only-a")) is not intern(Ref("only-b"))

    def test_parser_interns_shared_subterms(self):
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
        intern(Ref("fresh-pool-entry"))
        assert intern_pool_size() >= before


    def test_concurrent_misses_install_one_canonical_value(self):
        """Two threads interning equal, not-yet-pooled values must get
        the same canonical object back.

        The keys share their hash with a pooled decoy, so every pool
        probe for a key calls the decoy's ``__eq__``.  A key's first
        probe (the unlocked lookup) marks it probed; its second (the
        install, or the re-check under the lock) waits until the other
        key has probed too.  Both lookups therefore miss before either
        thread installs -- the race, forced without timing.
        """
        import threading

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

        intern(Decoy())
        first, second = Key("a"), Key("b")
        results: dict = {}
        threads = [
            threading.Thread(target=lambda k=k: results.__setitem__(k.tag, intern(k)))
            for k in (first, second)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results["a"] is results["b"]


class TestPoolLifecycle:
    """``intern_stats`` / ``clear_intern_pool``: the pool in long-lived hosts.

    The pool is a global, unbounded, strong-reference dict -- fine for
    batch corpus analyses, unacceptable for a service that parses
    unboundedly many distinct programs.  These tests pin the escape
    hatch: stats expose growth, clearing bounds it, and clearing never
    breaks the identity-fast ``__eq__`` (equality stays structural; only
    cross-boundary pointer identity is lost).
    """

    def test_intern_stats_shape(self):
        from repro.util.intern import intern_stats

        stats = intern_stats()
        assert set(stats) == {"size", "hits", "misses"}
        assert stats["size"] == intern_pool_size()

    def test_stats_count_hits_and_misses(self):
        from repro.util.intern import intern_stats

        before = intern_stats()
        intern(Ref("stats-miss-probe"))  # new: a miss
        intern(Ref("stats-miss-probe"))  # equal again: a hit
        after = intern_stats()
        assert after["misses"] >= before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1

    def test_reinterning_the_canonical_object_is_a_hit(self):
        """misses == total pool growth: re-canonicalizing the canonical
        object itself must not count as a miss."""
        from repro.util.intern import intern_stats

        canonical = intern(Ref("canonical-hit-probe"))
        before = intern_stats()
        assert intern(canonical) is canonical
        after = intern_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1
        assert after["size"] == before["size"]

    def test_clear_empties_the_pool_but_stats_accumulate(self):
        from repro.util.intern import clear_intern_pool, intern_stats

        intern(Ref("clear-probe"))
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

        old = intern(Ref("survivor"))
        clear_intern_pool()
        new = intern(Ref("survivor"))
        # canonical representatives diverge across the boundary ...
        assert new is not old
        # ... but equality and hashing stay structural in every mix
        assert new == old and old == new
        assert hash(new) == hash(old)
        assert len({new, old}) == 1
        # and the identity fast path still fires within each epoch
        assert intern(Ref("survivor")) is new

    def test_clear_keeps_memoized_hashes_valid(self):
        from repro.util.intern import clear_intern_pool

        term = parse_cexp("((lambda (x k) (k x)) (lambda (y j) (j y)) (lambda (r) (exit)))")
        h = hash(term)
        clear_intern_pool()
        assert hash(term) == h  # the memo lives on the instance, not the pool
        assert term == parse_cexp(
            "((lambda (x k) (k x)) (lambda (y j) (j y)) (lambda (r) (exit)))"
        )


class TestRehydrate:
    """``rehydrate``: unpickled graphs become pool-canonical again."""

    def test_unpickled_term_is_equal_but_not_canonical(self):
        """The documented hazard, in-process: a pickle round trip yields a
        distinct object whose every comparison is a full structural walk."""
        from repro.util.intern import rehydrate

        term = intern(parse_cexp("((lambda (x k) (k x)) (lambda (z j) (j z)) (lambda (r) (exit)))"))
        copy = pickle.loads(pickle.dumps(term))
        assert copy == term and hash(copy) == hash(term)
        assert copy is not term
        assert rehydrate(copy) is term

    def test_rehydrate_recurses_through_containers(self):
        from repro.util.intern import rehydrate

        lam = intern(parse_cexp("((lambda (x k) (exit)) (lambda (z j) (exit)) (lambda (r) (exit)))"))
        nest = pickle.loads(
            pickle.dumps((frozenset([lam]), pmap({"k": (lam, [lam])}), {"d": lam}))
        )
        fs, pm, d = rehydrate(nest)
        assert next(iter(fs)) is lam
        assert pm["k"][0] is lam and pm["k"][1][0] is lam
        assert d["d"] is lam

    def test_rehydrate_is_deep_safe(self):
        """Chain-shaped terms far past the *default* recursion limit
        rehydrate fine: the walk is iterative.  (The pickle round trip
        itself recurses, which is why every service-layer pickle boundary
        calls ``ensure_deep_pickle`` first -- as here.)"""
        from repro.corpus.cps_programs import id_chain
        from repro.service.cache import ensure_deep_pickle
        from repro.util.intern import rehydrate

        ensure_deep_pickle()
        deep = id_chain(600)
        assert rehydrate(pickle.loads(pickle.dumps(deep))) is deep

    def test_rehydrate_preserves_atoms_and_unknown_objects(self):
        from repro.util.intern import rehydrate

        opaque = object()
        assert rehydrate(42) == 42
        assert rehydrate("x") == "x"
        assert rehydrate(opaque) is opaque

    def test_rehydrate_shares_across_duplicates(self):
        """Two structurally equal unpickled copies map to one canonical
        object."""
        from repro.util.intern import rehydrate

        term = intern(parse_cexp("((lambda (x k) (exit)) (lambda (z j) (exit)) (lambda (r) (exit)))"))
        one = pickle.loads(pickle.dumps(term))
        two = pickle.loads(pickle.dumps(term))
        a, b = rehydrate((one, two))
        assert a is b is term
