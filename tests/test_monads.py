"""Monad laws and combinator behaviour for the monad library (paper section 3).

The three monad laws -- left identity, right identity, associativity --
are property-tested for every instance, with monadic values compared by
*running* them (functions are not comparable directly).  MonadPlus and
MonadState laws, the transformer stack, ``getsNDSet`` and the
generator-replay do-notation get their own suites.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.monads import (
    Identity,
    Just,
    LIST_MONOID,
    ListMonad,
    MaybeMonad,
    Monoid,
    NOTHING,
    Reader,
    State,
    StateT,
    StorePassing,
    Writer,
    ap,
    filter_m,
    fmap,
    fold_m,
    gets_nd_set,
    guard,
    kleisli,
    map_m,
    msum,
    replicate_m,
    run_do,
    sequence_,
    sequence_m,
    when,
)

ints = st.integers(-10, 10)


def run_value(monad, mv):
    """Project a monadic value to comparable data for law checking."""
    if isinstance(monad, (Identity, ListMonad, MaybeMonad)):
        return mv
    if isinstance(monad, Writer):
        return mv
    if isinstance(monad, Reader):
        return mv(7)  # an arbitrary but fixed environment
    if isinstance(monad, State):
        return mv(3)
    if isinstance(monad, StorePassing):
        return monad.run(mv, 0, frozenset())
    if isinstance(monad, StateT):
        return monad.run(mv, 3)
    raise TypeError(monad)


MONADS = [
    Identity(),
    ListMonad(),
    MaybeMonad(),
    Reader(),
    Writer(),
    State(),
    StateT(ListMonad()),
    StorePassing(),
]


@pytest.mark.parametrize("monad", MONADS, ids=lambda m: type(m).__name__)
def test_monad_laws(monad):
    # f and g are Kleisli arrows whose effects differ per monad-free value
    def f(x):
        return monad.unit(x + 1)

    def g(x):
        return monad.unit(x * 2)

    @given(ints)
    def laws(a):
        # left identity: unit a >>= f  ==  f a
        assert run_value(monad, monad.bind(monad.unit(a), f)) == run_value(monad, f(a))
        # right identity: m >>= unit  ==  m
        m = f(a)
        assert run_value(monad, monad.bind(m, monad.unit)) == run_value(monad, m)
        # associativity
        lhs = monad.bind(monad.bind(m, f), g)
        rhs = monad.bind(m, lambda x: monad.bind(f(x), g))
        assert run_value(monad, lhs) == run_value(monad, rhs)

    laws()


class TestListMonad:
    def setup_method(self):
        self.m = ListMonad()

    def test_unit(self):
        assert self.m.unit(3) == [3]

    def test_bind_concatenates(self):
        assert self.m.bind([1, 2], lambda x: [x, x + 10]) == [1, 11, 2, 12]

    def test_mzero_annihilates_bind(self):
        assert self.m.bind(self.m.mzero(), lambda x: [x]) == []

    def test_mplus(self):
        assert self.m.mplus([1], [2, 3]) == [1, 2, 3]

    @given(st.lists(ints, max_size=5), st.lists(ints, max_size=5))
    def test_mplus_associative_with_mzero_unit(self, xs, ys):
        m = self.m
        assert m.mplus(m.mzero(), xs) == xs
        assert m.mplus(xs, m.mzero()) == xs
        assert m.mplus(m.mplus(xs, ys), []) == m.mplus(xs, m.mplus(ys, []))


class TestMaybeMonad:
    def setup_method(self):
        self.m = MaybeMonad()

    def test_nothing_short_circuits(self):
        assert self.m.bind(NOTHING, lambda x: Just(x)) is NOTHING

    def test_just_passes_through(self):
        assert self.m.bind(Just(2), lambda x: Just(x * 2)) == Just(4)

    def test_mplus_prefers_first_just(self):
        assert self.m.mplus(Just(1), Just(2)) == Just(1)
        assert self.m.mplus(NOTHING, Just(2)) == Just(2)


class TestStateMonad:
    def setup_method(self):
        self.m = State()

    def test_get_put(self):
        mv = self.m.bind(self.m.get_state(), lambda s: self.m.put_state(s + 1))
        assert self.m.run(mv, 10) == (None, 11)

    def test_gets_projects(self):
        assert self.m.eval(self.m.gets(lambda s: s * 2), 21) == 42

    def test_modify(self):
        assert self.m.exec(self.m.modify(lambda s: s + 5), 1) == 6

    def test_sequencing_threads_state(self):
        m = self.m
        mv = m.then(m.modify(lambda s: s + 1), m.then(m.modify(lambda s: s * 10), m.get_state()))
        assert m.eval(mv, 2) == 30


class TestReaderWriter:
    def test_reader_ask(self):
        r = Reader()
        mv = r.bind(r.ask(), lambda env: r.unit(env + 1))
        assert r.run(mv, 41) == 42

    def test_reader_local(self):
        r = Reader()
        mv = r.local(lambda env: env * 2, r.ask())
        assert r.run(mv, 21) == 42

    def test_writer_tell_accumulates(self):
        w = Writer()
        mv = w.then(w.tell(("a",)), w.then(w.tell(("b",)), w.unit(1)))
        assert w.run(mv) == (1, ("a", "b"))

    def test_writer_custom_monoid(self):
        w = Writer(Monoid(mempty=0, mappend=lambda a, b: a + b))
        mv = w.then(w.tell(3), w.then(w.tell(4), w.unit("done")))
        assert w.run(mv) == ("done", 7)


class TestStateT:
    def test_statet_over_list_branches_with_state(self):
        m = StateT(ListMonad())
        # nondeterministically pick, then record the pick in the state
        mv = m.bind(
            m.lift([10, 20]),
            lambda x: m.then(m.modify(lambda s: s + [x]), m.unit(x)),
        )
        assert m.run(mv, []) == [(10, [10]), (20, [20])]

    def test_statet_mzero_empty(self):
        m = StateT(ListMonad())
        assert m.run(m.mzero(), 0) == []

    def test_statet_mplus(self):
        m = StateT(ListMonad())
        assert m.run(m.mplus(m.unit(1), m.unit(2)), 9) == [(1, 9), (2, 9)]

    def test_wide_sum_costs_no_stack(self):
        """``msum`` over thousands of alternatives runs without a
        ``RecursionError``: one abstract step may branch on every value
        stored at an address."""
        m = StateT(ListMonad())
        wide = msum(m, [m.unit(i) for i in range(5000)])
        assert m.run(wide, "s") == [(i, "s") for i in range(5000)]

    def test_statet_over_identity_not_monadplus(self):
        m = StateT(Identity())
        with pytest.raises(TypeError):
            m.mzero()

    def test_lift_threads_state_unchanged(self):
        m = StateT(ListMonad())
        assert m.run(m.lift([1, 2]), "s") == [(1, "s"), (2, "s")]


class TestStorePassing:
    """The two-level analysis monad g -> s -> [((a, g), s)] (paper 5.3.1)."""

    def setup_method(self):
        self.sp = StorePassing()

    def test_desugared_shape(self):
        result = self.sp.run(self.sp.unit("a"), "guts", "store")
        assert result == [(("a", "guts"), "store")]

    def test_guts_and_store_levels_independent(self):
        sp = self.sp
        mv = sp.bind(
            sp.get_guts(),
            lambda g: sp.then(
                sp.modify_store(lambda s: s | {g}),
                sp.gets_store(lambda s: sorted(s)),
            ),
        )
        assert sp.run(mv, 7, frozenset()) == [((([7]), 7), frozenset([7]))]

    def test_modify_guts(self):
        sp = self.sp
        mv = sp.then(sp.modify_guts(lambda t: t + 1), sp.get_guts())
        assert sp.run(mv, 0, None) == [((1, 1), None)]

    def test_gets_nd_store_branches(self):
        sp = self.sp
        results = sp.run(sp.gets_nd_store(lambda s: sorted(s)), 0, frozenset([1, 2]))
        assert results == [((1, 0), frozenset([1, 2])), ((2, 0), frozenset([1, 2]))]

    def test_wide_sums_at_both_levels(self):
        sp = self.sp
        store_branches = sp.run(sp.gets_nd_store(lambda s: range(5000)), 0, "store")
        assert [value for (value, _g), _s in store_branches] == list(range(5000))
        guts_branches = sp.run(msum(sp, [sp.unit(i) for i in range(5000)]), 0, "store")
        assert [value for (value, _g), _s in guts_branches] == list(range(5000))

    def test_gets_nd_store_empty_kills_branch(self):
        assert self.sp.run(self.sp.gets_nd_store(lambda s: []), 0, ()) == []

    def test_mzero_prunes(self):
        sp = self.sp
        mv = sp.bind(sp.unit(1), lambda _x: sp.mzero())
        assert sp.run(mv, 0, ()) == []


class TestCombinators:
    def setup_method(self):
        self.lm = ListMonad()

    def test_fmap(self):
        assert fmap(self.lm, lambda x: x + 1, [1, 2]) == [2, 3]

    def test_ap(self):
        fs = [lambda x: x + 1, lambda x: x * 10]
        assert ap(self.lm, fs, [1, 2]) == [2, 3, 10, 20]

    def test_map_m_cartesian(self):
        result = map_m(self.lm, lambda x: [x, -x], [1, 2])
        assert result == [[1, 2], [1, -2], [-1, 2], [-1, -2]]

    def test_map_m_empty(self):
        assert map_m(self.lm, lambda x: [x], []) == [[]]

    def test_sequence_m(self):
        assert sequence_m(self.lm, [[1], [2, 3]]) == [[1, 2], [1, 3]]

    def test_sequence_discard(self):
        assert sequence_(self.lm, [[1], [2]]) == [None]

    def test_msum(self):
        assert msum(self.lm, [[1], [], [2, 3]]) == [1, 2, 3]

    def test_guard(self):
        assert guard(self.lm, True) == [None]
        assert guard(self.lm, False) == []

    def test_when(self):
        assert when(self.lm, False, [1, 2]) == [None]
        assert when(self.lm, True, [1, 2]) == [1, 2]

    def test_filter_m_powerset(self):
        # the classic: filtering with both True and False enumerates subsets
        subsets = filter_m(self.lm, lambda _x: [True, False], [1, 2])
        assert sorted(map(tuple, subsets)) == [(), (1,), (1, 2), (2,)]

    def test_fold_m(self):
        result = fold_m(self.lm, lambda acc, x: [acc + x], 0, [1, 2, 3])
        assert result == [6]

    def test_fold_m_branches(self):
        result = fold_m(self.lm, lambda acc, x: [acc + x, acc - x], 0, [1, 2])
        assert sorted(result) == [-3, -1, 1, 3]

    def test_replicate_m(self):
        assert replicate_m(self.lm, 2, [0, 1]) == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_kleisli(self):
        h = kleisli(self.lm, lambda x: [x + 1], lambda y: [y, y * 10])
        assert h(1) == [2, 20]

    def test_gets_nd_set_requires_capabilities(self):
        with pytest.raises(TypeError):
            gets_nd_set(ListMonad(), lambda s: [s])
        with pytest.raises(TypeError):
            gets_nd_set(State(), lambda s: [s])

    def test_gets_nd_set_on_statet_list(self):
        m = StateT(ListMonad())
        assert m.run(gets_nd_set(m, lambda s: sorted(s)), {2, 1}) == [
            (1, {1, 2}),
            (2, {1, 2}),
        ]


class TestDoNotation:
    def test_do_identity(self):
        m = Identity()

        def block():
            x = yield m.unit(1)
            y = yield m.unit(2)
            return x + y

        assert run_do(m, block) == 3

    def test_do_list_replays_all_branches(self):
        m = ListMonad()

        def block():
            x = yield [1, 2]
            y = yield [10, 20]
            return x + y

        assert run_do(m, block) == [11, 21, 12, 22]

    def test_do_list_branch_dependent_binds(self):
        m = ListMonad()

        def block():
            x = yield [1, 2]
            y = yield list(range(x))  # later binds may depend on earlier picks
            return (x, y)

        assert run_do(m, block) == [(1, 0), (2, 0), (2, 1)]

    def test_do_with_args(self):
        m = Identity()

        def block(a, b):
            x = yield m.unit(a)
            return x + b

        assert run_do(m, block, 1, b=2) == 3

    def test_do_maybe_short_circuit(self):
        m = MaybeMonad()

        def block():
            x = yield Just(1)
            _ = yield NOTHING
            return x  # never reached

        assert run_do(m, block) is NOTHING

    def test_do_state_threads(self):
        m = State()

        def block():
            s = yield m.get_state()
            yield m.put_state(s + 1)
            t = yield m.get_state()
            return t

        assert m.run(run_do(m, block), 41) == (42, 42)

    def test_do_storepassing(self):
        sp = StorePassing()

        def block():
            g = yield sp.get_guts()
            yield sp.modify_store(lambda s: s + (g,))
            v = yield sp.gets_nd_store(lambda s: s)
            return v

        assert sp.run(run_do(sp, block), "g0", ()) == [(("g0", "g0"), ("g0",))]

    def test_list_monoid(self):
        assert LIST_MONOID.mappend((1,), (2,)) == (1, 2)
        assert LIST_MONOID.mempty == ()


class TestMonadLawsEffectful:
    """The three laws under *effectful* Kleisli arrows (the fused path's spec).

    The generic law test above uses pure arrows (``unit . f``), for which
    the laws hold in any pointed functor.  The staged transition backend
    (``repro.core.fused``) unfolds binds whose arrows branch, read and
    write -- so the laws are pinned here for exactly the three monads the
    analyses execute: ``ListMonad`` (nondeterminism), ``StateT``
    (threading) and ``StorePassing`` (the full two-level stack).
    """

    def _check(self, monad, run, unit, f, g, value):
        # left identity: unit a >>= f == f a
        assert run(monad.bind(unit(value), f)) == run(f(value))
        # right identity: m >>= unit == m
        m = f(value)
        assert run(monad.bind(m, monad.unit)) == run(m)
        # associativity: (m >>= f) >>= g == m >>= (\x -> f x >>= g)
        lhs = monad.bind(monad.bind(m, f), g)
        rhs = monad.bind(m, lambda x: monad.bind(f(x), g))
        assert run(lhs) == run(rhs)

    @given(ints)
    def test_list_monad_laws_with_branching_arrows(self, a):
        m = ListMonad()
        self._check(
            m,
            run=lambda mv: mv,
            unit=m.unit,
            f=lambda x: [x, x + 1, x + 2],  # widens
            g=lambda y: [] if y % 2 else [y, -y],  # prunes and branches
            value=a,
        )

    @given(ints)
    def test_statet_laws_with_state_effects(self, a):
        m = StateT(ListMonad())
        self._check(
            m,
            run=lambda mv: m.run(mv, 3),
            unit=m.unit,
            # reads the state, writes it back changed, branches underneath
            f=lambda x: m.bind(m.get_state(), lambda s: m.bind(
                m.put_state(s + 1), lambda _: m.lift([x + s, x - s]))),
            g=lambda y: m.bind(m.modify(lambda s: s * 2), lambda _: m.unit(y)),
            value=a,
        )

    @given(ints)
    def test_storepassing_laws_with_guts_and_store_effects(self, a):
        sp = StorePassing()

        def f(x):  # tick-like: advance the guts, then branch on the store
            return sp.bind(
                sp.modify_guts(lambda g: g + 1),
                lambda _: sp.gets_nd_store(lambda s: sorted(s | {x})),
            )

        def g(y):  # bind-like: grow the store, return the value
            return sp.bind(
                sp.modify_store(lambda s: s | {y}), lambda _: sp.unit(y)
            )

        self._check(
            sp,
            run=lambda mv: sp.run(mv, 0, frozenset({5})),
            unit=sp.unit,
            f=f,
            g=g,
            value=a,
        )


class TestRunDoReplaySemantics:
    """``run_do``'s replay model, pinned (the cost the fused path removes).

    A generator cannot be forked, so :func:`repro.core.monads.run_do`
    re-executes the do-block from scratch for every nondeterministic
    branch, feeding back the prefix of already-chosen values.  These
    tests pin both halves of that contract: the *count* of replays
    (O(branches x binds) generator executions -- the documented cost
    model in ``core/monads.py`` and PERFORMANCE.md) and the *discipline*
    it imposes (the block must be deterministic in its fed-back inputs).
    """

    def test_replay_count_is_one_plus_branch_prefixes(self):
        m = ListMonad()
        executions = []

        def block():
            executions.append("start")
            x = yield [1, 2, 3]
            y = yield [10, 20]
            return x + y

        result = run_do(m, block)
        assert result == [11, 21, 12, 22, 13, 23]
        # one execution discovers the first bind, one per prefix after:
        # 1 (initial) + 3 (per x, to reach the y bind) + 6 (per (x, y),
        # to reach the return) = 10 generator runs for 6 results
        assert len(executions) == 1 + 3 + 6

    def test_replay_feeds_back_chosen_prefixes_in_order(self):
        m = ListMonad()
        seen = []

        def block():
            x = yield [1, 2]
            seen.append(x)
            y = yield [x * 10]
            seen.append((x, y))
            return y

        assert run_do(m, block) == [10, 20]
        # per x-branch: one partial run discovers the second bind (bare
        # x), then the completing run replays the whole prefix
        assert seen == [1, 1, (1, 10), 2, 2, (2, 20)]

    def test_deterministic_blocks_are_replay_safe(self):
        """The contract: side-effect-free blocks give branch-independent
        results.  A block whose choices depend on mutated external state
        would violate the discipline; the semantics in this package are
        pure in their fed-back inputs, which the fused backends rely on
        when they stage the block into a single pass."""
        m = ListMonad()

        def block(base):
            x = yield [base, base + 1]
            y = yield [100]
            return x + y

        assert run_do(m, block, 5) == [105, 106]
        assert run_do(m, block, 5) == [105, 106]  # replays are idempotent
