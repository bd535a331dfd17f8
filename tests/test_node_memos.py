"""Per-node memos and the source memo: a repeat request pays per program.

Canonical syntax nodes carry lazily filled memos of facts that depend
only on their structure -- the content digest, the free-variable set and
a lambda's rendered text (:mod:`repro.util.intern`, "Per-node memos")
-- and the intern pool
carries one more table, ``(language, source text) -> program``
("Source memo").  These tests pin:

* the **golden digest table**: ``program_digest`` of every corpus
  program (and a representative of every generator family) in all four
  registries, generated before the memos existed, so disk-cache keys can
  never move;
* the memos' **cost** (a known program digests without a walk, an edit
  digests only its new nodes, free variables are computed once per node,
  a lambda is rendered once) and their **invisibility** (equality,
  hashing, ``repr`` and pickles ignore them; the text memo renders every
  corpus lambda exactly as the unmemoized printer does);
* the **pool lifecycle**: a clear frees analysed programs (nothing
  pins them), a request after it re-parses into the new pool, the
  warm-start identity gate still fires, and ``intern_limit`` bounds the
  source memo.
"""

from __future__ import annotations

import gc
import json
import pickle
import sys
import threading
import weakref
from pathlib import Path

import pytest

from repro.cps.parser import parse_program as parse_cps
from repro.cps.syntax import Call, Lam, Ref, free_vars, pp
from repro.corpus import corpus_programs
from repro.corpus.cps_programs import id_chain, id_chain_edited
from repro.service import cache as cache_module
from repro.service.cache import FixpointCache, program_digest
from repro.service.jobs import (
    HotTier,
    dispatch,
    iter_subvalues,
    normalize_job,
    outcome_row,
    resolve_program,
)
from repro.util.intern import (
    DIGEST_SLOT,
    FREE_VARS_SLOT,
    TEXT_SLOT,
    clear_intern_pool,
    decompose,
    intern_pool_size,
    maybe_clear_intern_pool,
    memo_of,
    memo_source,
)

GOLDEN = Path(__file__).parent / "golden" / "program_digests.json"

CHAIN_SRC = pp(id_chain(6))
EDITED_SRC = pp(id_chain_edited(6))

IMP_SRC = "let x = 1; let y = x + 2; return y;"


def generated_programs() -> dict:
    """One small instance of every corpus generator family, by language."""
    from repro.corpus.cps_programs import generated_families
    from repro.corpus.fj_programs import dispatch_chain
    from repro.corpus.lam_programs import apply_tower, church_add_program, eta_chain

    return {
        "cps": generated_families(),
        "lam": {
            "church-add-2-3": church_add_program(2, 3),
            "eta-chain-4": eta_chain(4),
            "apply-tower-4": apply_tower(4),
        },
        "fj": {"dispatch-chain-4": dispatch_chain(4)},
    }


def digest_table() -> dict:
    """``{registry: {program name: program_digest}}`` over the whole corpus."""
    table = {
        language: {
            name: program_digest(program)
            for name, program in sorted(corpus_programs(language).items())
        }
        for language in ("cps", "lam", "fj", "imp")
    }
    for language, programs in generated_programs().items():
        table[f"{language}-generated"] = {
            name: program_digest(program) for name, program in sorted(programs.items())
        }
    return table


def distinct_nodes(term) -> set[int]:
    """The ids of every syntax node reachable from ``term``."""
    from repro.util.intern import _INTERNED

    return {id(node) for node in iter_subvalues(term) if type(node) in _INTERNED}


class TestGoldenDigests:
    def test_every_corpus_digest_matches_the_golden_table(self):
        assert digest_table() == json.loads(GOLDEN.read_text())

    def test_digests_survive_a_pool_clear(self):
        """Fresh nodes (empty memos) digest to the same golden keys."""
        clear_intern_pool()
        assert digest_table() == json.loads(GOLDEN.read_text())


class TestDigestMemo:
    def test_a_known_program_digests_without_a_walk(self, monkeypatch):
        program = parse_cps(CHAIN_SRC)
        digest = program_digest(program)
        assert memo_of(program, DIGEST_SLOT) == digest
        monkeypatch.setattr(
            cache_module, "decompose", pytest.fail, raising=True
        )  # a second digest must not look inside the program
        assert program_digest(program) == digest

    def test_an_edit_digests_only_its_new_nodes(self, monkeypatch):
        base = parse_cps(CHAIN_SRC)
        program_digest(base)
        edited = parse_cps(EDITED_SRC)
        new_nodes = [
            node_id
            for node_id in distinct_nodes(edited)
            if node_id not in distinct_nodes(base)
        ]
        hashed: list = []
        real_sha256 = cache_module.hashlib.sha256
        monkeypatch.setattr(
            cache_module.hashlib,
            "sha256",
            lambda payload: (hashed.append(payload), real_sha256(payload))[1],
        )
        program_digest(edited)
        # one hash per new node plus one per tuple field of a new node
        new_tuples = sum(
            isinstance(value, tuple)
            for node in iter_subvalues(edited)
            if id(node) in new_nodes
            for value in decompose(node)[1]
        )
        assert len(hashed) == len(new_nodes) + new_tuples
        assert 0 < len(new_nodes) < len(distinct_nodes(base)) // 4

    def test_the_memo_never_travels_in_a_pickle(self):
        program = parse_cps(CHAIN_SRC)
        program_digest(program)
        free_vars(program)
        payload = pickle.dumps(program)
        assert DIGEST_SLOT.encode() not in payload
        assert FREE_VARS_SLOT.encode() not in payload
        clear_intern_pool()
        clone = pickle.loads(payload)
        assert clone is not program and memo_of(clone, DIGEST_SLOT) is None
        assert program_digest(clone) == program_digest(program)

    def test_memos_are_invisible_to_equality_hashing_and_repr(self):
        clear_intern_pool()
        bare = parse_cps(CHAIN_SRC)
        text, hashed = repr(bare), hash(bare)
        program_digest(bare)
        free_vars(bare)
        clear_intern_pool()
        twin = parse_cps(CHAIN_SRC)
        assert twin is not bare and memo_of(twin, DIGEST_SLOT) is None
        assert twin == bare and bare == twin
        assert hash(bare) == hash(twin) == hashed
        assert repr(bare) == repr(twin) == text

    def test_non_node_values_digest_as_before(self):
        term = Ref("x")
        value = (term, frozenset([term]), {"k": term})
        assert memo_of(value, DIGEST_SLOT) is None
        assert program_digest(value) == program_digest(value)
        assert len(program_digest("atom")) == 64


class TestFreeVarsMemo:
    def test_each_node_is_computed_once(self, monkeypatch):
        import repro.cps.syntax as cps_syntax

        clear_intern_pool()
        program = id_chain(20)
        calls: list = []
        real = cps_syntax._fv_combine
        monkeypatch.setattr(
            cps_syntax, "_fv_combine", lambda term, kids: (calls.append(term), real(term, kids))[1]
        )
        assert free_vars(program) == frozenset()
        assert len(calls) == len(distinct_nodes(program))
        free_vars(program)
        assert len(calls) == len(distinct_nodes(program))

    def test_deep_terms_need_no_recursion_headroom(self):
        depth = 3 * sys.getrecursionlimit()
        body = Call(Ref("k"), (Ref("v0"),))
        for i in range(depth):
            body = Call(Lam((f"v{i}",), body), (Ref("a"),))
        assert free_vars(body) == frozenset(["k", "a"])
        # equal sets are shared down the chain, not copied per node
        assert free_vars(body) is free_vars(body.fun.body.fun.body)

    @pytest.mark.parametrize("language", ["lam", "fj"])
    def test_other_syntaxes_memoize_too(self, language):
        if language == "lam":
            from repro.lam.parser import parse_expr as parse
            from repro.lam.syntax import free_vars as fv

            term = parse("(lambda (x) (let ((y (x z))) (y w)))")
            expected = frozenset(["z", "w"])
        else:
            from repro.fj.parser import parse_expr_fj as parse
            from repro.fj.syntax import free_vars as fv

            term = parse("new Pair(this.fst, (A) x.m(y))")
            expected = frozenset(["this", "x", "y"])
        assert fv(term) == expected
        assert memo_of(term, FREE_VARS_SLOT) is fv(term)


def plain_text(term) -> str:
    """The concrete syntax of a ``lam`` or ``cps`` term, rendered with no memo."""
    from repro.cps import syntax as cps
    from repro.lam import syntax as lam

    if isinstance(term, (lam.Var, cps.Ref)):
        return repr(term)
    if isinstance(term, (lam.Lam, cps.Lam)):
        return f"(lambda ({' '.join(term.params)}) {plain_text(term.body)})"
    if isinstance(term, (lam.App, cps.Call)):
        return "(" + " ".join(map(plain_text, (term.fun, *term.args))) + ")"
    if isinstance(term, lam.Let):
        return f"(let (({term.var} {plain_text(term.rhs)})) {plain_text(term.body)})"
    assert isinstance(term, cps.Exit)
    return "(exit)"


def corpus_lambdas(language: str) -> list:
    """Every lambda of the ``language`` corpus (imp's lowered programs are lam)."""
    if language == "cps":
        from repro.cps.syntax import Lam as Lambda
        from repro.cps.syntax import subterms

        programs = list(corpus_programs("cps").values())
    else:
        from repro.lam.syntax import Lam as Lambda
        from repro.lam.syntax import subterms

        programs = [*corpus_programs("lam").values(), *corpus_programs("imp").values()]
    return [node for program in programs for node in subterms(program) if type(node) is Lambda]


class TestTextMemo:
    @pytest.mark.parametrize("language", ["cps", "lam"])
    def test_every_corpus_lambda_renders_as_the_plain_printer_does(self, language):
        clear_intern_pool()
        lambdas = corpus_lambdas(language)
        assert len(lambdas) >= 20
        for node in lambdas:
            expected = plain_text(node)
            assert repr(node) == expected
            assert memo_of(node, TEXT_SLOT) == expected
            assert repr(node) is memo_of(node, TEXT_SLOT)  # rendered once

    def test_calls_and_applications_render_through_the_lambda_memo(self):
        from repro.lam.parser import parse_expr

        term = parse_expr("((lambda (x) (x x)) (lambda (y) y))")
        assert memo_of(term, TEXT_SLOT) is None  # only lambdas keep a text
        assert repr(term) == plain_text(term)
        assert memo_of(term.fun, TEXT_SLOT) == "(lambda (x) (x x))"
        assert memo_of(term, TEXT_SLOT) is None

    def test_the_text_memo_never_travels_in_a_pickle(self):
        program = parse_cps(CHAIN_SRC)
        lam = program.fun
        text = repr(lam)
        assert memo_of(lam, TEXT_SLOT) == text
        payload = pickle.dumps(program)
        assert TEXT_SLOT.encode() not in payload
        clear_intern_pool()
        clone = pickle.loads(payload)
        assert clone is not program and memo_of(clone.fun, TEXT_SLOT) is None
        assert repr(clone.fun) == text
        assert memo_of(clone.fun, TEXT_SLOT) == text


class TestSourceMemo:
    def test_a_source_is_parsed_once(self):
        parses: list = []

        def parse(text):
            parses.append(text)
            return parse_cps(text)

        first = memo_source("cps", CHAIN_SRC + " ", parse)
        again = memo_source("cps", CHAIN_SRC + " ", parse)
        assert first is again and parses == [CHAIN_SRC + " "]

    def test_parse_errors_are_never_memoized(self):
        from repro.cps.parser import ParseError

        size = intern_pool_size()
        for _ in range(2):
            with pytest.raises(ParseError):
                memo_source("cps", "((lambda (x) ", parse_cps)
        assert intern_pool_size() == size

    def test_eight_threads_share_one_parse_and_one_set_of_memos(self):
        """Eight threads resolve one fresh source and digest and close
        over it at once: one canonical program, one digest, one free-
        variable set per node."""
        clear_intern_pool()
        source = pp(id_chain(30))
        barrier = threading.Barrier(8)
        results: list = [None] * 8

        def worker(slot: int) -> None:
            barrier.wait(timeout=60)
            program = memo_source("cps", source, parse_cps)
            results[slot] = (program, program_digest(program), free_vars(program.fun))

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
        program, digest, closed = results[0]
        assert all(result[0] is program for result in results)
        assert {result[1] for result in results} == {digest}
        assert {result[2] for result in results} == {closed} == {frozenset()}
        assert memo_source("cps", source, parse_cps) is program
        assert digest == program_digest(pickle.loads(pickle.dumps(program)))

    def test_entries_count_toward_the_pool_and_clear_with_it(self):
        program = parse_cps(CHAIN_SRC)
        size = intern_pool_size()
        # same program, new text: one source entry, no new node
        assert memo_source("cps", "  " + CHAIN_SRC, parse_cps) is program
        assert intern_pool_size() == size + 1
        clear_intern_pool()
        assert intern_pool_size() == 0

    def test_imp_lowering_and_parse_happen_once_per_source(self, monkeypatch):
        import repro.service.jobs as jobs

        lowered: list = []
        real = jobs._lowered_text
        monkeypatch.setattr(
            jobs, "_lowered_text", lambda text: (lowered.append(text), real(text))[1]
        )
        source = IMP_SRC + "  # once"
        one = normalize_job("imp", source=source, preset="1cfa")
        two = normalize_job("imp", source=source, preset="1cfa")
        assert lowered == [source] and one.source == two.source
        assert resolve_program(one) is resolve_program(two)


class TestPoolLifecycle:
    def test_a_cleared_pool_frees_analysed_programs(self, tmp_path):
        hot = HotTier()
        cache = FixpointCache(root=tmp_path / "cache")
        source = pp(id_chain(9))
        job = normalize_job("cps", source=source, preset="1cfa")
        outcome = dispatch(job, cache=cache, hot=hot)
        outcome_row(outcome)
        program = resolve_program(job)
        inner = program.fun.body  # a node only this program holds
        program_digest(program)
        nodes = [weakref.ref(program), weakref.ref(inner)]
        del outcome, program, inner
        hot.clear()
        clear_intern_pool()
        gc.collect()
        assert [node() for node in nodes] == [None, None]

    def test_a_request_after_a_clear_reparses_into_the_new_pool(self, tmp_path):
        hot = HotTier()
        cache = FixpointCache(root=tmp_path / "cache")
        job = normalize_job("cps", source=CHAIN_SRC, preset="1cfa")
        first = dispatch(job, cache=cache, hot=hot)
        old = resolve_program(job)
        clear_intern_pool()
        hot.clear()
        new = resolve_program(job)
        assert new is not old and new == old
        assert new is parse_cps(CHAIN_SRC)  # canonical in the new pool
        again = dispatch(job, cache=cache, hot=hot)
        assert again.tier == "disk" and again.key == first.key
        assert dispatch(job, cache=cache, hot=hot).tier == "hot"

    def test_the_warm_start_identity_gate_fires_after_a_clear(self, tmp_path):
        cache = FixpointCache(root=tmp_path / "cache")
        base = normalize_job("cps", source=CHAIN_SRC, preset="1cfa")
        assert dispatch(base, cache=cache).tier == "cold"
        clear_intern_pool()
        edited = normalize_job("cps", source=EDITED_SRC, preset="1cfa")
        warm = dispatch(edited, cache=cache, allow_warm=True)
        assert warm.tier == "warm"
        cold = dispatch(edited, cache=None, use_cache=False)
        assert warm.fp == cold.fp

    def test_intern_limit_bounds_the_source_memo(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import ServerHandle

        clear_intern_pool()
        program_nodes = len(distinct_nodes(parse_cps(CHAIN_SRC)))
        clear_intern_pool()
        limit = program_nodes + 3
        sizes = []
        with ServerHandle(workers=1, intern_limit=limit) as handle:
            with ServeClient(port=handle.port) as client:
                for pad in range(8):
                    # one program, eight texts: only the source memo grows
                    params = {
                        "language": "cps",
                        "source": CHAIN_SRC + " " * pad,
                        "preset": "0cfa",
                    }
                    client.call("analyse", params)
                    sizes.append(intern_pool_size())
        assert max(sizes) <= limit
        assert sizes[:3] == [program_nodes + 1, program_nodes + 2, program_nodes + 3]
        assert sizes[3] == 0  # the fourth text tipped the pool over: cleared

    def test_maybe_clear_counts_source_entries(self):
        clear_intern_pool()
        for pad in range(3):
            memo_source("cps", CHAIN_SRC + " " * pad, parse_cps)
        size = intern_pool_size()
        assert not maybe_clear_intern_pool(size)
        assert maybe_clear_intern_pool(size - 1)
        assert intern_pool_size() == 0
