"""Worker-side probes for the cross-process (spawn) regression tests.

These run inside ``multiprocessing`` *spawn* children -- a fresh
interpreter with a fresh (empty) intern pool and newly randomized string
hashes, i.e. exactly the environment a batch worker or a
cache-in-another-session load sees.  They must live in an importable
module (not a test function) so the spawn start method can find them.
Each probe returns plain booleans/ints: the asserting happens in the
parent-side tests.
"""

import pickle

from repro.util.intern import intern_pool_size
from repro.util.pcollections import PMap, pmap


def probe_term_identity(payload: bytes, source: str) -> dict:
    """Unpickle a CPS term in a fresh process and compare with a local parse.

    Pins "canonical at birth" across the process boundary: unpickling
    rebuilds every node through its interning constructor, so the
    unpickled term *is* the child pool's node for the same source, and
    its hash memo was computed in this process.
    """
    from repro.cps.parser import parse_program

    unpickled = pickle.loads(payload)
    parsed = parse_program(source)
    return {
        "equal": unpickled == parsed,
        "hash_equal": hash(unpickled) == hash(parsed),
        "identical": unpickled is parsed,
        "pool_size": intern_pool_size(),
    }


def probe_pmap_hash(payload: bytes, entries: tuple) -> dict:
    """Unpickle a PMap under fresh hash randomization and re-derive it locally.

    With string keys, a stale memoized hash would differ from the fresh
    map's hash in this process -- the bug :meth:`PMap.__getstate__`
    prevents by never pickling the memo.
    """
    unpickled: PMap = pickle.loads(payload)
    fresh = pmap(dict(entries))
    return {
        "equal": unpickled == fresh,
        "hash_equal": hash(unpickled) == hash(fresh),
        "usable_as_key": {unpickled: 1}.get(fresh) == 1,
    }


def probe_preset_config(payload: bytes, preset_name: str, transition: str) -> dict:
    """Unpickle an AnalysisConfig and compare against the local registry."""
    from repro.config import PRESETS

    unpickled = pickle.loads(payload)
    local = PRESETS[preset_name].config.replace(transition=transition)
    return {
        "equal": unpickled == local,
        "hash_equal": hash(unpickled) == hash(local),
        "cache_key_equal": unpickled.cache_key() == local.cache_key(),
    }


def probe_frozen_store(payload: bytes, chain_length: int, preset_name: str) -> dict:
    """Unpickle a frozen fixpoint store and re-derive it with a local run."""
    from repro.config import assemble, preset_config
    from repro.corpus.cps_programs import id_chain

    unpickled = pickle.loads(payload)
    config = preset_config(preset_name, "cps")
    program = id_chain(chain_length)
    local = assemble(config, program=program).run(
        program, worklist=not config.shared
    )
    local_store = local.fp[1] if config.shared else local.store_like.lattice().join_all(
        store for _pair, store in local.fp
    )
    return {
        "equal": unpickled == local_store,
        "hash_equal": hash(unpickled) == hash(local_store),
    }


CESK_SOURCE = "(let ((id (lambda (x) x))) (id (lambda (y) y)))"


def cesk_state():
    """A CESK machine state with string-keyed parts (term, env, address)."""
    from repro.cesk.machine import PState, inject
    from repro.lam.parser import parse_expr

    start = inject(parse_expr(CESK_SOURCE))
    return PState(start.ctrl.body, start.env.set("id", ("id", "site")), start.ka)


def probe_cesk_state_hash() -> None:
    """Read a pickled CESK state on stdin; print how it compares locally.

    Run as ``python -c`` in a child with its own ``PYTHONHASHSEED``.
    """
    import json
    import sys

    unpickled = pickle.loads(sys.stdin.buffer.read())
    fresh = cesk_state()
    print(json.dumps({
        "equal": unpickled == fresh,
        "hash_equal": hash(unpickled) == hash(fresh),
        "usable_as_key": {unpickled: 1}.get(fresh) == 1,
        "same_term": unpickled.ctrl is fresh.ctrl,
    }))
