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

from repro.util.intern import intern_pool_size, rehydrate
from repro.util.pcollections import PMap, pmap


def probe_term_identity(payload: bytes, source: str) -> dict:
    """Unpickle a CPS term in a fresh process and compare with a local parse.

    Documents the fork/pickle hazard: the unpickled term is structurally
    equal to the freshly parsed one but *not* the pool's canonical
    object -- until :func:`repro.util.intern.rehydrate` maps it there.
    """
    from repro.cps.parser import parse_program

    unpickled = pickle.loads(payload)
    parsed = parse_program(source)
    rehydrated = rehydrate(unpickled)
    return {
        "equal": unpickled == parsed,
        "hash_equal": hash(unpickled) == hash(parsed),
        "identical_before_rehydrate": unpickled is parsed,
        "identical_after_rehydrate": rehydrated is parsed,
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
    rehydrated = rehydrate(unpickled)
    return {
        "equal": unpickled == local_store,
        "hash_equal": hash(unpickled) == hash(local_store),
        "rehydrated_equal": rehydrated == local_store,
    }
