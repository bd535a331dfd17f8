"""Cross-process regressions: interning, hashing and pickling under ``spawn``.

The satellite this file pins: syntax nodes are canonical at birth, so a
term unpickled in a fresh process *is* that process's pool node -- no
canonicalizing pass -- and every hash memo is recomputed under the
unpickling process's string-hash seed.  ``spawn`` is used deliberately
-- the strictest start method, nothing inherited -- so these tests model
a worker pool, a next-day cache load, and a cross-machine artifact all
at once.  The probes live in :mod:`spawn_helpers` (spawn children must
import their targets).
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
import spawn_helpers
from preset_cells import cell_config, preset_cells
from repro.config import preset_config
from repro.corpus.cps_programs import MJ09, id_chain
from repro.cps.parser import parse_program


@pytest.fixture(scope="module")
def spawn_pool():
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        yield pool


class TestInternAcrossSpawn:
    def test_unpickled_term_is_the_child_pool_node(self, spawn_pool):
        term = parse_program(MJ09)
        outcome = spawn_pool.apply(
            spawn_helpers.probe_term_identity, (pickle.dumps(term), MJ09)
        )
        # structural equality and hashing survive the process boundary...
        assert outcome["equal"] and outcome["hash_equal"]
        # ...and the unpickled term IS the child pool's canonical node
        assert outcome["identical"]

    def test_deep_term_round_trip(self, spawn_pool):
        from repro.cps.syntax import pp

        term = id_chain(80)
        outcome = spawn_pool.apply(
            spawn_helpers.probe_term_identity, (pickle.dumps(term), pp(term))
        )
        assert outcome["equal"] and outcome["identical"]


class TestPMapAcrossSpawn:
    def test_string_keyed_pmap_hash_survives(self, spawn_pool):
        from repro.util.pcollections import pmap

        entries = (("x", 1), ("long-variable-name", 2), ("k", 3))
        payload = pickle.dumps(pmap(dict(entries)))
        outcome = spawn_pool.apply(spawn_helpers.probe_pmap_hash, (payload, entries))
        assert outcome == {"equal": True, "hash_equal": True, "usable_as_key": True}


class TestConfigsAcrossSpawn:
    @pytest.mark.parametrize("preset_name,transition", preset_cells())
    def test_every_preset_config_round_trips(self, spawn_pool, preset_name, transition):
        config = cell_config(preset_name, transition)
        outcome = spawn_pool.apply(
            spawn_helpers.probe_preset_config,
            (pickle.dumps(config), preset_name, transition),
        )
        assert outcome == {
            "equal": True,
            "hash_equal": True,
            "cache_key_equal": True,
        }


class TestStoresAcrossSpawn:
    @pytest.mark.parametrize("preset_name", ["1cfa", "1cfa-gc", "kcfa-counting-fast"])
    def test_frozen_store_round_trips(self, spawn_pool, preset_name):
        """Frozen PMap stores (plain, GC'd, counting) keep structural
        equality and hashing across processes."""
        from repro.config import assemble

        config = preset_config(preset_name, "cps")
        program = id_chain(12)
        result = assemble(config, program=program).run(program)
        outcome = spawn_pool.apply(
            spawn_helpers.probe_frozen_store,
            (pickle.dumps(result.fp[1]), 12, preset_name),
        )
        assert outcome["equal"] and outcome["hash_equal"]


class TestHashSeedAcrossProcesses:
    def test_cesk_state_hashes_under_another_seed(self):
        """A pickled CESK ``PState`` loaded under a different string-hash
        seed hashes equal to one built there: the memo never travels, the
        unpickling constructor recomputes it."""
        state = spawn_helpers.cesk_state()
        parent_seed = os.environ.get("PYTHONHASHSEED", "random")
        child_seed = "1" if parent_seed != "1" else "2"
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        tests_root = os.path.dirname(os.path.abspath(spawn_helpers.__file__))
        env = {
            **os.environ,
            "PYTHONHASHSEED": child_seed,
            "PYTHONPATH": os.pathsep.join([src_root, tests_root]),
        }
        child = subprocess.run(
            [sys.executable, "-c", "import spawn_helpers; spawn_helpers.probe_cesk_state_hash()"],
            input=pickle.dumps(state),
            env=env,
            capture_output=True,
            check=True,
            timeout=120,
        )
        assert json.loads(child.stdout) == {
            "equal": True,
            "hash_equal": True,
            "usable_as_key": True,
            "same_term": True,
        }
