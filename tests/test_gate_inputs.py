"""Every input the benchmark time gates measure parses and assembles.

``benchmarks/bench_gates.py`` runs outside tier-1, so a timed job whose
source stopped parsing (a corpus rename, a tighter parser nesting
limit) would otherwise surface only as a crash in the benchmark job.
Here each batch job goes through :func:`repro.service.jobs.prepare` and
each in-memory cell through :func:`repro.service.jobs.prepare_cell`:
parse and assemble, no fixed point.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.service.jobs import prepare, prepare_cell

GATES_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_gates.py"
_spec = importlib.util.spec_from_file_location("_bench_gates", GATES_PATH)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

JOBS, CELLS = gates.gate_inputs()


@pytest.mark.parametrize("job", JOBS, ids=[job.describe() for job in JOBS])
def test_gate_job_prepares(job):
    prepared = prepare(job)
    assert prepared.program is not None and prepared.key


@pytest.mark.parametrize(
    "config, program", CELLS, ids=[f"{config.label}-{i}" for i, (config, _) in enumerate(CELLS)]
)
def test_gate_cell_prepares(config, program):
    assert prepare_cell(config, program).key


def test_pool_sweep_has_seven_distinct_cells():
    jobs = gates.pool_jobs()
    assert len(jobs) == 7
    assert len({prepare(job).key for job in jobs}) == 7

