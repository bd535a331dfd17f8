"""Every benchmark and tool script imports against the current package.

The ``benchmarks/bench_*.py`` modules and the ``tools/`` scripts run
outside tier-1 (the benchmark job, CI helpers), so a stale import of a
renamed or deleted name would otherwise surface only there.  Each module
is imported with its own directory on ``sys.path``, as its runner does.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("benchmarks/bench_*.py")) + sorted(ROOT.glob("tools/*.py"))


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_script_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(path.parent))
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
