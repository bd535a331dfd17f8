"""Run ``python -m repro`` in a fresh interpreter, for end-to-end CLI tests.

A fresh process is what a user runs: the default recursion limit with
no test-runner frames underneath, and only the modules the command
itself imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def run_repro(*args: str, python_flags: tuple = ()) -> subprocess.CompletedProcess:
    """``python [PYTHON_FLAGS] -m repro ARGS``, output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
