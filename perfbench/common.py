"""Shared pieces of the workloads: timing statistics, processes, spans.

Percentiles go through the repository's one nearest-rank implementation
(``repro.obs.metrics.percentile``); :func:`percentile_ms` refuses to
report a percentile with fewer than ten samples beyond it.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

#: Scratch space for cache directories and trace files, inside the
#: checkout the benchmark runs from (removed again before exit).
TMP_ROOT = ".perfbench_tmp"

#: How many times ``setup_s`` is measured per run (the median is reported).
SETUP_REPS = 3

#: Each repeated op is timed at least this many times per run.
MIN_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def percentile_ms(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of second-valued samples, in milliseconds."""
    from repro.obs.metrics import percentile

    n = len(samples)
    rank = min(n - 1, max(0, round(fraction * (n - 1))))
    if n - 1 - rank < 10 and fraction > 0.5:
        raise BenchError(
            f"p{round(fraction * 100)} of {n} samples has {n - 1 - rank} "
            "beyond it; at least 10 are needed"
        )
    return percentile(samples, fraction) * 1e3


def latency_metrics(samples: list[float], busy_seconds: float) -> dict:
    """``ops_per_s``, ``latency_p50_ms`` and ``latency_p90_ms``."""
    return {
        "ops_per_s": (len(samples) / busy_seconds, "1/s"),
        "latency_p50_ms": (percentile_ms(samples, 0.50), "ms"),
        "latency_p90_ms": (percentile_ms(samples, 0.90), "ms"),
    }


def median(values: list[float]) -> float:
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process (its peak resident set)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_env(seed: int) -> dict:
    """Environment for every process the benchmark starts.

    ``PYTHONPATH`` points at the checkout's sources; ``PYTHONHASHSEED``
    is derived from the seed so set iteration order -- and with it the
    engines' evaluation counts -- repeats exactly for a fixed seed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = hash_seed(seed)
    return env


def hash_seed(seed: int) -> str:
    return str(seed % 4_294_967_296)


def make_tmp(prefix: str) -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT)


def remove_tmp() -> None:
    shutil.rmtree(TMP_ROOT, ignore_errors=True)


def spawn_seconds(args: list[str], env: dict) -> float:
    """Wall time of one child process run to completion (output discarded)."""
    started = time.perf_counter()
    subprocess.run(
        args, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120
    )
    return time.perf_counter() - started


def startup_layer(env: dict, reps: int) -> dict:
    """The ``startup`` layer: interpreter spawn, ``import repro.cli``, modules.

    Medians over ``reps`` spawns of each, so the numbers are steady.
    """
    interpreter = median(
        [spawn_seconds([sys.executable, "-c", "pass"], env) for _ in range(reps)]
    )
    imported = median(
        [
            spawn_seconds([sys.executable, "-c", "import repro.cli"], env)
            for _ in range(reps)
        ]
    )
    probe = (
        "import sys, repro.cli; "
        "print(sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
    )
    modules = int(
        subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        ).stdout
    )
    return {
        "startup.interpreter_ms": (interpreter * 1e3, "ms"),
        "startup.import_ms": ((imported - interpreter) * 1e3, "ms"),
        "startup.repro_modules": (modules, "count"),
    }
