"""Host-speed scaling: op times as on an uncontended core.

The benchmark host's cores are shared with other tenants.  A core's
speed for interpreted Python flips between two states about 1.7x apart
(another tenant on its sibling hardware thread or not) and stays in
either for seconds to minutes, so the raw time of the same work moves by
tens of percent from run to run.  Each op is therefore timed twice:
itself, and a fixed reference kernel right before and right after it --
a small pure-Python worklist fixpoint over frozensets, the same kind of
interpreter work the analyses do, defined here and never in the
repository's code.  The op's reported time is its wall time scaled by
:data:`REFERENCE_S` over the kernel's mean time around it: the op's wall
time on a core that runs the kernel in :data:`REFERENCE_S`, the
kernel's time on an uncontended core of the machine the bounds were set
on (Intel Xeon at 2.1 GHz, CPython 3.11).  A change to the repository's
code moves the op and not the kernel, so it shows in full.

Measured on that machine over consecutive 20-second windows of
``analyze`` passes while it flipped between the two states, the spread
(quartile distance over median) of the windows' ops per second was 0.04
to 0.05 scaled against 0.12 to 0.38 raw.  The raw kernel time of a run
is reported as the ``host.kernel_ms`` row of the traced run.

The benchmark process pins itself, and so every process it starts, to
one core (``run.py``), so the kernel always runs on the core the op ran
on -- for ``serve`` the server answers on it between the client's
kernel runs.
"""

from __future__ import annotations

import random
import statistics
import time

#: The kernel's time on an uncontended core (see the module docstring).
REFERENCE_S = 0.57e-3

#: Kernel runs around a block (a set-up); their median is used.
BLOCK_RUNS = 9


class _Node:
    __slots__ = ("name", "succ")

    def __init__(self, name: int) -> None:
        self.name = name
        self.succ: tuple = ()


def _graph() -> list[_Node]:
    draw = random.Random(7)  # fixed: the kernel's work never changes
    nodes = [_Node(i) for i in range(24)]
    for node in nodes:
        node.succ = tuple(draw.sample(nodes, 3))
    return nodes


_NODES = _graph()


def kernel() -> int:
    """Reachable-name sets over a fixed 24-node graph, by worklist."""
    facts = {node: frozenset((node.name,)) for node in _NODES}
    work = list(_NODES)
    while work:
        node = work.pop()
        current = facts[node]
        for succ in node.succ:
            joined = facts[succ] | current
            if joined != facts[succ]:
                facts[succ] = joined
                work.append(succ)
    return sum(len(names) for names in facts.values())


def kernel_seconds(runs: int = 1) -> float:
    """Median wall time of ``runs`` kernel runs."""
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class HostPace:
    """Scales each op's wall time by the kernel's time around it."""

    def __init__(self) -> None:
        self.before = kernel_seconds()
        #: Every kernel time measured, in seconds.
        self.kernel: list[float] = [self.before]

    def scale(self, elapsed: float) -> float:
        """``elapsed`` seconds of an op that has just ended, scaled."""
        after = kernel_seconds()
        self.kernel.append(after)
        around = (self.before + after) / 2
        self.before = after
        return elapsed * REFERENCE_S / around


def scaled_call(fn):
    """``(fn(), its wall time scaled)``, by :data:`BLOCK_RUNS` kernel runs
    before and after it."""
    before = kernel_seconds(BLOCK_RUNS)
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    after = kernel_seconds(BLOCK_RUNS)
    return result, elapsed * REFERENCE_S / ((before + after) / 2)


def op_medians(samples: list[tuple[object, float]]) -> list[float]:
    """Each sample's time replaced by the median time of the same op.

    ``samples`` are ``(op key, seconds)`` pairs; one value per sample
    comes back, so the op mix stays weighted as it ran.  The median over
    an op's repeats drops the few repeats whose kernel times missed a
    speed flip in the middle of the op; an op that ran once keeps its
    one sample.
    """
    repeats: dict = {}
    for key, seconds in samples:
        repeats.setdefault(key, []).append(seconds)
    medians = {key: statistics.median(times) for key, times in repeats.items()}
    return [medians[key] for key, _seconds in samples]


def kernel_row(times: list[float]) -> dict:
    """The ``host.kernel_ms`` row: the run's median raw kernel time."""
    return {"host.kernel_ms": (statistics.median(times) * 1e3, "ms")}
