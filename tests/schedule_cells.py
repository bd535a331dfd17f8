"""Engine-matrix cells with the worklist schedule as one more axis.

The depgraph loop drains its worklist ``fifo`` or in dependency-rank
order (``priority``).  Chaotic iteration makes the drain order
unobservable in the fixed point, so every depgraph cell of an
equivalence matrix runs under both schedules; the Kleene oracle has no
worklist to order and keeps its single cell.
"""

import dataclasses

import pytest

from repro.core.schedule import SCHEDULES


def engine_cells(cells):
    """Add a trailing ``schedule`` parameter to engine-matrix ``cells``.

    Each cell is a tuple of names led by an engine (``("depgraph",
    "versioned")``).  It runs under ``fifo`` with its dash-joined id; a
    depgraph cell adds one ``<id>-<schedule>`` cell per other schedule.
    """
    params = []
    for cell in cells:
        base = "-".join(cell)
        params.append(pytest.param(*cell, "fifo", id=base))
        if cell[0] == "depgraph":
            params.extend(
                pytest.param(*cell, schedule, id=f"{base}-{schedule}")
                for schedule in SCHEDULES
                if schedule != "fifo"
            )
    return params


def scheduled(analysis, schedule):
    """The same assembled analysis, draining its worklist in ``schedule`` order."""
    return dataclasses.replace(analysis, schedule=schedule)
