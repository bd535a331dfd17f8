"""Preset-matrix cells with the transition as one more axis.

The depgraph presets step with the staged (fused) transition.  The
generic monadic step still runs behind ``--transition generic`` and
every serve request that names it, and it computes the same fixed point,
so each depgraph preset runs under both transitions.  Every other
preset keeps the transition it is registered with.
"""

import pytest

from repro.config import PRESETS, TRANSITIONS, preset_config


def preset_transitions(names=None):
    """``(preset_name, transition)`` pairs over ``names`` (default: every preset)."""
    pairs = []
    for name in sorted(PRESETS) if names is None else names:
        config = PRESETS[name].config
        if config.engine == "depgraph":
            pairs.extend((name, transition) for transition in TRANSITIONS)
        else:
            pairs.append((name, config.transition))
    return pairs


def cell_id(name, transition):
    """A generic cell is named after its preset; a fused one adds ``-fused``."""
    return name if transition == "generic" else f"{name}-fused"


def preset_cells(names=None):
    """:func:`preset_transitions` as ids-bearing ``pytest.param`` cells."""
    return [
        pytest.param(name, transition, id=cell_id(name, transition))
        for name, transition in preset_transitions(names)
    ]


def cell_config(name, transition, language=None):
    """The preset's config stepped with ``transition``."""
    return preset_config(name, language).replace(transition=transition)
