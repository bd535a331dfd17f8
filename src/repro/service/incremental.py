"""Warm-start incremental re-analysis: pay for the edit, not the program.

A cold analysis of an edited program repeats almost all of its
predecessor's work: the edit is a handful of sub-terms, interning makes
the unchanged rest *pointer-identical*, and the depgraph engine already
knows -- per configuration -- which store cells each evaluation read and
which successors it produced.  :func:`reanalyse` turns that into an
incremental pipeline over the fixpoint cache:

1. **Digest hit** -- the edited source parses to a term whose structural
   digest is already cached (an identity edit, a revert, a duplicate
   submission): the fixed point is loaded, zero
   evaluations.
2. **Warm start** -- the digest is new but the cache holds a
   records-bearing entry for the same configuration (the predecessor's
   run): the engine is seeded with that entry's store and
   :class:`~repro.core.fixpoint.EvalRecord` map.  Re-discovered
   configurations whose recorded reads are still clean *replay* their
   recorded successors instead of stepping; only configurations touched
   by the edit -- new ones, and ones whose cells grew -- are evaluated.
   Cost: O(reachable configurations) dictionary walks plus O(edit)
   evaluations, instead of O(program) evaluations with retriggers.
3. **Cold** -- no donor (or a non-warmable configuration): run normally.
   Either way the result (with fresh records, where supported) is
   written back, so the *next* edit warm-starts from this one: a chain
   of edits stays warm end to end.

The pipeline itself lives in :func:`repro.service.jobs.dispatch` -- the
same tier cascade the batch runner, the CLI, and the resident server
run -- and this module is its incremental-facing entry: it accepts an
*already-parsed* program plus an optional explicit donor, and reports
provenance in the historical ``cache-hit``/``warm``/``cold`` vocabulary
(the server's hot/disk tier split both collapse to ``cache-hit`` here:
either way the digest matched and zero evaluations ran).

Soundness and exactness contract (also on
:class:`~repro.core.fixpoint.WarmStart`): the warm result equals the
cold fixed point whenever the donor's store lies at or below the edited
program's fixed-point store -- true for identity edits and, with contexts of at most one call site
(``k <= 1`` or ``zerocfa``), for edits that extend a program around its
interned sub-terms (the ``id_chain`` append workload pinned in
``tests/test_service.py``).  At ``k >= 2`` an extension is not exact, so
no donor is auto-selected for it
(:func:`repro.service.jobs.subterm_gate_exact`).  An edit that
*removes* behavior can leave the donor's stale cells in the seed; the
result is then a sound over-approximation of the cold analysis, and a
caller that needs exactness re-runs cold (``donor=None``).  Use
:func:`edit_distance` to gate: when the edit replaces most of the
program, warm starting also stops being *profitable* (PERFORMANCE.md,
"Caching and warm starts").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.config import AnalysisConfig
from repro.service.cache import CachedFixpoint, FixpointCache
from repro.service.jobs import (  # noqa: F401  (historical import surface)
    contains_subterm,
    dispatch,
    iter_subvalues,
    warmable,
)


def edit_distance(old_program: Any, new_program: Any) -> dict:
    """How big an edit is, structurally: the changed-sub-term counts.

    Interning makes this cheap and exact: a sub-term survives the edit
    iff the same canonical object occurs in both programs, so the delta
    is a set difference over object identities.  Returns ``new_terms``
    (sub-terms of the edited program absent from the old one -- the work
    a warm start must actually evaluate scales with these), ``shared``
    and ``total``; ``ratio`` is ``new_terms / total``.
    """
    old_ids = {id(node) for node in iter_subvalues(old_program)}
    new_terms = 0
    total = 0
    for node in iter_subvalues(new_program):
        total += 1
        if id(node) not in old_ids:
            new_terms += 1
    return {
        "new_terms": new_terms,
        "shared": total - new_terms,
        "total": total,
        "ratio": round(new_terms / total, 4) if total else 0.0,
    }


@dataclass
class Reanalysis:
    """The outcome of one :func:`reanalyse` call, with provenance."""

    result: Any
    mode: str  # "cache-hit" | "warm" | "cold"
    seconds: float
    key: str
    stats: dict

    @property
    def fp(self) -> Any:
        """The fixed point (what the equivalence tests compare)."""
        return self.result.fp


def reanalyse(
    config: AnalysisConfig,
    program: Any,
    cache: FixpointCache,
    donor: CachedFixpoint | None = None,
    allow_warm: bool = True,
) -> Reanalysis:
    """Analyse ``program`` under ``config``, as incrementally as the cache allows.

    The three-path pipeline from the module docstring: digest hit, warm
    start, cold run.  Whatever path runs, the fixed point (plus fresh
    evaluation records for warmable configurations) is stored back under
    the program's digest.

    Donor selection is exactness-gated: an auto-selected donor (the
    cache's most recent records-bearing entry for this configuration) is
    used only when its program is an exact interned subterm of
    ``program`` (:func:`contains_subterm`) -- the extension-edit shape
    for which the warm result provably equals the cold one.  Sibling
    edits and unrelated programs run cold rather than risk a silently
    over-approximate result.  Passing ``donor=`` explicitly *bypasses*
    the gate: the result is then sound but possibly over-approximate for
    behavior-removing edits (module docstring contract) -- the caller
    takes responsibility, and the result is **not** written back to the
    cache (a later gate-respecting query must not receive a possibly
    inexact fixed point as a digest hit).  ``allow_warm=False`` forces
    path 1-or-3.
    """
    started = time.perf_counter()
    outcome = dispatch(
        config=config,
        program=program,
        cache=cache,
        allow_warm=allow_warm,
        donor=donor,
    )
    return Reanalysis(
        result=outcome.result,
        mode={"hot": "cache-hit", "disk": "cache-hit"}.get(outcome.tier, outcome.tier),
        seconds=time.perf_counter() - started,
        key=outcome.key,
        stats=dict(outcome.stats),
    )
