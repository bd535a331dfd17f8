"""The analysis cells the benchmark drives: programs x configurations.

A *cell* is one ``(source text, language, config overrides)`` triple.
Every workload draws its ops from :func:`catalogue`, a fixed list
that does not depend on the benchmark seed (the seed only orders and
mixes the ops), so every host and every seed runs the same cells and
the expected outputs in ``expected.json`` apply to all of them.

Cells are admitted by a machine-independent *evaluation-count* budget,
never by wall clock: ``oracle.py`` runs every candidate under its
configuration with ``max_steps=EVAL_BUDGET`` and drops the ones the
engine aborts (``FixpointDiverged``).  ``lam:church-two-two`` under
``k=2`` and GC, and the ``imp`` loop programs ``branch-in-loop`` and
``nested-loops`` under every variant, fall out that way.  The families,
and why each is in the mix:

* ``cps``/``lam``/``fj``/``imp`` corpus programs, pretty-printed (or,
  for FJ and imp, their registered source text): the hand-written
  programs users analyse; cheap cells (about 1 ms) that keep the
  parser and assembly visible next to the fixpoint;
* ``gen`` -- ``repro.corpus.generate`` imp programs from a fixed
  generator seed: realistic lowered surface code, the mid-cost band;
* ``id_chain``/``eta_chain``/``apply_tower`` at several N: size
  families whose cost grows smoothly with N, filling the tail up to a
  few hundred milliseconds without a gap at the 90th rank.

Overrides touch only the semantic fields (``k``, ``addressing``,
``gc``, ``counting``) on top of the ``1cfa`` preset, resolved through
``repro.config.request_config``.
"""

from __future__ import annotations

#: Abort a candidate cell past this many engine evaluations.  A count,
#: so the cell set is the same on every machine.
EVAL_BUDGET = 1_500

#: The generator seed for the ``gen`` family (fixed: the cell set must
#: not depend on the benchmark seed).
GEN_SEED = 2013
GEN_COUNT = 10

#: Configuration variants, as overrides of the ``1cfa`` preset.
VARIANTS = {
    "1cfa": {},
    "0cfa": {"addressing": "zerocfa"},
    "2cfa": {"k": 2},
    "gc": {"gc": True},
    "count": {"counting": True},
}

#: Which variants each family runs under.  Chains are the precision
#: stress (context depth and GC matter there); corpus programs run the
#: whole variant set because they are cheap.
FAMILY_VARIANTS = {
    "corpus": ("1cfa", "0cfa", "2cfa", "gc", "count"),
    "gen": ("1cfa", "2cfa", "count"),
    "id_chain": ("1cfa", "0cfa", "gc"),
    "eta_chain": ("1cfa", "2cfa"),
    "apply_tower": ("1cfa", "gc"),
}

SIZES = {
    "id_chain": (4, 8, 12, 16, 24),
    "eta_chain": (4, 8, 12, 16),
    "apply_tower": (8, 16, 32, 48),
}

#: Programs left out although they pass the evaluation budget, with why.
EXCLUDED = {
    # 588 evaluations, but each one joins large CESK continuation sets:
    # one op would be over a tenth of a pass and own the 99th rank alone
    "lam:church-two-two": "dominates a pass (few evaluations, very costly ones)",
}

#: FJ corpus names -> the module constant holding their source text.
FJ_SOURCES = {
    "pair": "PAIR",
    "id-twice": "ID_TWICE",
    "animals": "ANIMALS",
    "visitor": "VISITOR",
    "safe-cast": "SAFE_CAST",
    "bad-cast": "BAD_CAST",
    "list-walk": "LIST_LOOP",
    "church-bool": "CHURCH_BOOL",
}


def _programs() -> list[tuple[str, str, str, str]]:
    """``(family, name, language, source)`` for every candidate program."""
    from repro.corpus import cps_programs, fj_programs, imp_programs, lam_programs
    from repro.corpus.generate import generate_corpus
    from repro.cps.syntax import pp as cps_pp
    from repro.imp.syntax import pp as imp_pp
    from repro.lam.syntax import pp as lam_pp

    out = []
    for name, term in sorted(cps_programs.PROGRAMS.items()):
        out.append(("corpus", f"cps:{name}", "cps", cps_pp(term)))
    for name, term in sorted(lam_programs.PROGRAMS.items()):
        out.append(("corpus", f"lam:{name}", "lam", lam_pp(term)))
    for name, constant in sorted(FJ_SOURCES.items()):
        out.append(("corpus", f"fj:{name}", "fj", getattr(fj_programs, constant)))
    for name, source in sorted(imp_programs.SOURCES.items()):
        out.append(("corpus", f"imp:{name}", "imp", source))
    for index, program in enumerate(generate_corpus(GEN_SEED, GEN_COUNT)):
        out.append(("gen", f"gen:{index}", "imp", imp_pp(program)))
    for n in SIZES["id_chain"]:
        out.append(("id_chain", f"id_chain:{n}", "cps", cps_pp(cps_programs.id_chain(n))))
    for n in SIZES["eta_chain"]:
        out.append(
            ("eta_chain", f"eta_chain:{n}", "lam", lam_pp(lam_programs.eta_chain(n)))
        )
    for n in SIZES["apply_tower"]:
        out.append(
            ("apply_tower", f"apply_tower:{n}", "lam", lam_pp(lam_programs.apply_tower(n)))
        )
    return out


def candidates() -> list[dict]:
    """Every candidate cell, before the evaluation-budget filter."""
    cells = []
    for family, name, language, source in _programs():
        if name in EXCLUDED:
            continue
        for variant in FAMILY_VARIANTS[family]:
            cells.append(
                {
                    "id": f"{name}/{variant}",
                    "family": family,
                    "language": language,
                    "source": source,
                    "overrides": VARIANTS[variant],
                }
            )
    return cells


def parse(language: str, source: str):
    """Source text to a program term, through each front end's public parser."""
    if language == "cps":
        from repro.cps.parser import parse_program

        return parse_program(source)
    if language == "lam":
        from repro.lam.parser import parse_expr

        return parse_expr(source)
    if language == "imp":
        from repro.imp import lower_source

        return lower_source(source)
    from repro.fj.parser import parse_program as parse_fj

    return parse_fj(source)


def analysis_language(language: str) -> str:
    """The language an analysis of ``language`` runs as (imp lowers to lam)."""
    return "lam" if language == "imp" else language


def catalogue(expected: dict) -> list[dict]:
    """The admitted cells, each carrying its expected summary digest."""
    admitted = expected["cells"]
    return [
        dict(cell, expected=admitted[cell["id"]]["expected"])
        for cell in candidates()
        if cell["id"] in admitted
    ]


#: Chain lengths of the ``serve`` workload's edit pairs (one pair per
#: warm op, each used once per connection: a warm start needs a donor
#: the server has only just stored).  The catalogue's own ``id_chain``
#: sizes are skipped so the pairs' cache keys are fresh.  The pairs run
#: at ``k=1``: at ``k>=2`` the warm start keeps a few donor-only states
#: (``id_chain_edited(5)``: 17 states at k=2 and 16 at k=3, against 13
#: cold), so its output would not match the cold oracle.
WARM_SIZES = tuple(n for n in range(5, 75) if n not in SIZES["id_chain"])


def warm_cells() -> list[dict]:
    """``id_chain(n)`` and its one-link edit, for every warm size."""
    from repro.corpus.cps_programs import id_chain, id_chain_edited
    from repro.cps.syntax import pp

    out = []
    for n in WARM_SIZES:
        for name, build in (("id_chain", id_chain), ("id_chain_edited", id_chain_edited)):
            out.append(
                {
                    "id": f"warm:{name}:{n}",
                    "family": "warm",
                    "language": "cps",
                    "source": pp(build(n)),
                    "overrides": {},
                }
            )
    return out
