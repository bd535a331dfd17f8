"""``run_fuzz``: differential soundness testing over generated programs.

The executable soundness statement of the whole pipeline (the property
``tests/test_random_soundness.py`` samples with hypothesis) is::

    concrete.lam in analysis(lowered).final_values()

-- the abstract interpretation's final values must *cover* the concrete
CESK machine's answer for the same term.  The fuzz harness scales that
statement from dozens of hypothesis samples to a seeded corpus of
hundreds of surface-language programs (:mod:`repro.corpus.generate`)
across a matrix of analysis presets, and is what the nightly CI lane
runs (``.github/workflows/nightly.yml``).

For every generated program the harness lowers once, runs the concrete
machine once (a divergence budget turns runaways into *skips*, never
failures -- generated loops terminate by construction, so the budget is
slack), then checks coverage under every preset.  Each abstract run has
a deterministic evaluation budget (:data:`ANALYSIS_EVAL_BUDGET`);
exceeding it -- or the interpreter recursion limit -- *aborts* that
preset for that program, counted in the report and never a pass (see
PERFORMANCE.md, "The imp frontend at corpus scale").  A violation is
shrunk (:func:`repro.imp.shrink.shrink`) to a 1-minimal program that
still violates the *same* preset, and both the original and the shrunk
reproducer land in the report.

The report is **deterministic by design**: same seed, same count, same
presets -- byte-identical JSON (:func:`repro.analysis.report.render_json`
with no timestamps or timings), so CI can diff two runs and the corpus
digest pins the generator stream.  Presets whose abstract domains
diverge on the lowered encodings (monovariant 0CFA on chained lookup
tables -- see PERFORMANCE.md) are excluded from :data:`FUZZ_PRESETS`
rather than special-cased per program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.report import render_json
from repro.cesk.concrete import CESKTimeout, evaluate
from repro.config import assemble, preset_config
from repro.core.fixpoint import FixpointDiverged
from repro.corpus.generate import GenConfig, corpus_digest, generate_corpus
from repro.imp.lower import lower_program
from repro.imp.shrink import shrink
from repro.imp.syntax import Program, pp

#: The default preset matrix: every context-sensitive depgraph family
#: (1-CFA, deeper contexts, counting).  Monovariant 0cfa is
#: deliberately absent: it diverges on chained arithmetic tables (every
#: table call site shares one set of binder addresses, so compositions
#: feed joined results back through the same tower).
FUZZ_PRESETS = ("1cfa", "2cfa", "kcfa-counting-fast")


@dataclass
class FuzzOutcome:
    """One program's differential result across the preset matrix."""

    index: int
    source: str
    skipped: bool = False
    violations: list = field(default_factory=list)  # [(preset, shrunk source)]


#: Per-preset evaluation budget.  Generated programs need at most a few
#: thousand configuration evaluations (measured ceiling ~2.3k at k=2);
#: the rare pathological shapes -- chained var-var products compounding
#: through call results -- run one or two orders of magnitude past that
#: before converging (or never do).  The budget is an *evaluation count*,
#: not wall clock, so abort decisions are machine-independent and the
#: report stays byte-identical for a seed.
ANALYSIS_EVAL_BUDGET = 10_000


def _covers(lowered, concrete_lam, preset: str, max_evals: int) -> bool:
    config = preset_config(preset, language="lam")
    analysis = assemble(config)
    result = analysis.run(lowered, worklist=not config.shared, max_steps=max_evals)
    return concrete_lam in result.final_values()


def check_program(
    program: Program,
    presets: Sequence[str] = FUZZ_PRESETS,
    max_steps: int = 200_000,
    max_evals: int = ANALYSIS_EVAL_BUDGET,
) -> dict:
    """The soundness check for one program: ``preset -> covered?``.

    Returns ``{}`` when the concrete run exhausts ``max_steps`` (the
    program is skipped -- soundness of a divergent run is vacuous here).
    A preset maps to ``None`` when its exploration exceeds ``max_evals``
    configuration evaluations or blows the interpreter recursion limit
    (deeply chained var-var arithmetic can do either at k=2): the preset
    made no claim for this program, which the report counts as an
    *abort*, never a pass.
    """
    lowered = lower_program(program)
    try:
        concrete = evaluate(lowered, max_steps=max_steps)
    except CESKTimeout:
        return {}
    verdict = {}
    for preset in presets:
        try:
            verdict[preset] = _covers(lowered, concrete.lam, preset, max_evals)
        except (FixpointDiverged, RecursionError):
            verdict[preset] = None
    return verdict


def _still_violates(preset: str, max_steps: int):
    """The shrink predicate: the candidate still breaks ``preset``."""

    def predicate(candidate: Program) -> bool:
        verdict = check_program(candidate, presets=(preset,), max_steps=max_steps)
        return verdict.get(preset) is False

    return predicate


def run_fuzz(
    seed: int,
    count: int,
    presets: Sequence[str] = FUZZ_PRESETS,
    max_steps: int = 200_000,
    gen_config: GenConfig | None = None,
    shrink_checks: int = 400,
    max_evals: int = ANALYSIS_EVAL_BUDGET,
) -> dict:
    """Fuzz ``count`` seeded programs against ``presets``; return the report.

    The report document is deterministic JSON material: generator
    digest, per-preset check counts, and -- for violations -- the
    original and shrunk reproducer sources.  No wall-clock data.
    """
    programs = generate_corpus(seed, count, gen_config)
    outcomes: list[FuzzOutcome] = []
    checked = {preset: 0 for preset in presets}
    aborted = {preset: 0 for preset in presets}
    for index, program in enumerate(programs):
        outcome = FuzzOutcome(index=index, source=pp(program))
        verdict = check_program(
            program, presets=presets, max_steps=max_steps, max_evals=max_evals
        )
        if not verdict:
            outcome.skipped = True
        for preset, covered in verdict.items():
            if covered is None:
                aborted[preset] += 1
                continue
            checked[preset] += 1
            if not covered:
                reduced = shrink(
                    program,
                    _still_violates(preset, max_steps),
                    max_checks=shrink_checks,
                )
                outcome.violations.append((preset, pp(reduced)))
        outcomes.append(outcome)

    violations = [
        {
            "index": outcome.index,
            "preset": preset,
            "program": outcome.source,
            "shrunk": shrunk,
        }
        for outcome in outcomes
        for preset, shrunk in outcome.violations
    ]
    return {
        "schema": "fuzz-report/1",
        "seed": seed,
        "count": count,
        "presets": list(presets),
        "corpus_digest": corpus_digest(programs),
        "max_steps": max_steps,
        "max_evals": max_evals,
        "skipped": sum(1 for outcome in outcomes if outcome.skipped),
        "checked": checked,
        "aborted": aborted,
        "violations": violations,
    }


def render_fuzz_report(report: dict) -> str:
    """The report as deterministic JSON (sorted keys, trailing newline)."""
    return render_json(report)
