"""Shared workload resolution for the measurement harnesses.

``tools/profile_analysis.py`` and ``benchmarks/bench_gates.py`` look a
workload up by ``(language, name)`` -- a corpus program, or the
synthetic CPS ``id-chain-N`` family -- through this one module, so the
profiler and the time gates can never resolve the same name to
different programs.  Flags become a config through
:func:`repro.config.request_config`, like every other front end's.
"""

from __future__ import annotations

from typing import Any


def corpus_for(lang: str) -> dict:
    """The corpus programs of one language, by name."""
    if lang == "cps":
        from repro.corpus.cps_programs import PROGRAMS
    elif lang == "lam":
        from repro.corpus.lam_programs import PROGRAMS
    elif lang == "fj":
        from repro.corpus.fj_programs import PROGRAMS
    else:
        raise ValueError(f"no workload corpus for language {lang!r}")
    return dict(PROGRAMS)


def resolve_workload(lang: str, name: str) -> Any:
    """A workload program by name.

    Corpus names resolve through :func:`corpus_for`; for CPS the
    synthetic ``id-chain-N`` family (the scaling workload behind the
    engine benchmarks) is also understood.  Raises ``ValueError`` with
    the known names -- front-ends turn that into their own exit.
    """
    if lang == "cps" and name.startswith("id-chain-"):
        from repro.corpus.cps_programs import id_chain

        return id_chain(int(name.rsplit("-", 1)[1]))
    programs = corpus_for(lang)
    try:
        return programs[name]
    except KeyError:
        known = ", ".join(sorted(programs))
        raise ValueError(
            f"unknown {lang} workload {name!r}; choose one of: {known}"
            + (" (or id-chain-N)" if lang == "cps" else "")
        ) from None

