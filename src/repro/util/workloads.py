"""Shared workload/preset resolution for the measurement harnesses.

``tools/profile_analysis.py`` and ``benchmarks/bench_gates.py`` share
the same plumbing: look a workload up by ``(language, name)`` -- a
corpus program, or the synthetic CPS ``id-chain-N`` family -- and turn
a preset plus fine-grained override flags into a validated
:class:`~repro.config.AnalysisConfig`.  This module is the one home for
both, so the profiler and the time gates can never resolve the same
name to different programs or the same flags to different configs.
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


def build_workload_config(
    lang: str,
    preset: str | None = None,
    k: int | None = None,
    engine: str | None = None,
    store_impl: str | None = None,
    transition: str | None = None,
    gc: bool = False,
    counting: bool = False,
):
    """A validated analysis config from a preset plus override flags.

    With ``preset`` the named registry entry is the base and only the
    explicitly passed flags override its fields (the CLI's semantics).
    Without one, the default is the fast global-store configuration
    (``depgraph`` + ``versioned`` -- the hot path worth measuring),
    falling back to the persistent store for the kleene engine, which
    cannot pair with the versioned one.
    """
    from repro.config import AnalysisConfig, request_config

    if preset:
        overrides = {
            name: value
            for name, value in (
                ("k", k),
                ("engine", engine),
                ("store_impl", store_impl),
                ("transition", transition),
                ("gc", gc or None),
                ("counting", counting or None),
            )
            if value is not None
        }
        return request_config(lang, preset, overrides)
    resolved_engine = engine or "depgraph"
    default_impl = "persistent" if resolved_engine == "kleene" else "versioned"
    return AnalysisConfig(
        language=lang,
        k=1 if k is None else k,
        widening="store",
        engine=resolved_engine,
        store_impl=store_impl or default_impl,
        gc=gc,
        counting=counting,
        transition=transition or "generic",
    ).validated()
