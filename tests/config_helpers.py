"""The one config shorthand the analysis tests share, for every language."""

from repro.config import AnalysisConfig, assemble


def run_config(language, program, **fields):
    """``assemble(AnalysisConfig(language=language, **fields)).run(program)``.

    ``fields`` are :class:`~repro.config.AnalysisConfig` fields; left
    out, they are the config defaults (1-CFA over per-state stores).
    """
    config = AnalysisConfig(language=language, **fields)
    return assemble(config, program=program).run(program)
