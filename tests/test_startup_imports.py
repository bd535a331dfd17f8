"""A one-shot ``repro analyze`` loads only the parts its analysis assembles.

Package ``__init__`` modules import nothing, so a request pays for the
modules on its own path: the chosen language's front end and analysis,
the shared core, the cache.  Each case runs ``python -X importtime -m
repro analyze`` in a fresh interpreter, once cold and once as a disk
hit over the same ``--cache-dir``, and reads the imported modules from
the ``-X importtime`` report on stderr.
"""

import pytest
from cli_helpers import run_repro

#: Never on the path of a single analysis, whatever the language.
NEVER = (
    "repro.service.batch",
    "repro.service.fuzz",
    "repro.corpus.generate",
    "multiprocessing",
    "asyncio",
    "repro.serve",
)

#: Per language: a program, and the packages of the other languages'
#: analyses it must not load.  lam and imp read s-expressions through
#: the CPS parser, so only the CPS machine and analysis are off-limits.
CASES = {
    "cps": (
        "((lambda (x k) (k x)) (lambda (z j) (j z)) (lambda (r) (exit)))",
        ("repro.cesk", "repro.fj", "repro.imp", "repro.lam"),
    ),
    "lam": (
        "((lambda (x) x) (lambda (y) y))",
        ("repro.cps.analysis", "repro.cps.concrete", "repro.cps.semantics",
         "repro.fj", "repro.imp"),
    ),
    "imp": (
        "let x = 1; let y = x + 2; return y;",
        ("repro.cps.analysis", "repro.cps.concrete", "repro.cps.semantics",
         "repro.fj"),
    ),
    "fj": (
        "class A extends Object { }\nnew A()",
        ("repro.cps", "repro.cesk", "repro.lam", "repro.imp"),
    ),
}


def loaded_modules(args: list[str]) -> tuple[str, list[str]]:
    """Run ``python -X importtime -m repro ARGS``; stdout and imported modules."""
    proc = run_repro(*args, python_flags=("-X", "importtime"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    return proc.stdout, modules


def under(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


@pytest.mark.parametrize("lang", sorted(CASES))
def test_analyze_loads_only_its_own_language(lang, tmp_path):
    source, foreign = CASES[lang]
    program = tmp_path / f"prog.{lang}"
    program.write_text(source)
    args = ["analyze", str(program), "--preset", "1cfa",
            "--cache-dir", str(tmp_path / "cache")]
    for tier in ("cold", "disk"):
        stdout, modules = loaded_modules(args)
        assert f"({tier})" in stdout, stdout
        ours = sorted({m for m in modules if under(m, "repro")})
        print(f"{lang} {tier}: {len(ours)} repro modules: {' '.join(ours)}")
        assert "repro.cli" in ours  # the report really lists our imports
        for module in modules:
            for package in NEVER + foreign:
                assert not under(module, package), (
                    f"{lang} {tier} run loaded {module}"
                )
