"""``repro.config``: declarative analysis assembly (the paper's thesis, reified).

The paper's point is that an abstract interpreter is *assembled* from
interchangeable pieces -- a monad stack, an address allocator, a store,
optional GC/counting refinements, and a fixed-point strategy.  Here the
whole design space is one declarative record:

* :class:`AnalysisConfig` -- a frozen dataclass naming every degree of
  freedom (language, addressing/k, engine, store implementation, GC,
  counting, transition staging), with :meth:`AnalysisConfig.validated`
  as the single home of the compatibility rules.  Setting an engine is
  what selects the store-widened domain (6.5, 8.2); without one the
  analysis keeps per-state stores;
* :data:`PRESETS` -- a registry of named, validated configurations
  (``concrete``, ``0cfa``, ``1cfa-gc``, ``kcfa-counting-fast``, ...),
  the CLI's ``--preset``/``--list-presets`` vocabulary;
* :func:`request_config` -- the one home of preset overrides: a preset
  plus the fields a front end (CLI flag, server request, batch job,
  profiler) explicitly set;
* :func:`reference_config` -- the paper-literal oracle of any config:
  the same domain iterated by whole-domain Kleene rounds (5.2's
  ``exploreFP``) over persistent stores with the generic monadic step;
* :func:`assemble` -- the single constructor turning a config (plus a
  program, for Featherweight Java's class table) into one
  :class:`~repro.core.analysis.Analysis` over the language's
  descriptor.  The CLI, the service layer, the tests and the
  benchmarks all build analyses through it::

      assemble(preset_config("1cfa-gc", "cps")).run(program)
      assemble(AnalysisConfig(language="lam", k=2, engine="kleene")).run(expr)

The style follows CPAchecker's composite-CPA configuration files: small
declarative modules naming a stack of components, validated before
anything is built.

Compatibility rules enforced by :meth:`AnalysisConfig.validated`:

==========================  =============================================
rule                        reason
==========================  =============================================
``versioned`` needs the     the store *implementation* only exists inside
depgraph engine             the global-store engine's loop
``kleene`` rejects          kleene re-applies the functional to immutable
``versioned``               whole-domain snapshots; a mutable store has
                            identity, not history
``concrete`` addressing     the reference semantics is per-state by
rejects engines             definition (6.1): widening its store would
                            change what every abstraction is compared
                            against
==========================  =============================================

Abstract GC and counting compose with *every* engine since the engines
learned to sweep reachability and saturate counts (see
``repro/core/fixpoint.py``); the old kleene-only restriction is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace as _dc_replace
from importlib import import_module
from typing import Any, Mapping

from repro.core.addresses import (
    Addressable,
    BoundedNat,
    ConcreteAddressing,
    KCFA,
    LContext,
    ZeroCFA,
)
from repro.core.analysis import Analysis
from repro.core.collecting import PerStateStoreCollecting, SharedStoreCollecting
from repro.core.fixpoint import ENGINES, STORE_IMPLS
from repro.core.gc import MonadicStoreCollector
from repro.core.store import (
    ACounter,
    BasicStore,
    CountingStore,
    RecordingStore,
    StoreLike,
    VersionedCountingStore,
    VersionedStore,
)

#: The languages an :class:`AnalysisConfig` can target.
LANGUAGES = ("cps", "lam", "fj")

#: The module holding each language's :class:`~repro.core.analysis.Language`
#: descriptor (``lam`` runs on the CESK machine).
ANALYSIS_MODULES = {
    "cps": "repro.cps.analysis",
    "lam": "repro.cesk.analysis",
    "fj": "repro.fj.analysis",
}

#: Named address-allocation policies (:mod:`repro.core.addresses`).
#: ``custom`` stands for a caller-supplied :class:`Addressable` object.
ADDRESSINGS = ("kcfa", "zerocfa", "concrete", "lcontext", "boundednat", "custom")

#: How the transition function is executed: ``generic`` runs the monadic
#: normal form through the ``StorePassing`` stack (the paper's 5.3.1,
#: the source of truth); ``fused`` runs the staged first-order step
#: compiled from it (:mod:`repro.core.fused` -- identical fixed points,
#: no per-bind monad dispatch on the hot path).
TRANSITIONS = ("generic", "fused")


@dataclass(frozen=True)
class AnalysisConfig:
    """One point in the paper's analysis design space, as plain data.

    ``language`` may be left ``None`` in language-agnostic presets; it is
    filled in by whoever resolves the preset (:func:`preset_config`,
    :func:`request_config`).  ``k`` parameterizes whichever addressing scheme is named
    (context depth for ``kcfa``/``lcontext``, the bound for
    ``boundednat``); it is ignored by ``zerocfa`` and ``concrete``.
    """

    language: str | None = None
    addressing: str = "kcfa"
    k: int = 1
    engine: str | None = None
    store_impl: str = "persistent"
    gc: bool = False
    counting: bool = False
    transition: str = "generic"
    label: str = ""

    @property
    def shared(self) -> bool:
        """Whether the fixed-point domain is the store-widened one (6.5).

        The engines are strategies over exactly that domain, so naming
        one is what selects it; without an engine stores stay per-state.
        """
        return self.engine is not None

    def replace(self, **overrides: Any) -> "AnalysisConfig":
        """A copy with the given fields replaced (dataclasses.replace)."""
        return _dc_replace(self, **overrides)

    def validated(self) -> "AnalysisConfig":
        """Check the configuration: return it unchanged or raise ``ValueError``.

        This is the single home of every compatibility rule the analyses
        used to enforce piecemeal (the module docstring tabulates them).
        """
        if self.language is not None and self.language not in LANGUAGES:
            raise ValueError(
                f"unknown language {self.language!r}; choose one of {LANGUAGES}"
            )
        if self.addressing not in ADDRESSINGS:
            raise ValueError(
                f"unknown addressing {self.addressing!r}; choose one of {ADDRESSINGS}"
            )
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose one of {ENGINES}"
            )
        if self.store_impl not in STORE_IMPLS:
            raise ValueError(
                f"unknown store impl {self.store_impl!r}; choose one of {STORE_IMPLS}"
            )
        if self.transition not in TRANSITIONS:
            raise ValueError(
                f"unknown transition {self.transition!r}; "
                f"choose one of {TRANSITIONS}"
            )
        if self.store_impl != "persistent" and self.engine is None:
            raise ValueError(
                "store_impl selects a global-store engine representation; "
                "pass engine='depgraph' with it"
            )
        if self.engine == "kleene" and self.store_impl == "versioned":
            raise ValueError(
                "the kleene engine iterates immutable whole-domain snapshots; "
                "the versioned (mutable) store pairs with the depgraph engine"
            )
        if self.addressing == "concrete" and self.engine is not None:
            raise ValueError(
                "concrete addressing is the per-state reference semantics; "
                "it takes neither an engine nor the store widening"
            )
        return self

    def cache_key(self) -> str:
        """A stable, human-readable identity string for content addressing.

        Every semantics-bearing field appears as ``name=value`` in sorted
        field order; ``label`` is excluded -- it is presentation only, and
        a preset must share cache entries with the identical hand-built
        configuration.
        The fixpoint cache (:mod:`repro.service.cache`) keys entries by
        this string joined with the program's structural digest, so the
        key must change exactly when the fixed point may.
        """
        fields = {
            "language": self.language,
            "addressing": self.addressing,
            "k": self.k,
            "engine": self.engine,
            "store_impl": self.store_impl,
            "gc": self.gc,
            "counting": self.counting,
            "transition": self.transition,
        }
        return "|".join(f"{name}={fields[name]}" for name in sorted(fields))

    def describe(self) -> str:
        """A compact one-line rendering (preset listings, labels)."""
        parts = [self.addressing if self.addressing != "kcfa" else f"{self.k}cfa"]
        parts.append("shared-store" if self.shared else "per-state")
        if self.engine:
            parts.append(f"{self.engine}/{self.store_impl}")
        if self.gc:
            parts.append("gc")
        if self.counting:
            parts.append("counting")
        if self.transition != "generic":
            parts.append(self.transition)
        return " ".join(parts)


@dataclass(frozen=True)
class Preset:
    """A named, documented point in the design space."""

    name: str
    config: AnalysisConfig
    description: str


def _preset(name: str, description: str, **fields: Any) -> Preset:
    return Preset(
        name=name,
        config=AnalysisConfig(label=name, **fields).validated(),
        description=description,
    )


#: The named-configuration registry (CLI ``--preset`` / ``--list-presets``).
#: Every depgraph preset is the fast path: the versioned store, stepped by
#: the staged (fused) transition.  Under either transition its fixed point
#: is bit-identical to the Kleene/persistent/generic oracle
#: (:func:`reference_config`, tests/test_config.py), so
#: ``transition="generic"`` only changes the speed.  The ``*-per-state``
#: presets keep the paper's monadic transition.
PRESETS: dict[str, Preset] = {
    preset.name: preset
    for preset in (
        _preset(
            "concrete",
            "reference concrete collecting semantics (unique addresses)",
            addressing="concrete",
        ),
        _preset(
            "0cfa",
            "monovariant global-store analysis, depgraph engine + versioned store",
            addressing="zerocfa",
            engine="depgraph",
            store_impl="versioned",
            transition="fused",
        ),
        _preset(
            "1cfa",
            "1-CFA over the global store, depgraph engine + versioned store",
            k=1,
            engine="depgraph",
            store_impl="versioned",
            transition="fused",
        ),
        _preset(
            "2cfa",
            "2-CFA over the global store, depgraph engine + versioned store",
            k=2,
            engine="depgraph",
            store_impl="versioned",
            transition="fused",
        ),
        _preset(
            "1cfa-gc",
            "1-CFA with abstract GC at worklist speed (depgraph + versioned)",
            k=1,
            gc=True,
            engine="depgraph",
            store_impl="versioned",
            transition="fused",
        ),
        _preset(
            "kcfa-counting-fast",
            "1-CFA with an abstract counting store at worklist speed",
            k=1,
            counting=True,
            engine="depgraph",
            store_impl="versioned",
            transition="fused",
        ),
        _preset(
            "1cfa-per-state",
            "1-CFA with per-state stores (precise, potentially exponential)",
            k=1,
        ),
        _preset(
            "1cfa-gc-per-state",
            "1-CFA with per-state stores and abstract GC (sharpest flows)",
            k=1,
            gc=True,
        ),
        _preset(
            "1cfa-counting-per-state",
            "1-CFA with per-state counting stores (sharp must-alias counts)",
            k=1,
            counting=True,
        ),
    )
}


def preset_config(name: str, language: str | None = None) -> AnalysisConfig:
    """Resolve a preset name to its config, optionally fixing the language."""
    try:
        preset = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; choose one of: {known}") from None
    config = preset.config
    if language is not None:
        config = config.replace(language=language)
    return config


def request_config(
    language: str,
    preset: str | None = None,
    overrides: Mapping[str, Any] | None = None,
    label: str = "",
) -> AnalysisConfig:
    """Resolve a service request's scalar parameters into a validated config.

    Everything arrives as plain scalars (a language, an optional preset
    name, an optional ``{field: value}`` override mapping), never as
    live ``Addressable`` or store objects, so the same call serves the
    analysis server's request router, the ``repro client`` front end,
    batch-job normalization (:func:`repro.service.jobs.normalize_job`),
    the CLI's ``--preset`` flags and the measurement harnesses: only the
    fields a caller explicitly set are overrides.  Unknown
    override fields raise ``ValueError`` with the allowed names -- a
    request must fail loudly, not silently ignore a typo'd field.
    """
    config = preset_config(preset or "1cfa", language)
    if overrides:
        allowed = {
            f.name for f in dataclass_fields(AnalysisConfig) if f.name != "language"
        }
        unknown = sorted(set(overrides) - allowed)
        if unknown:
            raise ValueError(
                f"unknown config override(s) {unknown}; "
                f"choose from: {', '.join(sorted(allowed))}"
            )
        config = config.replace(**dict(overrides))
    if label:
        config = config.replace(label=label)
    return config.validated()


def reference_config(config: AnalysisConfig) -> AnalysisConfig:
    """The paper-literal oracle of ``config``: same domain, same fixed point.

    A shared-store config maps to whole-domain Kleene rounds (5.2's
    ``exploreFP``) over persistent stores with the generic monadic step;
    a per-state config keeps its domain and takes the generic step, and
    callers run it with ``worklist=False`` (``explore_fp`` instead of
    the frontier worklist).  Every fast path's fixed point must be
    bit-identical to its reference's (tests/test_config.py).
    """
    if config.shared:
        return config.replace(
            engine="kleene", store_impl="persistent", transition="generic"
        )
    return config.replace(transition="generic")


def list_presets() -> list[tuple[str, str, str]]:
    """``(name, configuration summary, description)`` rows for display."""
    return [
        (name, preset.config.describe(), preset.description)
        for name, preset in PRESETS.items()
    ]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def make_addressing(config: AnalysisConfig) -> Addressable:
    """Build the :class:`Addressable` a config names (6.1)."""
    if config.addressing == "kcfa":
        return KCFA(config.k)
    if config.addressing == "zerocfa":
        return ZeroCFA()
    if config.addressing == "concrete":
        return ConcreteAddressing()
    if config.addressing == "lcontext":
        return LContext(config.k)
    if config.addressing == "boundednat":
        return BoundedNat(config.k)
    raise ValueError(
        "addressing 'custom' needs an explicit Addressable passed to assemble()"
    )


def prepare_store(
    config: AnalysisConfig, store_like: StoreLike | None = None
) -> StoreLike:
    """The config's store, readied for its engine (wrapping included).

    ``versioned`` swaps in a :class:`~repro.core.store.VersionedStore`
    (or :class:`~repro.core.store.VersionedCountingStore` when the store
    counts) over the same value lattice: one mutable store whose
    per-address change versions let the depgraph engine do O(delta)
    work per evaluation.  The depgraph engine's store is wrapped in a
    :class:`~repro.core.store.RecordingStore`, because its loop consumes
    every evaluation's read/write footprint (dependency tracking, the
    GC sweep's reads, and the write log that decides which counts to
    saturate on convergence).  Kleene rounds and per-state runs use the
    persistent store as is.
    """
    store = store_like or (CountingStore() if config.counting else BasicStore())
    if config.store_impl == "versioned":
        if isinstance(store, ACounter):
            store = VersionedCountingStore(store.value_lattice)
        else:
            store = VersionedStore(store.value_lattice)
    if config.engine == "depgraph":
        store = RecordingStore(store)
    return store


def assemble(
    config: AnalysisConfig,
    program: Any = None,
    addressing: Addressable | None = None,
    store_like: StoreLike | None = None,
) -> Analysis:
    """``assemble(config) -> Analysis``: the single assembly entry point.

    Validates the config, builds (or accepts) the addressing and store
    components, prepares the store for the configured engine, and
    composes them with the language's
    :class:`~repro.core.analysis.Language` descriptor into one
    :class:`~repro.core.analysis.Analysis` -- run it with
    ``.run(program)``.  ``program`` is required for Featherweight Java
    (the interface carries the class table) and ignored otherwise.
    ``addressing``/``store_like`` objects replace the ones the config
    names (a custom :class:`Addressable`, a store subclass).
    """
    config = config.validated()
    if config.language is None:
        raise ValueError("the config names no language; set language= first")
    addressing = addressing if addressing is not None else make_addressing(config)
    store = prepare_store(config, store_like)
    # the language modules stay unimported until a config names them
    language = import_module(ANALYSIS_MODULES[config.language]).LANGUAGE
    interface = language.interface(addressing, store, program)
    collector = (
        MonadicStoreCollector(interface.monad, store, language.touching)
        if config.gc
        else None
    )
    domain = SharedStoreCollecting if config.shared else PerStateStoreCollecting
    collecting = domain(
        interface.monad,
        store,
        addressing.tau0(),
        collector,
        language.seed_store(store),
    )
    return Analysis(
        language=language,
        interface=interface,
        collecting=collecting,
        label=config.label,
        engine=config.engine,
        transition=config.transition,
    )
