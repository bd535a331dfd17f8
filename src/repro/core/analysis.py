"""One assembled analysis for every language (paper 5.2, 7).

The paper's ``runAnalysis`` names exactly what varies between analyses:
the monad, the semantic-interface implementation and the collecting
domain with its fixed-point computation::

    runAnalysis e = exploreFP mnext (e, Map.empty)

Its reuse claim (7) is that CPS, CESK and Featherweight Java share every
component except the interface and the touching relation.  This module
is that claim as code:

* :class:`Language` -- the small per-language descriptor: how to build
  the interface, the touching relation, ``inject``, the generic step,
  the staged (fused) step builder, the halt frame the injected store
  holds and the result view;
* :class:`Analysis` -- an assembled analysis (interface + collecting
  domain + step) whose :meth:`Analysis.run` is ``runAnalysis``;
* :class:`AnalysisResult` -- the language-independent views of a fixed
  point; each language subclasses it with its own flow views.

:func:`repro.config.assemble` is the one constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.core.driver import run_engine_analysis
from repro.core.fixpoint import explore_fp, worklist_explore
from repro.core.store import StoreLike, unwrap_store


class EngineRequired(ValueError):
    """A run option that only an engine-backed analysis can honour."""

    def __init__(self, options: str):
        super().__init__(
            f"{options} need an engine-backed analysis (set engine= in the config)"
        )


@dataclass(frozen=True)
class Language:
    """What one language contributes to an analysis; everything else is shared.

    ``interface(addressing, store_like, program)`` builds the abstract
    interface (FJ's closes over the class table of ``program``);
    ``step(interface, pstate)`` is the generic monadic transition and
    ``fused(interface)`` the staged one (imported lazily by the language
    module); ``halt`` is the ``(address, frame)`` binding the injected
    store holds (the direct-style machines' halt continuation), or
    ``None`` for the empty store.
    """

    name: str
    interface: Callable[[Any, StoreLike, Any], Any]
    touching: Any
    inject: Callable[[Any], Any]
    step: Callable[[Any, Any], Any]
    fused: Callable[[Any], Any]
    result: type
    halt: tuple[Hashable, Any] | None = None

    def seed_store(self, store_like: StoreLike) -> Any:
        """The store every run injects: empty, or holding the halt frame."""
        if self.halt is None:
            return None
        address, frame = self.halt
        return store_like.bind(store_like.empty(), address, frozenset([frame]))


@dataclass
class Analysis:
    """A fully assembled analysis: interface + collecting domain + step.

    ``run`` computes the collecting semantics of a program; the result
    is the language's :class:`AnalysisResult` subclass, uniform across
    per-state-store and shared-store domains.
    """

    language: Language
    interface: Any
    collecting: Any
    label: str = ""
    engine: str | None = None
    transition: str = "generic"
    last_stats: dict = field(default_factory=dict)

    @property
    def shared(self) -> bool:
        """Whether the domain is the store-widened one: an engine is set."""
        return self.engine is not None

    def step(self) -> Callable[[Any], Any]:
        """The transition the fixed point iterates: generic or staged."""
        if self.transition == "fused":
            return self.language.fused(self.interface)
        step, interface = self.language.step, self.interface
        return lambda pstate: step(interface, pstate)

    def run(
        self,
        program: Any,
        worklist: bool = True,
        max_steps: int = 1_000_000,
        warm_start: Any = None,
        capture: Any = None,
        trace: list | None = None,
    ) -> "AnalysisResult":
        """``runAnalysis``: the fixed point of ``program``, wrapped.

        Engine-backed (shared-store) analyses run their engine; per-state
        ones take the frontier worklist when ``worklist`` is set (the
        same fixed point as Kleene iteration, experiment E9) and
        ``exploreFP`` otherwise.  ``warm_start``, ``capture`` and
        ``trace`` need an engine.
        """
        initial = self.language.inject(program)
        if self.engine is not None:
            fp = run_engine_analysis(
                self,
                initial,
                max_steps=max_steps,
                warm_start=warm_start,
                capture=capture,
                trace=trace,
            )
        elif warm_start is not None or capture is not None or trace is not None:
            raise EngineRequired("warm starts, capture and tracing")
        elif worklist:
            collecting = self.collecting
            fp = worklist_explore(
                collecting,
                self.step(),
                initial,
                collecting.successors_of,
                max_states=max_steps,
            )
        else:
            fp = explore_fp(self.collecting, self.step(), initial, max_steps=max_steps)
        return self.wrap_result(fp, program)

    def wrap_result(self, fp: Any, program: Any) -> "AnalysisResult":
        """View a fixed point (freshly computed or cache-loaded) uniformly.

        The fixpoint cache (:mod:`repro.service.cache`) stores bare fixed
        points; loads are wrapped back through here so callers
        see the exact object :meth:`run` would have returned.
        """
        return self.language.result(
            fp=fp,
            shared=self.shared,
            store_like=unwrap_store(self.interface.store_like),
            program=program,
            label=self.label,
        )


@dataclass
class AnalysisResult:
    """The language-independent views of an analysis fixed point.

    Per-state-store domains hold ``frozenset{((PState, guts), store)}``;
    shared-store domains hold ``(frozenset{(PState, guts)}, store)``.
    """

    fp: Any
    shared: bool
    store_like: StoreLike
    program: Any = None
    label: str = ""

    def configs(self) -> frozenset:
        """All ``(PState, guts)`` pairs reached."""
        if self.shared:
            return self.fp[0]
        return frozenset(pair for pair, _store in self.fp)

    def states(self) -> frozenset:
        """All partial machine states reached."""
        return frozenset(pstate for pstate, _guts in self.configs())

    def num_configs(self) -> int:
        return len(self.configs())

    def num_states(self) -> int:
        return len(self.states())

    def num_elements(self) -> int:
        """The raw size of the fixed point.

        For per-state-store domains this counts *(state, guts, store)*
        triples and therefore exposes the heap-cloning cost (6.5): two
        configurations that differ only in their stores count twice.
        For shared-store domains it is the number of state/guts pairs.
        """
        if self.shared:
            return len(self.fp[0])
        return len(self.fp)

    def global_store(self) -> Any:
        """The join of every store in the result (the store, if shared)."""
        if self.shared:
            return self.fp[1]
        return self.store_like.lattice().join_all(store for _pair, store in self.fp)

    def store_size(self) -> int:
        return len(list(self.store_like.addresses(self.global_store())))
