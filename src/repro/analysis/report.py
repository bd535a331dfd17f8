"""Measurement and reporting helpers shared by the benchmark harness.

Every experiment in EXPERIMENTS.md is regenerated by a benchmark that
reduces an analysis result to an :class:`AnalysisMetrics` row and prints
it with :func:`fmt_table`; keeping the reduction here means the
benchmarks stay declarative (which analysis, which workload, which
columns).

The JSON side (:func:`json_ready` / :func:`render_json` /
:func:`result_summary`) is **deterministic by construction**: keys sort,
sets render as sorted lists, addresses and terms render through their
(stable, pretty-printer-backed) ``repr``.  Two runs over the same inputs
produce byte-identical documents, so batch reports and cache indexes
diff cleanly across machines and sessions -- pinned by the
golden-output test in ``tests/test_report.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence


@dataclass
class AnalysisMetrics:
    """One row of an experiment table."""

    label: str
    seconds: float
    states: int
    configs: int
    elements: int
    store_size: int
    extra: dict = field(default_factory=dict)

    def row(self, extra_keys: Sequence[str] = ()) -> list:
        out = [
            self.label,
            f"{self.seconds:.4f}",
            str(self.states),
            str(self.configs),
            str(self.elements),
            str(self.store_size),
        ]
        for key in extra_keys:
            out.append(str(self.extra.get(key, "")))
        return out


def metrics_of(result: Any, label: str, seconds: float, **extra: Any) -> AnalysisMetrics:
    """Reduce any analysis-result object (CPS/CESK/FJ) to a metrics row."""
    return AnalysisMetrics(
        label=label,
        seconds=seconds,
        states=result.num_states(),
        configs=len(result.configs()),
        elements=result.num_elements(),
        store_size=result.store_size(),
        extra=extra,
    )


def timed(thunk: Callable[[], Any]) -> tuple[Any, float]:
    """Run a thunk under a wall-clock timer."""
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


def measure_cps(analysis_fn: Callable[[], Any], label: str, **extra: Any) -> AnalysisMetrics:
    """Time an analysis thunk and reduce its result to a metrics row."""
    result, seconds = timed(analysis_fn)
    return metrics_of(result, label, seconds, **extra)


def precision_summary(flows: dict) -> dict:
    """Summarize a flows-to map: variable count, total and mean flow size.

    The mean flow-set size is the standard scalar precision measure for
    CFA comparisons (smaller is more precise; 1.0 is exact for
    deterministic programs).
    """
    if not flows:
        return {"vars": 0, "total_flows": 0, "mean_flow": 0.0, "max_flow": 0}
    sizes = [len(lams) for lams in flows.values()]
    return {
        "vars": len(flows),
        "total_flows": sum(sizes),
        "mean_flow": round(sum(sizes) / len(sizes), 3),
        "max_flow": max(sizes),
    }


def stable_address(addr: Any) -> str:
    """Render a store address (or any term) deterministically.

    Every address/term type in this code base has a structural ``repr``
    (the syntax nodes pretty-print back to concrete syntax), so ``repr``
    is already process-independent -- unlike ``hash`` or ``id``.  Named
    as a function so the rendering contract has one home.
    """
    return repr(addr)


def json_ready(value: Any) -> Any:
    """Fold any report value into deterministic JSON-encodable data.

    * mappings -> dicts keyed by :func:`stable_address`\\ d strings
      (``json.dumps(..., sort_keys=True)`` then fixes the order);
    * sets/frozensets -> **sorted** lists (sets have no order to preserve,
      so one is imposed);
    * tuples/lists -> lists, element-wise;
    * scalars pass through; anything else renders via
      :func:`stable_address`.
    """
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        return {
            key if isinstance(key, str) else stable_address(key): json_ready(entry)
            for key, entry in value.items()
        }
    if isinstance(value, (set, frozenset)):
        return sorted(json_ready(entry) for entry in value)
    if isinstance(value, (list, tuple)):
        return [json_ready(entry) for entry in value]
    return stable_address(value)


def render_json(value: Any) -> str:
    """The one JSON renderer reports and cache indexes go through.

    ``sort_keys`` plus :func:`json_ready`'s normalization make the output
    a pure function of the value's content -- byte-identical across
    processes, diff-friendly across runs.  Ends with a newline so the
    files behave under ``diff``/``git``.
    """
    return json.dumps(json_ready(value), indent=2, sort_keys=True) + "\n"


def result_summary(
    result: Any,
    label: str = "",
    seconds: float | None = None,
    include_flows: bool = True,
) -> dict:
    """Reduce any analysis result to a deterministic, JSON-ready summary.

    Works across the three languages by duck type: CPS/CESK results carry
    ``flows_to``, FJ results ``class_flows``.  Flow sets render as sorted
    term strings; the scalar precision measures come from
    :func:`precision_summary`.  ``seconds`` is optional so golden-output
    tests can pin the timing-free document.  ``include_flows=False``
    leaves the ``flows`` table out without rendering it (the precision
    scalars only need the set sizes); the other keys keep their order.
    """
    flows = (
        result.flows_to() if hasattr(result, "flows_to") else result.class_flows()
    )
    summary: dict = {
        "label": label or result.label,
        "states": result.num_states(),
        "configs": len(result.configs()),
        "elements": result.num_elements(),
        "store_size": result.store_size(),
    }
    if include_flows:
        summary["flows"] = {
            str(var): sorted(stable_address(v) for v in values)
            for var, values in flows.items()
        }
    summary["precision"] = precision_summary(flows)
    if seconds is not None:
        summary["seconds"] = round(seconds, 6)
    return summary


def fmt_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned plain-text table (the harness's output format)."""
    widths = [len(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
