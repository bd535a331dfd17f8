"""Shared harness for the resident-server tests (and their goldens).

Three things live here so ``tests/test_serve.py`` (soak/equality/faults)
and ``tests/test_serve_protocol.py`` (golden wire fixtures) cannot drift
apart:

* the **preset x language matrix** the server is swept over (the same
  ``MATRIX_PROGRAMS`` cells ``tests/test_service.py`` pins the batch
  layer with) and the request params for one cell;
* the **cold reference row**: what a server ``analyse`` response for a
  cell must contain, computed in-process with a bare
  ``assemble(config).run(program)`` -- no cache, no server, no dispatch
  core -- plus the volatile-field discipline (:data:`VOLATILE_ROW_FIELDS`
  are provenance: which tier answered and what it cost; everything else
  must be byte-identical across tiers);
* the **golden masking** rules and a raw-line connection for driving the
  protocol below the client abstraction (malformed JSON, wrong shapes).
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.analysis.report import render_json, result_summary
from repro.config import LANGUAGES, PRESETS, assemble, preset_config
from repro.corpus import corpus_program
from repro.service.cache import cache_key

#: One small corpus program per language (the test_service matrix).
MATRIX_PROGRAMS = {"cps": "mj09", "lam": "eta", "fj": "animals"}

CELLS = [
    (preset_name, lang) for preset_name in sorted(PRESETS) for lang in LANGUAGES
]

#: Row fields that legitimately differ by serving tier: provenance
#: (which tier answered, whether the cache hit, what it cost).  Every
#: other field of an ``analyse`` response is analysis content and must
#: be byte-identical to the cold reference.
VOLATILE_ROW_FIELDS = frozenset(
    {"seconds", "cache", "tier", "evaluations", "reused", "dedup_hits"}
)

#: Keys masked (at any nesting depth) in golden protocol fixtures:
#: wall-clock, process identity, and interning counters that depend on
#: what else the test process has parsed.  The ``prometheus`` text blob
#: is masked wholesale -- it embeds latency quantiles and uptime; its
#: *reconciliation* with ``stats`` is asserted semantically in
#: ``tests/test_serve.py``, not byte-pinned here.
GOLDEN_MASK = frozenset(
    {
        "seconds",
        "total_seconds",
        "uptime_seconds",
        "latency",
        "pid",
        "inflight",
        "intern",
        "prometheus",
    }
)


def cell_params(preset_name: str, lang: str, include_flows: bool = True) -> dict:
    """The ``analyse``/``reanalyse`` request params for one matrix cell."""
    return {
        "language": lang,
        "corpus": MATRIX_PROGRAMS[lang],
        "preset": preset_name,
        "label": f"{lang}/{preset_name}",
        "include_flows": include_flows,
    }


def cold_row(preset_name: str, lang: str, include_flows: bool = True) -> dict:
    """The content a server response for this cell must carry, computed
    cold in this process with none of the serving machinery."""
    config = preset_config(preset_name, lang).validated()
    program = corpus_program(lang, MATRIX_PROGRAMS[lang])
    analysis = assemble(config, program=program)
    result = analysis.run(program, worklist=not config.shared)
    summary = result_summary(result, label=f"{lang}/{preset_name}")
    if not include_flows:
        summary.pop("flows")
    summary.update(
        key=cache_key(program, config),
        language=config.language,
        config=config.cache_key(),
    )
    return content_of(summary)


def content_of(row: dict) -> dict:
    """A row with its per-tier provenance fields dropped."""
    return {k: v for k, v in row.items() if k not in VOLATILE_ROW_FIELDS}


def content_bytes(row: dict) -> str:
    """The content of a row as deterministic JSON (byte-comparable)."""
    return render_json(content_of(row))


def masked(value: Any) -> Any:
    """A response with every :data:`GOLDEN_MASK` key's value replaced."""
    if isinstance(value, dict):
        return {
            key: "<masked>" if key in GOLDEN_MASK else masked(child)
            for key, child in value.items()
        }
    if isinstance(value, list):
        return [masked(child) for child in value]
    return value


class RawConnection:
    """A line-level connection for protocol tests: send bytes, read one
    response line -- no request validation, no error-to-exception
    translation (both are exactly what the goldens pin)."""

    def __init__(
        self, port: int, host: str = "127.0.0.1", timeout: float = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def exchange(self, line: str) -> dict:
        """Send one raw line, return the parsed response object."""
        self._file.write(line.encode("utf-8") + b"\n")
        self._file.flush()
        response = self._file.readline()
        if not response:
            raise ConnectionError("server closed the connection")
        return json.loads(response)

    def close(self) -> None:
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "RawConnection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


assert set(MATRIX_PROGRAMS) == set(LANGUAGES)
