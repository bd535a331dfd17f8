"""The server's wire format: newline-delimited JSON requests and responses.

One request per line, one response per line, UTF-8, in request order per
connection.  The shapes follow JSON-RPC 2.0 closely enough to be
unsurprising (``method``/``params``/``id``; ``result`` xor ``error``
with numeric codes in the JSON-RPC ranges) without claiming the full
spec -- there are no notifications and no request batching on the wire
(the ``batch`` *method* covers the grid use case with better semantics:
one response document, shared cache accounting).

Requests::

    {"id": 1, "method": "analyse", "params": {"language": "cps", ...}}

Responses::

    {"id": 1, "result": {...}}
    {"id": 1, "error": {"code": -32602, "name": "invalid-params",
                        "message": "..."}}

Determinism is part of the contract: responses are rendered with sorted
keys through the same :func:`repro.analysis.report.json_ready`
normalization the batch reports use, so the golden protocol tests can
pin response bytes (masking only the declared-volatile fields such as
timings).  Every error is a *response* -- a malformed line gets a
``parse-error`` with ``id: null`` rather than a dropped connection, so a
client is never left waiting on a request the server silently discarded.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.report import json_ready

#: Error codes, JSON-RPC-aligned where JSON-RPC has a word for it and in
#: the implementation-defined -320xx band where it does not.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
ANALYSIS_ERROR = -32000
TIMEOUT = -32001
QUEUE_FULL = -32002
SHUTTING_DOWN = -32003
REQUEST_TOO_LARGE = -32004

#: Stable human-readable names, the field tests and clients switch on
#: (codes stay wire-compatible; names stay grep-able).
ERROR_NAMES = {
    PARSE_ERROR: "parse-error",
    INVALID_REQUEST: "invalid-request",
    METHOD_NOT_FOUND: "method-not-found",
    INVALID_PARAMS: "invalid-params",
    ANALYSIS_ERROR: "analysis-error",
    TIMEOUT: "timeout",
    QUEUE_FULL: "queue-full",
    SHUTTING_DOWN: "shutting-down",
    REQUEST_TOO_LARGE: "request-too-large",
}

#: The method surface.  ``analyse`` and ``reanalyse`` differ in exactly
#: one bit: ``reanalyse`` enables the exactness-gated warm-start tier.
#: ``metrics`` is the Prometheus twin of ``stats``: same counters, text
#: exposition format, for scrapers watching a resident server.
METHODS = ("ping", "analyse", "reanalyse", "batch", "stats", "metrics", "shutdown")


class ProtocolError(Exception):
    """A request that cannot be dispatched, with its wire error code."""

    def __init__(self, code: int, message: str, request_id: Any = None) -> None:
        super().__init__(message)
        self.code = code
        self.request_id = request_id


def decode_request(line: bytes | str) -> dict:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` with the precise code: ``parse-error``
    for non-JSON, ``invalid-request`` for JSON of the wrong shape,
    ``method-not-found`` for an unknown method -- carrying the request
    ``id`` whenever the line got far enough to have one, so the error
    response can still be correlated.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(PARSE_ERROR, f"request is not valid JSON: {error}")
    if not isinstance(request, dict):
        raise ProtocolError(INVALID_REQUEST, "request must be a JSON object")
    request_id = request.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError(INVALID_REQUEST, "request id must be an int or string")
    method = request.get("method")
    if not isinstance(method, str):
        raise ProtocolError(
            INVALID_REQUEST, "request needs a string 'method'", request_id
        )
    if method not in METHODS:
        raise ProtocolError(
            METHOD_NOT_FOUND,
            f"unknown method {method!r}; methods: {', '.join(METHODS)}",
            request_id,
        )
    params = request.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            INVALID_REQUEST, "request 'params' must be an object", request_id
        )
    return {"id": request_id, "method": method, "params": params}


def result_response(request_id: Any, result: Any) -> dict:
    """Shape a success response."""
    return {"id": request_id, "result": result}


def error_response(request_id: Any, code: int, message: str) -> dict:
    """Shape an error response (code, stable name, human message)."""
    return {
        "id": request_id,
        "error": {
            "code": code,
            "name": ERROR_NAMES.get(code, "error"),
            "message": message,
        },
    }


def encode(message: dict) -> bytes:
    """One response (or request) as a deterministic single wire line.

    Sorted keys over :func:`repro.analysis.report.json_ready`-normalized
    data: the same bytes for the same content, whatever process produced
    them -- the property the golden protocol tests pin.
    """
    return (
        json.dumps(json_ready(message), sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")
