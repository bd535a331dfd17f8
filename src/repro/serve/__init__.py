"""The resident analysis server: a warm engine behind an async JSON front end.

A CLI invocation pays interpreter boot, imports, parsing, and a cold (or
disk-loaded) fixed point on every call.  A resident process pays them
once: the intern pool stays populated, the hot LRU keeps live fixed
points, and the dispatch pipeline (:mod:`repro.service.jobs`) answers
repeat requests from memory.  The package splits along the obvious seam:

* :mod:`repro.serve.protocol` -- the wire format: newline-delimited
  JSON request/response framing, error codes, request validation.
* :mod:`repro.serve.metrics` -- the counter surface behind the ``stats``
  method (requests, tiers, timeouts, latency percentiles).
* :mod:`repro.serve.server` -- the asyncio TCP server, its bounded
  worker pool, and :class:`~repro.serve.server.ServerHandle` (the
  in-thread host the tests, benchmarks, and CI smoke reuse).
* :mod:`repro.serve.client` -- the tiny synchronous client behind
  ``repro client``.
"""
