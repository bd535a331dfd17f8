"""``repro.service``: the batch/caching layer above ``assemble()``.

Every engine below this package answers one ``(program, config)`` query
per process and throws the fixed point away.  The service layer is the
first consumer of the identities the lower layers already maintain --
hash-consed terms give every program a content address, the versioned
store gives every run a change delta -- and turns them into throughput:

* :mod:`repro.service.cache` -- a content-addressed on-disk fixpoint
  cache (structural program digest x ``AnalysisConfig.cache_key()``),
  whose loaded terms are pool-canonical by construction;
* :mod:`repro.service.batch` -- ``run_batch``: fan a grid of
  ``(program, config)`` jobs across a spawn-safe ``multiprocessing``
  pool, consulting the cache before dispatch and emitting a
  machine-readable report (the CLI's ``repro batch``);
* :mod:`repro.service.incremental` -- warm-start re-analysis: seed the
  depgraph engine with a cached fixed point so re-analysing a lightly
  edited program costs O(edit), not O(program);
* :mod:`repro.service.fuzz` -- ``run_fuzz``: differential soundness
  testing of generated ``imp`` programs (abstract covers concrete)
  across a preset matrix, with shrinking and a deterministic report
  (the CLI's ``repro fuzz`` and the nightly CI lane).
"""
