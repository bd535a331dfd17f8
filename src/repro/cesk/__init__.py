"""A CESK machine for direct-style lambda calculus, monadically parameterized.

The second language of the paper's artifact: the same meta-level
components (monads, ``Addressable``, ``StoreLike``, counting stores,
garbage collection, ``Collecting`` fixpoints) drive a machine with
*continuations in the store* (the "abstracting abstract machines"
construction), demonstrating that the monadic decomposition is not
CPS-specific.

* :mod:`repro.cesk.machine`   -- states, values, continuation frames
* :mod:`repro.cesk.semantics` -- ``CESKInterface`` and the monadic step
* :mod:`repro.cesk.concrete`  -- the concrete machine (real heap)
* :mod:`repro.cesk.analysis`  -- the abstract analysis family
"""
