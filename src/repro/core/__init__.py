"""The paper's meta-level: semantics-independent analysis machinery.

This package is the upper half of the paper's Figure 3.  Everything here
is reusable, unchanged, by each language definition (CPS lambda calculus,
direct-style lambda calculus / CESK, Featherweight Java):

* :mod:`repro.core.lattice`   -- complete lattices and instances (5.2)
* :mod:`repro.core.monads`    -- a monad library with transformers (3, 5.3)
* :mod:`repro.core.fixpoint`  -- Kleene iteration, ``Collecting``, widening (5.2)
* :mod:`repro.core.galois`    -- Galois connections; store-sharing alpha/gamma (6.5)
* :mod:`repro.core.addresses` -- ``Addressable``: polyvariance & context (6.1)
* :mod:`repro.core.store`     -- ``StoreLike`` & counting stores (6.2, 6.3)
* :mod:`repro.core.gc`        -- abstract garbage collection (6.4)
* :mod:`repro.core.analysis`  -- ``Analysis.run`` (``runAnalysis``): the three
  degrees of freedom tied together over a per-language descriptor (5.2, 7)
* :mod:`repro.core.driver`    -- the engines behind ``Analysis.run``
"""
