"""Continuation-passing-style lambda calculus (the paper's sections 2-8).

* :mod:`repro.cps.syntax`    -- terms (Figure 1) and free variables
* :mod:`repro.cps.parser`    -- an s-expression front end
* :mod:`repro.cps.semantics` -- ``CPSInterface`` and the monadic ``mnext`` (Figure 2)
* :mod:`repro.cps.concrete`  -- the recovered concrete interpreter (section 4)
* :mod:`repro.cps.direct`    -- the hand-written abstract transition of
  section 2.4, kept for the adequacy experiment (E10)
* :mod:`repro.cps.analysis`  -- the k-CFA family and friends (sections 5, 6, 8)
"""
