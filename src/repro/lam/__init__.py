"""Direct-style lambda calculus: syntax, parser and the CPS transform.

The paper's implementation replays the monadic development "for a
direct-style lambda-calculus" (section 1); this package supplies that
language's front end.  The CESK machine that animates it lives in
:mod:`repro.cesk`; :func:`repro.lam.cps_transform.cps_convert` connects
the two worlds, letting the cross-language experiments compare a CESK
analysis of ``e`` with a CPS analysis of ``cps(e)``.
"""
