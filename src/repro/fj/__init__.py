"""Featherweight Java, monadically analyzed.

The paper's third calculus: "by plugging the same 'context-insensitivity
monad' into a monadically-parameterized semantics for Java or for the
lambda calculus, it yields the expected context-insensitive analysis"
(section 1).  This package supplies the complete substrate --

* :mod:`repro.fj.syntax`      -- FJ terms, classes, programs
* :mod:`repro.fj.class_table` -- subtyping, field/method lookup
* :mod:`repro.fj.typecheck`   -- the FJ type system (with stupid-cast warnings)
* :mod:`repro.fj.parser`      -- a Java-ish concrete syntax
* :mod:`repro.fj.machine`     -- CESK-style states, objects, frames
* :mod:`repro.fj.semantics`   -- ``FJInterface`` and the monadic step
* :mod:`repro.fj.concrete`    -- the concrete machine
* :mod:`repro.fj.analysis`    -- the abstract analysis family

-- and instantiates it with the *same* meta-level monadic components as
the CPS and CESK machines.
"""
