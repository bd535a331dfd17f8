"""Utility substrate: persistent, hashable collections used throughout.

Abstract-machine states must be members of powerset lattices, which in
Python means they must be hashable.  The standard library has frozenset
but no frozen mapping, so :mod:`repro.util.pcollections` provides
:class:`~repro.util.pcollections.PMap`, a small persistent-map layer with
value semantics, plus helpers shared by the rest of the code base.
:mod:`repro.util.intern` adds the hash-consing layer (cached structural
hashes and a canonicalizing intern pool) the fixed-point engines lean on.
"""
