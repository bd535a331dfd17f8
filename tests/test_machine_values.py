"""Machine values (``@hash_consed``): what an evaluation builds, and how.

Three things are pinned here, with no hook in ``src/`` (the untraced
path pays nothing for them):

* **Construction counts.**  Each test wraps every ``@hash_consed``
  class's ``__init__`` and counts, per class, the machine values one
  analysis run builds on a few fixed cells.  The counts repeat exactly
  for any string-hash seed, so they are gated exactly, like the
  evaluation counts of ``tests/test_scaling.py``: a step that builds one
  value more per evaluation moves them.
* **Hash calls.**  On the same cells, the Python-level ``__hash__``
  calls one run makes (the memo read every hash-consed value and syntax
  node shares, and any ``__hash__`` a ``repro`` class writes itself),
  counted through a profile hook.  Every set test, dict access and tuple
  hash of a configuration lands here, so bookkeeping that hashes a
  configuration once more per evaluation moves them.
* **The generated methods change nothing observable.**  For every
  ``@hash_consed`` class, ``hash(v)`` equals the structural hash a plain
  frozen dataclass with the same fields computes, ``==`` agrees with that
  dataclass's ``__eq__``, and a pickle round trip rebuilds the value
  (memo included) through the generated constructor.
"""

from __future__ import annotations

import collections
import dataclasses
import importlib
import itertools
import pickle
import sys

import pytest

from repro.config import assemble, request_config
from repro.corpus import fj_programs, imp_programs
from repro.corpus.cps_programs import id_chain
from repro.corpus.lam_programs import eta_chain
from repro.util.intern import _HASH_SLOT, _INTERNED, _hash

#: The modules that define machine values (importing the fused backends
#: loads them all; the scan below also looks at every other loaded module).
BACKENDS = ("repro.cps.fused", "repro.cesk.fused", "repro.fj.fused")


def hash_consed_classes() -> list[type]:
    for name in BACKENDS:
        importlib.import_module(name)
    found = []
    for name, module in sorted(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and value.__dict__.get("__hash__") is _hash
                and value not in _INTERNED
            ):
                found.append(value)
    return found


CLASSES = hash_consed_classes()


def label(cls: type) -> str:
    return f"{cls.__module__.split('.')[1]}.{cls.__name__}"


def wrap_constructors(patch, after) -> None:
    """Make every class's constructor call ``after(cls, value)`` once it is done."""
    for cls in CLASSES:

        def wrapped(self, *args, _original=cls.__init__, _cls=cls, **kwargs):
            _original(self, *args, **kwargs)
            after(_cls, self)

        patch.setattr(cls, "__init__", wrapped)


@pytest.fixture
def built(monkeypatch):
    """Per-class construction counts while the fixture is active."""
    counts: collections.Counter = collections.Counter()
    wrap_constructors(monkeypatch, lambda cls, _value: counts.update([label(cls)]))
    return counts


#: ``(analysis language, program, overrides of the 1cfa preset)``.
CELLS = {
    "eta_chain(12)/1cfa": ("lam", lambda: eta_chain(12), {}),
    "imp countdown/1cfa": ("lam", lambda: imp_programs.program("countdown"), {}),
    "fj visitor/1cfa": ("fj", lambda: fj_programs.program("visitor"), {}),
    "id_chain(24)/0cfa": ("cps", lambda: id_chain(24), {"addressing": "zerocfa"}),
}

#: Machine values built by one ``run`` of each cell, by class.
#: ``KontTag``/``SiteContext`` are built once per syntax site per run
#: (``repro.core.fused.SiteMemo``); before that they were built once per
#: push and per apply (eta_chain: 425 and 1,740; countdown: 525 and 570;
#: visitor: 12 ``KontTag``).  A retriggered evaluation re-steps only the
#: values its fetch gained (the semi-naive path of
#: ``repro.core.fixpoint.global_store_explore``); re-stepping whole value
#: sets built, on eta_chain, 2,322 ``Binding``, 3,343 ``PState`` and 310
#: ``ArgF``, and on countdown 1,385, 1,437 and 449.
PINNED = {
    "eta_chain(12)/1cfa": {
        "evaluations": 901,
        "cesk.ArgF": 90,
        "cesk.Clo": 25,
        "cesk.FunF": 90,
        "cesk.KontTag": 73,
        "cesk.LetF": 25,
        "cesk.PState": 1187,
        "cesk.SiteContext": 24,
        "core.Binding": 892,
    },
    "imp countdown/1cfa": {
        "evaluations": 600,
        "cesk.ArgF": 278,
        "cesk.Clo": 62,
        "cesk.FunF": 67,
        "cesk.KontTag": 69,
        "cesk.LetF": 9,
        "cesk.PState": 971,
        "cesk.SiteContext": 28,
        "core.Binding": 839,
    },
    "fj visitor/1cfa": {
        "evaluations": 32,
        "core.Binding": 24,
        "fj.FieldF": 1,
        "fj.FieldVar": 4,
        "fj.InvokeArgF": 5,
        "fj.InvokeRcvF": 4,
        "fj.KontTag": 8,
        "fj.NewArgF": 2,
        "fj.ObjV": 9,
        "fj.PState": 32,
        "fj.SiteContext": 4,
    },
    "id_chain(24)/0cfa": {
        "evaluations": 50,
        "cps.Clo": 51,
        "cps.PState": 326,
    },
}


def run_cell(cell: str):
    language, build, overrides = CELLS[cell]
    program = build()
    config = request_config(language, "1cfa", overrides)
    analysis = assemble(config, program=program)
    return analysis, lambda: analysis.run(program, worklist=not config.shared)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_construction_counts_are_pinned(cell, built):
    analysis, run = run_cell(cell)
    built.clear()  # count the run only, not assembly or parsing
    run()
    got = {"evaluations": analysis.last_stats["evaluations"], **built}
    assert got == PINNED[cell]


def python_hash_codes() -> set:
    """The code of every Python-level ``__hash__`` a loaded ``repro`` class has."""
    codes = {_hash.__code__}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in vars(module).values():
            method = isinstance(value, type) and value.__dict__.get("__hash__")
            if callable(method) and hasattr(method, "__code__"):
                codes.add(method.__code__)
    return codes


def count_hash_calls(run) -> int:
    """How many Python-level ``__hash__`` frames ``run()`` enters."""
    codes = python_hash_codes()
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


#: Python-level ``__hash__`` calls of one ``run`` of each cell.  Before
#: the depgraph loop numbered its configurations (each pop, queue test,
#: ``seen`` test and delta-map access hashed the ``(pstate, guts)``
#: tuple again), they were: eta_chain 32,253, countdown 21,196, visitor
#: 753 and id_chain 11,126.
HASH_CALLS = {
    "eta_chain(12)/1cfa": 23785,
    "imp countdown/1cfa": 16324,
    "fj visitor/1cfa": 569,
    "id_chain(24)/0cfa": 10954,
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_hash_calls_are_pinned(cell):
    analysis, run = run_cell(cell)
    calls = count_hash_calls(run)
    assert analysis.last_stats["evaluations"] == PINNED[cell]["evaluations"]
    assert calls == HASH_CALLS[cell]


def test_the_scan_finds_every_machine_value_class():
    assert len(CLASSES) == 22
    assert {label(cls) for cls in CLASSES} >= {
        key for counts in PINNED.values() for key in counts if key != "evaluations"
    }


@pytest.fixture(scope="module")
def samples():
    """A few instances of every ``@hash_consed`` class, from real runs."""
    found: dict = collections.defaultdict(list)

    def record(cls: type, value) -> None:
        if len(found[cls]) < 12:
            found[cls].append(value)

    patch = pytest.MonkeyPatch()
    wrap_constructors(patch, record)
    try:
        for cell in CELLS:
            _analysis, run = run_cell(cell)
            run()
        safe_cast = fj_programs.program("safe-cast")
        analysis = assemble(request_config("fj", "1cfa"), program=safe_cast)
        analysis.run(safe_cast)
        for cls in CLASSES:
            if not dataclasses.fields(cls):  # HaltF: built once, at import
                cls()
    finally:
        patch.undo()
    return found


def twin_of(cls: type) -> type:
    """A plain frozen dataclass with ``cls``'s fields: the reference."""
    return dataclasses.make_dataclass(
        cls.__name__, [f.name for f in dataclasses.fields(cls)], frozen=True
    )


def field_values(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


@pytest.mark.parametrize("cls", CLASSES, ids=label)
def test_hash_and_eq_match_the_dataclass(cls, samples):
    values = samples[cls]
    assert values, f"no {label(cls)} was built"
    twin = twin_of(cls)
    rebuilt = [cls(*field_values(value)) for value in values]
    for value, copy in zip(values, rebuilt):
        assert copy is not value
        assert hash(value) == hash(twin(*field_values(value)))
        assert getattr(value, _HASH_SLOT) == hash(field_values(value))
    everything = values + rebuilt
    for left, right in itertools.product(everything, repeat=2):
        expected = twin(*field_values(left)) == twin(*field_values(right))
        assert (left == right) is expected
        assert (left != right) is not expected
    other = object()
    assert (values[0] == other) is False
    assert values[0].__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=label)
def test_pickle_round_trips_through_the_generated_constructor(cls, samples):
    for value in samples[cls]:
        loaded = pickle.loads(pickle.dumps(value))
        assert type(loaded) is cls and loaded == value
        assert getattr(loaded, _HASH_SLOT) == hash(value)
        assert dataclasses.replace(value) == value


@pytest.mark.parametrize("cls", CLASSES, ids=label)
def test_values_stay_frozen(cls, samples):
    value = samples[cls][0]
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
