"""E4 -- store cloning vs the single-threaded store (6.5, 8.2).

Claims regenerated: per-state-store analysis can take time (and space)
exponential in program size; the store-sharing widening -- implemented
as ``alpha . applyStep . gamma`` over the Galois connection of equation
(3), with *no* change to the semantics -- is polynomial; and the widened
result still covers the per-state result.
"""

from repro.analysis.report import fmt_table, timed
from repro.config import AnalysisConfig, assemble
from repro.corpus.cps_programs import heap_clone

#: 1-CFA with per-state stores, and widened to the single-threaded store.
PER_STATE = AnalysisConfig(language="cps", k=1)
SHARED = PER_STATE.replace(widening="store")


def test_e4_heap_cloning_blowup():
    sizes = (2, 4, 6, 8)

    def run():
        out = {}
        for n in sizes:
            program = heap_clone(n)
            per_state, t_ps = timed(lambda p=program: assemble(PER_STATE).run(p))
            shared, t_sh = timed(lambda p=program: assemble(SHARED).run(p))
            out[n] = (per_state.num_elements(), t_ps, shared.num_elements(), t_sh)
        return out

    table = run()
    rows = [
        (n, ps, f"{tps:.3f}s", sh, f"{tsh:.3f}s")
        for n, (ps, tps, sh, tsh) in sorted(table.items())
    ]
    print()
    print(
        fmt_table(
            ["n", "per-state |fp|", "per-state time", "shared |fp|", "shared time"],
            rows,
        )
    )
    # exponential vs linear shape: per-state roughly doubles per step,
    # shared grows by a constant
    assert table[8][0] >= 3.5 * table[6][0]
    assert table[8][2] - table[6][2] <= 8


def test_e4_shared_covers_per_state():
    program = heap_clone(5)

    def run():
        return assemble(PER_STATE).run(program), assemble(SHARED).run(program)

    per_state, shared = run()
    for var, lams in per_state.flows_to().items():
        assert lams <= shared.flows_to().get(var, frozenset())
    assert per_state.states() <= shared.states()


def test_e4_widening_is_the_cheap_direction():
    """At the blowup sizes the widened analysis wins outright."""
    program = heap_clone(10)

    def run():
        return timed(lambda: assemble(SHARED).run(program))

    _result, seconds = run()
    assert seconds < 30  # the per-state analysis at n=10 is ~2^10 configs
