"""E8 -- one monad, one component set, three languages (1, 6.1, 9).

Claim regenerated: the same ``Addressable`` object and the same
``StorePassing`` monad drive CPS, direct-style/CESK and Featherweight
Java, and the mj09 merge/separate verdict is identical across all three.
This is the paper's headline: "by plugging the same monad into a
monadically-parameterized semantics for Java or for the lambda calculus,
it yields the expected analysis."
"""

from repro.analysis.report import fmt_table
from repro.config import AnalysisConfig, assemble
from repro.core.addresses import KCFA, ZeroCFA
from repro.corpus import cps_programs, fj_programs, lam_programs


def run_shared(language, program, fields, policy):
    """Run the config ``fields`` name, on the one shared ``policy`` object."""
    config = AnalysisConfig(language=language, **fields)
    return assemble(config, program=program, addressing=policy).run(program)


def merge_width_cps(fields, policy):
    result = run_shared("cps", cps_programs.PROGRAMS["mj09"], fields, policy)
    return max(len(result.flows_to()[v]) for v in ("a", "b"))


def merge_width_cesk(fields, policy):
    result = run_shared("lam", lam_programs.PROGRAMS["mj09"], fields, policy)
    return max(len(result.flows_to()[v]) for v in ("a", "b"))


def merge_width_fj(fields, policy):
    result = run_shared("fj", fj_programs.PROGRAMS["id-twice"], fields, policy)
    store = result.global_store()
    widths = [
        len(result.store_like.fetch(store, a))
        for a in result.store_like.addresses(store)
        if getattr(a, "var", a) == "x"
    ]
    return max(widths)


def test_e8_same_monad_same_verdict():
    rows = (
        ("0CFA", dict(addressing="zerocfa"), ZeroCFA),
        ("1CFA", dict(k=1), lambda: KCFA(1)),
    )

    def run():
        table = {}
        for label, fields, make in rows:
            policy = make()  # ONE object per row, shared by all three machines
            table[label] = (
                merge_width_cps(fields, policy),
                merge_width_cesk(fields, policy),
                merge_width_fj(fields, policy),
            )
        return table

    table = run()
    rows = [(label, *widths) for label, widths in table.items()]
    print()
    print(
        fmt_table(
            ["policy", "CPS merge width", "CESK merge width", "FJ merge width"], rows
        )
    )
    # context-insensitivity merges the two uses (width 2) in every calculus;
    # one call-site of context separates them (width 1) in every calculus
    assert table["0CFA"] == (2, 2, 2)
    assert table["1CFA"] == (1, 1, 1)


def test_e8_components_are_literally_shared():
    from repro.core.monads import StorePassing
    from repro.core.store import BasicStore
    from repro.cps.analysis import AbstractCPSInterface
    from repro.cesk.analysis import AbstractCESKInterface
    from repro.fj.analysis import AbstractFJInterface
    from repro.fj.class_table import ClassTable

    def run():
        addressing = KCFA(1)
        table = ClassTable.of(fj_programs.PROGRAMS["pair"])
        return (
            AbstractCPSInterface(addressing, BasicStore()),
            AbstractCESKInterface(addressing, BasicStore()),
            AbstractFJInterface(table, addressing, BasicStore()),
        )

    cps_iface, cesk_iface, fj_iface = run()
    assert cps_iface.addressing is cesk_iface.addressing is fj_iface.addressing
    assert all(
        isinstance(i.monad, StorePassing) for i in (cps_iface, cesk_iface, fj_iface)
    )


def test_e8_fj_dispatch_chain():
    """The FJ rendition of the id-chain polyvariance curve."""
    program = fj_programs.dispatch_chain(4)

    def run():
        return (
            assemble(
                AnalysisConfig(language="fj", addressing="zerocfa"), program=program
            ).run(program),
            assemble(AnalysisConfig(language="fj", k=1), program=program).run(program),
        )

    r0, r1 = run()
    assert len(r0.class_flows()["x"]) == 4
    store = r1.global_store()
    widths = [
        len(r1.store_like.fetch(store, a))
        for a in r1.store_like.addresses(store)
        if getattr(a, "var", None) == "x"
    ]
    assert widths and max(widths) == 1
