"""The measurement/reporting layer behind the benchmark harness."""

from config_helpers import run_config
from repro.analysis.report import (
    AnalysisMetrics,
    fmt_table,
    measure_cps,
    metrics_of,
    precision_summary,
    timed,
)
from repro.corpus.cps_programs import PROGRAMS


class TestPrecisionSummary:
    def test_empty(self):
        assert precision_summary({}) == {
            "vars": 0,
            "total_flows": 0,
            "mean_flow": 0.0,
            "max_flow": 0,
        }

    def test_counts(self):
        flows = {"a": frozenset([1, 2]), "b": frozenset([3])}
        summary = precision_summary(flows)
        assert summary["vars"] == 2
        assert summary["total_flows"] == 3
        assert summary["mean_flow"] == 1.5
        assert summary["max_flow"] == 2

    def test_on_real_result(self):
        result = run_config("cps", PROGRAMS["mj09"], addressing="zerocfa")
        summary = precision_summary(result.flows_to())
        assert summary["vars"] > 0
        assert summary["max_flow"] == 2


class TestMetrics:
    def test_metrics_of_reduces_result(self):
        result = run_config("cps", PROGRAMS["identity"], addressing="zerocfa")
        m = metrics_of(result, "smoke", 0.5, note="hello")
        assert m.label == "smoke"
        assert m.states == result.num_states()
        assert m.extra["note"] == "hello"

    def test_measure_cps_times(self):
        m = measure_cps(
            lambda: run_config("cps", PROGRAMS["identity"], addressing="zerocfa"), "id"
        )
        assert m.seconds >= 0
        assert m.states > 0

    def test_row_includes_extras(self):
        m = AnalysisMetrics("x", 0.1, 1, 2, 3, 4, {"k": "v"})
        row = m.row(["k", "missing"])
        assert row[0] == "x"
        assert row[-2] == "v"
        assert row[-1] == ""

    def test_timed(self):
        value, seconds = timed(lambda: sum(range(100)))
        assert value == 4950
        assert seconds >= 0


class TestFmtTable:
    def test_alignment(self):
        out = fmt_table(["col", "c2"], [["a", "bbbb"], ["cc", "d"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_headers_wider_than_cells(self):
        out = fmt_table(["a-very-long-header"], [["x"]])
        assert "a-very-long-header" in out

    def test_non_string_cells(self):
        out = fmt_table(["n"], [[42]])
        assert "42" in out


class TestDeterministicJson:
    """The JSON layer: byte-identical output for equal content."""

    def test_json_ready_normalizes_containers(self):
        from repro.analysis.report import json_ready

        assert json_ready(frozenset(["b", "a"])) == ["a", "b"]
        assert json_ready((1, "x")) == [1, "x"]
        assert json_ready({"k": {2, 1}}) == {"k": [1, 2]}

    def test_json_ready_renders_addresses_stably(self):
        from repro.analysis.report import json_ready, stable_address
        from repro.core.addresses import Binding
        from repro.cps.parser import parse_cexp

        call = parse_cexp("((lambda (x k) (exit)) (lambda (z j) (exit)) (lambda (r) (exit)))")
        addr = Binding("x", (call,))
        assert json_ready({addr: 1}) == {stable_address(addr): 1}
        assert json_ready(addr) == stable_address(addr)

    def test_render_json_is_insertion_order_independent(self):
        from repro.analysis.report import render_json

        forwards = {"a": 1, "b": {"x": frozenset([2, 1])}}
        backwards = {"b": {"x": frozenset([1, 2])}, "a": 1}
        assert render_json(forwards) == render_json(backwards)
        assert render_json(forwards).endswith("\n")

    def test_result_summary_golden_output(self):
        """The pinned document: any change to key order, set ordering,
        address rendering or the summary's shape shows up here as a
        diff, which is the point."""
        from repro.analysis.report import render_json, result_summary
        from repro.config import assemble, preset_config
        from repro.corpus import corpus_program

        config = preset_config("1cfa", "cps")
        program = corpus_program("cps", "mj09")
        result = assemble(config).run(program)
        golden = """\
{
  "configs": 6,
  "elements": 6,
  "flows": {
    "a": [
      "(lambda (z kz) (kz z))"
    ],
    "b": [
      "(lambda (y ky) (ky y))"
    ],
    "id": [
      "(lambda (x j) (j x))"
    ],
    "j": [
      "(lambda (a) (id (lambda (y ky) (ky y)) (lambda (b) (exit))))",
      "(lambda (b) (exit))"
    ],
    "k": [
      "(lambda (r) (exit))"
    ],
    "x": [
      "(lambda (y ky) (ky y))",
      "(lambda (z kz) (kz z))"
    ]
  },
  "label": "mj09/1cfa",
  "precision": {
    "max_flow": 2,
    "mean_flow": 1.333,
    "total_flows": 8,
    "vars": 6
  },
  "states": 6,
  "store_size": 8
}
"""
        assert render_json(result_summary(result, label="mj09/1cfa")) == golden

    def test_result_summary_works_for_fj(self):
        from repro.analysis.report import result_summary
        from repro.config import assemble, preset_config
        from repro.corpus import corpus_program

        program = corpus_program("fj", "animals")
        result = assemble(preset_config("0cfa", "fj"), program=program).run(program)
        summary = result_summary(result, seconds=1.23456789)
        assert summary["seconds"] == 1.234568
        assert summary["flows"] and all(
            isinstance(vals, list) for vals in summary["flows"].values()
        )
