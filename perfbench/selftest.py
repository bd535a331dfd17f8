"""Self-test: the output checks count a coarsened result as a failed op.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For a 1CFA cell, the monovariant (0CFA) analysis of the same program is
a genuinely coarser, still sound, result.  Each workload's check must
reject it: ``analyze`` on the summary, ``serve`` on the response row,
``cli`` on the printed summary line.  The 1CFA result itself must pass,
so the test also shows the checks are not vacuous.  Exits non-zero if
any check misjudges.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.abspath("src"))

CELL = "id_chain:8/1cfa"


def main() -> int:
    import analyze
    import check
    import cli
    import serve

    expected = check.load_expected()
    ops = [op for op in analyze.build_ops(expected) if op["id"] == CELL]
    if len(ops) != 1:
        print(f"selftest: cell {CELL} is not in expected.json", file=sys.stderr)
        return 2
    op = ops[0]
    coarse = dict(op, overrides={"addressing": "zerocfa"})
    exact_summary, exact_result, _ = analyze.execute(op)
    coarse_summary, coarse_result, _ = analyze.execute(coarse)
    exact_row = dict(exact_summary, tier="hot")
    coarse_row = dict(coarse_summary, tier="hot")
    scheduled = {"method": "analyse", "tier": "hot", "expected": op["expected"]}

    def cli_output(summary: dict) -> subprocess.CompletedProcess:
        line = (
            f"states: {summary['states']}  store: {summary['store_size']}  "
            f"mean flow: {summary['precision']['mean_flow']}  time: 0.001s\n"
            "cache: hit (disk)\n"
        )
        return subprocess.CompletedProcess([], 0, stdout=line)

    verdicts = {
        "analyze accepts the exact result": analyze.verify(op, exact_summary, exact_result),
        "analyze rejects the coarse result": not analyze.verify(
            op, coarse_summary, coarse_result
        ),
        "serve accepts the exact row": serve.verify(scheduled, exact_row),
        "serve rejects the coarse row": not serve.verify(scheduled, coarse_row),
        "serve rejects the wrong tier": not serve.verify(
            dict(scheduled, tier="disk"), exact_row
        ),
        "cli accepts the exact line": cli.verify(op, "disk", cli_output(exact_summary)),
        "cli rejects the coarse line": not cli.verify(
            op, "disk", cli_output(coarse_summary)
        ),
    }
    for name, ok in verdicts.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
