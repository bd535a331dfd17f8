"""The repository benchmark: ``analyze``, ``serve`` and ``cli`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``; every per-layer metric with ``--trace 1``).  A failed op
-- one that raises, returns an error, lands on an unexpected cache tier,
or returns an output other than ``expected.json`` records -- counts in
``failed``, so ``failed / attempted`` is the error ratio.

The benchmark process re-executes itself once with ``PYTHONHASHSEED``
derived from ``--seed`` (and passes the same value to every process it
starts), so every count a run reports repeats exactly for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("analyze", "serve", "cli")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print(
            "perfbench: run from the root of a checkout (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(1, os.path.abspath("src"))
    from common import BenchError, hash_seed, remove_tmp

    wanted = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)

    # one core for this process and every process it starts, so the
    # reference kernel runs where the ops run (see ``pace``)
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[-1]})
    if args.workload == "analyze":
        import analyze as workload
    elif args.workload == "serve":
        import serve as workload
    else:
        import cli as workload
    started = time.perf_counter()
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        remove_tmp()
    print(
        f"perfbench: {args.workload} seed {args.seed} finished in "
        f"{time.perf_counter() - started:.1f}s",
        file=sys.stderr,
    )
    outcome["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(outcome["metrics"].items())
    }
    print(json.dumps(outcome, sort_keys=True))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
