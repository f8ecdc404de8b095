"""Run the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload wan-dedup --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run, and the
client's wall-clock figures beside them; ``--trace 1`` prints the per-layer
metrics of a traced run.  Without ``--workload`` every
workload runs in turn.  For each workload, human-readable lines come first
and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The program under test is imported from this checkout's sources.
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

WORKLOAD_NAMES = ("wan-dedup", "index-zipf", "index-churn")


def print_report(report, unit) -> None:
    print("environment: " + json.dumps(report.environment, sort_keys=True))
    for name, value in report.metrics.items():
        print(f"{name:40s} {value:14.6g} {unit(name)}")
    for name, value in report.figures.items():
        print(f"{name:40s} {value:14.6g} {unit(name)}  (wall clock, not in the result line)")
    failed_frac = report.failed / report.attempted if report.attempted else 1.0
    print(f"{'failed_op_frac':40s} {failed_frac:14.6g} ratio")
    for error in report.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": unit(name)}
                    for name, value in report.metrics.items()
                },
            }
        ),
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        from e2ebench import harness
        from e2ebench.metrics import unit
    except ImportError as error:
        print(f"e2ebench: cannot import the program under test: {error}", file=sys.stderr)
        return 2

    correct = True
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        report = harness.run(name, args.seed, args.seconds, trace=bool(args.trace))
        print_report(report, unit)
        correct = correct and report.correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
