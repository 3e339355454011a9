"""Run every workload once and print each metric with its unit.

Usage, from the repository root:

    python3 bench/all.py [--seed N] [--seconds S] [--trace {0,1}]

One line per (workload, metric), then one JSON object keyed by workload
with the same results ``bench/run.py`` prints.  Exits 1 if any workload
fails a check.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = {}
    for workload in run.WORKLOADS:
        try:
            out = run.run(workload, args.seed, args.seconds, args.trace)
        except run.SetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        results[workload] = result = out["result"]
        for problem in out["details"]["problems"]:
            print(f"bench: {workload}: FAILED {problem}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            print(f"{workload:<7} {name:<40} {metric['value']:>14.6g} "
                  f"{metric['unit']}")
        print(f"{workload:<7} {'checks failed / attempted':<40} "
              f"{result['failed']:>6} / {result['attempted']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
