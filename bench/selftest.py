"""Self-test of the benchmark; about half a minute.

Usage, from the repository root: python3 bench/selftest.py

It runs reduced invocations (the ``oracle`` workload, ``--seconds 1``)
through the command in BENCHMARK.json and checks that:

- the last stdout line has exactly the result keys, ``correct`` is true,
  and the metric names and units are those BENCHMARK.json declares, for
  ``--trace 0`` (end to end) and ``--trace 1`` (per layer);
- a corrupted expected digest makes the run incorrect and drops
  ``pass_ratio`` below 1, so the correctness gate is not vacuous;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits non-zero without printing a result;
- self times and the span-nesting check of ``layer_values`` are right on a
  hand-made trace.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def invoke(cwd: Path, trace: int):
    argv = SPEC["command"] + ["--workload", "oracle", "--seed", "1",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def check_result(proc, declared):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"run not correct: {proc.stderr[-500:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"metrics {got} != declared {want}")
    return result


def check_gate():
    expected = json.loads(run.EXPECTED_PATH.read_text(encoding="utf-8"))
    expected["oracle_report_q5"] = "0" * 64
    result = run.run("oracle", 1, 1, 0, expected=expected)["result"]
    ratio = result["metrics"]["pass_ratio"]["value"]
    if result["correct"] or not result["failed"] or ratio >= 1:
        raise AssertionError(f"corrupted digest passed: {result}")


def check_bare_directory():
    bare = Path(tempfile.mkdtemp(prefix=".bench-selftest-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(run.ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(bare, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("benchmark ran without the package source")


def check_layer_values():
    trace = {"counts": {"n": 2}, "spans": [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 1, 2.0, 3.0],
        ["b", 0, 5.0, 6.0],
    ]}
    got = run.layer_values(trace)
    want = {"n": 2, "a_s": 6.0, "b_s": 3.0, "c_s": 1.0}
    if got != want:
        raise AssertionError(f"layer_values {got} != {want}")
    trace["spans"].append(["d", 1, 3.5, 4.5])
    try:
        run.layer_values(trace)
    except ValueError:
        return
    raise AssertionError("a span outside its parent was accepted")


def main():
    check_layer_values()
    print("selftest: self times and span nesting ok")
    check_result(invoke(run.ROOT, 0), SPEC["end_to_end"])
    print("selftest: --trace 0 result and end-to-end metrics ok")
    check_result(invoke(run.ROOT, 1), SPEC["per_layer"])
    print("selftest: --trace 1 result and per-layer metrics ok")
    check_gate()
    print("selftest: corrupted digest fails the run")
    check_bare_directory()
    print("selftest: refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
