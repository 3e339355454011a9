"""Benchmark of the astriples command line, stdlib only.

Usage, from the repository root:

    python3 bench/run.py --workload {orbit,oracle,census} --seed N \
        --seconds S --trace {0,1}

Every command runs in a fresh ``python -m astriples.cli`` process, one at
a time, against the package under ``src/``.  Each child's wall time (start
to exit), exit code and peak RSS come from that child alone (``os.wait4``).
Every output is checked against known answers and against the artefact
digests in ``bench/expected.json``; a command that fails a check counts as
failed.

``--trace 0`` repeats the workload for up to ``--seconds`` (at least three
times) and reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced iteration with a traced one, in which each command runs in its
own interpreter under ``bench/tracer.py``, and reports the per-layer
metrics.
The last line of stdout is the JSON result; the line before it holds the
machine, the commit and the raw samples.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
RELABEL = BENCH_DIR / "relabel.py"
EXPECTED_PATH = BENCH_DIR / "expected.json"

# An iteration starts only if, at the pace of the last one, it ends within
# --seconds; the first MIN_ITERATIONS always run, unless they would pass
# RUN_BUDGET_S, which keeps a run well inside three minutes.
MIN_ITERATIONS = 3
RUN_BUDGET_S = 150
SETUP_BATCH = 5             # --version launches before each early iteration
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}

# Per-layer metrics of spans are self times; those of the cli layer come
# from the untraced children.  Counts are exact.
SPAN_METRICS = (
    "finfield.asl2_group",
    "permgroup.group_from_elements",
    "permgroup.orbits_on_triples",
    "permgroup.is_two_transitive",
    "constructions.ast_from_group",
    "core.verify_ast",
    "core.verify_ast_read",
    "core.scheme_to_json",
    "core.partition_from_json",
    "hypermatrix.ternary_product",
    "hypermatrix.adjacency",
    "hypermatrix.is_commutative_subalgebra",
    "asl2.context",
    "asl2.valencies",
    "asl2.nontrivial",
    "asl2.trivial",
    "enumeration.search",
    "enumeration.canonical_key",
    "enumeration.are_isomorphic",
    "designs.find",
    "designs.is_regular",
)
COUNT_METRICS = {
    "permgroup.group_order": "count",
    "permgroup.generators": "count",
    "permgroup.orbit_classes": "count",
    "core.verify_ast_calls": "count",
    "core.json_bytes": "bytes",
    "hypermatrix.products": "count",
    "hypermatrix.product_cells": "count",
    "hypermatrix.adjacency_calls": "count",
    "asl2.instances": "count",
    "enumeration.canonical_calls": "count",
    "enumeration.are_isomorphic_calls": "count",
    "enumeration.candidates_verified": "count",
    "enumeration.candidates_rejected": "count",
    "enumeration.schemes_found": "count",
    "designs.candidates": "count",
    "designs.hits": "count",
}
CLI_METRICS = {
    "cli.construct_s": "s",
    "cli.construct_rss_mib": "MiB",
    "cli.params_s": "s",
    "cli.params_rss_mib": "MiB",
    "cli.oracle_q5_s": "s",
    "cli.oracle_q2to4_s": "s",
    "cli.enumerate_nu6_s": "s",
    "cli.enumerate_circ7_s": "s",
    "cli.enumerate_circ8_s": "s",
    "cli.twograph_nu7_s": "s",
}
PER_LAYER = {
    **CLI_METRICS,
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **COUNT_METRICS,
    "enumeration.accept_ratio": "ratio",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


# ---------------------------------------------------------------------------
# Children

@dataclass
class Child:
    wall_s: float
    rss_mib: float
    exit_code: int
    stdout: str
    stderr: str


def spawn(argv, cwd: Path, env) -> Child:
    """Run one child to completion; its rusage is its own, not cumulative.

    Its peak RSS also counts this process's RSS at the fork, so this
    process must stay smaller than any command it measures.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, rss_mib=usage.ru_maxrss / 1024,
                 exit_code=proc.returncode,
                 stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                 stderr=err_path.read_text(encoding="utf-8", errors="replace"))


def digest(path: Path) -> str | None:
    """sha256 of a file, or of a directory's (relative name, file sha256)
    list; None when the path does not exist."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    if not path.is_dir():
        return None
    lines = sorted(f"{p.relative_to(path).as_posix()}\t{digest(p)}\n"
                   for p in path.rglob("*") if p.is_file())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads

@dataclass(frozen=True)
class Command:
    label: str
    args: tuple
    lines: tuple                 # substrings stdout must contain
    artefacts: tuple = ()        # (path, key in expected.json)
    wall_metric: str = ""
    rss_metric: str = ""
    prepare: Callable | None = None   # (runner), untimed


def relabel_scheme(runner):
    """Write S_relabelled.json: S.json with its points permuted by the
    run's seed, once per run, in a child process (see ``relabel.py``).

    The tensor is an isomorphism invariant, so ``params`` on the copy gives
    the same artefact digest for every seed.  If construct or the relabel
    fails, params fails on the missing file.
    """
    if (runner.workdir / "S_relabelled.json").exists():
        return
    if (runner.workdir / "S.json").exists():
        spawn([sys.executable, str(RELABEL), "S.json", "S_relabelled.json",
               str(runner.seed)], runner.workdir, runner.env)


def _orbit():
    q = 8
    nu, classes = q * q, 2 * q + 1
    return (
        Command("construct", ("construct", "--group", f"asl2:{q}",
                              "--out", "S.json"),
                (f"group order {q**3 * (q * q - 1)} on {nu} points",
                 f"nu={nu} classes={classes} nontrivial={2 * q - 3} "),
                (("S.json", "construct_asl2_8"),),
                "cli.construct_s", "cli.construct_rss_mib"),
        Command("params", ("params", "S_relabelled.json",
                           "--tensor", "T.json"),
                (f"classes={classes} ",),
                (("T.json", "params_tensor_asl2_8"),),
                "cli.params_s", "cli.params_rss_mib",
                prepare=relabel_scheme),
    )


def _oracle():
    return tuple(
        Command(f"oracle_q{q}", ("oracle", "asl2", "--q", str(q),
                                 "--report", f"report_q{q}.json"),
                (f"asl2 oracle q={q}: PASS",
                 f"nontrivial relations: {2 * q - 3}\n"),
                ((f"report_q{q}.json", f"oracle_report_q{q}"),),
                "cli.oracle_q5_s" if q == 5 else "cli.oracle_q2to4_s")
        for q in (2, 3, 4, 5))


def _census():
    return (
        Command("enumerate_nu6", ("enumerate", "--nu", "6", "--out", "D"),
                ('nu=6 schemes=2 by_nontrivial_classes={"1": 1, "2": 1}\n',),
                (("D", "enumerate_nu6_dir"),), "cli.enumerate_nu6_s"),
        Command("enumerate_circ7", ("enumerate", "--nu", "7", "--circulant"),
                ('nu=7 schemes=3 '
                 'by_nontrivial_classes={"1": 1, "2": 1, "5": 1}\n',),
                wall_metric="cli.enumerate_circ7_s"),
        Command("enumerate_circ8", ("enumerate", "--nu", "8", "--circulant"),
                ('nu=8 schemes=1 by_nontrivial_classes={"1": 1}\n',),
                wall_metric="cli.enumerate_circ8_s"),
        Command("twograph_nu7", ("twograph", "find", "--nu", "7"),
                ("regular two-graphs on 7 points (proper): 0\n",),
                wall_metric="cli.twograph_nu7_s"),
    )


WORKLOADS = {"orbit": _orbit(), "oracle": _oracle(), "census": _census()}
VERSION_LINE = "astriples "


# ---------------------------------------------------------------------------
# Running and checking

class Runner:
    def __init__(self, workdir: Path, seed: int, expected: dict):
        self.workdir = workdir
        self.seed = seed
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _record(self, label, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{label}: {p}" for p in problems)

    def version(self) -> float:
        child = spawn([sys.executable, "-m", "astriples.cli", "--version"],
                      self.workdir, self.env)
        problems = []
        if child.exit_code != 0 or not child.stdout.startswith(VERSION_LINE):
            problems.append(f"exit {child.exit_code}, stdout "
                            f"{child.stdout[:80]!r}")
        self._record("--version", problems)
        return child.wall_s

    def command(self, cmd: Command, traced=False):
        """Run one command, untraced or under the tracer, and check it.

        Returns the child and, when traced, its per-layer values.
        """
        for rel, _key in cmd.artefacts:
            path = self.workdir / rel
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        if cmd.prepare is not None:
            cmd.prepare(self)
        spans_path = self.workdir / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACER), str(spans_path), *cmd.args]
        else:
            argv = [sys.executable, "-m", "astriples.cli", *cmd.args]
        child = spawn(argv, self.workdir, self.env)
        problems = []
        if child.exit_code != 0:
            problems.append(f"exit code {child.exit_code}")
        if child.stderr:
            problems.append(f"stderr {child.stderr[-200:]!r}")
        problems += [f"stdout lacks {line!r}" for line in cmd.lines
                     if line not in child.stdout]
        for rel, key in cmd.artefacts:
            got = digest(self.workdir / rel)
            if got != self.expected.get(key):
                problems.append(f"{rel} sha256 {got} != {key}")
        layer = {}
        if traced and not problems:
            try:
                layer = layer_values(
                    json.loads(spans_path.read_text(encoding="utf-8")))
            except (OSError, ValueError) as exc:
                problems.append(f"spans: {exc}")
        self._record(cmd.label + (" (traced)" if traced else ""), problems)
        return child, layer

    def iteration(self, commands):
        """One untraced pass: the child of each command."""
        return {cmd.label: self.command(cmd)[0] for cmd in commands}

    def traced_iteration(self, commands):
        """One traced pass: traced walls and summed per-layer values."""
        walls, layer = {}, {}
        for cmd in commands:
            child, values = self.command(cmd, traced=True)
            walls[cmd.label] = child.wall_s
            for name, value in values.items():
                layer[name] = layer.get(name, 0) + value
        return walls, layer


def layer_values(trace) -> dict:
    """Self time per span name plus counts; raises ValueError when a span
    is open or lies outside its parent."""
    spans = trace["spans"]
    children = [[] for _ in spans]
    for index, (name, parent, start, end) in enumerate(spans):
        if end is None or end < start:
            raise ValueError(f"span {index} ({name}) is not closed")
        if parent >= 0:
            _pname, _pp, pstart, pend = spans[parent]
            if not (pstart <= start and end <= pend):
                raise ValueError(f"span {index} ({name}) leaves its parent")
            children[parent].append((start, end))
    out = dict(trace["counts"])
    for index, (name, _parent, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for cstart, cend in sorted(children[index]):
            if cend > reach:
                covered += cend - max(cstart, reach)
                reach = cend
        key = f"{name}_s"
        out[key] = out.get(key, 0.0) + (end - start) - covered
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def measure_end_to_end(runner, commands, seconds):
    setup, walls, rss = [], [], []
    per_command = {cmd.label: [] for cmd in commands}
    runner.version()        # compiles bytecode; not a sample
    start = time.perf_counter()
    last = 0.0
    while True:
        projected = time.perf_counter() - start + last
        if projected > RUN_BUDGET_S or (len(walls) >= MIN_ITERATIONS
                                        and projected > seconds):
            break
        if len(setup) < SETUP_SAMPLES:
            setup += [runner.version() for _ in range(SETUP_BATCH)]
        t0 = time.perf_counter()
        children = runner.iteration(commands)
        last = time.perf_counter() - t0
        walls.append(sum(c.wall_s for c in children.values()))
        rss.append(max(c.rss_mib for c in children.values()))
        for label, child in children.items():
            per_command[label].append(child.wall_s)
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setup),
        "peak_rss_mib": max(rss),
    }
    return metrics, {"wall_s": walls, "setup_s": setup, "peak_rss_mib": rss,
                     "command_wall_s": per_command}


def measure_per_layer(runner, commands, seconds):
    runner.version()
    samples = {name: [] for name in PER_LAYER}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced = runner.iteration(commands)
        traced_walls, layer = runner.traced_iteration(commands)
        pair = time.perf_counter() - t0
        cli = dict.fromkeys(CLI_METRICS, 0.0)
        for cmd in commands:
            cli[cmd.wall_metric] += untraced[cmd.label].wall_s
            if cmd.rss_metric:
                cli[cmd.rss_metric] = untraced[cmd.label].rss_mib
        verified = layer.get("enumeration.candidates_verified", 0)
        accepted = verified - layer.get("enumeration.candidates_rejected", 0)
        layer["enumeration.accept_ratio"] = (accepted / verified
                                             if verified else 0.0)
        untraced_wall = sum(c.wall_s for c in untraced.values())
        layer["trace.overhead_s"] = sum(traced_walls.values()) - untraced_wall
        for name in PER_LAYER:
            samples[name].append(cli.get(name, layer.get(name, 0)))
        if time.perf_counter() - start + pair > min(seconds, RUN_BUDGET_S):
            break
    return {name: median(values) for name, values in samples.items()}, samples


def machine_info():
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        commit = result.stdout.strip() or None
    src_digest = hashlib.sha256("".join(
        f"{p.relative_to(SRC).as_posix()}\t{digest(p)}\n"
        for p in sorted(SRC.rglob("*.py"))).encode()).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src_digest,
    }


def run(workload, seed, seconds, trace, expected=None) -> dict:
    """One benchmark run; returns the result object and the details."""
    if not (SRC / "astriples" / "cli.py").is_file():
        raise SetupError(f"no package at {SRC / 'astriples'}")
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    info = machine_info()
    commands = WORKLOADS[workload]
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        runner = Runner(workdir, seed, expected)
        if trace:
            metrics, samples = measure_per_layer(runner, commands, seconds)
            units = PER_LAYER
        else:
            metrics, samples = measure_end_to_end(runner, commands, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        metrics["pass_ratio"] = 1 - runner.failed / runner.attempted
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "machine": info, "samples": samples,
               "problems": runner.problems}
    return {"result": result, "details": details}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for problem in out["details"]["problems"]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(out["details"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
