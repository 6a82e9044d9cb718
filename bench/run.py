#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the arithstat CLI.

    python3 bench/run.py --workload analyze-noise-csv --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout: the CLI runs from `src/` with no
install. It writes its inputs and the CLI's outputs under `.bench_runs/`.
One CLI process runs at a time. Each operation is one run of the workload's
CLI command, timed from process start to exit, followed by an independent
check of its outputs (see reference.py). Operations start while the time
they measure, with one more, is expected to fit in `--seconds`.

--trace 0 prints the end-to-end metrics: the median `wall_s` and
`peak_rss_mb` of the operations, and `setup_s`, the median time a fresh
interpreter takes to `import arithstat.cli`.
--trace 1 runs the same operations, then one more in-process with spans
around the calls between layers (tracer.py), and prints the per-layer
metrics. That traced run's outputs must be byte-identical to the others.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".bench_runs")  # under ROOT; paths stay relative so reports do not name the checkout
#: Every run ends well inside three minutes, whatever `--seconds` says.
RUN_LIMIT_S = 165.0
#: Fresh interpreters timed for `setup_s`, after one that writes the bytecode.
SETUP_RUNS = 9

#: `verify`'s default --length, the length of its twelve-member family.
FAMILY_LENGTH = 8193
#: Per-layer metrics of the traced run besides those of tracer.layer_metrics.
TRACE_METRICS = ("trace.total_s", "trace.overhead_s", "trace.missing_wrappers", "trace.spans")

SPEC_EARLY = {
    "kind": "sum",
    "left": {"kind": "gcd_periodic", "modulus": 12,
             "table": {"1": 0.5, "2": 1, "3": 1.5, "4": 2, "6": 3, "12": 6}},
    "right": {"kind": "sparse_spike", "height": 4, "power": 5},
}


@dataclass
class Case:
    """One workload: its CLI arguments for an output directory, the files it
    writes there, and the check of those files and the exit code."""

    command: Callable[[str], list[str]]
    outputs: tuple[str, ...]
    check: Callable[[Path, int], list[str]]


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def _analyze_check(rc: reference.Recount, check) -> Callable[[Path, int], list[str]]:
    def run_check(out: Path, code: int) -> list[str]:
        if code != 0:
            return [f"analyze exited {code}"]
        report = json.loads((out / "report.json").read_text())
        return check(report, out / "curves.csv", rc)
    return run_check


def noise_case(work: Path, seed: int, length: int = 2**20, blocks: int = 20) -> Case:
    """i.i.d. multiples of 1/8 in [-8, 8] as a CSV, with a ratio-2 scheme of
    `blocks` blocks. No n converges, so both searches walk all 64 moduli."""
    values = np.random.default_rng(seed).integers(-64, 65, size=length) / 8.0
    data = work / "noise.csv"
    data.write_text("".join(f"{v:.3f}\n" for v in values.tolist()))
    scheme = _write_json(work / "scheme.json", {"geometric": {"ratio": 2, "count": blocks}})
    rc = reference.Recount(values, [2**j for j in range(blocks + 1)])
    return Case(
        lambda out: ["analyze", "--input", str(data), "--scheme", str(scheme), "--out", out],
        ("report.json", "curves.csv"),
        _analyze_check(rc, reference.check_noise),
    )


def spec_case(work: Path, seed: int, length: int = 2**21, blocks: int = 21) -> Case:
    """gcd-periodic modulus 12 plus spikes at the powers of 5, as a generator
    spec: both searches stop at witness 12, and the report pass dominates.
    The input does not depend on the seed."""
    spec = _write_json(work / "spec.json", SPEC_EARLY)
    scheme = _write_json(work / "scheme.json", {"geometric": {"ratio": 2, "count": blocks}})
    table = {int(k): v for k, v in SPEC_EARLY["left"]["table"].items()}
    spike = SPEC_EARLY["right"]
    values = (reference.gcd_periodic(length, 12, table)
              + reference.spikes(length, spike["height"], spike["power"]))
    rc = reference.Recount(values, [2**j for j in range(blocks + 1)])
    return Case(
        lambda out: ["analyze", "--input", str(spec), "--length", str(length),
                     "--scheme", str(scheme), "--out", out],
        ("report.json", "curves.csv"),
        _analyze_check(rc, functools.partial(reference.check_witness, witness=12)),
    )


def verify_case(work: Path, seed: int, instances: int = 300) -> Case:
    """`verify` at its default family length: the property suites, inclusion
    experiments and continuity batteries."""
    family = reference.standard_family(FAMILY_LENGTH)

    def check(out: Path, code: int) -> list[str]:
        report = json.loads((out / "verify_report.json").read_text())
        return reference.check_verify(report, code, instances, family)

    return Case(
        lambda out: ["verify", "--instances", str(instances), "--seed", str(seed),
                     "--out", out],
        ("verify_report.json",),
        check,
    )


WORKLOADS = {
    "analyze-noise-csv": noise_case,
    "analyze-spec-early": spec_case,
    "verify-300": verify_case,
}


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, wall seconds, peak RSS in MB).

    The process is killed if it outlives `timeout`; it is always reaped."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env())
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "arithstat.cli", *args]


def read_outputs(case: Case, out: Path) -> tuple[bytes | None, ...]:
    return tuple((out / f).read_bytes() if (out / f).is_file() else None
                 for f in case.outputs)


class Operations:
    """Untraced runs of one case, each checked, and their measurements."""

    def __init__(self, case: Case, work: Path, deadline: float) -> None:
        self.case, self.work, self.deadline = case, work, deadline
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.failed = 0
        self.first: tuple | None = None  # exit code and outputs of the first run
        self._checked: dict[tuple, list[str]] = {}

    def judge(self, code: int, out: Path) -> None:
        outputs = read_outputs(self.case, out)
        key = (code, outputs)
        if key not in self._checked:
            missing = [f for f, b in zip(self.case.outputs, outputs) if b is None]
            try:
                self._checked[key] = ([f"exit {code} without {missing}"] if missing
                                      else self.case.check(out, code))
            except (KeyError, TypeError, ValueError, IndexError) as e:
                self._checked[key] = [f"malformed output: {e!r}"]
        problems = list(self._checked[key])
        if self.first is None:
            self.first = key
        elif key != self.first:
            problems.append("exit code or output bytes differ from the first run of this seed")
        if problems:
            self.failed += 1
            print(f"failed: {problems[:5]}", file=sys.stderr)

    def run(self, seconds: float) -> None:
        """Run operations while the measured time, with one more of median
        length, fits in `seconds`. Checks run outside that window."""
        out = self.work / "out"
        while not self.walls or sum(self.walls) + statistics.median(self.walls) <= seconds:
            left = self.deadline - time.perf_counter()
            if left <= 0:
                break
            shutil.rmtree(out, ignore_errors=True)
            code, wall, mb = run_child(cli(self.case.command(str(out))),
                                       self.work / "cli.log", left)
            self.walls.append(wall)
            self.rss.append(mb)
            self.judge(code, out)
            print(f"op {len(self.walls)}: {wall:.3f} s, {mb:.1f} MB, exit {code}",
                  file=sys.stderr)


def measure_setup(work: Path, deadline: float) -> list[float]:
    argv = [sys.executable, "-c", "import arithstat.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        code, wall, _ = run_child(argv, work / "setup.log", deadline - time.perf_counter())
        if code != 0:
            raise RuntimeError(f"import arithstat.cli exited {code}; see {work / 'setup.log'}")
        if i:  # the first run may compile bytecode
            times.append(wall)
    return times


def traced_run(ops: Operations) -> dict[str, float]:
    """One in-process traced run; its outputs must equal the untraced ones."""
    out = ops.work / "traced"
    spans_path = ops.work / "spans.json"
    spans_path.unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    launched = tracer.clock()
    argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--",
            *ops.case.command(str(out))]
    code, _, _ = run_child(argv, ops.work / "traced.log", ops.deadline - time.perf_counter())
    if spans_path.is_file():
        doc = json.loads(spans_path.read_text())
    else:
        print(f"trace: the traced run exited {code} without spans", file=sys.stderr)
        doc = {"exit_code": code, "main_end_ns": launched, "missing": [], "spans": []}
    if (code, read_outputs(ops.case, out)) != ops.first:
        ops.failed += 1
        print("failed: traced outputs differ from the untraced run", file=sys.stderr)
    for name in doc["missing"]:
        print(f"trace: {name} is missing from the program", file=sys.stderr)
    metrics = tracer.layer_metrics(doc["spans"])
    total = (doc["main_end_ns"] - launched) / 1e9
    metrics["trace.total_s"] = total
    metrics["trace.overhead_s"] = total - statistics.median(ops.walls)
    metrics["trace.missing_wrappers"] = len(doc["missing"])
    metrics["trace.spans"] = len(doc["spans"])
    return metrics


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "arithstat" / "cli.py").is_file():
        print(f"bench: no src/arithstat/cli.py in {ROOT}; the benchmark runs the "
              "CLI from an arithstat source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    setup = [] if args.trace else measure_setup(work, deadline)
    case = WORKLOADS[args.workload](work, args.seed)
    ops = Operations(case, work, deadline)
    ops.run(args.seconds)
    attempted = len(ops.walls)

    if args.trace:
        layers = traced_run(ops)
        attempted += 1
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(ops.walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(ops.rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    _write_json(work / "last_run.json", {
        "seed": args.seed, "trace": args.trace, "wall_s": ops.walls,
        "peak_rss_mb": ops.rss, "setup_s": setup, "metrics": metrics,
    })
    print(json.dumps({"correct": ops.failed == 0, "attempted": attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
