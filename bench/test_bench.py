"""Tests of the benchmark itself: its reference is right and its checks can fail.

    python3 -m pytest -q bench/test_bench.py

They run the CLI on inputs far smaller than the workloads, so they take
seconds. They are not part of the package's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent


def _run_cli(case: run.Case, out: Path, extra: tuple[str, ...] = ()) -> int:
    code, _, _ = run.run_child(run.cli(case.command(str(out)) + list(extra)),
                               out.parent / "cli.log", 120)
    return code


# ---------------------------------------------------------------------------
# The reference against hand counts
# ---------------------------------------------------------------------------

# x_1..x_12; at n = 2 odd m compare with x_1 = 0 and even m with x_2 = 1
X12 = np.array([0, 1, 3, 1, 0, 2, 0, 1, 5, 4, 0, 1], dtype=float)
DEV12 = [0, 0, 3, 0, 0, 1, 0, 0, 5, 3, 0, 0]


def test_recount_matches_hand_counts_on_twelve_points():
    assert reference.deviations(X12, 2).tolist() == DEV12
    assert reference.checkpoints(12).tolist() == [1, 2, 3, 4, 6, 8, 10, 12]
    rc = reference.Recount(X12, [1, 2, 4, 8, 12])
    counts = rc.counts(reference.deviations(X12, 2), 1.0)
    # deviations >= 1 at m = 3, 6, 9, 10
    assert counts["prefix"][0].tolist() == [0, 0, 1, 1, 2, 2, 4, 4]
    assert counts["block"][0].tolist() == [0, 1, 1, 2]
    assert counts["block"][1].tolist() == [1, 2, 4, 4]
    # mean of 0, 0, 1/3, 1/4, 2/6, 2/8, 4/10, 4/12 over the whole 8-point window
    assert rc.tails(2)["prefix"][0] == pytest.approx(1.9 / 8, abs=1e-15)
    # at eps = 0.5 the same m exceed: blocks (1, 2], (2, 4], (4, 8], (8, 12] hold 0, 1, 1, 2
    assert rc.tails(2)["block"][1] == pytest.approx((0 + 1 / 2 + 1 / 4 + 2 / 4) / 4, abs=1e-15)
    assert rc.block_means(2) == [0.0, 1.5, 0.25, 2.0]
    assert rc.ntheta_norm() == 2.5
    # at n = 1 every m is compared with x_1 = 0: |x_m| >= 0.01 in 1/1, 2/2, 2/4, 3/4
    assert rc.max_tail(1, "block") == (1 + 1 + 0.5 + 0.75) / 4


# ---------------------------------------------------------------------------
# The checks pass on the program's outputs and fail on wrong ones
# ---------------------------------------------------------------------------


def test_noise_check_passes_and_flags_one_perturbed_tail(tmp_path):
    case = run.noise_case(tmp_path, seed=3, length=4096, blocks=12)
    out = tmp_path / "out"
    code = _run_cli(case, out)
    assert case.check(out, code) == []

    report_path = out / "report.json"
    report = json.loads(report_path.read_text())
    report["asc_theta"]["tail_densities"][2][1] += 1e-9
    report_path.write_text(json.dumps(report))
    problems = case.check(out, code)
    assert problems and all("asc_theta: tail" in p for p in problems)


def test_spec_check_passes_and_flags_a_wrong_witness(tmp_path):
    case = run.spec_case(tmp_path, seed=0, length=4096, blocks=12)
    out = tmp_path / "out"
    code = _run_cli(case, out)
    assert case.check(out, code) == []

    report_path = out / "report.json"
    report = json.loads(report_path.read_text())
    report["asc"]["witness"] = report["asc"]["evaluated_n"] = 6
    report_path.write_text(json.dumps(report))
    assert any("witness 6" in p for p in case.check(out, code))


def test_verify_check_passes_and_flags_an_injected_fault(tmp_path):
    case = run.verify_case(tmp_path, seed=5, instances=3)
    out = tmp_path / "out"
    assert case.check(out, _run_cli(case, out)) == []

    code = _run_cli(case, out, ("--inject-fault", "scaling"))
    problems = case.check(out, code)
    assert code == 1
    assert "verify exited 1" in problems
    assert any(p.startswith("suite scalar_closure") for p in problems)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children():
    s = 1_000_000_000
    spans = [
        ["cli.main", 0, 10 * s, -1, 0],
        ["density.asc_verdict", 1 * s, 5 * s, 0, 0],
        ["kernel.deviations", 2 * s, 3 * s, 1, 7],
        ["kernel.deviations", 6 * s, 7 * s, 0, 5],
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.write_reports_s"] == 10 - 4 - 1
    assert m["density.asc_verdict_s"] == 3
    assert m["kernel.deviations_s"] == 2
    assert m["kernel.deviations_calls"] == 2
    assert m["kernel.deviation_points"] == 12
    assert m["density.witnesses_tried"] == 1


def test_install_reports_a_missing_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from arithstat import cli

    monkeypatch.setattr(cli, "load_sequence", cli.load_sequence)  # restored afterwards
    monkeypatch.setattr(tracer, "WRAPS", [
        ("cli", "load_sequence", "cli.load_sequence", None),
        ("cli", "no_such_function", "cli.no_such_function", None),
        ("no_such_module", "f", "x.f", None),
    ])
    t = tracer.Tracer()
    assert t.install() == ["cli.no_such_function", "no_such_module.f"]
    assert cli.load_sequence.__wrapped__ is not None


def test_traced_outputs_equal_untraced(tmp_path):
    case = run.noise_case(tmp_path, seed=4, length=4096, blocks=12)
    ops = run.Operations(case, tmp_path, time.perf_counter() + 120)
    ops.run(0)
    metrics = run.traced_run(ops)
    assert ops.failed == 0
    assert metrics["trace.missing_wrappers"] == 0
    # noise has no witness, so each of the two searches tries all 64 moduli
    assert metrics["density.witnesses_tried"] == 128
    assert metrics["kernel.deviation_points"] == 4096 * metrics["kernel.deviations_calls"]


# ---------------------------------------------------------------------------
# The benchmark's declaration and its refusal without a checkout
# ---------------------------------------------------------------------------


def test_benchmark_json_declares_what_run_prints():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in decl["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in decl["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    printed = set(tracer.layer_metrics([])) | set(run.TRACE_METRICS)
    assert {m["name"] for m in decl["per_layer"]} == printed
    for m in decl["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-300", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
