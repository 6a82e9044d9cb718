"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with -s to see the lines; each test also asserts, so a plain run still
fails loudly when a criterion is missed.
"""
from __future__ import annotations

import json
import time

import pytest

from arithstat.cli import EXIT_OK, main
from arithstat.continuity import (
    Affine,
    Clamp,
    Composition,
    Tabulated,
    continuity_battery,
    crossing_sequence,
    uniform_limit_check,
)
from arithstat.density import (
    DEFAULT_GRID,
    Outcome,
    VerdictPolicy,
    ac_sup_deviation,
    asc_theta_verdict,
    asc_verdict,
)
from arithstat.kernel import GcdPeriodic, SparseSpike, divisors, generate
from arithstat.lacunary import make_scheme
from arithstat.theorems import (
    HypothesisNotMet,
    evidence_table,
    ramp_sample,
    ratio_gate,
    run_inclusion_experiment,
    run_suite,
    standard_family,
)

T_COROLLARY = 2**16 + 1
GEOMETRIC_16 = make_scheme([2**j for j in range(17)])
ZERO_DEVIATION_MEMBERS = (
    "const_2", "const_neg", "gcdper_6", "gcdper_12", "gcdper_5",
    "scaled_gcdper", "sum_gcdper",
)


def criterion(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


@pytest.fixture(scope="module")
def family():
    return standard_family(T_COROLLARY)


def test_scaling_identity_is_exact():
    t0 = time.perf_counter()
    suite = run_suite("scalar_closure", 0, 1000, 10_000)
    elapsed = time.perf_counter() - t0
    criterion(
        "scaling identity exact on 1000 instances, both axes, under 10 s",
        suite.passed and suite.instances == 1000 and elapsed < 10.0,
    )


def test_sum_inclusion_is_exact():
    t0 = time.perf_counter()
    suite = run_suite("sum_closure", 1, 1000, 10_000)
    elapsed = time.perf_counter() - t0
    criterion(
        "sum exceedance inclusion exact on 1000 pairs, under 10 s",
        suite.passed and suite.instances == 1000 and elapsed < 10.0,
    )


def test_markov_step_on_every_block():
    suite = run_suite("markov_step", 2, 1000, 10_000)
    criterion(
        "Markov step holds on every block of 1000 instances",
        suite.passed and suite.extra["blocks_checked"] > 0,
    )


def test_refinement_aggregation_identity():
    suite = run_suite("refinement_aggregation", 3, 500, 10_000)
    criterion(
        "every coarse block count equals the sum of its fine block counts on 500 triples",
        suite.passed and suite.extra["blocks_checked"] >= suite.instances,
    )


def test_delta_transfer_including_edge_cases():
    suite = run_suite("delta_transfer", 4, 500, 10_000)
    criterion(
        "delta transfer exact on 500 refinements incl. delta = 1 and singleton blocks",
        suite.passed
        and suite.extra["max_delta"] == 1.0
        and suite.extra["min_delta"] <= 0.5,
    )


def test_lac1_per_block_bound():
    suite = run_suite("lac1_bound", 5, 500, 10_000)
    criterion(
        "lac1 prefix-vs-block bound exact on all blocks of 500 instances",
        suite.passed and suite.extra["blocks_checked"] > 0,
    )


def test_corollary_equivalence_experiment(family):
    t0 = time.perf_counter()
    exp = run_inclusion_experiment("corollary", evidence_table(family, GEOMETRIC_16))
    elapsed = time.perf_counter() - t0
    tails_ok = all(
        max(dict(c.right.tail_densities)[e] for e in DEFAULT_GRID) <= 0.02
        for c in exp.comparisons
        if c.right.outcome is Outcome.CONVERGENT
    )
    criterion(
        "prefix and blockwise verdicts agree on the 12-member family, under 30 s",
        exp.summary["contradictions"] == 0
        and exp.summary["both_convergent"] == 12
        and tails_ok
        and elapsed < 30.0,
    )


def test_zero_deviation_members_converge_exactly(family):
    members = dict(family)
    ok = True
    for name in ZERO_DEVIATION_MEMBERS:
        x = members[name]
        has_exact_witness = any(
            ac_sup_deviation(x, n) == 0.0 for n in range(1, 65)
        )
        v = asc_theta_verdict(x, GEOMETRIC_16)
        ok &= (has_exact_witness
               and v.outcome is Outcome.CONVERGENT
               and all(dict(v.tail_densities)[e] == 0.0 for e in DEFAULT_GRID))
    criterion(
        "zero-deviation members are blockwise convergent with tails exactly 0",
        ok,
    )


def test_uniform_limit_three_families():
    T = 10_000
    scheme = make_scheme([2**j for j in range(14)])
    probe = tuple(i / 2.0 for i in range(-20, 21))
    g6 = generate(GcdPeriodic(6, {d: float(d) for d in divisors(6)}), T)
    g5 = generate(GcdPeriodic(5, {1: 0.0, 5: 1.0}), T)
    spikes = generate(SparseSpike(height=10.0, power=2), T)
    cases = [
        ([Affine(1.0, 1.0 / m) for m in range(1, 33)], Affine(1.0, 0.0), g6, 6),
        ([Composition(Clamp(0.0, 1.0), Affine(1.0, 1.0 / m)) for m in range(1, 33)],
         Clamp(0.0, 1.0), spikes, 1),
        ([Affine(1.0 + 1.0 / m, 0.0) for m in range(1, 65)], Affine(1.0, 0.0), g5, 5),
    ]
    ok = True
    for f_list, f, x, n in cases:
        rep = uniform_limit_check(f_list, f, x, scheme, n, 0.75, probe)
        ok &= rep.passed
    criterion("uniform-limit three-piece cover holds on 100% of blocks", ok)


def test_negative_controls():
    ramp = asc_verdict(ramp_sample(8193), VerdictPolicy(grid=(1.0,)))
    ramp_ok = ramp.outcome is Outcome.NOT_CONVERGENT

    scheme = make_scheme([2**j for j in range(14)])
    table = evidence_table(
        standard_family(8193) + [("crossing", crossing_sequence(8193, hold=64))], scheme)
    try:
        ratio_gate("lac1", make_scheme(r * r for r in range(1, 62)))
        refusal_ok = False
    except HypothesisNotMet:
        refusal_ok = True

    step = Tabulated((0.0, 1.0), (0.0, 1.0), rule="step")
    battery = continuity_battery(step, table)
    battery_ok = battery.contradiction_count >= 1

    criterion(
        "negative controls: ramp diverges, square scheme refused, step contradicts",
        ramp_ok and refusal_ok and battery_ok,
    )


def test_verification_runs_are_byte_identical(tmp_path):
    blobs = []
    rcs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rcs.append(main(["verify", "--instances", "50", "--seed", "3",
                         "--out", str(out)]))
        blobs.append((out / "verify_report.json").read_bytes())
    identical = blobs[0] == blobs[1]
    verified = json.loads(blobs[0])["verified"] is True
    criterion(
        "two verification runs with one config produce byte-identical reports",
        identical and verified and rcs == [EXIT_OK, EXIT_OK],
    )
