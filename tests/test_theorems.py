"""Exact mechanism checks, inclusion experiments, and the randomized suites."""
from __future__ import annotations

import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithstat.kernel import (
    Constant,
    GcdPeriodic,
    SeqSample,
    SparseSpike,
    _flags,
    divisors,
    generate,
)
from arithstat.density import Outcome, VerdictPolicy
from arithstat import theorems
from arithstat.lacunary import (
    factorial_points,
    geometric_points,
    make_scheme,
    points_upto,
    polynomial_points,
)
from arithstat.theorems import (
    MAX_LIMSUP,
    MIN_LIMINF,
    CheckReport,
    HypothesisNotMet,
    Suite,
    check_delta_transfer,
    check_lac1_bound,
    check_markov_step,
    check_refinement_aggregation,
    check_scalar_closure,
    check_sum_closure,
    evidence_table,
    ramp_sample,
    random_sample,
    random_scheme,
    ratio_gate,
    run_inclusion_experiment,
    run_property_suite,
    standard_family,
    verdict_status,
)

DYADIC_13 = make_scheme([2**j for j in range(14)])
AXES = ("prefix", "block")


def gcdper(n0: int, length: int) -> SeqSample:
    return generate(GcdPeriodic(n0, {d: float(d) for d in divisors(n0)}), length)


class TestScalarClosure:
    def test_deterministic_pass_both_axes(self):
        x = gcdper(6, 1000)
        scheme = make_scheme([1, 10, 100, 1000])
        reports = check_scalar_closure(x, 3.0, 2, 1.5, scheme)
        assert [rep.instance["axis"] for rep in reports] == list(AXES)
        for rep in reports:
            assert rep.passed, rep.witness
            assert rep.name == "scalar_closure"

    def test_negative_and_fractional_scales(self):
        x = SeqSample(np.random.default_rng(1).integers(-16, 17, 500) / 8.0)
        for c in (-10.0, -0.5, 0.5, 10.0):
            assert all(rep.passed for rep in check_scalar_closure(x, c, 7, 0.25, DYADIC_13))

    def test_zero_scale_empties_every_set(self):
        reports = check_scalar_closure(ramp_sample(100), 0.0, 3, 0.5, DYADIC_13)
        assert all(rep.passed for rep in reports)

    def test_report_shape(self):
        reports = check_scalar_closure(gcdper(4, 64), 2.0, 4, 1.0, DYADIC_13)
        assert [rep.instance["axis"] for rep in reports] == list(AXES)
        for rep in reports:
            d = rep.to_dict()
            assert d["passed"] is True
            assert list(d["instance"]) == ["recipe", "length", "c", "n", "eps", "axis",
                                           "scheme"]
            assert d["instance"]["c"] == 2.0
            assert d["witness"] is None


class TestSumClosure:
    def test_deterministic_pass(self):
        x = gcdper(6, 1000)
        y = generate(SparseSpike(height=-4.0, power=3), 1000)
        scheme = make_scheme([1, 10, 100, 1000])
        reports = check_sum_closure(x, y, 5, 1.0, scheme)
        assert [rep.instance["axis"] for rep in reports] == list(AXES)
        assert all(rep.passed for rep in reports)

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            check_sum_closure(ramp_sample(10), ramp_sample(11), 1, 1.0, DYADIC_13)


# ---------------------------------------------------------------------------
# Failure witnesses. Tenths are not exact in binary, so scaling by 0.3 or
# adding two samples moves some deviations across their threshold and the
# float checks fail. Each report is recounted with plain index sets and
# math.gcd, and a failing report's witness must name the same interval and
# the same first 20 indices.
# ---------------------------------------------------------------------------

WITNESS_SCHEME = make_scheme([1, 2, 4, 8, 16, 32])
X_TENTHS = [-2, 12, -8, -2, -17, -9, 19, -8, 15, 0, -11, 11, 4, 15, -10, -13, 18, -2, -19,
            6, 18, 20, 5, 15, 11, -13, 11, 5, 1, 15, -20, 1, -10, -19, -12, 17, -2, 1, 18, 11]
Y_TENTHS = [2, 18, 3, -5, 20, -8, 5, -13, 5, 20, 12, 3, 4, 14, 1, -20, 12, -13, 4, -16,
            -12, 7, 10, -1, 11, 5, 16, 19, -20, 8, -12, -17, -14, 20, 0, -19, -20, 15, -13, 1]


def exceed(vals: list[float], n: int, eps: float, lo: int, hi: int) -> set[int]:
    return {m for m in range(lo + 1, hi + 1)
            if abs(vals[m - 1] - vals[math.gcd(m, n) - 1]) >= eps}


def set_witness(axis: str, length: int, key: str, stray) -> dict | None:
    """Witness of the first interval (lo, hi] where stray(lo, hi) is nonempty."""
    if axis == "prefix":
        intervals = [(length, 0, length)]
    else:
        fit = WITNESS_SCHEME.blocks_within(length)
        intervals = [(r, *WITNESS_SCHEME.block(r)) for r in range(1, fit + 1)]
    for at, lo, hi in intervals:
        found = stray(lo, hi)
        if found:
            return {"at": at, key: sorted(found)[:20]}
    return None


class TestFailureWitnesses:
    @pytest.mark.parametrize("axis", ["prefix", "block"])
    def test_scalar_closure_witness_matches_sets(self, axis):
        c, eps = 0.3, 0.03
        failed = 0
        for seed in range(5):
            vals = [k / 10 for k in np.random.default_rng(seed).integers(-20, 21, 40).tolist()]
            scaled = [c * v for v in vals]
            for n in (1, 2, 6):
                rep = check_scalar_closure(SeqSample(vals), c, n, eps,
                                           WITNESS_SCHEME)[AXES.index(axis)]
                assert rep.instance["axis"] == axis
                expected = set_witness(
                    axis, 40, "symmetric_difference",
                    lambda lo, hi: (exceed(scaled, n, eps, lo, hi)
                                    ^ exceed(vals, n, eps / abs(c), lo, hi)))
                assert rep.passed == (expected is None)
                assert rep.witness == expected
                failed += not rep.passed
        assert failed >= 3

    @pytest.mark.parametrize("axis", ["prefix", "block"])
    def test_sum_closure_witness_matches_sets(self, axis):
        # x_15 + y_15 = -0.9 and x_3 + y_3 = -0.5 differ by 0.4, but the
        # parts differ by 0.19999999999999996 and 0.19999999999999998
        xs, ys = [k / 10 for k in X_TENTHS], [k / 10 for k in Y_TENTHS]
        total = [a + b for a, b in zip(xs, ys)]
        eps = 0.4
        failing = []
        for n in range(1, 9):
            rep = check_sum_closure(SeqSample(xs), SeqSample(ys), n, eps,
                                    WITNESS_SCHEME)[AXES.index(axis)]
            assert rep.instance["axis"] == axis
            expected = set_witness(
                axis, 40, "outside_union",
                lambda lo, hi: exceed(total, n, eps, lo, hi) - (
                    exceed(xs, n, eps / 2, lo, hi) | exceed(ys, n, eps / 2, lo, hi)))
            assert rep.passed == (expected is None)
            assert rep.witness == expected
            if not rep.passed:
                failing.append(n)
        assert failing == [3, 6]


class TestMarkovStep:
    def test_ramp_blocks(self):
        x = ramp_sample(16)
        s = make_scheme([1, 2, 4, 8, 16])
        for eps in (0.5, 2.0, 5.0):
            reports = check_markov_step(x, s, 1, eps)
            assert len(reports) == s.blocks_within(16) == 4
            assert [rep.instance["r"] for rep in reports] == [1, 2, 3, 4]
            assert all(rep.passed for rep in reports)

    def test_boundary_equality_counts_as_pass(self):
        # deviations in the block are exactly 1, eps = 1: lhs == rhs
        x = SeqSample([0.0, 1.0, 1.0, 1.0])
        s = make_scheme([1, 4])
        [rep] = check_markov_step(x, s, 1, 1.0)
        assert rep.passed

    def test_counts_equal_a_recount_at_the_threshold(self, monkeypatch):
        # with every block sum patched to 0, each block fails with lhs = eps times
        # its count of deviations >= eps, and every deviation counted is exactly eps
        vals, points, n, eps = [0, .5, .25, .5, .5, 0, .5, .5], [1, 2, 4, 8], 1, 0.5
        monkeypatch.setattr(theorems, "_interval_fsums", lambda dev, iv: np.zeros(iv.lo.size))
        reports = check_markov_step(SeqSample(vals), make_scheme(points), n, eps)
        recount = [sum(abs(vals[m - 1] - vals[math.gcd(m, n) - 1]) >= eps
                       for m in range(lo + 1, hi + 1)) for lo, hi in zip(points, points[1:])]
        assert recount == [1, 1, 3]
        assert [rep.passed for rep in reports] == [False] * 3
        assert [rep.witness for rep in reports] == [
            {"lhs": eps * c, "rhs": 0.0} for c in recount]


class TestLac1Bound:
    def test_gcd_periodic_blocks(self):
        x = gcdper(12, 4096)
        for n in (1, 5, 12):
            reports = check_lac1_bound(x, DYADIC_13, n, 0.5)
            assert len(reports) == DYADIC_13.blocks_within(4096)
            assert all(rep.passed for rep in reports)

    def test_spike_blocks(self):
        x = generate(SparseSpike(height=2.0), 4096)
        reports = check_lac1_bound(x, DYADIC_13, 1, 1.0)
        assert len(reports) == DYADIC_13.blocks_within(4096) == 12
        assert all(rep.passed for rep in reports)


class TestDeltaTransfer:
    def test_refinement_pair(self):
        x = gcdper(6, 1024)
        coarse = make_scheme([1, 4, 16, 64, 256, 1024])
        fine = make_scheme(sorted(set(coarse.points) | {1, 2, 9, 40, 100, 500, 1024}))
        rep = check_delta_transfer(x, coarse, fine, 3, 0.5)
        assert rep.passed
        assert 0 < rep.instance["delta"] < 1

    def test_identity_refinement_is_tight(self):
        x = SeqSample(np.random.default_rng(6).integers(-16, 17, 512) / 8.0)
        s = make_scheme([1, 8, 64, 512])
        rep = check_delta_transfer(x, s, s, 4, 0.25)
        assert rep.passed
        assert rep.instance["delta"] == 1.0

    def test_blocks_past_sample_are_skipped(self):
        x = SeqSample(np.zeros(100))
        coarse = make_scheme([1, 10, 1000])
        fine = make_scheme([1, 5, 10, 500, 1000])
        assert check_delta_transfer(x, coarse, fine, 1, 0.5).passed

    def test_needs_one_coarse_block(self):
        x = SeqSample(np.zeros(3))
        with pytest.raises(ValueError, match="no block of the scheme fits"):
            check_delta_transfer(x, make_scheme([5, 9]), make_scheme([5, 7, 9]), 1, 0.5)


COARSE_5 = make_scheme([1, 4, 16, 64, 256, 1024])
FINE_10 = make_scheme(sorted(set(COARSE_5.points) | {2, 9, 40, 100, 500}))


def shift_direct_count(monkeypatch):
    """Take the direct count over (lo + 1, hi + 1] in place of (lo, hi]; the slice
    counts stay as they are."""
    def shifted(flags, iv, fn=theorems._interval_sums):
        return fn(np.append(flags[1:], False), iv)

    monkeypatch.setattr(theorems, "_interval_sums", shifted)


class TestRefinementAggregation:
    def test_one_passing_report_per_coarse_block_inside_the_sample(self):
        x = gcdper(6, 300)  # blocks (1, 4] to (64, 256] fit, (256, 1024] does not
        reports = check_refinement_aggregation(x, COARSE_5, FINE_10, 1, 0.5)
        assert [rep.instance["r"] for rep in reports] == [1, 2, 3, 4]
        assert all(rep.passed and rep.witness is None for rep in reports)
        assert _flags(x, 1, 0.5)[1:256].any()

    def test_a_shifted_count_fails_with_integer_counts(self, monkeypatch):
        # the fine blocks are counted by slice, so only block (1, 4], whose bounds 2
        # and 5 differ in flag, parts: 3, 4, 5 hold two flags and 2, 3, 4 hold three
        shift_direct_count(monkeypatch)
        reports = check_refinement_aggregation(gcdper(6, 1024), COARSE_5, FINE_10, 1, 0.5)
        assert [rep.passed for rep in reports] == [False, True, True, True, True]
        witness = reports[0].witness
        assert witness == {"direct": 2, "aggregated": 3}
        assert type(witness["direct"]) is type(witness["aggregated"]) is int

    def test_a_shifted_count_fails_the_delta_transfer(self, monkeypatch):
        # a scheme refines itself with delta 1, and each pair is its coarse block: block
        # (1, 4] holds three flags by slice and two by the shifted count, so 3/3 > 2/3
        x = gcdper(6, 1024)
        assert check_delta_transfer(x, COARSE_5, COARSE_5, 1, 0.5).passed
        shift_direct_count(monkeypatch)
        rep = check_delta_transfer(x, COARSE_5, COARSE_5, 1, 0.5)
        assert not rep.passed
        assert rep.witness == {"coarse_block": 1, "fine_block": 1, "lhs": 1.0, "rhs": 2 / 3}


@st.composite
def explicit_schemes(draw):
    """Points k_0 <= 8 and then k_r = max(k_{r-1} + 1, floor(k_{r-1} * q_r)) for 2 to 9
    drawn ratios, near 1, moderate or past 64, so both gates are met and missed."""
    points = [draw(st.integers(1, 8))]
    for q in draw(st.lists(st.floats(1.0, 1.2) | st.floats(1.2, 60.0) | st.floats(60.0, 80.0),
                           min_size=2, max_size=9)):
        points.append(max(points[-1] + 1, int(points[-1] * q)))
    return make_scheme(points)


class TestRefusalGates:
    """The lac1 and lac2 gates are Fridy & Orhan's ratio conditions, liminf q_r > 1
    and limsup q_r < infinity, read on the trailing half of the ratios
    q_r = k_r / k_{r-1} (at least one)."""

    FAMILY = [("const", generate(Constant(1.0), 4096))]
    POLICY = VerdictPolicy(tail_window=1, n_max=2)

    @given(scheme=explicit_schemes())
    @settings(max_examples=60, deadline=None)
    def test_refused_exactly_when_a_ratio_condition_fails(self, scheme):
        pts = scheme.points
        q = [b / a for a, b in zip(pts, pts[1:])]
        tail = q[-max(1, len(q) // 2):]
        low, high = min(tail) < MIN_LIMINF, max(tail) > MAX_LIMSUP
        expected = {"lac1": low, "lac2": high, "corollary": low or high, "ac_subset": False}
        table = evidence_table(self.FAMILY, scheme, self.POLICY)
        for hypothesis, refused in expected.items():
            try:
                ratio_gate(hypothesis, scheme)
            except HypothesisNotMet:
                assert refused, (hypothesis, pts)
                with pytest.raises(HypothesisNotMet):
                    run_inclusion_experiment(hypothesis, table)
            else:
                assert not refused, (hypothesis, pts)
                assert run_inclusion_experiment(hypothesis, table).summary["total"] == 1


class TestStandardFamily:
    def test_twelve_distinct_members(self):
        fam = standard_family(512)
        names = [name for name, _ in fam]
        assert len(names) == 12 and len(set(names)) == 12
        assert all(x.length == 512 for _, x in fam)

    def test_every_member_converges_on_both_axes(self):
        from arithstat.density import asc_theta_verdict, asc_verdict

        for name, x in standard_family(8193):
            v = asc_verdict(x)
            vt = asc_theta_verdict(x, DYADIC_13)
            assert v.outcome is Outcome.CONVERGENT, name
            assert vt.outcome is Outcome.CONVERGENT, name
            assert v.witness <= 12 and vt.witness <= 12


CONV, NOT_CONV, INCO = Outcome.CONVERGENT, Outcome.NOT_CONVERGENT, Outcome.INCONCLUSIVE


@pytest.mark.parametrize("left, right, status", [
    (CONV, NOT_CONV, "contradiction"), (CONV, INCO, "inconclusive"), (CONV, CONV, "support"),
    (NOT_CONV, NOT_CONV, "skipped"), (NOT_CONV, INCO, "skipped"), (NOT_CONV, CONV, "skipped"),
    (INCO, NOT_CONV, "skipped"), (INCO, INCO, "skipped"), (INCO, CONV, "skipped"),
])
def test_verdict_status(left, right, status):
    assert verdict_status(SimpleNamespace(outcome=left), SimpleNamespace(outcome=right)) == status
    if status == "skipped":  # the right side of a skipped pair is never read
        assert verdict_status(SimpleNamespace(outcome=left), None) == "skipped"


class TestInclusionExperiments:
    FAMILY = standard_family(8193)
    SCHEME = DYADIC_13
    TABLE = evidence_table(FAMILY, SCHEME)

    @pytest.mark.parametrize("hypothesis", ["lac1", "lac2", "corollary", "ac_subset"])
    def test_standard_family_never_contradicts(self, hypothesis):
        exp = run_inclusion_experiment(hypothesis, self.TABLE)
        assert exp.summary["contradictions"] == 0
        assert exp.summary["total"] == 12
        assert exp.summary["supported"] == 12

    def test_corollary_is_fully_decisive_here(self):
        exp = run_inclusion_experiment("corollary", self.TABLE)
        assert exp.summary["both_convergent"] == 12

    def test_ac_subset_left_side_is_a_mean_verdict(self):
        exp = run_inclusion_experiment("ac_subset", self.TABLE)
        assert exp.summary["left_convergent"] >= 9
        left = exp.comparisons[0].left
        assert hasattr(left, "tail_mean")
        # tall spikes leave the block means above tol at this truncation, which
        # must read as Inconclusive (vacuous support), never as a contradiction
        for c in exp.comparisons:
            if "spikes" not in c.name:
                assert c.left.outcome is Outcome.CONVERGENT, c.name
            assert c.supports

    def test_squares_scheme_refuses_lac1(self):
        squares = make_scheme(r * r for r in range(1, 62))
        with pytest.raises(HypothesisNotMet, match="ratio 1"):
            ratio_gate("lac1", squares)
        with pytest.raises(HypothesisNotMet):
            ratio_gate("corollary", squares)
        assert ratio_gate("lac2", squares) == ratio_gate("ac_subset", squares)

    def test_wild_ratio_scheme_refuses_lac2(self):
        wild = make_scheme([1, 100, 10000, 10**6])
        with pytest.raises(HypothesisNotMet, match="boundedly"):
            ratio_gate("lac2", wild)
        # the same scheme is fine for lac1's direction as far as the gate is
        # concerned (the verdicts would need more blocks, hence ValueError,
        # not a refusal)
        assert ratio_gate("lac1", wild) == (100.0, 100.0)
        with pytest.raises(ValueError, match="blocks"):
            evidence_table(self.FAMILY, wild)

    def test_experiment_reads_the_scheme_of_its_table(self):
        exp = run_inclusion_experiment("lac1", self.TABLE)
        assert exp.scheme_points == self.SCHEME.points
        assert (exp.liminf_estimate, exp.limsup_estimate) == ratio_gate("lac1", self.SCHEME)

    def test_refusal_margins_are_pinned(self):
        assert MIN_LIMINF == 1.05
        assert MAX_LIMSUP == 64.0

    def test_unknown_hypothesis(self):
        with pytest.raises(ValueError, match="hypothesis"):
            run_inclusion_experiment("lac3", self.TABLE)
        with pytest.raises(ValueError, match="hypothesis"):
            ratio_gate("lac3", self.SCHEME)

    def test_to_dict_shape(self):
        exp = run_inclusion_experiment("lac1", self.TABLE)
        d = exp.to_dict()
        assert d["hypothesis"] == "lac1"
        assert len(d["comparisons"]) == 12
        assert d["liminf_estimate"] == 2.0


class TestRandomInstances:
    def test_random_sample_is_seed_deterministic(self):
        a = random_sample(np.random.default_rng(77), max_length=500)
        b = random_sample(np.random.default_rng(77), max_length=500)
        assert a.recipe == b.recipe
        assert np.array_equal(a.values, b.values)

    def test_random_sample_values_are_dyadic(self):
        # base draws sit on the 1/8 grid; one scaling by 0.5 can halve that,
        # so 1/16 is the finest grid any random sample lives on
        rng = np.random.default_rng(123)
        for _ in range(20):
            x = random_sample(rng, max_length=300)
            assert np.array_equal(x.values * 16, np.round(x.values * 16))

    def test_random_scheme_fits_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_scheme(rng, 777)
            assert s.points[-1] <= 777

    def test_random_schemes_come_from_the_scheme_file_generators(self):
        # so a failing suite instance can be written back as a scheme file
        bound = 10_000
        generated = [geometric_points(r, s) for r in (1.5, 2.0, 3.0) for s in (1, 2, 3)]
        generated += [polynomial_points(2), polynomial_points(3), factorial_points()]
        known = {tuple(points_upto(g, bound)) for g in generated}
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert random_scheme(rng, bound).points in known


class TestPropertySuites:
    def test_all_suites_pass_quickly(self):
        suites = run_property_suite(11, instances=60, max_length=1500)
        assert set(suites) == {
            "scalar_closure", "sum_closure", "markov_step",
            "refinement_aggregation", "delta_transfer", "lac1_bound",
        }
        for name, res in suites.items():
            assert res.passed, (name, res.failures[:1])

    def test_aggregation_checks_a_block_of_every_instance(self):
        suites = run_property_suite(3, instances=30, max_length=1000)
        agg = suites["refinement_aggregation"]
        assert agg.passed
        assert list(agg.extra) == ["blocks_checked"]
        assert agg.extra["blocks_checked"] >= agg.instances

    def test_delta_suite_sees_identity_and_proper_refinements(self):
        suites = run_property_suite(19, instances=30, max_length=1000)
        dt = suites["delta_transfer"]
        assert dt.extra["max_delta"] == 1.0
        assert dt.extra["min_delta"] < 1.0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, seed):
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(theorems, "_usable_cpus", lambda: cpus)
            suites = run_property_suite(seed, instances=20, max_length=1000)
            runs.append({name: res.to_dict() for name, res in suites.items()})
        assert runs[0] == runs[1]
        assert list(runs[0]) == list(theorems.SUITES)

    def test_half_rows_run_half_the_instances_or_50(self):
        suites = run_property_suite(0, instances=3, max_length=300)
        assert [res.instances for res in suites.values()] == [3, 3, 3, 50, 50, 50]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_suite_patched_with_a_closure_takes_effect(self, monkeypatch, cpus):
        note = f"patched under {cpus} CPUs"

        def check(x, recipe, n, eps):
            return [CheckReport("markov_step", {"note": note, "recipe": recipe}, False)]

        patched = Suite(lambda rng, x: {"recipe": x.recipe}, check,
                        extra=lambda checks, low, high: {"note": note, "checks": checks})
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(patched)  # a worker can only get it by name
        monkeypatch.setattr(theorems, "_usable_cpus", lambda: cpus)
        monkeypatch.setitem(theorems.SUITES, "markov_step", patched)
        suites = run_property_suite(5, instances=3, max_length=300)
        first = random_sample(np.random.default_rng(7), max_length=300)  # seed 5 + suite 2
        d = suites["markov_step"].to_dict()
        assert (d["name"], d["instances"], d["passed"]) == ("markov_step", 3, False)
        assert (d["note"], d["checks"]) == (note, 3)
        assert d["failures"][0]["instance"] == {"note": note, "recipe": first.recipe}
        assert suites["lac1_bound"].extra["blocks_checked"] > 0

    def test_suite_to_dict(self):
        suites = run_property_suite(0, instances=5, max_length=300)
        d = suites["markov_step"].to_dict()
        assert d["passed"] is True
        assert d["blocks_checked"] > 0
