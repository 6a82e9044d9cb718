"""Function descriptors, preservation batteries, and the uniform-limit cover."""
from __future__ import annotations

import numpy as np
import pytest

from arithstat.kernel import GcdPeriodic, SeqSample, SparseSpike, divisors, generate
from arithstat.density import (
    Outcome,
    VerdictPolicy,
    ac_theta_at_scale,
    asc_theta_verdict,
    asc_verdict,
)
from arithstat.lacunary import make_scheme
from arithstat.theorems import HypothesisNotMet, evidence_table, ramp_sample, standard_family
from arithstat.continuity import (
    Affine,
    Clamp,
    Composition,
    FnDifference,
    FnSum,
    Polynomial,
    Tabulated,
    apply_fn,
    closure_checks,
    continuity_battery,
    crossing_sequence,
    describe_fn,
    map_sequence,
    uniform_limit_check,
)

SCHEME = make_scheme([2**j for j in range(14)])
FAMILY = standard_family(8193)
TABLE = evidence_table(FAMILY, SCHEME)
CROSSING = evidence_table([("crossing", crossing_sequence(8193, level=1.0, hold=64))], SCHEME)
STEP_AT_ONE = Tabulated((0.0, 1.0), (0.0, 1.0), rule="step")


class TestApplyFn:
    def test_affine(self):
        assert apply_fn(Affine(2.0, -1.0), 3.0) == 5.0

    def test_polynomial_horner(self):
        # 1 + 0 v + 2 v^2 at v = 3
        assert apply_fn(Polynomial((1.0, 0.0, 2.0)), 3.0) == 19.0
        assert apply_fn(Polynomial((4.0,)), 100.0) == 4.0

    def test_clamp(self):
        f = Clamp(0.0, 1.0)
        assert apply_fn(f, -5.0) == 0.0
        assert apply_fn(f, 0.5) == 0.5
        assert apply_fn(f, 7.0) == 1.0

    def test_composition_order(self):
        f = Composition(Clamp(0.0, 1.0), Affine(1.0, -0.5))
        assert apply_fn(f, 0.7) == pytest.approx(0.2)
        assert apply_fn(f, 0.2) == 0.0

    def test_sum_and_difference(self):
        f, g = Affine(1.0, 0.0), Affine(0.0, 2.0)
        assert apply_fn(FnSum(f, g), 3.0) == 5.0
        assert apply_fn(FnDifference(f, g), 3.0) == 1.0

    def test_tabulated_linear(self):
        f = Tabulated((0.0, 2.0), (0.0, 4.0))
        assert apply_fn(f, 1.0) == 2.0
        assert apply_fn(f, -1.0) == 0.0  # clamped to the end value
        assert apply_fn(f, 3.0) == 4.0

    def test_tabulated_step_jump(self):
        assert apply_fn(STEP_AT_ONE, 0.999) == 0.0
        assert apply_fn(STEP_AT_ONE, 1.0) == 1.0
        assert apply_fn(STEP_AT_ONE, -3.0) == 0.0
        assert apply_fn(STEP_AT_ONE, 4.0) == 1.0

    def test_vectorized_matches_scalar(self):
        fns = [
            Affine(2.0, 1.0),
            Polynomial((0.5, -1.0, 0.25)),
            Clamp(-0.5, 0.5),
            Composition(Clamp(0.0, 1.0), Affine(0.5, 0.0)),
            FnSum(Affine(1.0, 0.0), Clamp(0.0, 1.0)),
            Tabulated((-1.0, 0.0, 2.0), (1.0, 0.0, 4.0)),
            Tabulated((-1.0, 0.0, 2.0), (1.0, 0.0, 4.0), rule="step"),
        ]
        vs = np.linspace(-3.0, 3.0, 25)
        for f in fns:
            out = apply_fn(f, vs)
            assert isinstance(out, np.ndarray)
            for v, o in zip(vs, out):
                assert o == apply_fn(f, float(v)), describe_fn(f)

    def test_validation(self):
        with pytest.raises(ValueError, match="coefficient"):
            Polynomial(())
        with pytest.raises(ValueError, match="lo < hi"):
            Clamp(1.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            Tabulated((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="matching"):
            Tabulated((0.0, 1.0), (0.0,))
        with pytest.raises(ValueError, match="rule"):
            Tabulated((0.0, 1.0), (0.0, 1.0), rule="nearest")

    def test_map_sequence_recipe(self):
        x = generate(GcdPeriodic(6, {d: float(d) for d in divisors(6)}), 32)
        y = map_sequence(Affine(2.0, 0.0), x)
        assert y.length == 32
        assert y.values[5] == 12.0
        assert "affine(2, 0)" in y.recipe


class TestBattery:
    def test_affine_preserves_everything(self):
        rep = continuity_battery(Affine(2.0, -1.0), TABLE)
        assert rep.count("contradiction") == 0
        assert rep.count("support") == 12
        assert rep.count("skipped") == 0
        assert len(rep.entries) == 12

    def test_non_convergent_members_are_skipped(self):
        table = TABLE + evidence_table([("ramp", ramp_sample(8193))], SCHEME)
        rep = continuity_battery(Clamp(-1.0, 5.0), table)
        by_name = {e.name: e for e in rep.entries}
        assert by_name["ramp"].status == "skipped"
        assert rep.count("skipped") == 1
        # a skipped member's mapped side was never searched, and its row still reports
        assert by_name["ramp"].to_dict()["right"] is None
        assert rep.to_dict()["entries"][-1] == {
            "name": "ramp", "input_outcome": "NotConvergentAtScale", "input_witness": None,
            "mapped_outcome": None, "status": "skipped"}

    def test_step_contradicts_on_crossing(self):
        rep = continuity_battery(STEP_AT_ONE, TABLE + CROSSING)
        assert rep.count("contradiction") == 1
        by_name = {e.name: e for e in rep.entries}
        entry = by_name["crossing"]
        assert entry.status == "contradiction"
        assert entry.left.outcome is Outcome.CONVERGENT
        assert entry.right.outcome is Outcome.NOT_CONVERGENT
        assert not entry.supports

    def test_counts_sum_to_family_size(self):
        rep = continuity_battery(Polynomial((0.0, 1.0, 0.125)), TABLE)
        total = (rep.count("support") + rep.count("contradiction")
                 + rep.count("inconclusive") + rep.count("skipped"))
        assert total == len(FAMILY)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            evidence_table([], SCHEME)


class TestEvidenceTable:
    """The table's verdicts are those the experiments and batteries searched
    for themselves before it, on the family and scheme of the corollary
    acceptance test."""

    SCHEME = make_scheme([2**j for j in range(17)])

    @pytest.fixture(scope="class")
    def table(self):
        return evidence_table(standard_family(2**16 + 1), self.SCHEME)

    def test_verdicts_equal_direct_searches(self, table):
        for e in table:
            direct = asc_theta_verdict(e.sample, self.SCHEME)
            assert e.theta.to_dict() == direct.to_dict(), e.name
            assert e.theta.curves() == direct.curves(), e.name
            assert e.asc.to_dict() == asc_verdict(e.sample).to_dict(), e.name
            assert e.mean.to_dict() == ac_theta_at_scale(e.sample, self.SCHEME).to_dict()

    def test_battery_equals_one_that_searches_its_inputs(self, table):
        f = Clamp(-1.0, 5.0)
        rep = continuity_battery(f, table)
        for e, entry in zip(table, rep.entries):
            vin = asc_theta_verdict(e.sample, self.SCHEME)
            vout = (asc_theta_verdict(map_sequence(f, e.sample), self.SCHEME)
                    if vin.outcome is Outcome.CONVERGENT else None)
            assert (entry.name, entry.left.outcome, entry.left.witness,
                    entry.right and entry.right.outcome) == (e.name, vin.outcome, vin.witness,
                                                             vout and vout.outcome)


class TestClosure:
    def test_affine_and_clamp(self):
        f, g = Affine(2.0, -1.0), Clamp(-1.0, 5.0)
        f_report, g_report = continuity_battery(f, TABLE), continuity_battery(g, TABLE)
        # a battery carries its descriptor and reports it by description
        assert (f_report.function, f_report.to_dict()["function"]) == (f, "affine(2, -1)")
        rep = closure_checks(f_report, g_report, TABLE)
        assert rep.passed
        assert rep.witness is None
        assert rep.instance == {"f": describe_fn(f), "g": describe_fn(g), "family_size": 12}

    def test_vacuous_when_a_base_function_contradicts(self):
        table = TABLE + CROSSING
        f, g = STEP_AT_ONE, Affine(1.0, 0.0)
        rep = closure_checks(continuity_battery(f, table), continuity_battery(g, table), table)
        assert rep.passed
        assert rep.witness["f_contradictions"] == 1


class TestCrossingSequence:
    def test_shape(self):
        x = crossing_sequence(200, level=1.0, hold=64)
        assert np.all(x.values[:64] == 1.0)
        assert np.all(x.values[64:] < 1.0)
        # the tail climbs toward the level
        assert np.all(np.diff(x.values[64:]) > 0)

    def test_deviations_bounded_by_gap(self):
        from arithstat.kernel import deviations

        x = crossing_sequence(500, level=2.0, hold=32, gap=0.004)
        for n in (1, 7, 32):
            # a few ulps of slack: the bound only has to stay below the
            # finest grid epsilon, which sits orders of magnitude higher
            assert deviations(x, n).max() <= 0.004 + 1e-12

    def test_input_is_decisively_convergent(self):
        x = crossing_sequence(8193, level=1.0, hold=64)
        from arithstat.density import asc_theta_verdict

        v = asc_theta_verdict(x, SCHEME)
        assert v.outcome is Outcome.CONVERGENT
        assert v.witness == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="hold"):
            crossing_sequence(10, hold=10)
        with pytest.raises(ValueError, match="gap"):
            crossing_sequence(100, hold=8, gap=0.0)


class TestUniformLimit:
    PROBE = tuple(np.linspace(-10.0, 10.0, 41))

    def test_shift_family_covers(self):
        x = generate(GcdPeriodic(6, {d: float(d) for d in divisors(6)}), 8193)
        rep = uniform_limit_check(
            [Affine(1.0, 1.0 / m) for m in range(1, 33)], Affine(1.0, 0.0),
            x, SCHEME, 6, 0.75, self.PROBE,
        )
        assert rep.passed
        # first member with 1/N < 0.25
        assert rep.instance["approximant_index"] == 5

    def test_clamped_family_covers_nonvacuously(self):
        x = generate(SparseSpike(height=10.0, power=2), 8193)
        rep = uniform_limit_check(
            [Composition(Clamp(0.0, 1.0), Affine(1.0, 1.0 / m)) for m in range(1, 33)],
            Clamp(0.0, 1.0), x, SCHEME, 1, 0.75, self.PROBE,
        )
        assert rep.passed

    def test_cover_uses_eps_over_three(self):
        # f_1 is off by 0.2 < eps/3 = 0.25 at both sample values, so no set of
        # approximation errors holds a block member; only the deviation of f_1,
        # |0.55 - 0.2| = 0.35, covers every m >= 2, and only because 0.35 >= eps/3
        x = SeqSample([0.0] + [0.75] * 15)
        rep = uniform_limit_check([Tabulated((0.0, 0.75), (0.2, 0.55))], Affine(1.0, 0.0),
                                  x, make_scheme([1, 2, 4, 8, 16]), 1, 0.75)
        assert (rep.instance["approximant_index"], rep.instance["sup_error"]) == (1, 0.2)
        assert rep.passed

    def test_refuses_when_no_member_is_close(self):
        x = generate(GcdPeriodic(6, {d: float(d) for d in divisors(6)}), 8193)
        with pytest.raises(HypothesisNotMet, match="eps/3"):
            uniform_limit_check(
                [Affine(1.0, 1.0)], Affine(1.0, 0.0), x, SCHEME, 6, 0.75, self.PROBE,
            )

    def test_validation(self):
        x = generate(GcdPeriodic(2, {1: 0.0, 2: 1.0}), 8193)
        with pytest.raises(ValueError, match="f_list"):
            uniform_limit_check([], Affine(1.0, 0.0), x, SCHEME, 2, 0.75)
        with pytest.raises(ValueError, match="epsilon"):
            uniform_limit_check([Affine(1.0, 0.0)], Affine(1.0, 0.0), x, SCHEME, 2, -1.0)

    def test_probe_includes_sample_values(self):
        # approximants differ from f only far outside the probe grid but right
        # at a sample value, so the sup must see it and reject member 1
        x = generate(GcdPeriodic(2, {1: 0.0, 2: 7.5}), 512)
        scheme = make_scheme([2**j for j in range(10)])
        bad = Tabulated((7.0, 7.5, 8.0), (7.0, 0.0, 8.0))  # dives at 7.5
        good = Affine(1.0, 0.1)
        rep = uniform_limit_check([bad, good], Affine(1.0, 0.0), x, scheme, 2, 0.75)
        assert rep.instance["approximant_index"] == 2
