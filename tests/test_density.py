"""Exceedance sets, density curves, block means, and the three-valued verdicts."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithstat.kernel import (
    GcdPeriodic,
    SeqSample,
    SparseSpike,
    divisors,
    generate,
)
from arithstat.density import (
    DEFAULT_GRID,
    ConvergenceVerdict,
    Outcome,
    VerdictPolicy,
    ac_sup_deviation,
    ac_theta_at_scale,
    ac_theta_block_mean,
    asc_theta_verdict,
    asc_verdict,
    block_density,
    block_exceedance,
    check_grid,
    density_curve,
    exceedance_prefix,
    ntheta_mean,
    ntheta_norm,
    prefix_checkpoints,
    prefix_density,
)
from arithstat.lacunary import make_scheme
from arithstat.theorems import ramp_sample

SPIKES_16 = generate(SparseSpike(height=1.0, support=(2, 4, 8, 16)), 16)
DYADIC_5 = make_scheme([1, 2, 4, 8, 16])


def gcdper(n0: int, length: int) -> SeqSample:
    return generate(GcdPeriodic(n0, {d: float(d) for d in divisors(n0)}), length)


def burst_sample(length: int = 4096) -> SeqSample:
    # one filled dyadic block: density rises then decays, decisively neither
    # converged nor hard evidence against
    vals = np.zeros(length)
    vals[length // 4: length // 2] = 1.0
    return SeqSample(vals, recipe="burst")


class TestExceedance:
    def test_spike_prefix_members(self):
        exc = exceedance_prefix(SPIKES_16, 1, 1.0, 16)
        assert exc.members == (2, 4, 8, 16)
        assert exc.count == 4 and exc.span == 16
        assert exc.density == 0.25

    def test_shorter_prefix(self):
        exc = exceedance_prefix(SPIKES_16, 1, 1.0, 10)
        assert exc.members == (2, 4, 8)
        assert prefix_density(SPIKES_16, 1, 1.0, 10) == pytest.approx(0.3)

    def test_membership_is_a_raw_float_comparison(self):
        x = SeqSample([0.0, 1.0])
        assert exceedance_prefix(x, 1, 1.0, 2).members == (2,)
        assert exceedance_prefix(x, 1, 1.0 + 1e-12, 2).members == ()

    def test_epsilon_monotone(self):
        rng = np.random.default_rng(2)
        x = SeqSample(rng.integers(-16, 17, size=200) / 8.0)
        for n in (1, 6, 12):
            prev = None
            for eps in (0.05, 0.5, 1.0, 2.0):
                cur = set(exceedance_prefix(x, n, eps, 200).members)
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_block_members(self):
        exc = block_exceedance(SPIKES_16, DYADIC_5, 1, 1.0, 3)
        assert (exc.lo, exc.hi) == (4, 8)
        assert exc.members == (8,)
        assert exc.density == 0.25

    def test_block_beyond_sample_raises(self):
        with pytest.raises(ValueError, match="beyond sample length"):
            block_exceedance(generate(SparseSpike(), 10), DYADIC_5, 1, 1.0, 4)

    def test_prefix_bounds_and_eps_validation(self):
        with pytest.raises(ValueError, match="prefix length"):
            exceedance_prefix(SPIKES_16, 1, 1.0, 17)
        with pytest.raises(ValueError, match="epsilon"):
            exceedance_prefix(SPIKES_16, 1, 0.0, 16)
        with pytest.raises(ValueError, match="epsilon"):
            exceedance_prefix(SPIKES_16, 1, math.inf, 16)


class TestCheckpoints:
    def test_basic_shape(self):
        ts = prefix_checkpoints(100)
        assert ts[0] == 1 and ts[-1] == 100
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_short_lengths(self):
        assert prefix_checkpoints(1) == (1,)
        assert prefix_checkpoints(2) == (1, 2)

    def test_growth_controls_count(self):
        assert len(prefix_checkpoints(10**6, growth=2.0)) < len(
            prefix_checkpoints(10**6, growth=1.1)
        )
        assert len(prefix_checkpoints(2**20)) < 80

    def test_validation(self):
        with pytest.raises(ValueError, match="growth"):
            prefix_checkpoints(100, growth=1.0)
        with pytest.raises(ValueError, match="length"):
            prefix_checkpoints(0)


class TestDensityCurve:
    def test_ramp_prefix_curve_formula(self):
        """For x_m = m at n = 1 every m >= 2 deviates, so density is (t-1)/t."""
        curve = density_curve(ramp_sample(500), 1, 0.5, "prefix")
        for t, val in curve.points:
            assert val == pytest.approx((t - 1) / t)

    def test_spike_block_curve_halves(self):
        """Powers of 2 hit each dyadic block once: density 2^(1-r)."""
        x = generate(SparseSpike(height=1.0, power=2), 1024)
        scheme = make_scheme([2**j for j in range(11)])
        curve = density_curve(x, 1, 0.5, "block", scheme)
        assert curve.points == tuple((r, 2.0 ** (1 - r)) for r in range(1, 11))

    def test_block_axis_needs_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            density_curve(SPIKES_16, 1, 0.5, "block")
        with pytest.raises(ValueError, match="axis"):
            density_curve(SPIKES_16, 1, 0.5, "diagonal")

    def test_matches_pointwise_densities(self):
        rng = np.random.default_rng(4)
        x = SeqSample(rng.integers(-16, 17, size=300) / 8.0)
        curve = density_curve(x, 6, 0.5, "prefix")
        for t, val in curve.points:
            assert val == prefix_density(x, 6, 0.5, t)
        bcurve = density_curve(x, 6, 0.5, "block", make_scheme([1, 4, 32, 300]))
        for r, val in bcurve.points:
            assert val == block_density(x, make_scheme([1, 4, 32, 300]), 6, 0.5, r)


class TestMeansAndNorms:
    def test_ac_sup_deviation(self):
        assert ac_sup_deviation(ramp_sample(100), 1) == 99.0
        assert ac_sup_deviation(gcdper(6, 100), 6) == 0.0

    def test_block_mean_matches_fsum_oracle(self):
        x = ramp_sample(16)
        # block (2, 4] of x_m = m at n = 1 has deviations 2 and 3
        assert ac_theta_block_mean(x, DYADIC_5, 1, 2) == 2.5
        rng = np.random.default_rng(8)
        y = SeqSample(rng.integers(-16, 17, size=16) / 8.0)
        lo, hi = DYADIC_5.block(4)
        oracle = math.fsum(
            abs(y.value(m) - y.value(math.gcd(m, 6))) for m in range(lo + 1, hi + 1)
        ) / (hi - lo)
        assert ac_theta_block_mean(y, DYADIC_5, 6, 4) == oracle

    def test_ntheta_mean_and_norm(self):
        alternating = SeqSample([1.0 if m % 2 else -1.0 for m in range(1, 17)])
        assert ntheta_mean(alternating, DYADIC_5, 0.0, 4) == 1.0
        assert ntheta_norm(alternating, DYADIC_5) == 1.0
        assert ntheta_norm(ramp_sample(16), DYADIC_5) == pytest.approx(
            math.fsum(range(9, 17)) / 8
        )

    def test_norm_needs_a_block(self):
        with pytest.raises(ValueError, match="no block"):
            ntheta_norm(SeqSample([1.0]), DYADIC_5)


class TestGrid:
    def test_default_grid(self):
        assert DEFAULT_GRID == (1.0, 0.5, 0.1, 0.05, 0.01)
        assert check_grid(DEFAULT_GRID) == DEFAULT_GRID

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="empty"):
            check_grid(())
        with pytest.raises(ValueError, match="decreasing"):
            check_grid((0.5, 1.0))
        with pytest.raises(ValueError, match="positive"):
            check_grid((1.0, -0.5))


class TestPolicy:
    def test_defaults(self):
        p = VerdictPolicy()
        assert (p.tail_window, p.tol, p.tol_hi, p.n_max, p.growth) == (8, 0.02, 0.2, 64, 1.3)

    def test_validation(self):
        with pytest.raises(ValueError, match="tol"):
            VerdictPolicy(tol=0.3, tol_hi=0.2)
        with pytest.raises(ValueError, match="tail_window"):
            VerdictPolicy(tail_window=0)
        with pytest.raises(ValueError, match="n_max"):
            VerdictPolicy(n_max=0)
        with pytest.raises(ValueError, match="growth"):
            VerdictPolicy(growth=0.9)


class TestAscVerdict:
    def test_constant_converges_at_one(self):
        v = asc_verdict(generate(GcdPeriodic(1, {1: 2.0}), 300))
        assert v.outcome is Outcome.CONVERGENT
        assert v.witness == 1
        assert all(t == 0.0 for _, t in v.tail_densities)

    def test_gcd_periodic_finds_its_modulus(self):
        v = asc_verdict(gcdper(6, 2000))
        assert v.outcome is Outcome.CONVERGENT
        assert v.witness == 6
        assert all(t == 0.0 for _, t in v.tail_densities)

    def test_smaller_moduli_fail_decisively(self):
        """Divisor-class mismatches keep densities far above tol for n < 6."""
        x = gcdper(6, 2000)
        policy = VerdictPolicy(n_max=5)
        v = asc_verdict(x, policy=policy)
        assert v.outcome is not Outcome.CONVERGENT

    def test_ramp_is_not_convergent(self):
        v = asc_verdict(ramp_sample(4096))
        assert v.outcome is Outcome.NOT_CONVERGENT
        assert v.witness is None

    def test_burst_is_inconclusive(self):
        v = asc_verdict(burst_sample())
        assert v.outcome is Outcome.INCONCLUSIVE
        assert v.witness is None

    def test_short_sample_raises(self):
        with pytest.raises(ValueError, match="checkpoints"):
            asc_verdict(SeqSample([1.0, 2.0, 3.0]))

    def test_tail_of_lookup(self):
        v = asc_verdict(gcdper(6, 2000))
        assert v.tail_of(1.0) == 0.0
        with pytest.raises(KeyError):
            v.tail_of(0.3)

    def test_witness_iff_convergent_invariant(self):
        with pytest.raises(ValueError, match="witness"):
            ConvergenceVerdict(
                Outcome.INCONCLUSIVE, 3, 3, "prefix",
                ((1.0, 0.5),), (1.0,), VerdictPolicy(),
            )


class TestAscThetaVerdict:
    SCHEME = make_scheme([2**j for j in range(13)])

    def test_gcd_periodic_blockwise(self):
        v = asc_theta_verdict(gcdper(12, 4096), self.SCHEME)
        assert v.outcome is Outcome.CONVERGENT
        assert v.witness == 12
        assert v.axis == "block"
        assert all(t == 0.0 for _, t in v.tail_densities)

    def test_burst_blockwise_inconclusive(self):
        v = asc_theta_verdict(burst_sample(), self.SCHEME)
        assert v.outcome is Outcome.INCONCLUSIVE

    def test_needs_enough_blocks(self):
        with pytest.raises(ValueError, match="blocks"):
            asc_theta_verdict(gcdper(6, 64), self.SCHEME)

    def test_to_dict_embeds_grid_and_policy(self):
        v = asc_theta_verdict(gcdper(6, 4096), self.SCHEME)
        d = v.to_dict()
        assert d["outcome"] == "ConvergentAtScale"
        assert d["policy"]["grid"] == [1.0, 0.5, 0.1, 0.05, 0.01]
        assert d["policy"]["n_max"] == 64


class TestMeanVerdict:
    SCHEME = make_scheme([2**j for j in range(13)])

    def test_gcd_periodic_zero_tail(self):
        v = ac_theta_at_scale(gcdper(6, 4096), self.SCHEME)
        assert v.outcome is Outcome.CONVERGENT
        assert v.witness == 6
        assert v.tail_mean == 0.0

    def test_ramp_is_not_convergent(self):
        v = ac_theta_at_scale(ramp_sample(4096), self.SCHEME)
        assert v.outcome is Outcome.NOT_CONVERGENT
        assert v.witness is None
        assert v.tail_mean > 1.0

    def test_thresholds_are_read_in_deviation_units(self):
        # deviations of 0.01 are tiny densities-wise but the mean rule sees
        # them directly: tol = 0.02 still accepts them
        x = SeqSample(np.where(np.arange(1, 4097) % 2 == 0, 0.01, 0.0))
        v = ac_theta_at_scale(x, self.SCHEME)
        assert v.outcome is Outcome.CONVERGENT
        assert v.tail_mean <= 0.02

    def test_large_early_value_does_not_cancel_later_blocks(self):
        # A running sum carrying 1e17 from x_3 swallows the later 0.5 block
        # means at n = 1; each block must be summed on its own.
        vals = np.where(np.arange(1, 2**16 + 1) % 2 == 0, 1.0, 0.0)
        vals[2] = 1e17
        x = SeqSample(vals)
        scheme = make_scheme([2**j for j in range(17)])
        policy = VerdictPolicy(n_max=4)
        v = ac_theta_at_scale(x, scheme, policy)
        assert v.outcome is Outcome.CONVERGENT
        assert v.witness == 2
        tail = [ac_theta_block_mean(x, scheme, 2, r) for r in range(9, 17)]
        assert v.tail_mean == float(np.mean(tail))
        assert ac_theta_block_mean(x, scheme, 1, 16) == 0.5


# ---------------------------------------------------------------------------
# Brute-force recount: every density, block mean and witness search below is
# recomputed from x_m and x_gcd(m, n) with plain Python loops.
# ---------------------------------------------------------------------------

RECOUNT_POLICY = VerdictPolicy(tail_window=4, n_max=8)


def brute_deviations(vals: list[float], n: int) -> list[float]:
    return [abs(vals[m - 1] - vals[math.gcd(m, n) - 1]) for m in range(1, len(vals) + 1)]


def brute_intervals(length: int, axis: str, points: list[int]) -> list[tuple[int, int]]:
    if axis == "prefix":
        return [(0, t) for t in prefix_checkpoints(length, RECOUNT_POLICY.growth)]
    return [(lo, hi) for lo, hi in zip(points, points[1:]) if hi <= length]


def brute_density_curve(vals, n, eps, intervals) -> list[float]:
    dev = brute_deviations(vals, n)
    return [sum(1 for m in range(lo + 1, hi + 1) if dev[m - 1] >= eps) / (hi - lo)
            for lo, hi in intervals]


def brute_mean_curve(vals, n, intervals) -> list[float]:
    dev = brute_deviations(vals, n)
    return [math.fsum(dev[lo:hi]) / (hi - lo) for lo, hi in intervals]


def brute_search(curves_of, policy=RECOUNT_POLICY):
    """(outcome, witness, evaluated_n, tails) by the documented decision rule."""
    best, every_n_hard = None, True
    for n in range(1, policy.n_max + 1):
        segs = [c[-policy.tail_window:] for c in curves_of(n)]
        tails = [sum(seg) / len(seg) for seg in segs]
        if max(tails) <= policy.tol:
            return "ConvergentAtScale", n, n, tails
        every_n_hard = every_n_hard and any(
            t >= policy.tol_hi and all(b >= a for a, b in zip(seg, seg[1:]))
            for t, seg in zip(tails, segs))
        if best is None or max(tails) < best[0]:
            best = (max(tails), n, tails)
    outcome = "NotConvergentAtScale" if every_n_hard else "Inconclusive"
    return outcome, None, best[1], best[2]


@st.composite
def recount_cases(draw):
    """A dyadic gcd-periodic sample (modulus 1..8), sometimes plus a ramp and
    perturbed at a few indices, and a scheme with at least four blocks inside
    the sample."""
    length = draw(st.integers(64, 400))
    n0 = draw(st.integers(1, 8))
    table = {d: draw(st.integers(-16, 16)) / 8 for d in divisors(n0)}
    slope = draw(st.sampled_from((0.0, 0.0, 0.125, 1.0)))
    vals = [table[math.gcd(m, n0)] + slope * m for m in range(1, length + 1)]
    for m in draw(st.lists(st.integers(1, length), max_size=40)):
        vals[m - 1] = draw(st.integers(-16, 16)) / 8
    points = sorted(draw(st.sets(st.integers(1, length), min_size=5, max_size=30)))
    return vals, points


class TestBruteForceRecount:
    @given(case=recount_cases(), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_verdicts_and_curves_match_recount(self, case, n):
        vals, points = case
        x, scheme = SeqSample(vals), make_scheme(points)
        length = len(vals)
        for axis, verdict in (
            ("prefix", asc_verdict(x, DEFAULT_GRID, RECOUNT_POLICY)),
            ("block", asc_theta_verdict(x, scheme, DEFAULT_GRID, RECOUNT_POLICY)),
        ):
            intervals = brute_intervals(length, axis, points)
            outcome, witness, evaluated_n, tails = brute_search(
                lambda k: [brute_density_curve(vals, k, e, intervals) for e in DEFAULT_GRID])
            assert (verdict.outcome.value, verdict.witness, verdict.evaluated_n) == (
                outcome, witness, evaluated_n)
            assert [e for e, _ in verdict.tail_densities] == list(DEFAULT_GRID)
            for (_, got), want in zip(verdict.tail_densities, tails):
                assert abs(got - want) <= 1e-12
            for e in DEFAULT_GRID:
                curve = density_curve(x, n, e, axis, scheme, RECOUNT_POLICY.growth)
                index = [hi for _, hi in intervals] if axis == "prefix" else list(
                    range(1, len(intervals) + 1))
                assert curve.points == tuple(
                    zip(index, brute_density_curve(vals, n, e, intervals)))

        mean = ac_theta_at_scale(x, scheme, RECOUNT_POLICY)
        blocks = brute_intervals(length, "block", points)
        outcome, witness, evaluated_n, tails = brute_search(
            lambda k: [brute_mean_curve(vals, k, blocks)])
        assert (mean.outcome.value, mean.witness, mean.evaluated_n) == (
            outcome, witness, evaluated_n)
        assert abs(mean.tail_mean - tails[0]) <= 1e-12
