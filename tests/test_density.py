"""Exceedance flags, density curves, block means, and the three-valued verdicts."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithstat.kernel import (
    MAX_MODULUS,
    GcdPeriodic,
    PeriodicSample,
    Scaled,
    SeqSample,
    SparseSpike,
    Summed,
    _flags,
    divisors,
    generate,
)
from arithstat import density
from arithstat.cli import build_parser
from arithstat.density import (
    DEFAULT_GRID,
    DEFAULT_POLICY,
    Outcome,
    VerdictPolicy,
    ac_sup_deviation,
    ac_theta_at_scale,
    ac_theta_block_means,
    asc_theta_verdict,
    asc_verdict,
    asc_verdicts,
    check_grid,
    density_curve,
    ntheta_norm,
    prefix_checkpoints,
    _interval_fsums,
    _intervals,
)
from arithstat.lacunary import make_scheme, refinement_map
from arithstat.theorems import (
    _refinement_counts,
    check_lac1_bound,
    check_markov_step,
    check_refinement_aggregation,
    ramp_sample,
    random_generator_spec,
)

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


def members(flags: np.ndarray, lo: int = 0, hi: int | None = None) -> list[int]:
    """The flagged indices lo < m <= hi."""
    return [lo + 1 + int(i) for i in np.flatnonzero(flags[lo:hi])]


class TestExceedance:
    def test_spike_prefix_members(self):
        assert members(_flags(SPIKES_16, 1, 1.0)) == [2, 4, 8, 16]
        assert density_curve(SPIKES_16, 1, 1.0, "prefix").points[-1] == (16, 0.25)

    def test_shorter_prefix(self):
        assert members(_flags(SPIKES_16, 1, 1.0), 0, 10) == [2, 4, 8]
        assert dict(density_curve(SPIKES_16, 1, 1.0, "prefix").points)[10] == 0.3

    def test_membership_is_a_raw_float_comparison(self):
        x = SeqSample([0.0, 1.0])
        assert members(_flags(x, 1, 1.0)) == [2]
        assert members(_flags(x, 1, 1.0 + 1e-12)) == []
        assert density_curve(x, 1, 1.0, "prefix").points == ((1, 0.0), (2, 0.5))
        assert density_curve(x, 1, 1.0 + 1e-12, "prefix").points == ((1, 0.0), (2, 0.0))

    def test_epsilon_monotone(self):
        rng = np.random.default_rng(2)
        x = SeqSample(rng.integers(-16, 17, size=200) / 8.0)
        for n in (1, 6, 12):
            prev = None
            for eps in (0.05, 0.5, 1.0, 2.0):
                cur = _flags(x, n, eps)
                if prev is not None:
                    assert not (cur & ~prev).any()
                prev = cur

    def test_block_members(self):
        # block 3 of the dyadic scheme is (4, 8]
        assert members(_flags(SPIKES_16, 1, 1.0), *DYADIC_5.block(3)) == [8]
        assert density_curve(SPIKES_16, 1, 1.0, "block", DYADIC_5).points[2] == (3, 0.25)

    def test_block_beyond_sample_raises(self):
        # block 4 is (8, 16]: a 10-value sample holds only blocks 1..3
        x = generate(SparseSpike(), 10)
        assert [r for r, _ in density_curve(x, 1, 1.0, "block", DYADIC_5).points] == [1, 2, 3]
        with pytest.raises(ValueError, match="no block of the scheme fits"):
            density_curve(SeqSample([1.0]), 1, 1.0, "block", DYADIC_5)

    def test_prefix_bounds_and_eps_validation(self):
        assert density_curve(SPIKES_16, 1, 1.0, "prefix").points[-1][0] == 16
        with pytest.raises(ValueError, match="epsilon"):
            density_curve(SPIKES_16, 1, 0.0, "prefix")
        with pytest.raises(ValueError, match="epsilon"):
            density_curve(SPIKES_16, 1, math.inf, "prefix")


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
        with pytest.raises(ValueError, match="finite"):  # inf would end the walk at (length,)
            prefix_checkpoints(100, growth=math.inf)

    def test_step_count_is_bounded(self):
        # 1.0002 needs about 87,000 steps to reach 2^25, 1.0001 about 173,000
        assert prefix_checkpoints(2**25, growth=1.0002)[-1] == 2**25
        with pytest.raises(ValueError, match="steps"):
            prefix_checkpoints(2**25, growth=1.0001)
        with pytest.raises(ValueError, match="steps"):
            prefix_checkpoints(1024, growth=1.000000001)
        assert prefix_checkpoints(1, growth=1.000000001) == (1,)


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
        flags = _flags(x, 6, 0.5)
        curve = density_curve(x, 6, 0.5, "prefix")
        for t, val in curve.points:
            assert val == np.count_nonzero(flags[:t]) / t
        scheme = make_scheme([1, 4, 32, 300])
        bcurve = density_curve(x, 6, 0.5, "block", scheme)
        for r, val in bcurve.points:
            lo, hi = scheme.block(r)
            assert val == np.count_nonzero(flags[lo:hi]) / (hi - lo)


class TestMeansAndNorms:
    def test_ac_sup_deviation(self):
        assert ac_sup_deviation(ramp_sample(100), 1) == 99.0
        assert ac_sup_deviation(gcdper(6, 100), 6) == 0.0

    def test_block_mean_matches_fsum_oracle(self):
        x = ramp_sample(16)
        # block (2, 4] of x_m = m at n = 1 has deviations 2 and 3
        assert ac_theta_block_means(x, DYADIC_5, 1)[1] == 2.5
        rng = np.random.default_rng(8)
        y = SeqSample(rng.integers(-16, 17, size=16) / 8.0)
        lo, hi = DYADIC_5.block(4)
        oracle = math.fsum(
            abs(y.value(m) - y.value(math.gcd(m, 6))) for m in range(lo + 1, hi + 1)
        ) / (hi - lo)
        assert ac_theta_block_means(y, DYADIC_5, 6)[3] == oracle

    def test_ntheta_norm(self):
        alternating = SeqSample([1.0 if m % 2 else -1.0 for m in range(1, 17)])
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
        assert p.grid == DEFAULT_GRID
        assert p == DEFAULT_POLICY
        grid = VerdictPolicy(grid=[2, 0.5]).grid
        assert grid == (2.0, 0.5) and all(type(e) is float for e in grid)
        # the CLI flags take their defaults from the one policy
        for argv in (["analyze", "--input", "in.json"], ["verify"]):
            a = build_parser().parse_args([*argv, "--out", "out"])
            assert VerdictPolicy(a.tail_window, a.tol, a.tol_hi, a.n_max, a.growth,
                                 [float(e) for e in a.eps_grid.split(",")]) == DEFAULT_POLICY

    def test_validation(self):
        with pytest.raises(ValueError, match="tol"):
            VerdictPolicy(tol=0.3, tol_hi=0.2)
        with pytest.raises(ValueError, match="tail_window"):
            VerdictPolicy(tail_window=0)
        with pytest.raises(ValueError, match="n_max"):
            VerdictPolicy(n_max=0)
        with pytest.raises(ValueError, match="growth"):
            VerdictPolicy(growth=0.9)
        # a non-finite knob would be written as Infinity, which JSON has no word for
        for knobs in ({"tol_hi": math.inf}, {"growth": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                VerdictPolicy(**knobs)
        with pytest.raises(ValueError, match="must not be empty"):
            VerdictPolicy(grid=())
        with pytest.raises(ValueError, match="strictly decreasing"):
            VerdictPolicy(grid=(0.5, 1.0))
        with pytest.raises(ValueError, match="finite and positive"):
            VerdictPolicy(grid=(math.nan,))


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

    def test_tail_equal_to_tol_converges(self):
        # 4 of 16 values deviate from x_1: the one-point tail is exactly 0.25
        policy = VerdictPolicy(tail_window=1, tol=0.25, tol_hi=0.5, n_max=1, grid=(1.0,))
        v = asc_verdict(SeqSample([0.0] * 12 + [1.0] * 4), policy)
        assert v.tail_densities == ((1.0, 0.25),)
        assert (v.outcome, v.witness) == (Outcome.CONVERGENT, 1)


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
        assert list(d["policy"])[-1] == "grid"
        assert d["policy"]["n_max"] == 64
        # the block-mean rule reads no threshold grid, and its report names none
        mean = ac_theta_at_scale(gcdper(6, 4096), self.SCHEME).to_dict()
        assert "grid" not in mean["policy"]


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
        tail = ac_theta_block_means(x, scheme, 2)[8:16]
        assert v.tail_mean == float(np.mean(tail))
        assert ac_theta_block_means(x, scheme, 1)[15] == 0.5


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
    the sample. Some draws put a huge value at an index m <= 8, which every
    later m with gcd(m, n) = that index deviates from, so a block sum that
    carried it from an earlier block would lose the small deviations."""
    length = draw(st.integers(64, 400))
    n0 = draw(st.integers(1, 8))
    table = {d: draw(st.integers(-16, 16)) / 8 for d in divisors(n0)}
    slope = draw(st.sampled_from((0.0, 0.0, 0.125, 1.0)))
    vals = [table[math.gcd(m, n0)] + slope * m for m in range(1, length + 1)]
    for m in draw(st.lists(st.integers(1, length), max_size=40)):
        vals[m - 1] = draw(st.integers(-16, 16)) / 8
    for m in draw(st.lists(st.integers(1, 8), max_size=2)):
        vals[m - 1] = draw(st.sampled_from((1e17, -1e17, 3e16)))
    points = sorted(draw(st.sets(st.integers(1, length), min_size=5, max_size=30)))
    return vals, points


class TestBruteForceRecount:
    @given(case=recount_cases(), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_verdicts_and_curves_match_recount(self, case, n):
        vals, points = case
        x, scheme = SeqSample(vals), make_scheme(points)
        length = len(vals)
        shared = asc_verdicts(x, scheme, RECOUNT_POLICY)
        for axis, verdict in (
            ("prefix", asc_verdict(x, RECOUNT_POLICY)),
            ("block", asc_theta_verdict(x, scheme, RECOUNT_POLICY)),
            ("prefix", shared[0]),
            ("block", shared[1]),
        ):
            intervals = brute_intervals(length, axis, points)
            index = [hi for _, hi in intervals] if axis == "prefix" else list(
                range(1, len(intervals) + 1))
            outcome, witness, evaluated_n, tails = brute_search(
                lambda k: [brute_density_curve(vals, k, e, intervals) for e in DEFAULT_GRID])
            assert (verdict.axis, verdict.outcome.value, verdict.witness,
                    verdict.evaluated_n) == (axis, outcome, witness, evaluated_n)
            assert [e for e, _ in verdict.tail_densities] == list(DEFAULT_GRID)
            for (_, got), want in zip(verdict.tail_densities, tails):
                assert abs(got - want) <= 1e-12
            assert [(c.axis, c.epsilon, c.n) for c in verdict.curves()] == [
                (axis, e, evaluated_n) for e in DEFAULT_GRID]
            for e, curve in zip(DEFAULT_GRID, verdict.curves()):
                assert curve.points == tuple(
                    zip(index, brute_density_curve(vals, evaluated_n, e, intervals)))
            for e in DEFAULT_GRID:
                curve = density_curve(x, n, e, axis, scheme, RECOUNT_POLICY.growth)
                assert curve.points == tuple(
                    zip(index, brute_density_curve(vals, n, e, intervals)))

        mean = ac_theta_at_scale(x, scheme, RECOUNT_POLICY)
        blocks = brute_intervals(length, "block", points)
        outcome, witness, evaluated_n, tails = brute_search(
            lambda k: [brute_mean_curve(vals, k, blocks)])
        assert (mean.outcome.value, mean.witness, mean.evaluated_n) == (
            outcome, witness, evaluated_n)
        assert abs(mean.tail_mean - tails[0]) <= 1e-12
        assert ac_theta_block_means(x, scheme, n) == brute_mean_curve(vals, n, blocks)


class TestFinestThreshold:
    """The flag sets are nested in epsilon, so the search reads the finest
    threshold alone, and the rest of the grid only where a decision needs it."""

    @given(case=recount_cases(), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_finest_density_and_tail_are_the_largest(self, case, n):
        vals, points = case
        x, scheme = SeqSample(vals), make_scheme(points)
        window = RECOUNT_POLICY.tail_window
        for verdict in asc_verdicts(x, scheme, RECOUNT_POLICY):
            at_n = [density_curve(x, n, e, verdict.axis, scheme, RECOUNT_POLICY.growth).values
                    for e in DEFAULT_GRID]
            for rows, tails in (
                ([c.values for c in verdict.curves()], [t for _, t in verdict.tail_densities]),
                (at_n, [float(np.mean(row[-window:])) for row in at_n]),
            ):
                for row in rows[:-1]:
                    assert all(f >= d for f, d in zip(rows[-1], row))
                assert tails[-1] == max(tails)

    def test_coarser_curve_supplies_the_hard_evidence(self):
        # x_1..x_8 = 0 anchors every m > 8 at 0 for each n <= 8, so every
        # witness has the same curves: the finest (0.01) block densities
        # 1.0, 0.4, 0.5, 0.6 have a tail >= tol_hi that falls, and those of
        # every coarser threshold, 0.3, 0.4, 0.5, 0.6, rise.
        vals = [0.0] * 8
        for big in (3, 4, 5, 6):
            small = 7 if big == 3 else 0
            vals += [2.0] * big + [0.02] * small + [0.0] * (10 - big - small)
        points = [8, 18, 28, 38, 48]
        x, scheme = SeqSample(vals), make_scheme(points)
        blocks = brute_intervals(len(vals), "block", points)
        assert brute_density_curve(vals, 1, 0.01, blocks) == [1.0, 0.4, 0.5, 0.6]
        assert brute_density_curve(vals, 1, 1.0, blocks) == [0.3, 0.4, 0.5, 0.6]
        outcome, witness, evaluated_n, tails = brute_search(
            lambda k: [brute_density_curve(vals, k, e, blocks) for e in DEFAULT_GRID])
        assert (outcome, witness, evaluated_n) == ("NotConvergentAtScale", None, 1)
        for verdict in (asc_theta_verdict(x, scheme, RECOUNT_POLICY),
                        asc_verdicts(x, scheme, RECOUNT_POLICY)[1]):
            assert verdict.outcome is Outcome.NOT_CONVERGENT
            assert (verdict.witness, verdict.evaluated_n) == (None, 1)
            assert [t for _, t in verdict.tail_densities] == pytest.approx(tails, abs=1e-12)

    def test_search_counts_the_full_grid_only_where_read(self, monkeypatch):
        calls = {"deviations": 0, "_interval_sums": 0, "unique": 0}
        for module, name in ((density, "deviations"), (density, "_interval_sums"),
                             (np, "unique")):
            def counted(*args, fn=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        noise = np.random.default_rng(1).integers(-64, 65, size=4096) / 8.0
        verdicts = asc_verdicts(SeqSample(noise), make_scheme(2**j for j in range(13)))
        assert [v.witness for v in verdicts] == [None, None]
        n_max, grid = DEFAULT_POLICY.n_max, DEFAULT_POLICY.grid
        assert calls["deviations"] <= n_max + 3
        assert calls["_interval_sums"] <= n_max + 3 * len(grid)
        # the intervals of both axes are cut once for every count of the call
        assert calls["unique"] == 1


class TestBlockCheckRecount:
    """The block checks and both counts of the refinement aggregation, block by
    block, against counts of m with |x_m - x_gcd(m, n)| >= eps. Some schemes get a
    last block that ends past the sample, or only a block that does."""

    @given(case=recount_cases(), n=st.integers(1, 8),
           eps=st.sampled_from((0.05, 0.5, 1.0)), past=st.sampled_from(("", "last", "all")),
           extra=st.sets(st.integers(1, 500), max_size=30))
    # x_1 = 1e17 ahead of small values: a running sum differenced at the
    # block bounds would cancel them, each block's own fsum keeps them
    @example(case=([1e17] + [0.125] * 63, [1, 2, 4, 8, 16, 32, 64]), n=2, eps=0.5,
             past="", extra=set())
    @settings(max_examples=60, deadline=None)
    def test_every_block_matches_recount(self, case, n, eps, past, extra):
        vals, points = case
        length = len(vals)
        if past == "last":
            points = points + [length + 1 + max(extra, default=0)]
        elif past == "all":
            points = [points[0], length + 1]
        x, scheme = SeqSample(vals), make_scheme(points)
        dev = brute_deviations(vals, n)
        blocks = brute_intervals(length, "block", points)

        def count(lo, hi):
            return sum(1 for m in range(lo + 1, hi + 1) if dev[m - 1] >= eps)

        iv = _intervals(length, "block", scheme, need=0)
        for values in (vals, dev):
            assert _interval_fsums(np.array(values), iv).tolist() == [
                math.fsum(values[lo:hi]) for lo, hi in blocks]

        markov = check_markov_step(x, scheme, n, eps)
        lac1 = check_lac1_bound(x, scheme, n, eps)
        assert len(markov) == len(lac1) == len(blocks) == scheme.blocks_within(length)
        for r, ((lo, hi), markov_rep, lac1_rep) in enumerate(zip(blocks, markov, lac1), 1):
            c, total, pref = count(lo, hi), math.fsum(dev[lo:hi]), count(0, hi)
            ok = eps * c <= total
            assert (markov_rep.name, markov_rep.instance["r"], markov_rep.passed,
                    markov_rep.witness) == ("markov_step", r, ok, None if ok else
                                            {"lhs": eps * c, "rhs": total})
            ok = pref >= c
            assert (lac1_rep.name, lac1_rep.instance["r"], lac1_rep.passed,
                    lac1_rep.witness) == ("lac1_bound", r, ok, None if ok else {
                        "prefix_density": pref / hi,
                        "scaled_block_density": ((hi - lo) / hi) * (c / (hi - lo))})

        fine = make_scheme(sorted(set(points) | {p for p in extra
                                                 if points[0] < p < points[-1]}))
        if not blocks:
            with pytest.raises(ValueError, match="no block of the scheme fits"):
                check_refinement_aggregation(x, scheme, fine, n, eps)
            return
        pairs, direct, fine_counts = _refinement_counts(x, scheme, refinement_map(scheme, fine),
                                                        n, eps)
        assert direct == [count(lo, hi) for lo, hi in blocks]
        assert fine_counts == [count(p.lo, p.hi) for p in pairs]
        assert [(rep.instance["r"], rep.passed)
                for rep in check_refinement_aggregation(x, scheme, fine, n, eps)] == [
            (r, True) for r in range(1, len(blocks) + 1)]


class TestScalingMetamorphic:
    """Scaling x by c = +-2**k and the grid by |c| scales every deviation and
    threshold exactly, so no flag, density or search step may change."""

    @given(case=recount_cases(), k=st.integers(-3, 3), sign=st.sampled_from((1, -1)))
    @settings(max_examples=40, deadline=None)
    def test_verdicts_keep_outcome_witness_and_tails(self, case, k, sign):
        vals, points = case
        x, scheme = SeqSample(vals), make_scheme(points)
        c = sign * 2.0**k
        cx = c * x
        policy = replace(RECOUNT_POLICY, grid=tuple(abs(c) * e for e in DEFAULT_GRID))

        def key(v):
            return (v.axis, v.outcome, v.witness, v.evaluated_n,
                    [t for _, t in v.tail_densities])

        pairs = [
            (asc_verdict(x, RECOUNT_POLICY), asc_verdict(cx, policy)),
            (asc_theta_verdict(x, scheme, RECOUNT_POLICY), asc_theta_verdict(cx, scheme, policy)),
            *zip(asc_verdicts(x, scheme, RECOUNT_POLICY), asc_verdicts(cx, scheme, policy)),
        ]
        for plain, scaled in pairs:
            assert key(scaled) == key(plain)


class TestWitnessMinimality:
    """The witness is the smallest passing n: searching only up to the witness
    finds it again with the same tails, and stopping one short finds none."""

    @given(case=recount_cases())
    @settings(max_examples=40, deadline=None)
    def test_witness_is_the_smallest_passing_n(self, case):
        vals, points = case
        x, scheme = SeqSample(vals), make_scheme(points)
        verdicts = {
            "asc": lambda p: asc_verdict(x, p),
            "asc_theta": lambda p: asc_theta_verdict(x, scheme, p),
            "shared_asc": lambda p: asc_verdicts(x, scheme, p)[0],
            "shared_theta": lambda p: asc_verdicts(x, scheme, p)[1],
            "ac_theta": lambda p: ac_theta_at_scale(x, scheme, p),
        }

        def key(v):  # outcome, witness, evaluated_n and tails: all but the policy
            return {k: val for k, val in v.to_dict().items() if k != "policy"}

        for name, verdict_at in verdicts.items():
            v = verdict_at(RECOUNT_POLICY)
            if v.outcome is not Outcome.CONVERGENT:
                continue
            w = v.witness
            assert key(verdict_at(replace(RECOUNT_POLICY, n_max=w))) == key(v), name
            if w > 1:
                short = verdict_at(replace(RECOUNT_POLICY, n_max=w - 1))
                assert short.outcome is not Outcome.CONVERGENT, name
                assert short.evaluated_n <= w - 1, name


GCDPER_12 = GcdPeriodic(12, {1: 0.5, 2: 1.0, 3: 1.5, 4: 2.0, 6: 3.0, 12: 6.0})
GCDPER_6 = GcdPeriodic(6, {1: 0.5, 2: 1.0, 3: 1.5, 6: 3.0})


class TestPeriodicSample:
    """A spec's period-backed sample answers every count, sum and maximum that
    `density` reads exactly as the materialized sample does through SeqSample's
    passes: at every witness up to 24 and every threshold of the default grid,
    over the prefix checkpoints and over drawn intervals."""

    @given(spec=st.integers(0, 2**32 - 1).map(
               lambda seed: random_generator_spec(np.random.default_rng(seed))),
           length=st.integers(1, 3000),
           bounds=st.lists(st.integers(0, 3000), max_size=8))
    # a rate leaf, whose support is a seeded draw
    @example(spec=Summed(GCDPER_6, SparseSpike(height=4.0, rate=2.0, seed=11)), length=3000,
             bounds=[100, 2048])
    # spikes at anchor indices 1, 2, 3 and 6
    @example(spec=Summed(GCDPER_6, SparseSpike(height=-2.5, support=(1, 2, 3, 6, 40))),
             length=500, bounds=[2, 6, 7])
    # Q = 77 exceeds the length, so one period of the bulk is the whole sample
    @example(spec=Summed(GcdPeriodic(77, {1: 0.0, 7: 1.0, 11: 2.0, 77: 3.0}),
                         SparseSpike(height=1.0, power=2)), length=60, bounds=[7, 33])
    # a length that is no multiple of lcm(12, n) for any n > 1
    @example(spec=Summed(GCDPER_12, SparseSpike(height=4.0, power=5)), length=1001,
             bounds=[625, 1000])
    @example(spec=Scaled(0.0, Summed(GCDPER_6, SparseSpike(height=3.0, power=2))), length=700,
             bounds=[64])
    # an explicit support that runs past the length
    @example(spec=Summed(GCDPER_6, SparseSpike(height=1.5, support=(3, 50, 99, 5000))),
             length=100, bounds=[50, 99])
    @example(spec=Summed(GcdPeriodic(MAX_MODULUS, {2**k: k / 8 for k in range(41)}),
                         SparseSpike(height=-1.0, power=3)), length=2000, bounds=[512, 1024])
    # 1e16 among small values: a block sum rounded once differs from one made of
    # rounded sums over pieces of the period
    @example(spec=GcdPeriodic(12, {1: 1.25, 2: 0.75, 3: 1.25, 4: 1e16, 6: 0.25, 12: 0.5}),
             length=59, bounds=[6, 12, 56])
    # every index of the residue 0 mod 4 is a spike: its bulk value is never read
    @example(spec=Summed(GcdPeriodic(4, {1: 0.0, 2: 0.5, 4: 9.0}), SparseSpike(support=(4, 8))),
             length=11, bounds=[3, 4, 8])
    @settings(max_examples=60, deadline=None)
    def test_matches_the_materialized_sample(self, spec, length, bounds):
        x, y = generate(spec, length), PeriodicSample(spec, length)
        assert (y.length, y.recipe) == (x.length, x.recipe)
        assert y.sup_abs == max(x.values.max(), -x.values.min())
        cuts = np.array(sorted({min(b, length) for b in bounds} | {0, length}))
        prefix = _intervals(length, "prefix")
        iv = density.Intervals(np.concatenate((prefix.lo, cuts[:-1], np.zeros_like(cuts[1:]))),
                               np.concatenate((prefix.hi, cuts[1:], cuts[1:])))
        for n in range(1, 25):
            assert np.array_equal(density._exceedance_counts(y, n, DEFAULT_GRID, iv),
                                  density._exceedance_counts(x, n, DEFAULT_GRID, iv))
            assert (density._deviation_fsums(y, n, iv).tolist()
                    == density._deviation_fsums(x, n, iv).tolist())
            assert ac_sup_deviation(y, n) == ac_sup_deviation(x, n)
        assert (density._deviation_fsums(y, None, iv).tolist()
                == density._deviation_fsums(x, None, iv).tolist())

    @pytest.mark.parametrize("spec", [
        Summed(GCDPER_12, SparseSpike(height=4.0, power=5)),
        Summed(GCDPER_6, SparseSpike(height=4.0, power=3)),
        Summed(GCDPER_6, SparseSpike(height=4.0, rate=2.0, seed=3)),
    ])
    def test_analysis_matches_the_materialized_sample(self, spec):
        scheme = make_scheme([2**j for j in range(16)])
        x, y = generate(spec, 2**15), PeriodicSample(spec, 2**15)
        for a, b in zip(asc_verdicts(x, scheme), asc_verdicts(y, scheme)):
            assert a.to_dict() == b.to_dict()
            assert a.curves() == b.curves()
        n = asc_theta_verdict(x, scheme).evaluated_n
        assert ac_theta_block_means(x, scheme, n) == ac_theta_block_means(y, scheme, n)
        assert ntheta_norm(x, scheme) == ntheta_norm(y, scheme)
        assert ac_theta_at_scale(x, scheme).to_dict() == ac_theta_at_scale(y, scheme).to_dict()
