"""gcd kernel, samples, and generator families against independent oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithstat.kernel import (
    Constant,
    GcdPeriodic,
    Scaled,
    SeqSample,
    SparseSpike,
    Summed,
    describe_spec,
    deviation,
    deviations,
    divisors,
    gcd_anchors,
    check_witness,
    generate,
    spike_support,
)


def gcd_oracle(m: int, n: int) -> int:
    # Subtraction-form Euclid, deliberately not math.gcd.
    while m != n:
        if m > n:
            m -= n
        else:
            n -= m
    return m


def divisors_oracle(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# Values on the 1/8 grid: every sum, difference, and small scaling below is
# exactly representable, so equalities can be asserted bit for bit.
dyadic = st.integers(min_value=-64, max_value=64).map(lambda k: k / 8.0)
dyadic_arrays = st.lists(dyadic, min_size=2, max_size=200).map(np.array)


class TestGcdPair:
    """gcd(m, n) of pairs as `gcd_anchors` gives it: anchor position + 1."""

    def test_matches_oracle_exhaustively(self):
        """Every pair up to 128 agrees with subtraction-form Euclid."""
        for n in range(1, 129):
            anchors = gcd_anchors(128, n) + 1
            for m in range(1, 129):
                assert anchors[m - 1] == gcd_oracle(m, n)

    def test_matches_oracle_on_large_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 10**6))
            anchors = gcd_anchors(10**6, n) + 1
            for m in rng.integers(1, 10**6, size=25):
                assert anchors[m - 1] == gcd_oracle(int(m), n)

    def test_identities(self):
        assert gcd_anchors(1, 999983)[0] + 1 == 1
        assert gcd_anchors(12, 12)[-1] + 1 == 12
        assert gcd_anchors(2**10, 2**6)[-1] + 1 == 2**6

    @pytest.mark.parametrize("bad", [0, -3, 1.5])
    def test_rejects_nonpositive_and_fractional(self, bad):
        with pytest.raises(ValueError, match="positive integer"):
            gcd_anchors(4, bad)

    @given(m=st.integers(1, 10**9), n=st.integers(1, 10**5))
    def test_divides_both_and_is_maximal(self, m, n):
        g = int(gcd_anchors(n, n)[(m - 1) % n]) + 1  # gcd(m, n) = gcd(m mod n, n)
        assert m % g == 0 and n % g == 0
        for d in range(g + 1, min(g + 50, min(m, n)) + 1):
            if m % d == 0 and n % d == 0:
                pytest.fail(f"{d} is a larger common divisor than {g}")

    def test_check_witness(self):
        assert check_witness(7) == 7
        with pytest.raises(ValueError, match="witness"):
            check_witness(0)
        with pytest.raises(ValueError, match="witness"):
            check_witness(2.5)


class TestDivisors:
    def test_known_values(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)
        assert divisors(97) == (1, 97)

    def test_matches_oracle(self):
        for n in range(1, 400):
            assert list(divisors(n)) == divisors_oracle(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)


class TestSeqSample:
    def test_copies_and_freezes(self):
        src = np.array([1.0, 2.0, 3.0])
        x = SeqSample(src)
        src[0] = 99.0
        assert x.value(1) == 1.0
        assert not x.values.flags.writeable

    def test_one_based_indexing(self):
        x = SeqSample([5.0, 7.0])
        assert x.value(1) == 5.0 and x.value(2) == 7.0
        assert len(x) == 2 and x.length == 2
        with pytest.raises(IndexError):
            x.value(0)
        with pytest.raises(IndexError):
            x.value(3)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="nonempty"):
            SeqSample(np.array([]))
        with pytest.raises(ValueError, match="one-dimensional"):
            SeqSample(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            SeqSample([1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            SeqSample([np.inf])

    def test_add_and_scale(self):
        x = SeqSample([1.0, 2.0], recipe="a")
        y = SeqSample([0.5, -1.0], recipe="b")
        s = x + y
        assert list(s.values) == [1.5, 1.0]
        assert s.recipe == "sum(a, b)"
        assert list((3 * x).values) == [3.0, 6.0]
        assert list((x * -0.5).values) == [-0.5, -1.0]
        assert (2 * x).recipe == "scaled(2, a)"

    def test_add_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            SeqSample([1.0]) + SeqSample([1.0, 2.0])


class TestDeviation:
    def test_frozen_examples(self):
        x = SeqSample([1.0, 5.0, 1.0, 1.0])
        # gcd(2, 4) = 2 so the anchor is x_2 itself
        assert deviation(x, 2, 4) == 0.0
        # gcd(2, 3) = 1 so the anchor is x_1
        assert deviation(x, 2, 3) == 4.0

    def test_index_one_never_deviates(self):
        x = SeqSample(np.random.default_rng(0).normal(size=50))
        for n in (1, 2, 7, 50, 64):
            assert deviation(x, 1, n) == 0.0

    def test_vectorized_matches_loop(self):
        rng = np.random.default_rng(5)
        for size in (300, 10):  # the short sample has moduli beyond its length
            x = SeqSample(rng.integers(-40, 40, size=size) / 8.0)
            for n in (1, 2, 6, 12, 17, 64, 10**9):
                dev = deviations(x, n)
                assert dev.shape == (x.length,)
                for m in range(1, x.length + 1):
                    assert dev[m - 1] == deviation(x, m, n)

    def test_bad_arguments(self):
        x = SeqSample([1.0, 2.0])
        with pytest.raises(IndexError):
            deviation(x, 3, 1)
        with pytest.raises(ValueError):
            deviation(x, 1, 0)
        with pytest.raises(ValueError):
            deviations(x, -2)

    @given(vals=dyadic_arrays, n=st.integers(1, 64),
           c=st.sampled_from([0.5, 1.0, 3.0, 10.0, -0.5, -3.0, -10.0]))
    @settings(max_examples=200, deadline=None)
    def test_scaling_is_exact_on_dyadic_values(self, vals, n, c):
        """|c x_m - c x_g| equals |c| |x_m - x_g| bit for bit on the 1/8 grid."""
        x = SeqSample(vals)
        assert np.array_equal(deviations(c * x, n), abs(c) * deviations(x, n))

    @given(a=dyadic_arrays, n=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality_pointwise(self, a, n):
        rng = np.random.default_rng(len(a))
        b = rng.integers(-64, 65, size=a.size) / 8.0
        x, y = SeqSample(a), SeqSample(b)
        assert np.all(deviations(x + y, n) <= deviations(x, n) + deviations(y, n))


class TestGcdPeriodic:
    def test_first_values(self):
        """x_m = gcd(m, 6) starts 1, 2, 3, 2, 1, 6, 1, 2."""
        spec = GcdPeriodic(6, {d: float(d) for d in (1, 2, 3, 6)})
        x = generate(spec, 8)
        assert list(x.values) == [1.0, 2.0, 3.0, 2.0, 1.0, 6.0, 1.0, 2.0]

    def test_zero_deviation_at_own_modulus(self):
        spec = GcdPeriodic(12, {d: d / 2 for d in divisors(12)})
        x = generate(spec, 2000)
        assert np.all(deviations(x, 12) == 0.0)
        # multiples of the modulus anchor the same divisor classes
        assert np.all(deviations(x, 24) == 0.0)

    def test_table_must_cover_divisors_exactly(self):
        with pytest.raises(ValueError, match="divisor"):
            GcdPeriodic(6, {1: 0.0, 2: 0.0, 3: 0.0})
        with pytest.raises(ValueError, match="divisor"):
            GcdPeriodic(6, {1: 0.0, 2: 0.0, 3: 0.0, 6: 0.0, 5: 0.0})
        with pytest.raises(ValueError, match="modulus"):
            GcdPeriodic(0, {})


class TestSparseSpike:
    def test_defaults_to_powers_of_two(self):
        spec = SparseSpike()
        assert spec.power == 2
        assert list(spike_support(spec, 40)) == [2, 4, 8, 16, 32]

    def test_power_support_count_at_large_length(self):
        assert len(spike_support(SparseSpike(power=2), 2**20)) == 20
        assert list(spike_support(SparseSpike(power=3), 30)) == [3, 9, 27]

    def test_explicit_support_filtered_to_length(self):
        spec = SparseSpike(height=1.0, support=(2, 4, 8, 16))
        assert list(spike_support(spec, 16)) == [2, 4, 8, 16]
        assert list(spike_support(spec, 10)) == [2, 4, 8]

    def test_values_spike_over_base(self):
        x = generate(SparseSpike(height=3.0, base=-1.0, support=(2, 5)), 6)
        assert list(x.values) == [-1.0, 3.0, -1.0, -1.0, 3.0, -1.0]

    def test_index_one_never_spiked_by_power_or_rate(self):
        assert 1 not in spike_support(SparseSpike(power=2), 100)
        assert 1 not in spike_support(SparseSpike(rate=5.0, seed=11), 100)

    def test_rate_rule_is_seed_reproducible(self):
        a = spike_support(SparseSpike(rate=2.0, seed=42), 5000)
        b = spike_support(SparseSpike(rate=2.0, seed=42), 5000)
        c = spike_support(SparseSpike(rate=2.0, seed=43), 5000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rules_are_exclusive(self):
        with pytest.raises(ValueError, match="at most one"):
            SparseSpike(support=(2,), power=3)
        with pytest.raises(ValueError, match="at most one"):
            SparseSpike(power=3, rate=1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="support"):
            SparseSpike(support=(3, 2))
        with pytest.raises(ValueError, match="power"):
            SparseSpike(power=1)
        with pytest.raises(ValueError, match="rate"):
            SparseSpike(rate=-1.0)
        with pytest.raises(ValueError, match="seed"):
            SparseSpike(rate=1.0, seed=-1)


class TestComposites:
    def test_scaled_matches_sample_scaling(self):
        g6 = GcdPeriodic(6, {d: float(d) for d in divisors(6)})
        direct = generate(Scaled(3.0, g6), 500)
        composed = 3.0 * generate(g6, 500)
        assert np.array_equal(direct.values, composed.values)

    def test_scale_by_zero(self):
        x = generate(Scaled(0.0, SparseSpike(height=5.0)), 64)
        assert np.all(x.values == 0.0)

    def test_summed_matches_sample_addition(self):
        g6 = GcdPeriodic(6, {d: float(d) for d in divisors(6)})
        sp = SparseSpike(height=-4.0, power=3)
        direct = generate(Summed(g6, sp), 500)
        composed = generate(g6, 500) + generate(sp, 500)
        assert np.array_equal(direct.values, composed.values)

    def test_describe_round_trips_kinds(self):
        spec = Summed(Scaled(2.0, Constant(1.5)), SparseSpike(power=3))
        label = describe_spec(spec)
        assert label == "sum(scaled(2, constant(1.5)), spikes(powers_of=3, height=1, base=0))"
        assert generate(spec, 10).recipe == label

    def test_generate_validates_length(self):
        with pytest.raises(ValueError, match="length"):
            generate(Constant(1.0), 0)
        with pytest.raises(ValueError, match="length"):
            generate(Constant(1.0), 2.5)

    def test_constant_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Constant(float("inf"))
        with pytest.raises(ValueError, match="finite"):
            Scaled(float("nan"), Constant(1.0))
