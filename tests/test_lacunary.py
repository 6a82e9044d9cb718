"""Scheme algebra: blocks, ratio stats, refinements, intersections, aggregation."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from arithstat.kernel import SeqSample
from arithstat.lacunary import (
    MAX_POINT,
    block_intersections,
    geometric_points,
    is_refinement,
    make_scheme,
    q_ratio_stats,
    refinement_map,
)
from arithstat.theorems import _refinement_counts, check_refinement_aggregation

DYADIC = make_scheme([1, 2, 4, 8, 16])


class TestScheme:
    def test_blocks_of_dyadic(self):
        assert DYADIC.block_count == 4
        assert DYADIC.lengths == (1, 2, 4, 8)
        assert DYADIC.ratios == (2.0, 2.0, 2.0, 2.0)
        assert DYADIC.block(1) == (1, 2)
        assert DYADIC.block(4) == (8, 16)

    def test_block_index_range(self):
        with pytest.raises(ValueError, match="block index"):
            DYADIC.block(0)
        with pytest.raises(ValueError, match="block index"):
            DYADIC.block(5)

    def test_blocks_within(self):
        assert DYADIC.blocks_within(16) == 4
        assert DYADIC.blocks_within(15) == 3
        assert DYADIC.blocks_within(100) == 4
        assert DYADIC.blocks_within(1) == 0

    def test_tiling(self):
        """Blocks partition (k_0, k_R]: lengths sum to the full span."""
        s = make_scheme([3, 7, 10, 40, 41, 100])
        assert sum(s.lengths) == s.points[-1] - s.points[0]
        seen = sorted(
            m for r in range(1, s.block_count + 1)
            for m in range(s.block(r)[0] + 1, s.block(r)[1] + 1)
        )
        assert seen == list(range(s.points[0] + 1, s.points[-1] + 1))

    def test_validation(self):
        with pytest.raises(ValueError, match="two breakpoints"):
            make_scheme([5])
        with pytest.raises(ValueError, match="k_0"):
            make_scheme([0, 4])
        with pytest.raises(ValueError, match="strictly increasing"):
            make_scheme([1, 4, 4])

    def test_advisory_flag(self):
        assert make_scheme([2**j for j in range(12)]).advisory_flag is False
        # arithmetic progression: constant block lengths, not lacunary-looking
        assert make_scheme(range(10, 200, 10)).advisory_flag is True
        assert make_scheme([1, 50, 60, 65]).advisory_flag is True


class TestGenerators:
    def test_geometric_points_take_the_closed_form(self):
        # floor(1.5**j), bumped by one where it would not grow
        assert list(islice(geometric_points(1.5, 1), 9)) == [1, 2, 3, 4, 5, 7, 11, 17, 25]
        assert list(islice(geometric_points(2, 3), 5)) == [3, 6, 12, 24, 48]
        assert list(islice(geometric_points(1.01, 1), 4)) == [1, 2, 3, 4]

    def test_geometric_points_stop_at_the_largest_point(self):
        points = list(geometric_points(2, 1))
        assert points == [2**j for j in range(63)]
        assert points[-1] <= MAX_POINT < 2 * points[-1]

    @pytest.mark.parametrize("ratio, start", [(1.0, 1), (0.5, 1), (math.nan, 1), (2.0, 0)])
    def test_geometric_points_refuse_bad_growth(self, ratio, start):
        with pytest.raises(ValueError, match="ratio > 1 and start >= 1"):
            next(geometric_points(ratio, start))


class TestQRatioStats:
    def test_geometric(self):
        assert q_ratio_stats(make_scheme([2**j for j in range(16)])) == (2.0, 2.0)

    def test_squares_tail_minimum(self):
        """k_r = r^2 has tail-min ratio (61/60)^2, below the 1.05 margin."""
        s = make_scheme(r * r for r in range(1, 62))
        lo, hi = q_ratio_stats(s)
        assert lo == pytest.approx((61 / 60) ** 2)
        assert lo < 1.05

    def test_factorial_tail(self):
        s = make_scheme([1, 2, 6, 24, 120])  # ratios 2, 3, 4, 5
        assert q_ratio_stats(s) == (4.0, 5.0)
        # an odd count of ratios rounds the trailing half down: 5, 6 of 2..6
        assert q_ratio_stats(make_scheme([1, 2, 6, 24, 120, 720])) == (5.0, 6.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="two blocks"):
            q_ratio_stats(make_scheme([1, 5]))


class TestRefinement:
    def test_is_refinement(self):
        assert is_refinement(make_scheme([1, 4, 16]), DYADIC)
        assert not is_refinement(DYADIC, make_scheme([1, 4, 16]))
        assert is_refinement(DYADIC, DYADIC)

    def test_map_dyadic_over_coarse(self):
        rel = refinement_map(make_scheme([1, 4, 16]), DYADIC)
        assert rel.kind == "refinement"
        assert len(rel.pairs) == 4
        assert [(p.coarse_index, p.size) for p in rel.pairs] == [(1, 1), (1, 2), (2, 4), (2, 8)]
        assert rel.delta == pytest.approx(1 / 3)
        assert rel.delta_fraction() == Fraction(1, 3)

    def test_map_with_uneven_fine_blocks(self):
        rel = refinement_map(make_scheme([1, 8]), make_scheme([1, 2, 3, 8]))
        assert [p.size for p in rel.pairs] == [1, 1, 5]
        assert rel.delta_fraction() == Fraction(1, 7)

    def test_identity_refinement_has_delta_one(self):
        rel = refinement_map(DYADIC, DYADIC)
        assert rel.delta == 1.0
        assert all(p.coarse_index == p.fine_index for p in rel.pairs)

    def test_fine_blocks_outside_coarse_range_are_omitted(self):
        rel = refinement_map(make_scheme([2, 8]), make_scheme([1, 2, 4, 8, 16]))
        assert [(p.lo, p.hi) for p in rel.pairs] == [(2, 4), (4, 8)]
        assert sum(p.size for p in rel.pairs) == 6

    def test_pairs_tile_each_coarse_block(self):
        coarse = make_scheme([1, 10, 100, 1000])
        fine = make_scheme(sorted(set(coarse.points) | {1, 3, 7, 40, 77, 500, 1000}))
        rel = refinement_map(coarse, fine)
        for r, h_r in enumerate(coarse.lengths, start=1):
            assert sum(p.size for p in rel.pairs if p.coarse_index == r) == h_r

    def test_map_pairs_each_coarse_block_with_the_fine_blocks_inside_it(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            coarse = make_scheme(sorted(rng.choice(np.arange(1, 300), rng.integers(2, 9), False)))
            extra = rng.choice(np.arange(1, 400), rng.integers(0, 13), False)
            fine = make_scheme(sorted(set(coarse.points) | set(extra.tolist())))
            want = [(r, j, lo, hi)
                    for r, (k_lo, k_hi) in enumerate(zip(coarse.points, coarse.points[1:]), 1)
                    for j, (lo, hi) in enumerate(zip(fine.points, fine.points[1:]), 1)
                    if k_lo <= lo and hi <= k_hi]
            rel = refinement_map(coarse, fine)
            assert [(p.coarse_index, p.fine_index, p.lo, p.hi) for p in rel.pairs] == want

    def test_rejects_non_refinement(self):
        with pytest.raises(ValueError, match="refine"):
            refinement_map(make_scheme([1, 3, 16]), DYADIC)


class TestIntersections:
    def test_general_pair(self):
        rel = block_intersections(make_scheme([1, 4, 16]), make_scheme([1, 8, 16]))
        assert rel.kind == "general-pair"
        got = [(p.coarse_index, p.fine_index, p.lo, p.hi, p.size, p.coarse_size)
               for p in rel.pairs]
        assert got == [(1, 1, 1, 4, 3, 3), (2, 1, 4, 8, 4, 12), (2, 2, 8, 16, 8, 12)]
        assert rel.delta == pytest.approx(1 / 3)

    def test_orientation_matters(self):
        rel = block_intersections(make_scheme([1, 8, 16]), make_scheme([1, 4, 16]))
        # ratios are now measured against the first scheme's blocks
        assert rel.delta == pytest.approx(3 / 7)

    def test_disjoint_ranges(self):
        rel = block_intersections(make_scheme([1, 2]), make_scheme([5, 9]))
        assert rel.pairs == ()
        assert rel.delta is None
        with pytest.raises(ValueError, match="no pairs"):
            rel.delta_fraction()

    def test_intersections_cover_the_overlap(self):
        a = make_scheme([1, 5, 9, 30])
        b = make_scheme([2, 3, 11, 40])
        rel = block_intersections(a, b)
        covered = sum(p.size for p in rel.pairs)
        lo = max(a.points[0], b.points[0])
        hi = min(a.points[-1], b.points[-1])
        assert covered == hi - lo


def count_oracle(x: SeqSample, lo: int, hi: int, n: int, eps: float) -> int:
    return sum(
        1 for m in range(lo + 1, hi + 1)
        if abs(x.value(m) - x.value(math.gcd(m, n))) >= eps
    )


def assert_counts_match_oracle(x: SeqSample, coarse, fine, n: int, eps: float) -> int:
    """Both counts of every coarse block inside the sample equal the brute recount, and
    its aggregation report passes; returns the number of those blocks."""
    fitting = coarse.blocks_within(x.length)
    pairs, direct, fine_counts = _refinement_counts(x, coarse, refinement_map(coarse, fine),
                                                    n, eps)
    assert direct == [count_oracle(x, *coarse.block(r), n, eps) for r in range(1, fitting + 1)]
    assert [sum(p.size for p in pairs if p.coarse_index == r)
            for r in range(1, fitting + 1)] == list(coarse.lengths[:fitting])
    assert all(p.coarse_index <= fitting for p in pairs)
    assert fine_counts == [count_oracle(x, p.lo, p.hi, n, eps) for p in pairs]
    reports = check_refinement_aggregation(x, coarse, fine, n, eps)
    assert [(rep.instance["r"], rep.passed) for rep in reports] == [
        (r, True) for r in range(1, fitting + 1)]
    return fitting


class TestAggregation:
    def test_matches_direct_count(self):
        rng = np.random.default_rng(9)
        x = SeqSample(rng.integers(-16, 17, size=1000) / 8.0)
        coarse = make_scheme([1, 4, 16, 64, 256, 1000])
        fine = make_scheme(sorted(set(coarse.points) | {1, 2, 9, 40, 100, 500, 1000}))
        for f in (fine, coarse):  # a proper refinement, and the identity
            assert assert_counts_match_oracle(x, coarse, f, 6, 0.5) == coarse.block_count

    def test_sample_ending_inside_a_coarse_block_gives_the_fitting_blocks(self):
        # the sample ends at 12, inside coarse block (8, 16] and past the
        # fine block (8, 10] that starts it: only coarse blocks 1..3 fit
        x = SeqSample(np.arange(12.0))
        fine = make_scheme([1, 2, 3, 4, 6, 8, 10, 16])
        assert assert_counts_match_oracle(x, DYADIC, fine, 1, 0.5) == 3
        with pytest.raises(ValueError, match="no block of the scheme fits"):
            check_refinement_aggregation(SeqSample(np.zeros(1)), DYADIC, fine, 1, 0.5)
