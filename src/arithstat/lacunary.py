"""Lacunary scheme algebra: blocks, ratio statistics, refinements, intersections.

A scheme is a strictly increasing integer tuple k_0 < k_1 < ... < k_R with
k_0 >= 1. Block r (1-based, r = 1..R) is the integer interval (k_{r-1}, k_r],
of length h_r = k_r - k_{r-1}, with ratio q_r = k_r / k_{r-1}. All interval
arithmetic below is exact integer work; ratios only ever show up as reported
floats or as exact fractions where a comparison depends on them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import count, islice, takewhile
from typing import Iterable, Iterator

__all__ = [
    "LacunaryScheme",
    "make_scheme",
    "geometric_points",
    "polynomial_points",
    "factorial_points",
    "points_upto",
    "first_blocks",
    "q_ratio_stats",
    "is_refinement",
    "RelationPair",
    "SchemeRelation",
    "refinement_map",
    "block_intersections",
]

#: Largest breakpoint a scheme may hold, so every index fits a signed 64-bit integer.
MAX_POINT = 2**63 - 1
#: Most blocks `first_blocks` builds from a breakpoint generator.
MAX_BLOCKS = 1_000_000


@dataclass(frozen=True)
class LacunaryScheme:
    """Breakpoints of a block scheme, validated on construction.

    `advisory_flag` is a non-fatal warning: it is set when the mean block
    length over the last quarter of blocks fails to exceed the mean over the
    first quarter, i.e. when the finite prefix does not look lacunary.
    Negative controls legitimately trip it.
    """

    points: tuple[int, ...]

    def __post_init__(self) -> None:
        pts = tuple(int(p) for p in self.points)
        if len(pts) < 2:
            raise ValueError("a scheme needs at least two breakpoints")
        if pts[0] < 1:
            raise ValueError(f"k_0 must be >= 1, got {pts[0]}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if pts[-1] > MAX_POINT:
            raise ValueError("breakpoints must not exceed 2**63 - 1")
        object.__setattr__(self, "points", pts)

    @property
    def block_count(self) -> int:
        return len(self.points) - 1

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        """Block lengths h_r, r = 1..R."""
        return tuple(b - a for a, b in zip(self.points, self.points[1:]))

    @cached_property
    def ratios(self) -> tuple[float, ...]:
        """Block ratios q_r = k_r / k_{r-1}, r = 1..R."""
        return tuple(b / a for a, b in zip(self.points, self.points[1:]))

    @cached_property
    def advisory_flag(self) -> bool:
        h = self.lengths
        q = max(1, len(h) // 4)
        return not (sum(h[-q:]) / q > sum(h[:q]) / q)

    def block(self, r: int) -> tuple[int, int]:
        """Bounds (lo, hi] of block r; membership is lo < m <= hi."""
        if not 1 <= r <= self.block_count:
            raise ValueError(f"block index {r} outside 1..{self.block_count}")
        return self.points[r - 1], self.points[r]

    def blocks_within(self, length: int) -> int:
        """How many leading blocks end at or before the given sample length."""
        return max(0, bisect_right(self.points, length) - 1)


def make_scheme(points: Iterable[int]) -> LacunaryScheme:
    """Validate breakpoints and build a scheme (see LacunaryScheme for the advisory)."""
    return LacunaryScheme(tuple(points))


# Breakpoint generators yield endless increasing sequences k_0 < k_1 < ...;
# `first_blocks` stops them after a block count, `points_upto` at a point.


def geometric_points(ratio: float, start: int = 1) -> Iterator[int]:
    """Closed form k_j = floor(start * ratio**j), or k_{j-1} + 1 where that is
    larger, up to MAX_POINT: 1, 2, 3, 4, 5, 7, 11, ... for ratio 1.5."""
    if not ratio > 1 or start < 1:
        raise ValueError("geometric schemes need ratio > 1 and start >= 1")
    p = start
    for j in count(1):
        yield p
        v = start * ratio**j
        if not v <= MAX_POINT:
            return
        p = max(p + 1, int(v))


def polynomial_points(degree: int) -> Iterator[int]:
    """k_j = (j + 1)**degree. Past degree 62, k_1 = 2**degree already exceeds MAX_POINT."""
    if not 1 <= degree <= 62:
        raise ValueError(f"polynomial degree must lie in 1..62, got {degree}")
    return (r**degree for r in count(1))


def factorial_points() -> Iterator[int]:
    """k_j = (j + 1)!."""
    p = 1
    for r in count(2):
        yield p
        p *= r


def points_upto(points: Iterable[int], max_point: int) -> list[int]:
    """The leading generated breakpoints that do not exceed max_point."""
    return list(takewhile(lambda p: p <= max_point, points))


def first_blocks(points: Iterable[int], blocks: int) -> LacunaryScheme:
    """The scheme of the first `blocks` blocks of a breakpoint generator."""
    if not 1 <= blocks <= MAX_BLOCKS:
        raise ValueError(f"block count must lie in 1..{MAX_BLOCKS}, got {blocks}")
    pts = points_upto(islice(points, blocks + 1), MAX_POINT)
    if len(pts) <= blocks:
        raise ValueError(f"breakpoint k_{len(pts)} would exceed 2**63 - 1")
    return make_scheme(pts)


def q_ratio_stats(scheme: LacunaryScheme) -> tuple[float, float]:
    """Finite liminf/limsup surrogates: (min, max) of q_r over the trailing half of the ratios."""
    q = scheme.ratios
    if len(q) < 2:
        raise ValueError("ratio statistics need a scheme with at least two blocks")
    tail = q[-(len(q) // 2):]
    return min(tail), max(tail)


def is_refinement(coarse: LacunaryScheme, fine: LacunaryScheme) -> bool:
    """True when every breakpoint of `coarse` is also a breakpoint of `fine`."""
    return set(coarse.points) <= set(fine.points)


@dataclass(frozen=True)
class RelationPair:
    """One sub-interval (lo, hi] of a block of the first scheme.

    `size` counts its integers, and `coarse_size` the integers of the
    enclosing (or intersected) block of the first scheme.
    """

    coarse_index: int
    fine_index: int
    lo: int
    hi: int
    coarse_size: int

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def to_dict(self) -> dict:
        return {
            "coarse_block": self.coarse_index,
            "fine_block": self.fine_index,
            "lo": self.lo,
            "hi": self.hi,
            "size": self.size,
            "coarse_size": self.coarse_size,
            "ratio": self.size / self.coarse_size,
        }


@dataclass(frozen=True)
class SchemeRelation:
    """How two schemes' blocks sit inside each other.

    kind = "refinement": pairs map each coarse block to the fine blocks tiling
    it. kind = "general-pair": pairs list every nonempty intersection of one
    block from each scheme. delta is the minimum ratio size / coarse_size
    over pairs (None when the schemes' ranges do not overlap at all).
    """

    kind: str
    pairs: tuple[RelationPair, ...]

    @property
    def delta(self) -> float | None:
        return min((p.size / p.coarse_size for p in self.pairs), default=None)

    def delta_fraction(self) -> Fraction:
        if not self.pairs:
            raise ValueError("relation has no pairs, delta is undefined")
        return min(Fraction(p.size, p.coarse_size) for p in self.pairs)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "delta": self.delta,
            "pairs": [p.to_dict() for p in self.pairs],
        }


def refinement_map(coarse: LacunaryScheme, fine: LacunaryScheme) -> SchemeRelation:
    """Map every coarse block to the fine blocks that tile it.

    Requires `fine` to refine `coarse`. Each block intersection is then a
    whole fine block, and those inside coarse block r sum to h_r. delta is
    the minimum length ratio h*_j / h_r over all pairs. Fine blocks outside
    the coarse range (below k_0 or above k_R) belong to no coarse block and
    are omitted.
    """
    if not is_refinement(coarse, fine):
        raise ValueError("second scheme does not refine the first")
    return replace(block_intersections(coarse, fine), kind="refinement")


def block_intersections(a: LacunaryScheme, b: LacunaryScheme) -> SchemeRelation:
    """All nonempty intersections I_i of `a` with J_j of `b`, ratios |I_ij| / |I_i|.

    Blocks tile (k_0, k_R], so two schemes over overlapping ranges always
    intersect somewhere. delta = None signals fully disjoint ranges.
    """
    pairs = []
    i = j = 1
    while i <= a.block_count and j <= b.block_count:
        alo, ahi = a.block(i)
        blo, bhi = b.block(j)
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo < hi:
            pairs.append(RelationPair(i, j, lo, hi, ahi - alo))
        if ahi <= bhi:
            i += 1
        if bhi <= ahi:
            j += 1
    return SchemeRelation("general-pair", tuple(pairs))

