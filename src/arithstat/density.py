"""Interval exceedance counts, prefix and block densities, and finite-scale verdicts.

The objects here make limit statements about arithmetic statistical
convergence computable on a finite truncation. Every count runs over integer
intervals (lo, hi]: prefixes (0, t] and blocks (k_{r-1}, k_r]. The flags mark
the indices m whose deviation |x_m - x_<m,n>| meets or exceeds a threshold;
densities are exact counts divided by exact range sizes; a verdict summarizes
density curves over a grid of thresholds into one of three outcomes. Nothing
in this module ever claims a limit: ConvergentAtScale means "converged as far
as this truncation can see", and Inconclusive is an honest answer.

Membership is `kernel._exceeds`: the raw float deviation compared with >=, no tolerance.
The theorem checks in `theorems` rely on these flags being exact index sets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cache, cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .kernel import (PeriodicSample, Sample, SeqSample, _check_eps, _exceeds, _mobius_counts,
                     _running_counts, check_witness, deviations)
from .lacunary import LacunaryScheme

__all__ = [
    "DEFAULT_GRID",
    "check_grid",
    "DensityCurve",
    "Outcome",
    "VerdictPolicy",
    "DEFAULT_POLICY",
    "ConvergenceVerdict",
    "MeanVerdict",
    "prefix_checkpoints",
    "density_curve",
    "ac_sup_deviation",
    "ac_theta_block_means",
    "ntheta_norm",
    "asc_verdict",
    "asc_theta_verdict",
    "asc_verdicts",
    "ac_theta_at_scale",
]

#: Default threshold grid, strictly decreasing.
DEFAULT_GRID = (1.0, 0.5, 0.1, 0.05, 0.01)
#: Most steps, about log(length) / log(growth), that `prefix_checkpoints` may take.
MAX_CHECKPOINT_STEPS = 100_000


def check_grid(grid: Sequence[float]) -> tuple[float, ...]:
    """Validate a threshold grid: positive floats, strictly decreasing."""
    g = tuple(map(_check_eps, grid))
    if not g:
        raise ValueError("epsilon grid must not be empty")
    if any(b >= a for a, b in zip(g, g[1:])):
        raise ValueError("epsilon grid must be strictly decreasing")
    return g


@dataclass(frozen=True)
class VerdictPolicy:
    """The finite-scale decision rule: every knob a verdict depends on.

    tail_window: how many trailing curve points form the tail average.
    tol: tail level at or below which a witness counts as converged.
    tol_hi: tail level at or above which a curve counts as hard evidence
        against convergence (together with a non-decreasing tail).
    n_max: witness moduli 1..n_max are searched.
    growth: checkpoint spacing for prefix curves.
    grid: the thresholds epsilon that stand in for "every epsilon > 0" in
        the density verdicts, normalised by `check_grid` to a strictly
        decreasing tuple of floats. The block-mean verdict reads no grid.
    """

    tail_window: int = 8
    tol: float = 0.02
    tol_hi: float = 0.2
    n_max: int = 64
    growth: float = 1.3
    grid: tuple[float, ...] = DEFAULT_GRID

    def __post_init__(self) -> None:
        if self.tail_window < 1:
            raise ValueError("tail_window must be >= 1")
        if not 0 < self.tol < self.tol_hi < math.inf:
            raise ValueError("need 0 < tol < tol_hi, both finite")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not 1 < self.growth < math.inf:
            raise ValueError("growth must be finite and exceed 1")
        object.__setattr__(self, "grid", check_grid(self.grid))

    def to_dict(self) -> dict:
        return {**asdict(self), "grid": list(self.grid)}


DEFAULT_POLICY = VerdictPolicy()


@dataclass(frozen=True)
class DensityCurve:
    """Ordered (index, density) points along one axis for one (n, epsilon)."""

    axis: str
    epsilon: float
    n: int
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        idx = [i for i, _ in self.points]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("curve indices must be strictly increasing")
        if any(not 0.0 <= v <= 1.0 for _, v in self.points):
            raise ValueError("densities must lie in [0, 1]")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


def prefix_checkpoints(length: int, growth: float = DEFAULT_POLICY.growth) -> tuple[int, ...]:
    """Logarithmically spaced prefix lengths floor(growth^j), ending at `length`.

    Duplicates from the floor are dropped, and the full length is always the
    last checkpoint, so curves stay small even for very long samples.
    """
    if int(length) != length or length < 1:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    if not 1 < growth < math.inf:
        raise ValueError(f"growth must be finite and exceed 1, got {growth!r}")
    if math.log(length) / math.log(growth) > MAX_CHECKPOINT_STEPS:
        raise ValueError(f"growth {growth!r} needs over {MAX_CHECKPOINT_STEPS} steps "
                         f"to reach length {length}")
    ts: list[int] = []
    v = growth
    while v <= length:
        t = int(v)
        if not ts or t > ts[-1]:
            ts.append(t)
        v *= growth
    if not ts or ts[-1] != length:
        ts.append(int(length))
    return tuple(ts)


@dataclass(frozen=True, eq=False)
class Intervals:
    """Integer intervals (lo, hi], with the cuts that count flags over them.

    `cuts` is the sorted union of 0 and every bound, with the positions of
    lo and of hi in it, made on first use and kept for every later count.
    """

    lo: np.ndarray
    hi: np.ndarray

    @cached_property
    def cuts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cuts, at = np.unique(np.concatenate(([0], self.lo, self.hi)), return_inverse=True)
        return cuts, at[1:1 + self.lo.size], at[1 + self.lo.size:]


class _Blocks(Intervals):
    """Consecutive blocks from k_0 >= 1: the cuts 0, k_0, ..., k_R need no sort."""

    @cached_property
    def cuts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        at = np.arange(1, self.lo.size + 1)  # lo sits at 1..R and hi at 2..R+1
        return np.concatenate(([0], self.lo[:1], self.hi)), at, at + 1


def _intervals(length: int, axis: str, scheme: LacunaryScheme | None = None,
               growth: float = DEFAULT_POLICY.growth, need: int = 1) -> Intervals:
    """The integer intervals (lo, hi] of one axis inside 1..length.

    The prefix axis has one interval (0, t] per log-spaced checkpoint t; the
    block axis has the blocks (k_{r-1}, k_r] that end inside the sample.
    Raises when there are fewer than `need` of them, or none at all.
    """
    if axis == "prefix":
        hi = np.asarray(prefix_checkpoints(length, growth))
        if hi.size < need:
            raise ValueError(f"sample has {hi.size} checkpoints, fewer than {need}")
        return Intervals(np.zeros_like(hi), hi)
    if axis == "block":
        if scheme is None:
            raise ValueError("block axis needs a scheme")
        avail = scheme.blocks_within(length)
        if avail < need:
            raise ValueError(f"{avail} blocks of the scheme fit the sample, fewer than {need}"
                             if avail else "no block of the scheme fits inside the sample")
        pts = np.asarray(scheme.points[: avail + 1])
        return _Blocks(pts[:-1], pts[1:])
    raise ValueError(f"axis must be 'prefix' or 'block', got {axis!r}")


def _interval_sums(flags: np.ndarray, iv: Intervals) -> np.ndarray:
    """Integer counts of the set flags[m - 1] over lo < m <= hi, for each interval (lo, hi].

    The counts run up to each of the cuts (see `kernel._running_counts`), and
    an interval's count is the running count at hi minus the one at lo.
    Exact for integers only; float values are summed per interval with
    math.fsum instead.
    """
    cuts, lo_at, hi_at = iv.cuts
    run = _running_counts(flags, cuts)
    return run[hi_at] - run[lo_at]


def _interval_fsums(values: np.ndarray, iv: Intervals) -> np.ndarray:
    """math.fsum of values[m - 1] over lo < m <= hi, per interval: no other value cancels it.

    A memoryview of a float64 slice yields Python floats, with no copy and
    no numpy scalar per element.
    """
    return np.array([math.fsum(memoryview(values[a:b]))
                     for a, b in zip(iv.lo.tolist(), iv.hi.tolist())])


def _exceedance_counts(x: Sample, n: int, grid: Sequence[float], iv: Intervals) -> np.ndarray:
    """Integer counts of the m in each interval with |x_m - x_<m,n>| >= e, a row per e of `grid`.

    A sample holds every value and counts from one deviation pass; a spec's
    period-backed sample counts up to each cut from one period of its
    deviations.
    """
    if isinstance(x, PeriodicSample):
        cuts, lo_at, hi_at = iv.cuts
        run = x.running_counts(n, grid, cuts)
        return run[:, hi_at] - run[:, lo_at]
    dev = deviations(x, n)
    return np.array([_interval_sums(_exceeds(dev, e), iv) for e in grid])


def _divisor_sum_counts(x: SeqSample, eps: float, iv: Intervals,
                        n_max: int) -> Callable[[int], np.ndarray]:
    """Counts of the m in each interval with |x_m - x_<m,n>| >= eps, for witnesses n <= n_max.

    count_n(c) is the sum of R_e(c) over the divisors e of n (see
    `kernel._mobius_counts`), and R_e(c) = 0 for c < e, so divisors past the
    last cut are left out. Each R_e is counted once, on first use, and
    reused by every multiple of e, so a search to N does about
    sum over e <= N of 2^omega(e) * T / e element work instead of N * T. The
    divisors come from a sieve that doubles its reach, up to n_max, whenever
    some n passes its end.
    """
    cuts, lo_at, hi_at = iv.cuts
    last = int(cuts[-1])
    buf = np.empty(x.length)
    below: list[list[int]] = [[]]  # below[n]: the divisors e <= last of n

    @cache
    def mobius_counts(e: int) -> np.ndarray:
        run = _mobius_counts(x.values, e, eps, cuts, buf)
        return run[hi_at] - run[lo_at]

    def counts(n: int) -> np.ndarray:
        while len(below) <= n:
            start = len(below)
            stop = max(n + 1, min(2 * start, n_max + 1))
            more: list[list[int]] = [[] for _ in range(start, stop)]
            for e in range(1, min(stop - 1, last) + 1):
                for m in range(-(-start // e) * e, stop, e):
                    more[m - start].append(e)
            below.extend(more)
        return sum(map(mobius_counts, below[n]))

    return counts


def _deviation_fsums(x: Sample, n: int | None, iv: Intervals) -> np.ndarray:
    """math.fsum of |x_m - x_<m,n>| over each interval, or of |x_m| when n is None."""
    if isinstance(x, PeriodicSample):
        return x.interval_fsums(n, iv.lo, iv.hi)
    return _interval_fsums(np.abs(x.values) if n is None else deviations(x, n), iv)


def _first_hit(mask: np.ndarray, iv: Intervals) -> tuple[int, list[int]] | None:
    """The first interval (lo, hi] that holds a set flag mask[m - 1].

    Returns its position in lo/hi with its first 20 flagged indices m, or
    None when no interval holds one.
    """
    hits = np.flatnonzero(_interval_sums(mask, iv))
    if not hits.size:
        return None
    i = int(hits[0])
    a = int(iv.lo[i])
    return i, [a + 1 + int(j) for j in np.flatnonzero(mask[a:iv.hi[i]])[:20]]


def _curve_index(axis: str, hi: np.ndarray) -> np.ndarray:
    """The curve index of each interval: t for a prefix (0, t], r for block r."""
    return hi if axis == "prefix" else np.arange(1, hi.size + 1)


def _curve(axis: str, eps: float, n: int, index: np.ndarray, vals: np.ndarray) -> DensityCurve:
    return DensityCurve(axis, eps, n, tuple(zip(index.tolist(), vals.tolist())))


def density_curve(x: Sample, n: int, eps: float, axis: str,
                  scheme: LacunaryScheme | None = None,
                  growth: float = DEFAULT_POLICY.growth) -> DensityCurve:
    """Density against t (prefix axis) or against r (block axis).

    The prefix axis samples the log-spaced checkpoints; the block axis has one
    point per block that fits inside the sample.
    """
    n = check_witness(n)
    iv = _intervals(x.length, axis, scheme, growth)
    vals = _exceedance_counts(x, n, (eps,), iv)[0] / (iv.hi - iv.lo)
    return _curve(axis, float(eps), n, _curve_index(axis, iv.hi), vals)


def ac_sup_deviation(x: Sample, n: int) -> float:
    """max over m <= T of |x_m - x_<m,n>| (finite-truncation sup)."""
    if isinstance(x, PeriodicSample):
        return x.sup_deviation(n)
    return float(deviations(x, n).max())


def ac_theta_block_means(x: Sample, scheme: LacunaryScheme, n: int) -> list[float]:
    """(1/h_r) * sum over block r of |x_m - x_<m,n>|, for every block inside the sample.

    Each block's sum is the math.fsum of its deviations (see `_deviation_fsums`).
    """
    iv = _intervals(x.length, "block", scheme)
    return (_deviation_fsums(x, n, iv) / (iv.hi - iv.lo)).tolist()


def ntheta_norm(x: Sample, scheme: LacunaryScheme) -> float:
    """max over available blocks of the block mean of |x_m| (truncation sup norm)."""
    iv = _intervals(x.length, "block", scheme)
    return float((_deviation_fsums(x, None, iv) / (iv.hi - iv.lo)).max())


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Outcome(str, Enum):
    CONVERGENT = "ConvergentAtScale"
    NOT_CONVERGENT = "NotConvergentAtScale"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class _Verdict:
    """An outcome, and the modulus `evaluated_n` whose curves it rests on.

    `witness` is derived: evaluated_n when ConvergentAtScale, otherwise None.
    """

    outcome: Outcome
    evaluated_n: int

    @property
    def witness(self) -> int | None:
        return self.evaluated_n if self.outcome is Outcome.CONVERGENT else None

    def to_dict(self) -> dict:
        return {"outcome": self.outcome.value, "witness": self.witness,
                "evaluated_n": self.evaluated_n}


@dataclass(frozen=True)
class ConvergenceVerdict(_Verdict):
    """Three-valued decision plus the evidence it rests on.

    The curves at `evaluated_n` (the witness when convergent, otherwise the
    best candidate seen) are kept outside `to_dict`: their index (t or r) and
    one row of densities per grid epsilon, as DensityCurves from `curves()`.
    `tail_densities` pairs each grid epsilon with the tail average of its row.
    """

    axis: str
    policy: VerdictPolicy
    curve_index: np.ndarray = field(compare=False, repr=False)
    curve_densities: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def tail_densities(self) -> tuple[tuple[float, float], ...]:
        return tuple((e, _tail_stats(row, self.policy.tail_window)[0])
                     for e, row in zip(self.policy.grid, self.curve_densities))

    def curves(self) -> tuple[DensityCurve, ...]:
        """The density curve of each grid epsilon at evaluated_n."""
        return tuple(_curve(self.axis, e, self.evaluated_n, self.curve_index, row)
                     for e, row in zip(self.policy.grid, self.curve_densities))

    def to_dict(self) -> dict:
        return {**super().to_dict(), "axis": self.axis,
                "tail_densities": [[e, t] for e, t in self.tail_densities],
                "policy": self.policy.to_dict()}


@dataclass(frozen=True)
class MeanVerdict(_Verdict):
    """Finite-scale decision for block-mean (Cesaro style) convergence.

    The curve is the per-block mean deviation rather than a density, so the
    tail is in deviation units; the same tol / tol_hi thresholds apply. A
    failed search is Inconclusive, never NotConvergentAtScale, unless every
    candidate's tail is hard (at or above tol_hi and non-decreasing). The
    policy's threshold grid plays no part, so `to_dict` leaves it out.
    """

    tail_mean: float
    policy: VerdictPolicy

    def to_dict(self) -> dict:
        return {**super().to_dict(), "tail_mean": self.tail_mean,
                "policy": {k: v for k, v in asdict(self.policy).items() if k != "grid"}}


def _tail_stats(curve: np.ndarray, window: int) -> tuple[float, bool]:
    """The mean of the last `window` points, and whether they never fall.

    Both are spelled out, at a third of the cost of seg.mean() and
    np.diff(seg) >= 0 and bit for bit the same, as a search reads them for
    every n.
    """
    seg = curve[-window:]
    return float(np.add.reduce(seg) / seg.size), bool((seg[1:] >= seg[:-1]).all())


def _search(finest: Callable[[int], np.ndarray], full: Callable[[int], Sequence[np.ndarray]],
            policy: VerdictPolicy) -> tuple[Outcome, int]:
    """Witness search over n = 1..n_max: (outcome, evaluated_n).

    Convergent at the smallest n whose every curve tail is <= tol; that n is
    evaluated_n. Otherwise NotConvergent only if every n shows hard evidence
    (some curve with tail >= tol_hi and a non-decreasing tail segment); else
    Inconclusive, and evaluated_n is the n whose largest tail is smallest.

    `finest(n)` is the curve of the finest threshold, `full(n)` every curve
    in grid order. Each n costs one `finest` read. In the density verdicts
    of a sample that holds its values, that read counts one new divisor-sum
    term, about 2^omega(n) * T / n element work, and adds the kept terms of
    n's other divisors; `full` costs one deviation pass. The block-mean
    verdict reads one pass per n. The flag sets are nested in epsilon, so the
    finest curve is the largest at every point, and its tail, summed and
    divided with monotone float rounding, is exactly the largest tail. The search reads
    `full` only for the hard evidence of an n whose finest tail is >= tol_hi
    but not non-decreasing while every earlier n was hard: only there can a
    coarser curve decide the outcome.
    """
    tail = partial(_tail_stats, window=policy.tail_window)
    best: tuple[float, int] | None = None
    every_n_hard = True
    for n in range(1, policy.n_max + 1):
        top, mono = tail(finest(n))
        if top <= policy.tol:
            return Outcome.CONVERGENT, n
        if every_n_hard and not (top >= policy.tol_hi and mono):
            every_n_hard = top >= policy.tol_hi and any(
                t >= policy.tol_hi and m for t, m in map(tail, full(n)))
        if best is None or top < best[0]:
            best = (top, n)
    assert best is not None
    outcome = Outcome.NOT_CONVERGENT if every_n_hard else Outcome.INCONCLUSIVE
    return outcome, best[1]


def _density_verdicts(x: Sample, scheme: LacunaryScheme | None, axes: Sequence[str],
                      policy: VerdictPolicy) -> list[ConvergenceVerdict]:
    """Witness searches over the per-epsilon density curves of each axis in `axes`.

    A witness n costs one count of the finest threshold over the intervals of
    every axis at once. For a sample that holds its values, that count is a
    sum over the divisors of n (see `_divisor_sum_counts`), whose terms are
    counted once per call: a search to N costs about sum over e <= N of
    2^omega(e) * T / e element work (11.5 T at N = 64) rather than N * T.
    A spec's period-backed sample counts each n from one period (see
    `_exceedance_counts`). The finest densities are kept by n, so an axis
    that searches further reuses the counts made for the others; each axis
    still stops at its own smallest passing n. The full grid costs one
    deviation pass where it is read (at evaluated_n, and where `_search`
    needs it) and is kept by n as well. The intervals of all axes are cut
    once, for every count of the call.
    """
    bounds = [_intervals(x.length, axis, scheme, policy.growth, policy.tail_window)
              for axis in axes]
    iv = Intervals(np.concatenate([b.lo for b in bounds]), np.concatenate([b.hi for b in bounds]))
    span = iv.hi - iv.lo

    @cache
    def densities(n: int, grid: tuple[float, ...]) -> np.ndarray:
        return _exceedance_counts(x, n, grid, iv) / span

    if isinstance(x, PeriodicSample):
        def finest(n: int) -> np.ndarray:
            return densities(n, policy.grid[-1:])[0]
    else:
        counts = _divisor_sum_counts(x, policy.grid[-1], iv, policy.n_max)
        finest = cache(lambda n: counts(n) / span)

    verdicts, start = [], 0
    for axis, axis_iv in zip(axes, bounds):
        part = slice(start, start + axis_iv.hi.size)
        start = part.stop
        outcome, n = _search(
            lambda k, part=part: finest(k)[part],
            lambda k, part=part: densities(k, policy.grid)[:, part], policy)
        verdicts.append(ConvergenceVerdict(
            outcome, n, axis, policy, _curve_index(axis, axis_iv.hi),
            densities(n, policy.grid)[:, part]))
    return verdicts


def asc_verdict(x: Sample, policy: VerdictPolicy = DEFAULT_POLICY) -> ConvergenceVerdict:
    """Finite-scale verdict for arithmetic statistical convergence.

    For each candidate witness the prefix density curve of each epsilon in
    `policy.grid` is summarized by the mean of its last `tail_window`
    checkpoints; see `_search` for the decision rule. Raises when the sample
    is too short to supply a full tail window of checkpoints.
    """
    return _density_verdicts(x, None, ("prefix",), policy)[0]


def asc_theta_verdict(x: Sample, scheme: LacunaryScheme,
                      policy: VerdictPolicy = DEFAULT_POLICY) -> ConvergenceVerdict:
    """Finite-scale verdict for lacunary (blockwise) arithmetic statistical convergence.

    Same decision rule as `asc_verdict`, with block density curves in place of
    prefix curves. Requires at least `tail_window` blocks inside the sample.
    """
    return _density_verdicts(x, scheme, ("block",), policy)[0]


def asc_verdicts(x: Sample, scheme: LacunaryScheme, policy: VerdictPolicy = DEFAULT_POLICY
                 ) -> tuple[ConvergenceVerdict, ConvergenceVerdict]:
    """(`asc_verdict`, `asc_theta_verdict`) of one sample, from shared passes.

    Both searches count every witness over the intervals of both axes at
    once, so a witness tried on both axes is counted once. The prefix axis is checked
    first: a sample too short for both raises the prefix axis's error.
    """
    asc, theta = _density_verdicts(x, scheme, ("prefix", "block"), policy)
    return asc, theta


def ac_theta_at_scale(x: Sample, scheme: LacunaryScheme,
                      policy: VerdictPolicy = DEFAULT_POLICY) -> MeanVerdict:
    """Finite-scale verdict for blockwise-mean arithmetic convergence.

    Convergent when some witness drives the tail average of the per-block mean
    deviations to or below tol; the thresholds are read in deviation units.
    Each block mean is the math.fsum of its deviations over h_r, as in
    `ac_theta_block_means`, so no large early value cancels a later block.
    """
    iv = _intervals(x.length, "block", scheme, need=policy.tail_window)

    @cache
    def means(k: int) -> np.ndarray:
        return _deviation_fsums(x, k, iv) / (iv.hi - iv.lo)

    outcome, n = _search(means, lambda k: [means(k)], policy)
    return MeanVerdict(outcome, n, _tail_stats(means(n), policy.tail_window)[0], policy)
