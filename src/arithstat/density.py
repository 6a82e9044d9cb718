"""Exceedance sets, prefix and block densities, and finite-scale verdicts.

The objects here make limit statements about arithmetic statistical
convergence computable on a finite truncation. An exceedance set collects the
indices m whose deviation |x_m - x_<m,n>| meets or exceeds a threshold;
densities are exact counts divided by exact range sizes; a verdict summarizes
density curves over a grid of thresholds into one of three outcomes. Nothing
in this module ever claims a limit: ConvergentAtScale means "converged as far
as this truncation can see", and Inconclusive is an honest answer.

Membership always compares the raw float deviation with >=, no tolerance.
The theorem checks in `theorems` rely on these being exact index sets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .kernel import SeqSample, check_witness, deviations
from .lacunary import LacunaryScheme

__all__ = [
    "DEFAULT_GRID",
    "check_grid",
    "ExceedanceSet",
    "DensityCurve",
    "Outcome",
    "VerdictPolicy",
    "ConvergenceVerdict",
    "MeanVerdict",
    "exceedance_prefix",
    "prefix_density",
    "block_exceedance",
    "block_density",
    "prefix_checkpoints",
    "density_curve",
    "stat_prefix_density",
    "ac_sup_deviation",
    "ac_theta_block_mean",
    "ntheta_mean",
    "ntheta_norm",
    "asc_verdict",
    "asc_theta_verdict",
    "ac_theta_at_scale",
]

#: Default threshold grid, strictly decreasing.
DEFAULT_GRID = (1.0, 0.5, 0.1, 0.05, 0.01)


def check_grid(grid: Sequence[float]) -> tuple[float, ...]:
    """Validate a threshold grid: positive floats, strictly decreasing."""
    g = tuple(float(e) for e in grid)
    if not g:
        raise ValueError("epsilon grid must not be empty")
    if any(not math.isfinite(e) or e <= 0 for e in g):
        raise ValueError("epsilon grid values must be finite and positive")
    if any(b >= a for a, b in zip(g, g[1:])):
        raise ValueError("epsilon grid must be strictly decreasing")
    return g


def _check_eps(eps: float) -> float:
    e = float(eps)
    if not math.isfinite(e) or e <= 0:
        raise ValueError(f"epsilon must be finite and positive, got {eps!r}")
    return e


@dataclass(frozen=True)
class ExceedanceSet:
    """Indices with deviation >= epsilon inside one prefix or one block.

    Members lie in the integer interval (lo, hi]; for a prefix lo = 0 and
    hi = t, for a block the bounds are the block's. `index` is t for the
    prefix axis and the block number r for the block axis.
    """

    axis: str
    index: int
    lo: int
    hi: int
    epsilon: float
    witness: int
    members: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def span(self) -> int:
        return self.hi - self.lo

    @property
    def density(self) -> float:
        return self.count / self.span


@dataclass(frozen=True)
class DensityCurve:
    """Ordered (index, density) points along one axis for one (n, epsilon)."""

    axis: str
    epsilon: float
    witness: int
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


def _block_bounds(x: SeqSample, scheme: LacunaryScheme, r: int) -> tuple[int, int]:
    """Bounds (lo, hi] of block r, which must end inside the sample."""
    lo, hi = scheme.block(r)
    if hi > x.length:
        raise ValueError(f"block {r} ends at {hi}, beyond sample length {x.length}")
    return lo, hi


def _exceedance_set(x: SeqSample, n: int, eps: float, axis: str, index: int,
                    lo: int, hi: int) -> ExceedanceSet:
    """The indices lo < m <= hi whose deviation at witness n reaches eps."""
    n = check_witness(n)
    eps = _check_eps(eps)
    flags = deviations(x, n)[lo:hi] >= eps
    members = tuple(int(i) + lo + 1 for i in np.nonzero(flags)[0])
    return ExceedanceSet(axis, index, lo, hi, eps, n, members)


def exceedance_prefix(x: SeqSample, n: int, eps: float, t: int) -> ExceedanceSet:
    """{m <= t : |x_m - x_<m,n>| >= eps} as an exact index set."""
    if not 1 <= t <= x.length:
        raise ValueError(f"prefix length {t} outside 1..{x.length}")
    return _exceedance_set(x, n, eps, "prefix", t, 0, t)


def prefix_density(x: SeqSample, n: int, eps: float, t: int) -> float:
    """Share of m <= t whose deviation meets eps."""
    return exceedance_prefix(x, n, eps, t).density


def block_exceedance(x: SeqSample, scheme: LacunaryScheme, n: int, eps: float,
                     r: int) -> ExceedanceSet:
    """{m in block r : |x_m - x_<m,n>| >= eps} as an exact index set."""
    return _exceedance_set(x, n, eps, "block", r, *_block_bounds(x, scheme, r))


def block_density(x: SeqSample, scheme: LacunaryScheme, n: int, eps: float, r: int) -> float:
    """Exceedance count in block r divided by the block length h_r."""
    return block_exceedance(x, scheme, n, eps, r).density


def prefix_checkpoints(length: int, growth: float = 1.3) -> tuple[int, ...]:
    """Logarithmically spaced prefix lengths floor(growth^j), ending at `length`.

    Duplicates from the floor are dropped, and the full length is always the
    last checkpoint, so curves stay small even for very long samples.
    """
    if int(length) != length or length < 1:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    if not growth > 1:
        raise ValueError(f"growth must exceed 1, got {growth!r}")
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


def _intervals(length: int, axis: str, scheme: LacunaryScheme | None = None,
               growth: float = 1.3, need: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The integer intervals (lo, hi] of one axis inside 1..length, as two arrays.

    The prefix axis has one interval (0, t] per log-spaced checkpoint t; the
    block axis has the blocks (k_{r-1}, k_r] that end inside the sample.
    Raises when there are fewer than `need` of them.
    """
    if axis == "prefix":
        hi = np.asarray(prefix_checkpoints(length, growth))
        if hi.size < need:
            raise ValueError(f"sample has {hi.size} checkpoints, fewer than {need}")
        return np.zeros_like(hi), hi
    if axis == "block":
        if scheme is None:
            raise ValueError("block axis needs a scheme")
        avail = scheme.blocks_within(length)
        if avail < need:
            raise ValueError(f"{avail} blocks of the scheme fit the sample, fewer than {need}")
        pts = np.asarray(scheme.points[: avail + 1])
        return pts[:-1], pts[1:]
    raise ValueError(f"axis must be 'prefix' or 'block', got {axis!r}")


def _interval_sums(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of values[m - 1] over lo < m <= hi, for each interval (lo, hi].

    `values` holds one flag or number per index m = 1..T; flags sum to exact
    integer counts.
    """
    cum = np.cumsum(values)
    return cum[hi - 1] - np.where(lo > 0, cum[lo - 1], 0)


def density_curve(x: SeqSample, n: int, eps: float, axis: str,
                  scheme: LacunaryScheme | None = None,
                  growth: float = 1.3) -> DensityCurve:
    """Density against t (prefix axis) or against r (block axis).

    The prefix axis samples the log-spaced checkpoints; the block axis has one
    point per block that fits inside the sample.
    """
    n = check_witness(n)
    eps = _check_eps(eps)
    lo, hi = _intervals(x.length, axis, scheme, growth)
    vals = _interval_sums(deviations(x, n) >= eps, lo, hi) / (hi - lo)
    index = hi if axis == "prefix" else range(1, hi.size + 1)
    return DensityCurve(axis, eps, n, tuple((int(i), float(v)) for i, v in zip(index, vals)))


def stat_prefix_density(x: SeqSample, level: float, eps: float, t: int) -> float:
    """Share of m <= t with |x_m - level| >= eps (plain statistical convergence)."""
    eps = _check_eps(eps)
    if not math.isfinite(level):
        raise ValueError("level must be finite")
    if not 1 <= t <= x.length:
        raise ValueError(f"prefix length {t} outside 1..{x.length}")
    return int(np.count_nonzero(np.abs(x.values[:t] - level) >= eps)) / t


def ac_sup_deviation(x: SeqSample, n: int) -> float:
    """max over m <= T of |x_m - x_<m,n>| (finite-truncation sup)."""
    return float(deviations(x, n).max())


def ac_theta_block_mean(x: SeqSample, scheme: LacunaryScheme, n: int, r: int) -> float:
    """(1/h_r) * sum over block r of |x_m - x_<m,n>|."""
    lo, hi = _block_bounds(x, scheme, r)
    return math.fsum(deviations(x, n)[lo:hi]) / (hi - lo)


def ntheta_mean(x: SeqSample, scheme: LacunaryScheme, level: float, r: int) -> float:
    """(1/h_r) * sum over block r of |x_m - level|."""
    if not math.isfinite(level):
        raise ValueError("level must be finite")
    lo, hi = _block_bounds(x, scheme, r)
    return math.fsum(np.abs(x.values[lo:hi] - level)) / (hi - lo)


def ntheta_norm(x: SeqSample, scheme: LacunaryScheme) -> float:
    """max over available blocks of the block mean of |x_m| (truncation sup norm)."""
    avail = scheme.blocks_within(x.length)
    if avail < 1:
        raise ValueError("no block of the scheme fits inside the sample")
    return max(ntheta_mean(x, scheme, 0.0, r) for r in range(1, avail + 1))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Outcome(str, Enum):
    CONVERGENT = "ConvergentAtScale"
    NOT_CONVERGENT = "NotConvergentAtScale"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class VerdictPolicy:
    """Knobs of the finite-scale decision rule.

    tail_window: how many trailing curve points form the tail average.
    tol: tail level at or below which a witness counts as converged.
    tol_hi: tail level at or above which a curve counts as hard evidence
        against convergence (together with a non-decreasing tail).
    n_max: witness moduli 1..n_max are searched.
    growth: checkpoint spacing for prefix curves.
    """

    tail_window: int = 8
    tol: float = 0.02
    tol_hi: float = 0.2
    n_max: int = 64
    growth: float = 1.3

    def __post_init__(self) -> None:
        if self.tail_window < 1:
            raise ValueError("tail_window must be >= 1")
        if not 0 < self.tol < self.tol_hi:
            raise ValueError("need 0 < tol < tol_hi")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not self.growth > 1:
            raise ValueError("growth must exceed 1")

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_POLICY = VerdictPolicy()


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Three-valued decision plus the evidence it rests on.

    `witness` is present exactly when the outcome is ConvergentAtScale and is
    then the smallest passing modulus. `tail_densities` pairs each grid
    epsilon with the tail average of its density curve at `evaluated_n` (the
    witness when convergent, otherwise the best candidate seen).
    """

    outcome: Outcome
    witness: int | None
    evaluated_n: int
    axis: str
    tail_densities: tuple[tuple[float, float], ...]
    grid: tuple[float, ...]
    policy: VerdictPolicy

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.outcome is Outcome.CONVERGENT):
            raise ValueError("witness must be present iff the outcome is ConvergentAtScale")

    def tail_of(self, eps: float) -> float:
        for e, t in self.tail_densities:
            if e == eps:
                return t
        raise KeyError(f"epsilon {eps} not in the verdict grid")

    def to_dict(self) -> dict:
        d = self.policy.to_dict()
        d["grid"] = list(self.grid)
        return {
            "outcome": self.outcome.value,
            "witness": self.witness,
            "evaluated_n": self.evaluated_n,
            "axis": self.axis,
            "tail_densities": [[e, t] for e, t in self.tail_densities],
            "policy": d,
        }


@dataclass(frozen=True)
class MeanVerdict:
    """Finite-scale decision for block-mean (Cesaro style) convergence.

    The curve is the per-block mean deviation rather than a density, so the
    tail is in deviation units; the same tol / tol_hi thresholds apply. A
    failed search is Inconclusive, never NotConvergentAtScale, unless every
    candidate's tail is hard (at or above tol_hi and non-decreasing).
    """

    outcome: Outcome
    witness: int | None
    evaluated_n: int
    tail_mean: float
    policy: VerdictPolicy

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.outcome is Outcome.CONVERGENT):
            raise ValueError("witness must be present iff the outcome is ConvergentAtScale")

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "witness": self.witness,
            "evaluated_n": self.evaluated_n,
            "tail_mean": self.tail_mean,
            "policy": self.policy.to_dict(),
        }


def _tail_stats(curve: np.ndarray, window: int) -> tuple[float, bool]:
    seg = curve[-window:]
    return float(seg.mean()), bool(np.all(np.diff(seg) >= 0))


def _search(make_curves: Callable[[int], list[np.ndarray]],
            policy: VerdictPolicy) -> tuple[Outcome, int | None, int, list[float]]:
    """Witness search over n = 1..n_max: (outcome, witness, evaluated_n, tails).

    Convergent at the smallest n whose every curve tail is <= tol. Otherwise
    NotConvergent only if every n shows hard evidence (some curve with tail
    >= tol_hi and a non-decreasing tail segment); else Inconclusive. Without
    a witness, evaluated_n is the n whose largest tail is smallest. `tails`
    holds the tail of each curve at evaluated_n.
    """
    best: tuple[float, int, list[float]] | None = None
    every_n_hard = True
    for n in range(1, policy.n_max + 1):
        stats = [_tail_stats(c, policy.tail_window) for c in make_curves(n)]
        tails = [t for t, _ in stats]
        if max(tails) <= policy.tol:
            return Outcome.CONVERGENT, n, n, tails
        every_n_hard = every_n_hard and any(
            t >= policy.tol_hi and mono for t, mono in stats
        )
        if best is None or max(tails) < best[0]:
            best = (max(tails), n, tails)
    assert best is not None
    outcome = Outcome.NOT_CONVERGENT if every_n_hard else Outcome.INCONCLUSIVE
    return outcome, None, best[1], best[2]


def _density_verdict(x: SeqSample, scheme: LacunaryScheme | None, axis: str,
                     grid: Sequence[float], policy: VerdictPolicy | None) -> ConvergenceVerdict:
    """Witness search over the per-epsilon density curves of one axis."""
    grid = check_grid(grid)
    policy = policy or DEFAULT_POLICY
    lo, hi = _intervals(x.length, axis, scheme, policy.growth, policy.tail_window)
    span = hi - lo

    def curves(n: int) -> list[np.ndarray]:
        dev = deviations(x, n)
        return [_interval_sums(dev >= e, lo, hi) / span for e in grid]

    outcome, witness, n, tails = _search(curves, policy)
    return ConvergenceVerdict(outcome, witness, n, axis, tuple(zip(grid, tails)), grid, policy)


def asc_verdict(x: SeqSample, grid: Sequence[float] = DEFAULT_GRID,
                policy: VerdictPolicy | None = None) -> ConvergenceVerdict:
    """Finite-scale verdict for arithmetic statistical convergence.

    For each candidate witness the per-epsilon prefix density curves are
    summarized by the mean of their last `tail_window` checkpoints; see
    `_search` for the decision rule. Raises when the sample is too short to
    supply a full tail window of checkpoints.
    """
    return _density_verdict(x, None, "prefix", grid, policy)


def asc_theta_verdict(x: SeqSample, scheme: LacunaryScheme,
                      grid: Sequence[float] = DEFAULT_GRID,
                      policy: VerdictPolicy | None = None) -> ConvergenceVerdict:
    """Finite-scale verdict for lacunary (blockwise) arithmetic statistical convergence.

    Same decision rule as `asc_verdict`, with block density curves in place of
    prefix curves. Requires at least `tail_window` blocks inside the sample.
    """
    return _density_verdict(x, scheme, "block", grid, policy)


def ac_theta_at_scale(x: SeqSample, scheme: LacunaryScheme,
                      policy: VerdictPolicy | None = None) -> MeanVerdict:
    """Finite-scale verdict for blockwise-mean arithmetic convergence.

    Convergent when some witness drives the tail average of the per-block mean
    deviations to or below tol; the thresholds are read in deviation units.
    """
    policy = policy or DEFAULT_POLICY
    lo, hi = _intervals(x.length, "block", scheme, need=policy.tail_window)
    h = hi - lo
    outcome, witness, n, tails = _search(
        lambda n: [_interval_sums(deviations(x, n), lo, hi) / h], policy)
    return MeanVerdict(outcome, witness, n, tails[0], policy)
