"""gcd arithmetic, 1-indexed sequence samples, and deterministic generator families.

Samples are finite truncations x_1..x_T of real sequences. Index 1 is always
present because gcd(m, n) >= 1 makes x_1 a reachable anchor for every pair
(m, n), and every operation in the library quantifies over m <= T only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "SeqSample",
    "check_witness",
    "divisors",
    "gcd_anchors",
    "deviation",
    "deviations",
    "Constant",
    "GcdPeriodic",
    "SparseSpike",
    "Scaled",
    "Summed",
    "GeneratorSpec",
    "spike_support",
    "describe_spec",
    "generate",
]


def check_witness(n: int) -> int:
    """Normalize a witness modulus, rejecting anything below 1 or past int64."""
    k = int(n)
    if k != n or k < 1:
        raise ValueError(f"witness modulus must be a positive integer, got {n!r}")
    if k >= 2**63:
        raise ValueError(f"witness modulus {k} does not fit in int64")
    return k


def _check_eps(eps: float) -> float:
    e = float(eps)
    if not math.isfinite(e) or e <= 0:
        raise ValueError(f"epsilon must be finite and positive, got {eps!r}")
    return e


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n in ascending order."""
    if n < 1:
        raise ValueError(f"divisors needs n >= 1, got {n}")
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return tuple(small + large[::-1])


@dataclass(frozen=True, eq=False)
class SeqSample:
    """Finite 1-indexed truncation of a real sequence; values[m - 1] holds x_m.

    The value array is copied and frozen on construction. `recipe` is a free
    form provenance string carried into reports.
    """

    values: np.ndarray
    recipe: str | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a sample needs a one-dimensional, nonempty value list")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample values must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def length(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.length

    def value(self, m: int) -> float:
        """x_m for 1 <= m <= T."""
        if not 1 <= m <= self.length:
            raise IndexError(f"index {m} outside 1..{self.length}")
        return float(self.values[m - 1])

    def __add__(self, other: "SeqSample") -> "SeqSample":
        if not isinstance(other, SeqSample):
            return NotImplemented
        if other.length != self.length:
            raise ValueError("samples must have equal length to be added")
        return SeqSample(
            self.values + other.values,
            recipe=f"sum({self.recipe or '?'}, {other.recipe or '?'})",
        )

    def __mul__(self, c) -> "SeqSample":
        if not isinstance(c, (int, float, np.integer, np.floating)):
            return NotImplemented
        return SeqSample(
            float(c) * self.values,
            recipe=f"scaled({float(c):g}, {self.recipe or '?'})",
        )

    __rmul__ = __mul__


def deviation(x: SeqSample, m: int, n: int) -> float:
    """|x_m - x_<m,n>| where <m,n> = gcd(m, n)."""
    n = check_witness(n)
    if not 1 <= m <= x.length:
        raise IndexError(f"index {m} outside 1..{x.length}")
    return abs(x.value(m) - x.value(math.gcd(m, n)))


def gcd_anchors(length: int, n: int) -> np.ndarray:
    """Array positions gcd(m, n) - 1 of the anchors x_<m,n>, for m = 1..length."""
    n = check_witness(n)
    period = np.gcd(np.arange(1, min(n, length) + 1), n) - 1  # gcd(m + n, n) = gcd(m, n)
    return np.tile(period, -(-length // period.size))[:length]


def deviations(x: SeqSample, n: int) -> np.ndarray:
    """All deviations |x_m - x_<m,n>| for m = 1..T as one array (entry m - 1).

    The anchor values x_gcd(m, n) repeat with period n, so one period of them
    is broadcast over the sample, row by row, with no full-length anchor array.
    """
    n = check_witness(n)
    v = x.values
    anchors = v[gcd_anchors(min(n, v.size), n)]  # one period
    rows, rest = divmod(v.size, p := anchors.size)
    out = np.empty_like(v)
    full = rows * p
    np.subtract(v[:full].reshape(rows, p), anchors, out=out[:full].reshape(rows, p))
    np.subtract(v[full:], anchors[:rest], out=out[full:])
    return np.abs(out, out=out)


def _exceeds(dev: np.ndarray, eps: float) -> np.ndarray:
    """The exceedance flags dev >= eps on the raw floats, no tolerance, after checking eps."""
    return dev >= _check_eps(eps)


def _flags(x: SeqSample, n: int, eps: float) -> np.ndarray:
    """The exceedance flags |x_m - x_<m,n>| >= eps for m = 1..T (entry m - 1)."""
    return _exceeds(deviations(x, n), eps)


# ---------------------------------------------------------------------------
# Generator specs. Everything below is deterministic: the same spec and
# length always produce the same sample, randomness enters only through an
# explicit integer seed inside the spec itself.
# ---------------------------------------------------------------------------

#: Largest gcd_periodic modulus. Its table is checked against divisors(),
#: which trial-divides up to the square root: 2**20 steps at this limit.
MAX_MODULUS = 2**40


@dataclass(frozen=True)
class Constant:
    """x_m = value for every m."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("constant value must be finite")


@dataclass(frozen=True)
class GcdPeriodic:
    """x_m = table[gcd(m, modulus)], with one table entry per divisor of modulus.

    These samples have deviation identically zero at witness n = modulus, which
    makes them the canonical exactly-convergent family.
    """

    modulus: int
    table: Mapping[int, float]

    def __post_init__(self) -> None:
        n0 = int(self.modulus)
        if n0 < 1 or n0 != self.modulus:
            raise ValueError(f"modulus must be a positive integer, got {self.modulus!r}")
        if n0 > MAX_MODULUS:
            raise ValueError(f"modulus {n0} exceeds the limit {MAX_MODULUS}")
        tab = {int(k): float(v) for k, v in self.table.items()}
        if set(tab) != set(divisors(n0)):
            raise ValueError(f"table needs exactly one entry per divisor of {n0}")
        if not all(math.isfinite(v) for v in tab.values()):
            raise ValueError("table values must be finite")
        object.__setattr__(self, "modulus", n0)
        object.__setattr__(self, "table", tab)


@dataclass(frozen=True)
class SparseSpike:
    """Base-valued sequence with spikes of one height on a sparse support.

    The support comes from exactly one rule:

    * ``support``: an explicit, strictly increasing tuple of indices;
    * ``power``: all powers p, p^2, p^3, ... of an integer p >= 2 (the
      default rule with p = 2, a natural-density-zero set);
    * ``rate``: a seeded random draw keeping index m >= 2 with probability
      min(1, rate / m), again density zero in expectation.

    The power and random rules never spike index 1, so x_1 stays at the base
    value and anchors deviations whenever gcd(m, n) = 1.
    """

    height: float = 1.0
    base: float = 0.0
    support: tuple[int, ...] | None = None
    power: int | None = None
    rate: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.height) or not math.isfinite(self.base):
            raise ValueError("height and base must be finite")
        rules = [r is not None for r in (self.support, self.power, self.rate)]
        if sum(rules) > 1:
            raise ValueError("give at most one of support, power, rate")
        if sum(rules) == 0:
            object.__setattr__(self, "power", 2)
        if self.support is not None:
            pts = tuple(int(s) for s in self.support)
            if not pts or pts[0] < 1 or any(b <= a for a, b in zip(pts, pts[1:])):
                raise ValueError("support must be a strictly increasing list of indices >= 1")
            object.__setattr__(self, "support", pts)
        if self.power is not None and int(self.power) < 2:
            raise ValueError("power rule needs an integer base >= 2")
        if self.rate is not None and not self.rate > 0:
            raise ValueError("rate must be positive")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class Scaled:
    """Pointwise scaling factor * child. factor = 0 is allowed (constant zero)."""

    factor: float
    child: "GeneratorSpec"

    def __post_init__(self) -> None:
        if not math.isfinite(self.factor):
            raise ValueError("scale factor must be finite")


@dataclass(frozen=True)
class Summed:
    """Pointwise sum of two child specs."""

    left: "GeneratorSpec"
    right: "GeneratorSpec"


GeneratorSpec = Union[Constant, GcdPeriodic, SparseSpike, Scaled, Summed]


def spike_support(spec: SparseSpike, length: int) -> np.ndarray:
    """Resolve the support of a spike spec inside 1..length (sorted indices)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if spec.support is not None:
        return np.array([s for s in spec.support if s <= length], dtype=np.int64)
    if spec.rate is not None:
        m = np.arange(2, length + 1, dtype=np.int64)
        probs = np.minimum(1.0, spec.rate / m)
        draws = np.random.default_rng(spec.seed).random(m.size)
        return m[draws < probs]
    pts, v = [], spec.power
    while v <= length:
        pts.append(v)
        v *= spec.power
    return np.array(pts, dtype=np.int64)


def describe_spec(spec: GeneratorSpec) -> str:
    """Short reproducible label for a spec, used as the sample recipe."""
    if isinstance(spec, Constant):
        return f"constant({spec.value:g})"
    if isinstance(spec, GcdPeriodic):
        return f"gcd_periodic(n0={spec.modulus})"
    if isinstance(spec, SparseSpike):
        if spec.support is not None:
            src = f"support={list(spec.support)}"
        elif spec.rate is not None:
            src = f"rate={spec.rate:g}, seed={spec.seed}"
        else:
            src = f"powers_of={spec.power}"
        return f"spikes({src}, height={spec.height:g}, base={spec.base:g})"
    if isinstance(spec, Scaled):
        return f"scaled({spec.factor:g}, {describe_spec(spec.child)})"
    if isinstance(spec, Summed):
        return f"sum({describe_spec(spec.left)}, {describe_spec(spec.right)})"
    raise TypeError(f"not a generator spec: {spec!r}")


def _values(spec: GeneratorSpec, length: int) -> np.ndarray:
    if isinstance(spec, Constant):
        return np.full(length, float(spec.value))
    if isinstance(spec, GcdPeriodic):
        # anchors gcd(m, modulus) <= m never pass the length
        lut = np.full(min(spec.modulus, length), np.nan)
        for d, v in spec.table.items():
            if d <= length:
                lut[d - 1] = v
        return lut[gcd_anchors(length, spec.modulus)]
    if isinstance(spec, SparseSpike):
        vals = np.full(length, float(spec.base))
        pts = spike_support(spec, length)
        vals[pts - 1] = spec.height
        return vals
    if isinstance(spec, Scaled):
        return float(spec.factor) * _values(spec.child, length)
    if isinstance(spec, Summed):
        return _values(spec.left, length) + _values(spec.right, length)
    raise TypeError(f"not a generator spec: {spec!r}")


def generate(spec: GeneratorSpec, length: int) -> SeqSample:
    """Materialize a generator spec as a sample of the given length."""
    if int(length) != length or length < 1:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    return SeqSample(_values(spec, int(length)), recipe=describe_spec(spec))
