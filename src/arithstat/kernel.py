"""gcd arithmetic, 1-indexed sequence samples, and deterministic generator families.

Samples are finite truncations x_1..x_T of real sequences. Index 1 is always
present because gcd(m, n) >= 1 makes x_1 a reachable anchor for every pair
(m, n), and every operation in the library quantifies over m <= T only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, Mapping, Union

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
    "PeriodicSample",
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


def _square_free_divisors(n: int) -> list[tuple[int, int]]:
    """The divisors d of n with mu(d) != 0, each with mu(d): the products of
    distinct primes of n, with sign (-1) to the number of primes."""
    terms, rest, p = [(1, 1)], n, 2
    while p * p <= rest:
        if rest % p == 0:
            terms += [(d * p, -mu) for d, mu in terms]
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        terms += [(d * rest, -mu) for d, mu in terms]
    return terms


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
    return _off_anchors(x.values, x.values, n)


def _off_anchors(v: np.ndarray, head: np.ndarray, n: int) -> np.ndarray:
    """|v[m - 1] - head[gcd(m, n) - 1]| for m = 1..v.size; head holds x_1..x_min(n, v.size)."""
    anchors = head[gcd_anchors(min(n, v.size), n)]  # one period
    rows, rest = divmod(v.size, p := anchors.size)
    out = np.empty_like(v)
    full = rows * p
    np.subtract(v[:full].reshape(rows, p), anchors, out=out[:full].reshape(rows, p))
    np.subtract(v[full:], anchors[:rest], out=out[full:])
    return np.abs(out, out=out)


def _exceeds(dev: np.ndarray, eps: float) -> np.ndarray:
    """The exceedance flags dev >= eps on the raw floats, no tolerance, after checking eps."""
    return dev >= _check_eps(eps)


def _running_counts(flags: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The count of set flags[..., m - 1] over 0 < m <= c, along the last axis,
    for each of the cuts 0 = c_0 < c_1 < ....

    np.add.reduceat counts each segment between two cuts once, and the
    counts run up to each cut. The flags are cut at the largest cut first,
    because reduceat's last segment runs to the end of the array. reduceat
    first copies the flags into the count type, so counts are int32 wherever
    that is exact: half the copy of int64, which some heap layouts fault in
    afresh on every call.
    """
    run = np.zeros((*flags.shape[:-1], cuts.size), dtype=np.int64)
    count = np.int32 if cuts[-1] < 2**31 else np.int64
    np.cumsum(np.add.reduceat(flags[..., :cuts[-1]], cuts[:-1], axis=-1, dtype=count),
              axis=-1, out=run[..., 1:])
    return run


def _mobius_counts(values: np.ndarray, e: int, eps: float, cuts: np.ndarray,
                   buf: np.ndarray) -> np.ndarray:
    """R_e(c) = sum over g | e of mu(e/g) * #{j <= c // e : |x_je - x_g| >= eps}, at each cut c.

    Moebius inversion gives [gcd(m, n) = g] = sum of mu(d) over the d | n/g
    with gd | m. So the count of m <= c with |x_m - x_<m,n>| >= eps is the
    sum of R_e(c) over the divisors e of n, and R_e does not depend on n.
    `values` holds x_1..x_T, the sorted cuts run from 0 to at least e, and
    `buf` holds at least T floats. x_e, x_2e, ... are copied into its first
    row, and each g with mu(e/g) != 0 gets a row of |x_je - x_g|, subtracted
    as `_off_anchors` does, so every flag is the one a deviation pass makes.
    There are 2^omega(e) <= e such rows of T // e entries, so they fit. The
    quotients c // e repeat, and reduceat would count a repeated cut's
    segment again, so the distinct ones are counted and each cut reads its
    quotient's count.
    """
    terms = _square_free_divisors(e)
    dev = buf[:len(terms) * (values.size // e)].reshape(len(terms), -1)
    dev[0] = values[e - 1::e]
    anchors = values[[e // d - 1 for d, _ in terms]]
    np.subtract(dev[0], anchors[1:, None], out=dev[1:])
    np.subtract(dev[0], anchors[0], out=dev[0])
    quotients = cuts // e
    step = quotients[1:] != quotients[:-1]
    run = _running_counts(_exceeds(np.abs(dev, out=dev), eps),
                          quotients[np.concatenate(([True], step))])
    return (np.array([mu for _, mu in terms]) @ run)[np.concatenate(([0], np.cumsum(step)))]


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
#: Indices a `rate` spike rule draws for at a time.
_DRAW_CHUNK = 2**16


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
        # drawn a chunk of indices at a time: successive draws continue one
        # stream, so the support is the one a single draw for 2..length makes
        rng, kept = np.random.default_rng(spec.seed), [np.zeros(0, np.int64)]
        for start in range(2, length + 1, _DRAW_CHUNK):
            m = np.arange(start, min(start + _DRAW_CHUNK, length + 1), dtype=np.int64)
            kept.append(m[rng.random(m.size) < np.minimum(1.0, spec.rate / m)])
        return np.concatenate(kept)
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


def _leaves(spec: GeneratorSpec) -> Iterator[GeneratorSpec]:
    """The `Constant`, `GcdPeriodic` and `SparseSpike` leaves of a spec, left to right."""
    if isinstance(spec, Scaled):
        yield from _leaves(spec.child)
    elif isinstance(spec, Summed):
        yield from _leaves(spec.left)
        yield from _leaves(spec.right)
    else:
        yield spec


def _fold(spec: GeneratorSpec, leaf: Callable[[GeneratorSpec], np.ndarray]) -> np.ndarray:
    """The spec's values from `leaf`'s values of each leaf, scaled and summed in tree order."""
    if isinstance(spec, Scaled):
        return float(spec.factor) * _fold(spec.child, leaf)
    if isinstance(spec, Summed):
        return _fold(spec.left, leaf) + _fold(spec.right, leaf)
    if isinstance(spec, (Constant, GcdPeriodic, SparseSpike)):
        return leaf(spec)
    raise TypeError(f"not a generator spec: {spec!r}")


def _leaf_values(spec: GeneratorSpec, length: int) -> np.ndarray:
    """A `Constant`, `GcdPeriodic` or `SparseSpike` leaf's values x_1..x_length."""
    if isinstance(spec, Constant):
        return np.full(length, float(spec.value))
    if isinstance(spec, GcdPeriodic):
        # anchors gcd(m, modulus) <= m never pass the length
        lut = np.full(min(spec.modulus, length), np.nan)
        for d, v in spec.table.items():
            if d <= length:
                lut[d - 1] = v
        return lut[gcd_anchors(length, spec.modulus)]
    vals = np.full(length, float(spec.base))
    vals[spike_support(spec, length) - 1] = spec.height
    return vals


def _values(spec: GeneratorSpec, length: int) -> np.ndarray:
    return _fold(spec, lambda leaf: _leaf_values(leaf, length))


def generate(spec: GeneratorSpec, length: int) -> SeqSample:
    """Materialize a generator spec as a sample of the given length."""
    if int(length) != length or length < 1:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    return SeqSample(_values(spec, int(length)), recipe=describe_spec(spec))


# ---------------------------------------------------------------------------
# Period-backed samples. Away from its spike indices, a spec's sample is
# periodic, and so are its deviations at every witness: the counts, sums and
# maxima over 1..T come from one period and a correction at each spike,
# without the T values.
# ---------------------------------------------------------------------------


def _exact_sum(values: np.ndarray) -> Fraction:
    """The exact sum of float values. math.fsum rounds it; the fsum of the values
    and the roundings taken off so far rounds the rest, until no rest is left."""
    taken: list[float] = []
    while rest := math.fsum(chain(memoryview(values), taken)):
        taken.append(-rest)
    return -sum(map(Fraction, taken), Fraction(0))


def _float_parts(value: Fraction) -> list[float]:
    """Floats whose exact sum is a dyadic value: each rounds what the ones before leave."""
    parts = []
    while value:
        parts.append(f := float(value))
        value -= Fraction(f)
    return parts


def _bare(spikes: np.ndarray, period: int, length: int) -> np.ndarray:
    """Which residues 1..period hold some index m <= length that is not a spike."""
    res, hits = np.unique((spikes - 1) % period, return_counts=True)
    bare = np.ones(period, dtype=bool)
    # residue r + 1 holds the (length - r - 1) // period + 1 indices r + 1, r + 1 + period, ...
    bare[res[hits == (length - res - 1) // period + 1]] = False
    return bare


@dataclass(frozen=True, eq=False)
class _Repeating:
    """y_m = period[(m - 1) % p] for m = 1..length, except y_s = at_spikes[i] at s = spikes[i].

    p = period.size is a period of y away from the sorted spike indices, or
    the length itself.
    """

    period: np.ndarray
    spikes: np.ndarray
    at_spikes: np.ndarray
    length: int

    @cached_property
    def _periodic_at_spikes(self) -> np.ndarray:
        return self.period[(self.spikes - 1) % self.period.size]

    def running_counts(self, grid, cuts: np.ndarray) -> np.ndarray:
        """Integer counts of the m <= c with y_m >= e, for each of the sorted cuts
        0 = c_0 < c_1 < ...: a row per threshold e of `grid`, a column per cut.

        Cuts inside one period are counted at in order, as over a sample's
        flags. Past one period, the count up to c = q p + r is q times the
        period's count and the count of its first r entries. The residues r of
        sorted cuts are out of order, so they are read off a running count of
        the whole period rather than sorted. Each spike up to c then adds its
        flag less the flag of the period entry it replaces.
        """
        p = self.period.size
        if cuts[-1] <= p:
            def upto(flags: np.ndarray) -> np.ndarray:
                return _running_counts(flags, cuts)
        else:
            whole, part = np.divmod(cuts, p)
            run = np.zeros(p + 1, dtype=np.int32 if p < 2**31 else np.int64)

            def upto(flags: np.ndarray) -> np.ndarray:
                np.cumsum(flags, out=run[1:])
                return whole * run[p] + run[part]
        at = np.searchsorted(self.spikes, cuts, side="right")
        fix = np.zeros(self.spikes.size + 1, dtype=np.int64)
        rows = []
        for e in grid:
            np.cumsum(_exceeds(self.at_spikes, e).astype(np.int64)
                      - _exceeds(self._periodic_at_spikes, e), out=fix[1:])
            rows.append(upto(_exceeds(self.period, e)) + fix[at])
        return np.array(rows, dtype=np.int64)

    def fsums(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """math.fsum of y_m over lo < m <= hi, per interval.

        An interval of w = k p + r indices holds k whole periods, then r
        period entries from the one at residue lo mod p on (one slice of the
        period repeated), and a spike replaces the period entry at its index.
        One fsum of k times the period's exact total (as floats that sum to it
        exactly), the r entries and each spike's change (its period entry
        taken off, then its amount) rounds the interval's exact sum once, as
        the fsum of its values does.
        """
        p = self.period.size
        whole, rest = np.divmod(hi - lo, p)
        start = lo % p
        end = start + rest
        total = _exact_sum(self.period) if whole.any() else 0
        copies = {k: _float_parts(k * total) for k in set(whole.tolist())}
        reach = int(end.max(initial=0))
        entries = memoryview(np.resize(self.period, reach) if reach > p else self.period)
        changes = memoryview(np.column_stack((-self._periodic_at_spikes, self.at_spikes)).ravel())
        first = 2 * np.searchsorted(self.spikes, lo, side="right")
        last = 2 * np.searchsorted(self.spikes, hi, side="right")
        # an interval with no whole period and no spike is one slice, which fsum
        # reads in about a third of the time it takes through a chain
        return np.array([
            math.fsum(entries[s:e] if i == j and not k
                      else chain(copies[k], entries[s:e], changes[i:j]))
            for k, s, e, i, j in zip(whole.tolist(), start.tolist(), end.tolist(),
                                     first.tolist(), last.tolist())])

    def max(self) -> float:
        """max of y_m over m <= length."""
        bare = _bare(self.spikes, self.period.size, self.length)
        return float(np.maximum(self.period.max(where=bare, initial=-np.inf),
                                self.at_spikes.max(initial=-np.inf)))


@dataclass(frozen=True, eq=False)
class PeriodicSample:
    """The sample x_1..x_T of a generator spec, held as one period and its spikes.

    Let bulk be the spec with each `SparseSpike` leaf at its base value. Away
    from the spike indices (the leaves' supports up to T), x_m = bulk(m), and
    bulk(m) depends only on m mod Q, the lcm of the spec's `GcdPeriodic`
    moduli. So at a witness n the deviations |x_m - x_<m,n>| repeat with
    period lcm(Q, n) away from the spikes: the anchors are among the first n
    values. Every value is the one `generate(spec, length)` makes, bit for bit,
    because the same float operations make it.

    `bulk` holds bulk(m) for m = 1..min(Q, T), with 0 at a residue whose
    indices up to T are all spikes, since no count reads it there;
    `spike_values` holds x_s at each of the sorted `spikes`. Values that are
    not finite raise ValueError, as in SeqSample.
    """

    spec: GeneratorSpec
    length: int
    recipe: str = field(init=False)
    modulus: int = field(init=False)
    bulk: np.ndarray = field(init=False, repr=False)
    spikes: np.ndarray = field(init=False, repr=False)
    spike_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if int(self.length) != self.length or self.length < 1:
            raise ValueError(f"length must be a positive integer, got {self.length!r}")
        length = int(self.length)
        leaves = list(_leaves(self.spec))
        q = math.lcm(*(leaf.modulus for leaf in leaves if isinstance(leaf, GcdPeriodic)))
        p = min(q, length)
        supports = {leaf: spike_support(leaf, length)
                    for leaf in leaves if isinstance(leaf, SparseSpike)}
        spikes = np.unique(np.concatenate([np.zeros(0, np.int64), *supports.values()]))

        def leaf_values(leaf: GeneratorSpec) -> np.ndarray:
            """The leaf's bulk values at 1..p, then its values at the spikes."""
            if isinstance(leaf, SparseSpike):
                at_spikes = np.where(np.isin(spikes, supports[leaf]), float(leaf.height),
                                     float(leaf.base))
                return np.concatenate((np.full(p, float(leaf.base)), at_spikes))
            bulk = _leaf_values(leaf, p)
            return np.concatenate((bulk, bulk[(spikes - 1) % p]))

        values = _fold(self.spec, leaf_values)
        bulk, spike_values = values[:p], values[p:]
        bulk[~_bare(spikes, p, length)] = 0.0
        for name, v in (("recipe", describe_spec(self.spec)), ("length", length), ("modulus", q),
                        ("bulk", bulk), ("spikes", spikes),
                        ("spike_values", spike_values)):
            object.__setattr__(self, name, v)
        if not math.isfinite(self.sup_abs):
            raise ValueError("sample values must all be finite")

    @cached_property
    def _magnitudes(self) -> _Repeating:
        return _Repeating(np.abs(self.bulk), self.spikes, np.abs(self.spike_values), self.length)

    @property
    def sup_abs(self) -> float:
        """max over m <= T of |x_m|."""
        return self._magnitudes.max()

    def _head(self, k: int) -> np.ndarray:
        """x_1..x_k, for k <= T."""
        head = np.resize(self.bulk[:k], k)
        inside = self.spikes[:np.searchsorted(self.spikes, k, side="right")]
        head[inside - 1] = self.spike_values[:inside.size]
        return head

    def _deviations(self, n: int) -> _Repeating:
        """|x_m - x_<m,n>| for m = 1..T, over one period of lcm(Q, n) or all of 1..T."""
        n = check_witness(n)
        p = min(math.lcm(self.modulus, n), self.length)
        head = self._head(min(n, p))
        dev = _off_anchors(np.resize(self.bulk, p) if p > self.bulk.size else self.bulk, head, n)
        at_spikes = np.abs(self.spike_values - head[np.gcd(self.spikes, n) - 1])
        return _Repeating(dev, self.spikes, at_spikes, self.length)

    def running_counts(self, n: int, grid, cuts: np.ndarray) -> np.ndarray:
        """Integer counts of the m <= c with |x_m - x_<m,n>| >= e, for each of the sorted
        cuts 0 = c_0 < c_1 < ... <= T: a row per threshold e of `grid`."""
        return self._deviations(n).running_counts(grid, cuts)

    def interval_fsums(self, n: int | None, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """math.fsum of |x_m - x_<m,n>| over lo < m <= hi, per interval; of |x_m| when n is None."""
        return (self._magnitudes if n is None else self._deviations(n)).fsums(lo, hi)

    def sup_deviation(self, n: int) -> float:
        """max over m <= T of |x_m - x_<m,n>|."""
        return self._deviations(n).max()


#: A sample as `density` reads it: every value held, or a spec's period and spikes.
Sample = Union[SeqSample, PeriodicSample]
