"""Pointwise function descriptors and convergence-preservation batteries.

A RealFunction is a small closed vocabulary of descriptors (affine,
polynomial, clamp, composition, sum, difference, tabulated) rather than an
arbitrary callable, so reports can say exactly which function was tested and
every evaluation is reproducible. Continuous members preserve blockwise
arithmetic statistical convergence; a discontinuous tabulated step crossed by
a convergent sequence is the standard way to produce a contradiction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .kernel import SeqSample, check_witness, gcd_anchors
from .density import (
    DEFAULT_POLICY,
    Outcome,
    _check_eps,
    _first_hit,
    _intervals,
    asc_theta_verdict,
)
from .lacunary import LacunaryScheme
from .theorems import CheckReport, Evidence, HypothesisNotMet

__all__ = [
    "Affine",
    "Polynomial",
    "Clamp",
    "Composition",
    "FnSum",
    "FnDifference",
    "Tabulated",
    "RealFunction",
    "apply_fn",
    "describe_fn",
    "map_sequence",
    "BatteryEntry",
    "ContinuityReport",
    "continuity_battery",
    "closure_checks",
    "crossing_sequence",
    "uniform_limit_check",
]


@dataclass(frozen=True)
class Affine:
    """v -> a * v + b."""

    a: float
    b: float


@dataclass(frozen=True)
class Polynomial:
    """v -> coeffs[0] + coeffs[1] * v + coeffs[2] * v^2 + ... (ascending order)."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)


@dataclass(frozen=True)
class Clamp:
    """v -> min(max(v, lo), hi)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("clamp needs lo < hi")


@dataclass(frozen=True)
class Composition:
    """v -> outer(inner(v))."""

    outer: "RealFunction"
    inner: "RealFunction"


@dataclass(frozen=True)
class FnSum:
    """v -> f(v) + g(v)."""

    f: "RealFunction"
    g: "RealFunction"


@dataclass(frozen=True)
class FnDifference:
    """v -> f(v) - g(v)."""

    f: "RealFunction"
    g: "RealFunction"


@dataclass(frozen=True)
class Tabulated:
    """Interpolation through sorted sample points, clamped to the end values.

    rule = "linear" interpolates between neighbors; rule = "step" holds each
    ys[i] on [xs[i], xs[i+1]), which makes jump discontinuities expressible.
    Outside [xs[0], xs[-1]] both rules return the nearest end value.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    rule: str = "linear"

    def __post_init__(self) -> None:
        xs = tuple(float(v) for v in self.xs)
        ys = tuple(float(v) for v in self.ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("tabulated needs matching xs and ys with >= 2 points")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("tabulated xs must be strictly increasing")
        if self.rule not in ("linear", "step"):
            raise ValueError(f"rule must be 'linear' or 'step', got {self.rule!r}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


RealFunction = Union[Affine, Polynomial, Clamp, Composition, FnSum, FnDifference, Tabulated]


def apply_fn(f: RealFunction, v):
    """Evaluate a descriptor at a float or an ndarray (vectorized)."""
    if isinstance(f, Affine):
        return f.a * v + f.b
    if isinstance(f, Polynomial):
        acc = np.zeros_like(np.asarray(v, dtype=np.float64))
        for c in reversed(f.coeffs):
            acc = acc * v + c
        return acc if isinstance(v, np.ndarray) else float(acc)
    if isinstance(f, Clamp):
        out = np.clip(v, f.lo, f.hi)
        return out if isinstance(v, np.ndarray) else float(out)
    if isinstance(f, Composition):
        return apply_fn(f.outer, apply_fn(f.inner, v))
    if isinstance(f, FnSum):
        return apply_fn(f.f, v) + apply_fn(f.g, v)
    if isinstance(f, FnDifference):
        return apply_fn(f.f, v) - apply_fn(f.g, v)
    if isinstance(f, Tabulated):
        if f.rule == "linear":
            out = np.interp(v, f.xs, f.ys)
        else:
            idx = np.clip(np.searchsorted(f.xs, v, side="right") - 1, 0, len(f.ys) - 1)
            out = np.asarray(f.ys)[idx]
        return out if isinstance(v, np.ndarray) else float(out)
    raise TypeError(f"not a function descriptor: {f!r}")


def describe_fn(f: RealFunction) -> str:
    if isinstance(f, Affine):
        return f"affine({f.a:g}, {f.b:g})"
    if isinstance(f, Polynomial):
        return f"poly({', '.join(f'{c:g}' for c in f.coeffs)})"
    if isinstance(f, Clamp):
        return f"clamp({f.lo:g}, {f.hi:g})"
    if isinstance(f, Composition):
        return f"compose({describe_fn(f.outer)}, {describe_fn(f.inner)})"
    if isinstance(f, FnSum):
        return f"({describe_fn(f.f)} + {describe_fn(f.g)})"
    if isinstance(f, FnDifference):
        return f"({describe_fn(f.f)} - {describe_fn(f.g)})"
    if isinstance(f, Tabulated):
        return f"tabulated({len(f.xs)} pts, {f.rule})"
    raise TypeError(f"not a function descriptor: {f!r}")


def map_sequence(f: RealFunction, x: SeqSample) -> SeqSample:
    """Pointwise image sample f(x_m), m = 1..T."""
    return SeqSample(apply_fn(f, x.values), recipe=f"{describe_fn(f)} o ({x.recipe or '?'})")


@dataclass(frozen=True, eq=False)
class BatteryEntry:
    """One family member's before/after verdict outcomes."""

    name: str
    input_outcome: Outcome
    input_witness: int | None
    mapped_outcome: Outcome | None
    status: str  # support | inconclusive | contradiction | skipped

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input_outcome": self.input_outcome.value,
            "input_witness": self.input_witness,
            "mapped_outcome": None if self.mapped_outcome is None else self.mapped_outcome.value,
            "status": self.status,
        }


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    """Preservation evidence for one function over one family.

    A contradiction means a member was convergent at scale before mapping and
    NotConvergentAtScale after; an inconclusive mapped verdict never
    contradicts. Members whose input verdict is not convergent are skipped.
    """

    function: RealFunction
    entries: tuple[BatteryEntry, ...]
    support_count: int
    contradiction_count: int
    inconclusive_count: int
    skipped_count: int

    def to_dict(self) -> dict:
        return {
            "function": describe_fn(self.function),
            "entries": [e.to_dict() for e in self.entries],
            "support": self.support_count,
            "contradictions": self.contradiction_count,
            "inconclusive": self.inconclusive_count,
            "skipped": self.skipped_count,
        }


def continuity_battery(f: RealFunction, table: Sequence[Evidence]) -> ContinuityReport:
    """Blockwise verdicts before and after mapping each member of an evidence table through f.

    The verdict before mapping is the table's `theta`; each mapped member is
    searched once, under the member's scheme and policy.
    """
    entries = []
    for e in table:
        vin = e.theta
        if vin.outcome is not Outcome.CONVERGENT:
            entries.append(BatteryEntry(e.name, vin.outcome, vin.witness, None, "skipped"))
            continue
        vout = asc_theta_verdict(map_sequence(f, e.sample), e.scheme, vin.policy)
        if vout.outcome is Outcome.NOT_CONVERGENT:
            status = "contradiction"
        elif vout.outcome is Outcome.INCONCLUSIVE:
            status = "inconclusive"
        else:
            status = "support"
        entries.append(BatteryEntry(e.name, vin.outcome, vin.witness, vout.outcome, status))
    return ContinuityReport(f, tuple(entries), *(
        sum(e.status == status for e in entries)
        for status in ("support", "contradiction", "inconclusive", "skipped")))


def closure_checks(f_report: ContinuityReport, g_report: ContinuityReport,
                   table: Sequence[Evidence]) -> CheckReport:
    """Sum, difference, and composition must preserve what f and g preserve.

    `f_report` and `g_report` are the batteries of f and g over `table`.
    Vacuously passes when f or g already contradicts the battery on its own
    (the closure statement assumes both behave).
    """
    f, g = f_report.function, g_report.function
    instance = {"f": describe_fn(f), "g": describe_fn(g), "family_size": len(table)}
    if f_report.contradiction_count or g_report.contradiction_count:
        return CheckReport(
            "closure_checks", instance, True,
            {"note": "vacuous, a base function already contradicts",
             "f_contradictions": f_report.contradiction_count,
             "g_contradictions": g_report.contradiction_count},
        )
    derived = {
        "sum": continuity_battery(FnSum(f, g), table),
        "difference": continuity_battery(FnDifference(f, g), table),
        "composition": continuity_battery(Composition(f, g), table),
    }
    bad = {k: r.contradiction_count for k, r in derived.items() if r.contradiction_count}
    return CheckReport("closure_checks", instance, not bad, {"contradictions": bad} if bad else None)


def crossing_sequence(length: int, level: float = 1.0,
                      hold: int = DEFAULT_POLICY.n_max,
                      gap: float = DEFAULT_POLICY.grid[-1] / 2) -> SeqSample:
    """Convergent-at-scale sample whose values approach `level` from below.

    x_m = level for m <= hold and level - gap * (hold + 1) / m beyond, so
    every anchor value x_d with d <= hold sits exactly at `level` while the
    tail climbs toward it from below, never reaching it. Deviations from the
    held anchors never exceed `gap`; keep gap below the finest grid threshold
    and hold at least the policy's n_max, and the sample is decisively
    convergent at scale while any function with a jump at `level` maps it to
    one that deviates from all its anchors almost everywhere.
    """
    if hold < 1 or length <= hold:
        raise ValueError("need 1 <= hold < length")
    if not math.isfinite(gap) or gap <= 0:
        raise ValueError("gap must be finite and positive")
    vals = np.full(length, float(level))
    m = np.arange(hold + 1, length + 1, dtype=np.float64)
    vals[hold:] = level - gap * (hold + 1) / m
    return SeqSample(vals, recipe=f"crossing(level={level:g}, hold={hold}, gap={gap:g})")


def uniform_limit_check(f_list: Sequence[RealFunction], f: RealFunction,
                        x: SeqSample, scheme: LacunaryScheme, n: int, eps: float,
                        domain_probe: Sequence[float] = ()) -> CheckReport:
    """Three-piece exceedance cover under a uniform approximation of f.

    First finds the smallest N with max |f_N(v) - f(v)| < eps/3 over the probe
    set (the given grid plus every sample value; anchor values are sample
    values already). Refuses via HypothesisNotMet when no member qualifies.
    Then, for every block that fits the sample, the set where the mapped
    deviation |f(x_m) - f(x_<m,n>)| reaches eps must be covered by the union
    of the three eps/3 sets: approximation error at the anchor, deviation of
    the approximant, and approximation error at x_m.
    """
    n = check_witness(n)
    eps = _check_eps(eps)
    if not f_list:
        raise ValueError("f_list must not be empty")
    probe = np.unique(np.concatenate([np.asarray(domain_probe, dtype=np.float64),
                                      x.values]))
    f_probe = apply_fn(f, probe)
    chosen = None
    sup = None
    for i, fn in enumerate(f_list, start=1):
        sup = float(np.max(np.abs(apply_fn(fn, probe) - f_probe)))
        if sup < eps / 3:
            chosen = i
            break
    if chosen is None:
        raise HypothesisNotMet(
            f"no member of f_list approximates f within eps/3 = {eps / 3:g} "
            "on the probe set"
        )
    fn = f_list[chosen - 1]
    instance = {
        "f": describe_fn(f), "approximant_index": chosen, "sup_error": sup,
        "recipe": x.recipe, "n": n, "eps": eps,
        "scheme": list(scheme.points[:8]),
    }
    anchors = gcd_anchors(x.length, n)
    fx = apply_fn(f, x.values)
    fNx = apply_fn(fn, x.values)
    fxg, fNxg = fx[anchors], fNx[anchors]
    target = np.abs(fx - fxg) >= eps
    cover = (
        (np.abs(fNxg - fxg) >= eps / 3)
        | (np.abs(fNxg - fNx) >= eps / 3)
        | (np.abs(fNx - fx) >= eps / 3)
    )
    hit = _first_hit(target & ~cover, _intervals(x.length, "block", scheme))
    return CheckReport("uniform_limit", instance, hit is None, None if hit is None else
                       {"block": hit[0] + 1, "uncovered": hit[1]})
