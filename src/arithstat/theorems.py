"""Exact finite checks of the closure, bound, and transfer mechanisms.

Each check_* function verifies one mechanism on one concrete instance and
returns a CheckReport: one per axis (prefix, then block) for the set checks,
one per block inside the sample for the block checks. The checks are exact: set identities compare the boolean exceedance
flags of each index interval by interval, with one deviation pass per
(sample, n, eps), and inequalities between counted densities are compared
with denominators cleared in integer or Fraction arithmetic, so no floating
tolerance is involved anywhere a mathematical identity is claimed.

evidence_table searches the verdicts of a family of sequences once, and
run_inclusion_experiment compares them for one inclusion hypothesis; it reads
each verdict pair with verdict_status, as the continuity batteries do. A
scheme that does not meet the hypothesis (ratio_gate) causes a refusal
(HypothesisNotMet), which is not a failure.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .kernel import (
    Constant,
    GcdPeriodic,
    GeneratorSpec,
    Scaled,
    SeqSample,
    SparseSpike,
    Summed,
    _flags,
    deviations,
    divisors,
    generate,
)
from .density import (
    DEFAULT_POLICY,
    ConvergenceVerdict,
    Intervals,
    MeanVerdict,
    Outcome,
    VerdictPolicy,
    ac_theta_at_scale,
    asc_verdicts,
    coarse_block_density_from_fine,
    density_curve,
    _check_eps,
    _first_hit,
    _interval_fsums,
    _interval_sums,
    _intervals,
    _pairs_within,
)
from .lacunary import (
    LacunaryScheme,
    factorial_points,
    geometric_points,
    make_scheme,
    points_upto,
    polynomial_points,
    q_ratio_stats,
    refinement_map,
)

__all__ = [
    "HypothesisNotMet",
    "CheckReport",
    "check_scalar_closure",
    "check_sum_closure",
    "check_markov_step",
    "check_lac1_bound",
    "check_delta_transfer",
    "check_refinement_aggregation",
    "Evidence",
    "evidence_table",
    "verdict_status",
    "SequenceComparison",
    "InclusionExperiment",
    "ratio_gate",
    "run_inclusion_experiment",
    "standard_family",
    "ramp_sample",
    "SuiteResult",
    "Suite",
    "SUITES",
    "run_suite",
    "run_property_suite",
]

#: Finite surrogate for "liminf q_r > 1": the tail minimum must reach this.
MIN_LIMINF = 1.05
#: Finite surrogate for "limsup q_r finite": the tail maximum must stay below this.
MAX_LIMSUP = 64.0
#: Largest gap the refinement check allows between an aggregated coarse block
#: density and the directly counted one, which differ only by float rounding.
AGGREGATION_TOLERANCE = 1e-12


class HypothesisNotMet(Exception):
    """An experiment or check was refused because its hypothesis fails.

    Refusal is reported, not counted as a failure: the mechanism under test
    promises nothing when its premises do not hold.
    """


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of one exact check on one instance."""

    name: str
    instance: dict
    passed: bool
    witness: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _scheme_preview(scheme: LacunaryScheme) -> list[int]:
    pts = scheme.points
    return list(pts) if len(pts) <= 12 else list(pts[:6]) + [-1] + list(pts[-5:])


def _set_reports(name: str, instance: dict, mask: np.ndarray, scheme: LacunaryScheme,
                 witness: Callable[[int, list[int]], dict]) -> list[CheckReport]:
    """[prefix report, block report] of a set check broken by each flag mask[m - 1].

    The prefix axis is the one interval (0, T], reported at T; the block axis
    is every block that fits the sample, reported at the number r of the
    first block holding a flag. A failed report's witness is witness(at,
    first 20 flagged m of that interval).
    """
    flagged = (np.flatnonzero(mask)[:20] + 1).tolist()
    hit = _first_hit(mask, _intervals(mask.size, "block", scheme))
    return [CheckReport(name, {**instance, "axis": axis, "scheme": _scheme_preview(scheme)},
                        found is None, None if found is None else witness(*found))
            for axis, found in (("prefix", (mask.size, flagged) if flagged else None),
                                ("block", None if hit is None else (hit[0] + 1, hit[1])))]


def check_scalar_closure(x: SeqSample, c: float, n: int, eps: float,
                         scheme: LacunaryScheme) -> list[CheckReport]:
    """Exceedance of c*x at eps must equal exceedance of x at eps/|c|, as sets.

    c = 0 is the trivial branch: the scaled sample is constant zero and every
    exceedance set must be empty. Returns [prefix report, block report].
    """
    instance = {"recipe": x.recipe, "length": x.length, "c": c, "n": n, "eps": eps}
    if c == 0:
        return _set_reports("scalar_closure", instance, _flags(0.0 * x, n, eps), scheme,
                            lambda at, _: {"nonempty_at": at})
    return _set_reports("scalar_closure", instance,
                        _flags(c * x, n, eps) ^ _flags(x, n, eps / abs(c)), scheme,
                        lambda at, m: {"at": at, "symmetric_difference": m})


def check_sum_closure(x: SeqSample, y: SeqSample, n: int, eps: float,
                      scheme: LacunaryScheme) -> list[CheckReport]:
    """Exceedance of x+y at eps must sit inside the union of the eps/2 sets.

    Returns [prefix report, block report].
    """
    if x.length != y.length:
        raise ValueError("samples must have equal length")
    instance = {"recipe_x": x.recipe, "recipe_y": y.recipe, "length": x.length,
                "n": n, "eps": eps}
    stray = _flags(x + y, n, eps) & ~(_flags(x, n, eps / 2) | _flags(y, n, eps / 2))
    return _set_reports("sum_closure", instance, stray, scheme,
                        lambda at, m: {"at": at, "outside_union": m})


def _block_reports(name: str, x: SeqSample, scheme: LacunaryScheme, n: int, eps: float,
                   witnesses: Iterable[dict | None]) -> list[CheckReport]:
    """One report per block r = 1, 2, ..., passed exactly when its witness is None."""
    preview = _scheme_preview(scheme)
    return [
        CheckReport(name, {"recipe": x.recipe, "length": x.length, "n": n, "eps": eps,
                           "r": r, "scheme": preview},
                    witness is None, witness)
        for r, witness in enumerate(witnesses, 1)
    ]


def check_markov_step(x: SeqSample, scheme: LacunaryScheme, n: int,
                      eps: float) -> list[CheckReport]:
    """eps * |block exceedance| <= sum of deviations over the block, for every block r.

    One report per block inside the sample, in order, all from one deviation pass.
    """
    iv = _intervals(x.length, "block", scheme, need=0)
    dev = deviations(x, n)
    counts = _interval_sums(dev >= _check_eps(eps), iv).tolist()
    totals = _interval_fsums(dev, iv).tolist()
    return _block_reports("markov_step", x, scheme, n, eps, (
        None if eps * count <= total else {"lhs": eps * count, "rhs": total}
        for count, total in zip(counts, totals)))


def check_lac1_bound(x: SeqSample, scheme: LacunaryScheme, n: int,
                     eps: float) -> list[CheckReport]:
    """Prefix density at k_r >= (h_r / k_r) * block density of block r, for every block r.

    One report per block inside the sample, in order. Both sides reduce to
    exceedance counts over the common denominator k_r, so the integer counts
    of every (0, k_r] and block, from one flag pass, are compared; the
    reported densities are floats for the record only.
    """
    blocks = _intervals(x.length, "block", scheme, need=0)
    lo, hi = blocks.lo, blocks.hi
    counts = _interval_sums(_flags(x, n, eps), Intervals(
        np.concatenate((np.zeros_like(lo), lo)), np.concatenate((hi, hi)))).tolist()
    return _block_reports("lac1_bound", x, scheme, n, eps, (
        None if pref >= blk else {
            "prefix_density": pref / k_r,
            "scaled_block_density": ((k_r - a) / k_r) * (blk / (k_r - a)),
        }
        for a, k_r, pref, blk in zip(lo.tolist(), hi.tolist(),
                                     counts[:lo.size], counts[lo.size:])))


def check_delta_transfer(x: SeqSample, coarse: LacunaryScheme,
                         fine: LacunaryScheme, n: int, eps: float) -> CheckReport:
    """Fine block density <= (1/delta) * coarse block density, for every fine block.

    delta is the minimum length ratio of the refinement map; the inequality is
    evaluated exactly on the counts, with its denominators cleared in integers.
    """
    rel = refinement_map(coarse, fine)
    delta = rel.delta_fraction()
    instance = {
        "recipe": x.recipe, "length": x.length, "n": n, "eps": eps,
        "coarse": _scheme_preview(coarse), "fine": _scheme_preview(fine),
        "delta": float(delta),
    }
    blocks = _intervals(x.length, "block", coarse)
    pairs = _pairs_within(rel, x.length)
    counts = _interval_sums(_flags(x, n, eps), Intervals(
        np.concatenate((blocks.lo, [p.lo for p in pairs])),
        np.concatenate((blocks.hi, [p.hi for p in pairs])))).tolist()
    coarse_counts, fine_counts = counts[:blocks.lo.size], counts[blocks.lo.size:]
    for p, fine_count in zip(pairs, fine_counts):
        coarse_count = coarse_counts[p.coarse_index - 1]
        if (fine_count * p.coarse_size * delta.numerator
                > coarse_count * p.size * delta.denominator):
            lhs = Fraction(fine_count, p.size)
            rhs = Fraction(coarse_count, p.coarse_size) / delta
            return CheckReport(
                "delta_transfer", instance, False,
                {"coarse_block": p.coarse_index, "fine_block": p.fine_index,
                 "lhs": float(lhs), "rhs": float(rhs)},
            )
    return CheckReport("delta_transfer", instance, True)


def check_refinement_aggregation(x: SeqSample, coarse: LacunaryScheme, fine: LacunaryScheme,
                                 n: int, eps: float) -> list[CheckReport]:
    """Each coarse block density aggregated from its fine blocks equals the counted one.

    One report per coarse block inside the sample, in order; the two differ only by
    float rounding, so a gap above AGGREGATION_TOLERANCE fails. Every report's
    witness holds both densities and their gap.
    """
    aggregated = coarse_block_density_from_fine(x, refinement_map(coarse, fine), n, eps)
    counted = density_curve(x, n, eps, "block", coarse).values
    schemes = {"coarse": _scheme_preview(coarse), "fine": _scheme_preview(fine)}
    return [
        CheckReport("refinement_aggregation",
                    {"recipe": x.recipe, "length": x.length, "n": n, "eps": eps, "r": r,
                     **schemes},
                    not abs(agg - direct) > AGGREGATION_TOLERANCE,
                    {"aggregated": agg, "direct": direct, "error": abs(agg - direct)})
        for r, (agg, direct) in enumerate(zip(aggregated, counted), 1)
    ]


# ---------------------------------------------------------------------------
# Inclusion experiments
# ---------------------------------------------------------------------------

HYPOTHESES = ("lac1", "lac2", "corollary", "ac_subset")


@dataclass(frozen=True, eq=False)
class Evidence:
    """One family member's verdicts under one scheme, each searched once.

    `asc` and `theta` are its `asc_verdicts` pair; `theta` equals
    `asc_theta_verdict`, as both count the same integers over the same blocks.
    `mean`, its `ac_theta_at_scale` verdict, is searched on first read: only
    the ac_subset experiment reads it.
    """

    name: str
    sample: SeqSample
    scheme: LacunaryScheme
    asc: ConvergenceVerdict
    theta: ConvergenceVerdict

    @cached_property
    def mean(self) -> MeanVerdict:
        return ac_theta_at_scale(self.sample, self.scheme, self.theta.policy)


def evidence_table(family: Sequence[tuple[str, SeqSample]], scheme: LacunaryScheme,
                   policy: VerdictPolicy = DEFAULT_POLICY) -> tuple[Evidence, ...]:
    """The verdicts of every family member, for the experiments and batteries to share."""
    if not family:
        raise ValueError("family must not be empty")
    return tuple(Evidence(name, x, scheme, *asc_verdicts(x, scheme, policy))
                 for name, x in family)


def verdict_status(left, right) -> str:
    """How one member's verdict pair bears on "left convergent implies right convergent".

    "skipped" when `left` is not convergent (`right` is then not read);
    otherwise "contradiction", "inconclusive" or "support" as `right` is
    NotConvergentAtScale, Inconclusive or ConvergentAtScale. An inconclusive
    verdict never contradicts.
    """
    if left.outcome is not Outcome.CONVERGENT:
        return "skipped"
    return {Outcome.NOT_CONVERGENT: "contradiction", Outcome.INCONCLUSIVE: "inconclusive",
            Outcome.CONVERGENT: "support"}[right.outcome]


@dataclass(frozen=True, eq=False)
class SequenceComparison:
    """Verdict pair for one family member under one implication.

    In a continuity battery, `right` is None when `left` is not convergent.
    """

    name: str
    left: ConvergenceVerdict | MeanVerdict
    right: ConvergenceVerdict | None
    supports: bool

    @property
    def status(self) -> str:
        return verdict_status(self.left, self.right)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "left": self.left.to_dict(),
            "right": None if self.right is None else self.right.to_dict(),
            "supports": self.supports,
        }


@dataclass(frozen=True, eq=False)
class InclusionExperiment:
    """Family-level evidence for one inclusion between convergence notions."""

    hypothesis: str
    scheme_points: tuple[int, ...]
    liminf_estimate: float
    limsup_estimate: float
    comparisons: tuple[SequenceComparison, ...]
    summary: dict

    def to_dict(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "scheme_points": list(self.scheme_points),
            "liminf_estimate": self.liminf_estimate,
            "limsup_estimate": self.limsup_estimate,
            "comparisons": [c.to_dict() for c in self.comparisons],
            "summary": self.summary,
        }


def ratio_gate(hypothesis: str, scheme: LacunaryScheme) -> tuple[float, float]:
    """The scheme's q_ratio_stats, or HypothesisNotMet if it fails the hypothesis's gate.

    lac1 needs the tail minimum to reach MIN_LIMINF, lac2 the tail maximum to
    stay at or below MAX_LIMSUP, corollary both; ac_subset has no gate.
    """
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
    lo, hi = q_ratio_stats(scheme)
    if hypothesis in ("lac1", "corollary") and lo < MIN_LIMINF:
        raise HypothesisNotMet(f"tail ratio minimum {lo:.4f} is below {MIN_LIMINF}; the "
                               "scheme does not look bounded away from ratio 1")
    if hypothesis in ("lac2", "corollary") and hi > MAX_LIMSUP:
        raise HypothesisNotMet(f"tail ratio maximum {hi:.4f} exceeds {MAX_LIMSUP}; the "
                               "scheme does not look boundedly lacunary")
    return lo, hi


def run_inclusion_experiment(hypothesis: str, table: Sequence[Evidence]) -> InclusionExperiment:
    """Compare the verdicts of an evidence table for one inclusion hypothesis.

    hypotheses:
      lac1       plain convergence should transfer to the blockwise notion;
      lac2       blockwise should transfer back to plain;
      corollary  both directions at once;
      ac_subset  blockwise-mean convergence should imply the blockwise
                 statistical verdict.

    `ratio_gate` checks the table's scheme before any verdict is read.

    A member supports the inclusion unless its `verdict_status` is a
    contradiction; for `corollary` the reverse pair must not contradict
    either. Inconclusive right verdicts are tallied but never contradict.
    """
    scheme = table[0].scheme
    lim_lo, lim_hi = ratio_gate(hypothesis, scheme)

    comparisons = []
    for e in table:
        if hypothesis == "ac_subset":
            left, right = e.mean, e.theta
        else:
            # lac1 and corollary share the left-to-right orientation
            left, right = (e.theta, e.asc) if hypothesis == "lac2" else (e.asc, e.theta)
        supports = verdict_status(left, right) != "contradiction" and not (
            hypothesis == "corollary" and verdict_status(right, left) == "contradiction")
        comparisons.append(SequenceComparison(e.name, left, right, supports))

    statuses = [c.status for c in comparisons]
    contradictions = sum(not c.supports for c in comparisons)
    summary = {
        "total": len(comparisons),
        "supported": len(comparisons) - contradictions,
        "contradictions": contradictions,
        "left_convergent": len(statuses) - statuses.count("skipped"),
        "both_convergent": statuses.count("support"),
        "right_inconclusive_when_left_convergent": statuses.count("inconclusive"),
    }
    return InclusionExperiment(
        hypothesis, scheme.points, lim_lo, lim_hi, tuple(comparisons), summary,
    )


# ---------------------------------------------------------------------------
# Deterministic families and negative controls
# ---------------------------------------------------------------------------


def standard_family(length: int) -> list[tuple[str, SeqSample]]:
    """Twelve members exercising every generator kind and their combinations.

    Every member is built to be genuinely convergent at scale: constants and
    gcd-periodic samples have some exactly-zero-deviation witness, spike
    samples have density-zero supports anchored at x_1, and the combinations
    are chosen so a common witness exists (a sum of gcd-periodic samples needs
    a common modulus multiple; spikes paired with a gcd-periodic base must
    avoid spiking any divisor of its modulus, which powers of 3 against
    modulus 4 guarantee).
    """
    g6 = GcdPeriodic(6, {d: float(d) for d in divisors(6)})
    g12 = GcdPeriodic(12, {d: d / 2 for d in divisors(12)})
    g5 = GcdPeriodic(5, {1: 0.5, 5: -1.5})
    g4 = GcdPeriodic(4, {1: 1.0, 2: 2.5, 4: -1.0})
    pow2 = SparseSpike(height=10.0, power=2)
    pow3 = SparseSpike(height=-4.0, power=3)
    specs: list[tuple[str, GeneratorSpec]] = [
        ("const_2", Constant(2.0)),
        ("const_neg", Constant(-0.75)),
        ("gcdper_6", g6),
        ("gcdper_12", g12),
        ("gcdper_5", g5),
        ("spikes_pow2", pow2),
        ("spikes_pow3", pow3),
        ("scaled_gcdper", Scaled(3.0, g6)),
        ("scaled_spikes", Scaled(-0.5, pow2)),
        ("sum_gcdper", Summed(g6, g12)),
        ("sum_gcdper_spikes", Summed(g4, pow3)),
        ("sum_spikes", Summed(pow2, pow3)),
    ]
    return [(name, generate(spec, length)) for name, spec in specs]


def ramp_sample(length: int) -> SeqSample:
    """x_m = m, the canonical non-convergent control."""
    return SeqSample(np.arange(1, length + 1, dtype=np.float64), recipe="ramp")


# ---------------------------------------------------------------------------
# Randomized instance suites
# ---------------------------------------------------------------------------
#
# All random values are multiples of 1/8 in a modest range, so every product
# and sum that the checks perform (including scaling by 0.5, 3, or 10) is
# exactly representable in a double and the exact set identities carry over
# from the real numbers to float arithmetic verbatim.

_EPS_CHOICES = (2.0, 1.0, 0.5, 0.25, 0.1, 0.05)
_SCALE_CHOICES = (0.5, 1.0, 3.0, 10.0, -0.5, -1.0, -3.0, -10.0)


def _dyadic(rng: np.random.Generator, lo: float = -8.0, hi: float = 8.0) -> float:
    return float(rng.integers(int(lo * 8), int(hi * 8) + 1)) / 8.0


def _random_base_spec(rng: np.random.Generator) -> GeneratorSpec:
    kind = rng.integers(0, 3)
    if kind == 0:
        return Constant(_dyadic(rng))
    if kind == 1:
        n0 = int(rng.integers(2, 13))
        return GcdPeriodic(n0, {d: _dyadic(rng) for d in divisors(n0)})
    which = rng.integers(0, 3)
    if which == 0:
        return SparseSpike(height=_dyadic(rng, -16, 16), power=int(rng.integers(2, 5)))
    if which == 1:
        seed = int(rng.integers(0, 2**31))
        return SparseSpike(height=_dyadic(rng, -16, 16), rate=2.0, seed=seed)
    start = int(rng.integers(2, 20))
    step = int(rng.integers(2, 9))
    support = tuple(range(start, start + 10 * step, step))
    return SparseSpike(height=_dyadic(rng, -16, 16), support=support)


def random_generator_spec(rng: np.random.Generator) -> GeneratorSpec:
    """Random spec on the dyadic value grid; may scale or sum two base kinds."""
    combo = rng.integers(0, 4)
    if combo == 0:
        return Scaled(float(rng.choice((-2.0, -0.5, 0.5, 2.0, 3.0))), _random_base_spec(rng))
    if combo == 1:
        return Summed(_random_base_spec(rng), _random_base_spec(rng))
    return _random_base_spec(rng)


def random_sample(rng: np.random.Generator, max_length: int = 10_000) -> SeqSample:
    """Random sample of 64..max_length values: a generated spec, or raw dyadic
    noise (seeded, reproducible)."""
    length = int(rng.integers(64, max_length + 1))
    if rng.random() < 0.25:
        seed = int(rng.integers(0, 2**31))
        vals = np.random.default_rng(seed).integers(-64, 65, size=length) / 8.0
        return SeqSample(vals, recipe=f"dyadic_noise(seed={seed})")
    return generate(random_generator_spec(rng), length)


def random_scheme(rng: np.random.Generator, max_point: int) -> LacunaryScheme:
    """Random geometric, polynomial, or factorial scheme inside 1..max_point."""
    kind = rng.integers(0, 3)
    if kind == 0:
        ratio = float(rng.choice((1.5, 2.0, 3.0)))
        points = geometric_points(ratio, int(rng.integers(1, 4)))
    elif kind == 1:
        points = polynomial_points(int(rng.integers(2, 4)))
    else:
        points = factorial_points()
    return make_scheme(points_upto(points, max_point))


def random_refinement(rng: np.random.Generator,
                      max_point: int) -> tuple[LacunaryScheme, LacunaryScheme]:
    """(coarse, fine) pair: subset coarsening, singleton insertion, or identity."""
    mode = rng.integers(0, 3)
    base = random_scheme(rng, max_point)
    if mode == 0:
        keep = [p for p in base.points[1:-1] if rng.random() < 0.5]
        coarse = make_scheme([base.points[0]] + keep + [base.points[-1]])
        return coarse, base
    if mode == 1:
        extra = {
            p + 1
            for p, q in zip(base.points, base.points[1:])
            if p + 1 < q and rng.random() < 0.5
        }
        fine = make_scheme(sorted(set(base.points) | extra))
        return base, fine
    return base, base  # delta = 1 self-refinement


@dataclass(eq=False)
class SuiteResult:
    """Tally of one randomized check suite."""

    name: str
    instances: int
    failures: list[CheckReport] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "failures": [f.to_dict() for f in self.failures],
            "passed": self.passed,
            **self.extra,
        }


@dataclass(frozen=True, eq=False)
class Suite:
    """One randomized suite: `draw(rng, x)` gives the keyword parameters of
    `check(x, **params, n=n, eps=eps)`, a `half` suite runs max(50, instances // 2)
    instances, and `extra(checks, low, high)` gives the result's extra keys from the
    report count and the (min, max) of `measure` over the reports ((inf, -inf) without one).
    """

    draw: Callable[[np.random.Generator, SeqSample], dict]
    check: Callable[..., Iterable[CheckReport]]
    half: bool = False
    measure: Callable[[CheckReport], float] | None = None
    extra: Callable[[int, float, float], dict] = lambda checks, low, high: {}


def _draw_refinement(rng: np.random.Generator, x: SeqSample) -> dict:
    return dict(zip(("coarse", "fine"), random_refinement(rng, x.length)))


def _draw_scheme(rng: np.random.Generator, x: SeqSample) -> dict:
    return {"scheme": random_scheme(rng, x.length)}


def _blocks_checked(checks: int, low: float, high: float) -> dict:
    return {"blocks_checked": checks}


#: The randomized suites in report order; suite i runs under seed + i.
SUITES: dict[str, Suite] = {
    # scales +-{0.5, 1, 3, 10}, and 0 one time in twenty
    "scalar_closure": Suite(lambda rng, x: {
        "scheme": random_scheme(rng, x.length),
        "c": float(rng.choice(_SCALE_CHOICES)) if rng.random() > 0.05 else 0.0,
    }, check_scalar_closure),
    "sum_closure": Suite(lambda rng, x: {
        "y": generate(random_generator_spec(rng), x.length),
        "scheme": random_scheme(rng, x.length),
    }, check_sum_closure),
    "markov_step": Suite(_draw_scheme, check_markov_step, extra=_blocks_checked),
    "refinement_aggregation": Suite(
        _draw_refinement, check_refinement_aggregation, half=True,
        measure=lambda rep: rep.witness["error"],
        extra=lambda checks, low, high: {"max_error": max(0.0, high),
                                         "tolerance": AGGREGATION_TOLERANCE}),
    # self and singleton refinements included
    "delta_transfer": Suite(
        _draw_refinement, lambda x, **params: [check_delta_transfer(x, **params)], half=True,
        measure=lambda rep: rep.instance["delta"],
        extra=lambda checks, low, high: {"min_delta": low, "max_delta": high}),
    "lac1_bound": Suite(_draw_scheme, check_lac1_bound, half=True, extra=_blocks_checked),
}


def run_suite(name: str, seed: int, instances: int, max_length: int) -> SuiteResult:
    """Run `SUITES[name]`, looked up where it runs, keeping only its failed reports.

    Each instance draws a sample, then the suite's own parameters, then a
    witness n and an epsilon, all from one rng seeded with `seed`.
    """
    suite = SUITES[name]
    rng = np.random.default_rng(seed)
    result = SuiteResult(name, instances)
    checks, low, high = 0, math.inf, -math.inf
    for _ in range(instances):
        x = random_sample(rng, max_length=max_length)
        params = suite.draw(rng, x)
        n = int(rng.integers(1, 17))
        eps = float(rng.choice(_EPS_CHOICES))
        for rep in suite.check(x, **params, n=n, eps=eps):
            checks += 1
            if suite.measure is not None:
                v = suite.measure(rep)
                low, high = min(low, v), max(high, v)
            if not rep.passed:
                result.failures.append(rep)
    result.extra.update(suite.extra(checks, low, high))
    return result


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_property_suite(seed: int = 0, *, instances: int = 1000, max_length: int = 10_000,
                       meanwhile: Callable[[], object] = lambda: None) -> dict[str, SuiteResult]:
    """Every suite of SUITES through `run_suite`, by name in order, while `meanwhile()` runs here.

    Each runs `instances` instances, or max(50, instances // 2) where its row is `half`,
    in forked workers, one per suite up to the usable CPUs, that keep this process's
    imports and patches and look up `SUITES[name]` themselves; with one CPU or no fork,
    here after `meanwhile()`. Each has its own rng, so where it ran does not change its
    result. No worker outlives the call, and an error cancels the suites not yet started."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(SUITES), _usable_cpus())
    with ExitStack() as stack:
        suite_map = map
        if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            stack.callback(pool.shutdown, cancel_futures=True)
            suite_map = pool.map
        counts = [max(50, instances // 2) if s.half else instances for s in SUITES.values()]
        results = suite_map(run_suite, SUITES, range(seed, seed + len(SUITES)), counts,
                            [max_length] * len(SUITES))
        meanwhile()
        return dict(zip(SUITES, results))
