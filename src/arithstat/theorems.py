"""Exact finite checks of the closure, bound, and transfer mechanisms.

Each check_* function verifies one mechanism on one concrete instance and
returns a CheckReport. The checks are exact: set identities compare the
boolean exceedance flags of each index interval by interval, with one
deviation pass per (sample, n, eps), and inequalities between counted
densities are compared with denominators cleared in integer or Fraction
arithmetic, so no floating tolerance is involved anywhere a mathematical
identity is claimed.

run_inclusion_experiment compares convergence verdicts across a family of
sequences for one inclusion hypothesis. A scheme that does not meet the
hypothesis causes a refusal (HypothesisNotMet), which is not a failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
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
    DEFAULT_GRID,
    ConvergenceVerdict,
    MeanVerdict,
    Outcome,
    VerdictPolicy,
    ac_theta_at_scale,
    asc_theta_verdict,
    asc_verdict,
    block_density,
    check_grid,
    _block_bounds,
    _check_eps,
    _first_hit,
    _interval_sums,
    _intervals,
)
from .lacunary import (
    LacunaryScheme,
    coarse_block_density_from_fine,
    compounding_points,
    factorial_points,
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
    "SequenceComparison",
    "InclusionExperiment",
    "run_inclusion_experiment",
    "standard_family",
    "ramp_sample",
    "SuiteResult",
    "scalar_closure_suite",
    "sum_closure_suite",
    "markov_step_suite",
    "refinement_aggregation_suite",
    "delta_transfer_suite",
    "lac1_bound_suite",
    "run_property_suite",
]

#: Finite surrogate for "liminf q_r > 1": the tail minimum must reach this.
MIN_LIMINF = 1.05
#: Finite surrogate for "limsup q_r finite": the tail maximum must stay below this.
MAX_LIMSUP = 64.0


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


def _scheme_preview(scheme: LacunaryScheme | None) -> list[int] | None:
    if scheme is None:
        return None
    pts = scheme.points
    return list(pts) if len(pts) <= 12 else list(pts[:6]) + [-1] + list(pts[-5:])


def _axis_hit(mask: np.ndarray, axis: str,
              scheme: LacunaryScheme | None) -> tuple[int, list[int]] | None:
    """(at, first 20 flagged m) of the first interval of a set check holding a flag.

    The prefix axis is the one interval (0, T], reported at T; the block axis
    is every block that fits the sample, each reported at its number r.
    """
    if axis == "prefix":
        hit = _first_hit(mask, np.array([0]), np.array([mask.size]))
        return None if hit is None else (mask.size, hit[1])
    hit = _first_hit(mask, *_intervals(mask.size, axis, scheme))
    return None if hit is None else (hit[0] + 1, hit[1])


def check_scalar_closure(x: SeqSample, c: float, n: int, eps: float,
                         axis: str = "prefix",
                         scheme: LacunaryScheme | None = None) -> CheckReport:
    """Exceedance of c*x at eps must equal exceedance of x at eps/|c|, as sets.

    c = 0 is the trivial branch: the scaled sample is constant zero and every
    exceedance set must be empty.
    """
    instance = {
        "recipe": x.recipe, "length": x.length, "c": c, "n": n, "eps": eps,
        "axis": axis, "scheme": _scheme_preview(scheme),
    }
    if c == 0:
        hit = _axis_hit(_flags(0.0 * x, n, eps), axis, scheme)
        return CheckReport("scalar_closure", instance, hit is None,
                           None if hit is None else {"nonempty_at": hit[0]})
    hit = _axis_hit(_flags(c * x, n, eps) ^ _flags(x, n, eps / abs(c)), axis, scheme)
    return CheckReport("scalar_closure", instance, hit is None, None if hit is None else
                       {"at": hit[0], "symmetric_difference": hit[1]})


def check_sum_closure(x: SeqSample, y: SeqSample, n: int, eps: float,
                      axis: str = "prefix",
                      scheme: LacunaryScheme | None = None) -> CheckReport:
    """Exceedance of x+y at eps must sit inside the union of the eps/2 sets."""
    if x.length != y.length:
        raise ValueError("samples must have equal length")
    instance = {
        "recipe_x": x.recipe, "recipe_y": y.recipe, "length": x.length,
        "n": n, "eps": eps, "axis": axis, "scheme": _scheme_preview(scheme),
    }
    stray = _flags(x + y, n, eps) & ~(_flags(x, n, eps / 2) | _flags(y, n, eps / 2))
    hit = _axis_hit(stray, axis, scheme)
    return CheckReport("sum_closure", instance, hit is None, None if hit is None else
                       {"at": hit[0], "outside_union": hit[1]})


def check_markov_step(x: SeqSample, scheme: LacunaryScheme, n: int, eps: float,
                      r: int) -> CheckReport:
    """eps * |block exceedance| <= sum of deviations over the block."""
    lo, hi = _block_bounds(x, scheme, r)
    block = deviations(x, n)[lo:hi]  # one pass serves both sides
    count = int(np.count_nonzero(block >= _check_eps(eps)))
    total = math.fsum(block)
    instance = {
        "recipe": x.recipe, "length": x.length, "n": n, "eps": eps, "r": r,
        "scheme": _scheme_preview(scheme),
    }
    ok = eps * count <= total
    return CheckReport(
        "markov_step", instance, ok,
        None if ok else {"lhs": eps * count, "rhs": total},
    )


def check_lac1_bound(x: SeqSample, scheme: LacunaryScheme, n: int, eps: float,
                     r: int) -> CheckReport:
    """prefix_density at k_r >= (h_r / k_r) * block density of block r.

    Both sides reduce to exceedance counts over a common denominator k_r, so
    the comparison is done on the integer counts; the reported densities are
    floats for the record only.
    """
    lo, k_r = _block_bounds(x, scheme, r)
    pref, blk = (int(c) for c in _interval_sums(_flags(x, n, eps), np.array([0, lo]),
                                                np.array([k_r, k_r])))
    instance = {
        "recipe": x.recipe, "length": x.length, "n": n, "eps": eps, "r": r,
        "scheme": _scheme_preview(scheme),
    }
    ok = pref >= blk
    h_r = k_r - lo
    return CheckReport(
        "lac1_bound", instance, ok,
        None if ok else {
            "prefix_density": pref / k_r,
            "scaled_block_density": (h_r / k_r) * (blk / h_r),
        },
    )


def check_delta_transfer(x: SeqSample, coarse: LacunaryScheme,
                         fine: LacunaryScheme, n: int, eps: float) -> CheckReport:
    """Fine block density <= (1/delta) * coarse block density, for every fine block.

    delta is the minimum length ratio of the refinement map; the inequality is
    evaluated in exact Fraction arithmetic on the counts.
    """
    rel = refinement_map(coarse, fine)
    delta = rel.delta_fraction()
    avail = coarse.blocks_within(x.length)
    if avail < 1:
        raise ValueError("no coarse block fits inside the sample")
    instance = {
        "recipe": x.recipe, "length": x.length, "n": n, "eps": eps,
        "coarse": _scheme_preview(coarse), "fine": _scheme_preview(fine),
        "delta": float(delta),
    }
    pairs = [p for p in rel.pairs if p.coarse_index <= avail]
    flags = _flags(x, n, eps)
    fine_counts = _interval_sums(flags, np.array([p.lo for p in pairs]),
                                 np.array([p.hi for p in pairs]))
    coarse_counts = _interval_sums(flags, *_intervals(x.length, "block", coarse))
    for p, fine_count in zip(pairs, fine_counts):
        lhs = Fraction(int(fine_count), p.size)
        rhs = Fraction(int(coarse_counts[p.coarse_index - 1]), p.coarse_size) / delta
        if lhs > rhs:
            return CheckReport(
                "delta_transfer", instance, False,
                {"coarse_block": p.coarse_index, "fine_block": p.fine_index,
                 "lhs": float(lhs), "rhs": float(rhs)},
            )
    return CheckReport("delta_transfer", instance, True)


# ---------------------------------------------------------------------------
# Inclusion experiments
# ---------------------------------------------------------------------------

HYPOTHESES = ("lac1", "lac2", "corollary", "ac_subset")


@dataclass(frozen=True, eq=False)
class SequenceComparison:
    """Verdict pair for one family member under one inclusion hypothesis."""

    name: str
    left: ConvergenceVerdict | MeanVerdict
    right: ConvergenceVerdict
    supports: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
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


def _contradicts(left, right, both_ways: bool) -> bool:
    hard = (left.outcome is Outcome.CONVERGENT
            and right.outcome is Outcome.NOT_CONVERGENT)
    if both_ways:
        hard = hard or (left.outcome is Outcome.NOT_CONVERGENT
                        and right.outcome is Outcome.CONVERGENT)
    return hard


def run_inclusion_experiment(hypothesis: str,
                             family: Sequence[tuple[str, SeqSample]],
                             scheme: LacunaryScheme,
                             grid: Sequence[float] = DEFAULT_GRID,
                             policy: VerdictPolicy | None = None,
                             *,
                             min_liminf: float = MIN_LIMINF,
                             max_limsup: float = MAX_LIMSUP) -> InclusionExperiment:
    """Compare verdicts across a family for one inclusion hypothesis.

    hypotheses:
      lac1       plain convergence should transfer to the blockwise notion
                 (needs the tail-min ratio estimate to reach min_liminf);
      lac2       blockwise should transfer back to plain (needs the tail-max
                 ratio estimate to stay at or below max_limsup);
      corollary  both directions at once (needs both gates);
      ac_subset  blockwise-mean convergence should imply the blockwise
                 statistical verdict (no scheme gate).

    A member supports the inclusion unless the left verdict is convergent
    while the right is NotConvergentAtScale (a hard contradiction; for
    `corollary` either direction counts). Inconclusive right verdicts are
    tallied but never contradict.
    """
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
    if not family:
        raise ValueError("family must not be empty")
    grid = check_grid(grid)
    policy = policy or VerdictPolicy()
    lim_lo, lim_hi = q_ratio_stats(scheme)
    if hypothesis in ("lac1", "corollary") and lim_lo < min_liminf:
        raise HypothesisNotMet(
            f"tail ratio minimum {lim_lo:.4f} is below {min_liminf}; the scheme "
            "does not look bounded away from ratio 1"
        )
    if hypothesis in ("lac2", "corollary") and lim_hi > max_limsup:
        raise HypothesisNotMet(
            f"tail ratio maximum {lim_hi:.4f} exceeds {max_limsup}; the scheme "
            "does not look boundedly lacunary"
        )

    both_ways = hypothesis == "corollary"
    comparisons = []
    for name, x in family:
        if hypothesis == "lac2":
            left = asc_theta_verdict(x, scheme, grid, policy)
            right = asc_verdict(x, grid, policy)
        elif hypothesis == "ac_subset":
            left = ac_theta_at_scale(x, scheme, policy)
            right = asc_theta_verdict(x, scheme, grid, policy)
        else:  # lac1 and corollary share the left-to-right orientation
            left = asc_verdict(x, grid, policy)
            right = asc_theta_verdict(x, scheme, grid, policy)
        supports = not _contradicts(left, right, both_ways)
        comparisons.append(SequenceComparison(name, left, right, supports))

    left_conv = sum(c.left.outcome is Outcome.CONVERGENT for c in comparisons)
    both_conv = sum(
        c.left.outcome is Outcome.CONVERGENT
        and c.right.outcome is Outcome.CONVERGENT
        for c in comparisons
    )
    right_inco = sum(
        c.left.outcome is Outcome.CONVERGENT
        and c.right.outcome is Outcome.INCONCLUSIVE
        for c in comparisons
    )
    contradictions = sum(not c.supports for c in comparisons)
    summary = {
        "total": len(comparisons),
        "supported": len(comparisons) - contradictions,
        "contradictions": contradictions,
        "left_convergent": left_conv,
        "both_convergent": both_conv,
        "right_inconclusive_when_left_convergent": right_inco,
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


def random_sample(rng: np.random.Generator, min_length: int = 64,
                  max_length: int = 10_000) -> SeqSample:
    """Random sample: a generated spec, or raw dyadic noise (seeded, reproducible)."""
    length = int(rng.integers(min_length, max_length + 1))
    if rng.random() < 0.25:
        seed = int(rng.integers(0, 2**31))
        vals = np.random.default_rng(seed).integers(-64, 65, size=length) / 8.0
        return SeqSample(vals, recipe=f"dyadic_noise(seed={seed})")
    return generate(random_generator_spec(rng), length)


def random_scheme(rng: np.random.Generator, max_point: int) -> LacunaryScheme:
    """Random compounding geometric, polynomial, or factorial scheme inside 1..max_point."""
    kind = rng.integers(0, 3)
    if kind == 0:
        ratio = float(rng.choice((1.5, 2.0, 3.0)))
        points = compounding_points(ratio, int(rng.integers(1, 4)))
    elif kind == 1:
        points = polynomial_points(int(rng.integers(2, 4)))
    else:
        points = factorial_points()
    pts = points_upto(points, max_point)
    if len(pts) < 2:
        pts = [1, max(2, max_point)]
    return make_scheme(pts)


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


def _run_suite(name: str, seed: int, instances: int, max_length: int,
               draw: Callable[[np.random.Generator, SeqSample], tuple],
               check: Callable[..., Iterable[CheckReport]],
               measure: Callable[[CheckReport], float] | None = None,
               ) -> tuple[SuiteResult, int, tuple[float, float]]:
    """Drive one randomized suite, keeping only its failed reports.

    Each instance draws a sample, then the suite's own parameters (`draw`),
    then a witness n and an epsilon; `check(x, *params, n, eps)` yields one
    report per check. Returns the result, the number of checks, and the
    (min, max) of `measure` over all reports ((inf, -inf) without one).
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult(name, instances)
    checks, low, high = 0, math.inf, -math.inf
    for _ in range(instances):
        x = random_sample(rng, max_length=max_length)
        params = draw(rng, x)
        n = int(rng.integers(1, 17))
        eps = float(rng.choice(_EPS_CHOICES))
        for rep in check(x, *params, n, eps):
            checks += 1
            if measure is not None:
                v = measure(rep)
                low, high = min(low, v), max(high, v)
            if not rep.passed:
                result.failures.append(rep)
    return result, checks, (low, high)


_AXES = ("prefix", "block")


def _block_suite(name: str, check_fn: Callable[..., CheckReport], seed: int,
                 instances: int, max_length: int) -> SuiteResult:
    """check_fn on every block of a random scheme, for each random instance."""
    result, blocks, _ = _run_suite(
        name, seed, instances, max_length,
        lambda rng, x: (random_scheme(rng, x.length),),
        lambda x, scheme, n, eps: (check_fn(x, scheme, n, eps, r)
                                   for r in range(1, scheme.blocks_within(x.length) + 1)))
    result.extra["blocks_checked"] = blocks
    return result


def scalar_closure_suite(seed: int, instances: int = 1000,
                         max_length: int = 10_000) -> SuiteResult:
    """Scaling identity on random instances, both axes, scales +-{0.5, 1, 3, 10}."""
    def draw(rng, x):
        scheme = random_scheme(rng, x.length)
        return scheme, float(rng.choice(_SCALE_CHOICES)) if rng.random() > 0.05 else 0.0

    return _run_suite(
        "scalar_closure", seed, instances, max_length, draw,
        lambda x, scheme, c, n, eps: (check_scalar_closure(x, c, n, eps, axis, scheme)
                                      for axis in _AXES))[0]


def sum_closure_suite(seed: int, instances: int = 1000,
                      max_length: int = 10_000) -> SuiteResult:
    """Subadditivity of exceedance on random pairs, both axes."""
    def draw(rng, x):
        y = generate(random_generator_spec(rng), x.length)
        return y, random_scheme(rng, x.length)

    return _run_suite(
        "sum_closure", seed, instances, max_length, draw,
        lambda x, y, scheme, n, eps: (check_sum_closure(x, y, n, eps, axis, scheme)
                                      for axis in _AXES))[0]


def markov_step_suite(seed: int, instances: int = 1000,
                      max_length: int = 10_000) -> SuiteResult:
    """Counting bound on every block of every random instance."""
    return _block_suite("markov_step", check_markov_step, seed, instances, max_length)


def lac1_bound_suite(seed: int, instances: int = 500,
                     max_length: int = 10_000) -> SuiteResult:
    """Prefix-vs-block bound on every block of every random instance."""
    return _block_suite("lac1_bound", check_lac1_bound, seed, instances, max_length)


def refinement_aggregation_suite(seed: int, instances: int = 500,
                                 max_length: int = 10_000,
                                 tolerance: float = 1e-12) -> SuiteResult:
    """Aggregated coarse density equals the direct one within the pinned tolerance."""
    def check(x, coarse, fine, n, eps):
        rel = refinement_map(coarse, fine)
        for r in range(1, coarse.blocks_within(x.length) + 1):
            agg = coarse_block_density_from_fine(x, rel, fine, n, eps, r)
            direct = block_density(x, coarse, n, eps, r)
            err = abs(agg - direct)
            yield CheckReport(
                "refinement_aggregation",
                {"recipe": x.recipe, "length": x.length, "n": n, "eps": eps,
                 "r": r, "coarse": _scheme_preview(coarse),
                 "fine": _scheme_preview(fine)},
                not err > tolerance, {"aggregated": agg, "direct": direct, "error": err},
            )

    result, _, (_, worst) = _run_suite(
        "refinement_aggregation", seed, instances, max_length,
        lambda rng, x: random_refinement(rng, x.length), check,
        lambda rep: rep.witness["error"])
    result.extra["max_error"] = max(0.0, worst)
    result.extra["tolerance"] = tolerance
    return result


def delta_transfer_suite(seed: int, instances: int = 500,
                         max_length: int = 10_000) -> SuiteResult:
    """Exact delta transfer on random refinements (self and singleton cases included)."""
    result, _, (low, high) = _run_suite(
        "delta_transfer", seed, instances, max_length,
        lambda rng, x: random_refinement(rng, x.length),
        lambda x, coarse, fine, n, eps: (check_delta_transfer(x, coarse, fine, n, eps),),
        lambda rep: rep.instance["delta"])
    result.extra["min_delta"] = low
    result.extra["max_delta"] = high
    return result


def run_property_suite(seed: int = 0, *, instances: int = 1000,
                       refinement_instances: int = 500,
                       max_length: int = 10_000) -> dict[str, SuiteResult]:
    """All five randomized suites with derived per-suite seeds."""
    return {
        "scalar_closure": scalar_closure_suite(seed, instances, max_length),
        "sum_closure": sum_closure_suite(seed + 1, instances, max_length),
        "markov_step": markov_step_suite(seed + 2, instances, max_length),
        "refinement_aggregation": refinement_aggregation_suite(
            seed + 3, refinement_instances, max_length),
        "delta_transfer": delta_transfer_suite(
            seed + 4, refinement_instances, max_length),
        "lac1_bound": lac1_bound_suite(
            seed + 5, refinement_instances, max_length),
    }
