"""Independent recount of arithstat's outputs, in plain numpy.

Nothing here imports arithstat. Deviations come from `np.gcd`, exceedance
counts from `cumsum`, and block means from `math.fsum`, so a fault in the
package's counting code cannot hide behind the same fault in the check.
Every check returns a list of problems; an empty list means the output is
right. Each check rests on the decision rule or on how the input was built,
never on a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# The CLI defaults, which the benchmark's commands leave in force.
GRID = (1.0, 0.5, 0.1, 0.05, 0.01)
TAIL_WINDOW = 8
TOL = 0.02
GROWTH = 1.3
N_MAX = 64
#: Allowed gap on means (tails, block means, norms); counts must match exactly.
MEAN_TOL = 1e-12

CONVERGENT = "ConvergentAtScale"


def deviations(values: np.ndarray, n: int) -> np.ndarray:
    """|x_m - x_gcd(m, n)| for m = 1..T (entry m - 1)."""
    m = np.arange(1, values.size + 1)
    return np.abs(values - values[np.gcd(m, n) - 1])


def checkpoints(length: int, growth: float = GROWTH) -> np.ndarray:
    """Prefix lengths floor(growth^j) without repeats, always ending at `length`."""
    ts: list[int] = []
    v = growth
    while v <= length:
        if not ts or int(v) > ts[-1]:
            ts.append(int(v))
        v *= growth
    if not ts or ts[-1] != length:
        ts.append(length)
    return np.asarray(ts)


def tail(curve) -> float:
    seg = curve[-TAIL_WINDOW:]
    return math.fsum(seg) / len(seg)


class Recount:
    """Exceedance counts and densities of one sample, by prefix and by block."""

    def __init__(self, values: np.ndarray, points) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.length = self.values.size
        self.ts = checkpoints(self.length)
        pts = [p for p in points if p <= self.length]
        self.lo = np.asarray(pts[:-1])
        self.hi = np.asarray(pts[1:])
        self._tails: dict[int, dict[str, list[float]]] = {}
        self._max_tails: dict[int, dict[str, float]] = {}

    @property
    def blocks(self) -> int:
        return self.lo.size

    def counts(self, dev: np.ndarray, eps: float) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per axis: (exceedance counts, range sizes) at every curve point."""
        cum = np.concatenate(([0], np.cumsum(dev >= eps)))
        return {
            "prefix": (cum[self.ts], self.ts),
            "block": (cum[self.hi] - cum[self.lo], self.hi - self.lo),
        }

    def _curves(self, dev: np.ndarray, eps: float) -> dict[str, np.ndarray]:
        return {axis: c / s for axis, (c, s) in self.counts(dev, eps).items()}

    def tails(self, n: int) -> dict[str, list[float]]:
        """Per axis, the tail density of every grid threshold at witness n."""
        if n not in self._tails:
            dev = deviations(self.values, n)
            per_eps = [self._curves(dev, e) for e in GRID]
            self._tails[n] = {ax: [tail(c[ax]) for c in per_eps] for ax in ("prefix", "block")}
        return self._tails[n]

    def max_tail(self, n: int, axis: str) -> float:
        """Largest tail over the grid. Counts only grow as the threshold falls,
        so it is the tail at the smallest threshold."""
        if n in self._tails:
            return max(self._tails[n][axis])
        if n not in self._max_tails:
            c = self._curves(deviations(self.values, n), GRID[-1])
            self._max_tails[n] = {ax: tail(v) for ax, v in c.items()}
        return self._max_tails[n][axis]

    def block_means(self, n: int) -> list[float]:
        dev = deviations(self.values, n)
        return [math.fsum(dev[a:b]) / (b - a) for a, b in zip(self.lo, self.hi)]

    def block_mean_tail(self, n: int) -> float:
        return tail(self.block_means(n))

    def ntheta_norm(self) -> float:
        a = np.abs(self.values)
        return max(math.fsum(a[lo:hi]) / (hi - lo) for lo, hi in zip(self.lo, self.hi))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MEAN_TOL


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def check_density_verdict(label: str, v: dict, rc: Recount, axis: str) -> list[str]:
    """A ConvergenceVerdict against the recount on its axis.

    The tails at `evaluated_n` must match. A convergent verdict's witness must
    pass (every tail <= tol) and every smaller n must fail.
    """
    problems = []
    if v.get("axis") != axis:
        return [f"{label}: axis {v.get('axis')!r}, expected {axis!r}"]
    n = v["evaluated_n"]
    want = rc.tails(n)[axis]
    got = v["tail_densities"]
    if [e for e, _ in got] != list(GRID):
        return [f"{label}: grid {[e for e, _ in got]} is not {list(GRID)}"]
    for (e, t), w in zip(got, want):
        if not _close(t, w):
            problems.append(f"{label}: tail at n={n}, eps={e} is {t!r}, recount {w!r}")
    if v["outcome"] == CONVERGENT:
        if v["witness"] != n:
            problems.append(f"{label}: witness {v['witness']} but evaluated_n {n}")
        if max(want) > TOL:
            problems.append(f"{label}: witness {n} has a recounted tail {max(want)!r} > tol")
        for k in range(1, n):
            if rc.max_tail(k, axis) <= TOL:
                problems.append(f"{label}: n={k} < witness {n} already passes the recount")
    return problems


def check_mean_verdict(label: str, v: dict, rc: Recount) -> list[str]:
    """A MeanVerdict (block means of the deviations) against the recount."""
    problems = []
    n = v["evaluated_n"]
    want = rc.block_mean_tail(n)
    if not _close(v["tail_mean"], want):
        problems.append(f"{label}: tail mean at n={n} is {v['tail_mean']!r}, recount {want!r}")
    if v["outcome"] == CONVERGENT:
        if v["witness"] != n or want > TOL:
            problems.append(f"{label}: witness {v['witness']} fails the recount ({want!r})")
        for k in range(1, n):
            if rc.block_mean_tail(k) <= TOL:
                problems.append(f"{label}: n={k} < witness {n} already passes the recount")
    return problems


def check_not_convergent(label: str, v: dict, rc: Recount, axis: str) -> list[str]:
    """Every n <= N_MAX has a tail above tol, so no witness exists and the
    verdict's `evaluated_n` must be a candidate with the smallest largest tail."""
    problems = []
    best = {n: rc.max_tail(n, axis) for n in range(1, N_MAX + 1)}
    if min(best.values()) <= TOL:
        problems.append(f"{label}: input has a passing witness; the workload is void")
    if v["outcome"] == CONVERGENT:
        problems.append(f"{label}: ConvergentAtScale on an input with no witness")
    n = v["evaluated_n"]
    if best[n] > min(best.values()) + MEAN_TOL:
        problems.append(f"{label}: evaluated_n {n} is not a best candidate")
    if any(best[k] < best[n] - MEAN_TOL for k in range(1, n)):
        problems.append(f"{label}: a smaller n than evaluated_n {n} is a better candidate")
    return problems


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def check_analyze(report: dict, curves_path, rc: Recount) -> list[str]:
    """report.json and curves.csv of `arithstat analyze` with a scheme."""
    if report["sequence"]["length"] != rc.length:
        return [f"report length {report['sequence']['length']}, input {rc.length}"]
    asc, theta = report["asc"], report["asc_theta"]
    problems = check_density_verdict("asc", asc, rc, "prefix")
    problems += check_density_verdict("asc_theta", theta, rc, "block")

    expected = []
    for axis, n, index in (("prefix", asc["evaluated_n"], rc.ts),
                           ("block", theta["evaluated_n"], range(1, rc.blocks + 1))):
        dev = deviations(rc.values, n)
        for e in GRID:
            count, size = rc.counts(dev, e)[axis]
            expected += [(axis, int(i), e, n, int(c), int(s))
                         for i, c, s in zip(index, count, size)]
    with open(curves_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["axis", "index", "epsilon", "witness_n", "density"]]:
        problems.append("curves.csv header is wrong")
    rows = rows[1:]
    if len(rows) != len(expected):
        problems.append(f"curves.csv has {len(rows)} rows, expected {len(expected)}")
    for row, (axis, i, e, n, c, s) in zip(rows, expected):
        if (row[0], int(row[1]), float(row[2]), int(row[3])) != (axis, i, e, n):
            problems.append(f"curves.csv row {row} is not ({axis}, {i}, {e}, {n})")
            break
        if float(row[4]) != c / s:
            problems.append(f"curves.csv {axis} {i} eps={e}: {row[4]}, recount {c}/{s}")

    sup = report["ac_sup_deviation"]
    if sup["n"] != asc["evaluated_n"] or sup["value"] != float(
            deviations(rc.values, sup["n"]).max()):
        problems.append(f"ac_sup_deviation {sup} disagrees with the recount")
    means = report["ac_theta_block_means"]
    if means["n"] != theta["evaluated_n"]:
        problems.append(f"block means at n={means['n']}, verdict at {theta['evaluated_n']}")
    want = rc.block_means(means["n"])
    if len(means["values"]) != len(want) or not all(
            _close(a, b) for a, b in zip(means["values"], want)):
        problems.append("ac_theta_block_means disagree with the recount")
    if not _close(report["ntheta_norm"], rc.ntheta_norm()):
        problems.append(f"ntheta_norm {report['ntheta_norm']!r}, recount {rc.ntheta_norm()!r}")
    return problems


def check_noise(report: dict, curves_path, rc: Recount) -> list[str]:
    """i.i.d. noise: no n <= 64 is a witness on either axis."""
    return (check_not_convergent("asc", report["asc"], rc, "prefix")
            + check_not_convergent("asc_theta", report["asc_theta"], rc, "block")
            + check_analyze(report, curves_path, rc))


def check_witness(report: dict, curves_path, rc: Recount, witness: int) -> list[str]:
    """A sample built to converge exactly at `witness` on both axes."""
    problems = [f"{key}: witness {report[key]['witness']}, built for {witness}"
                for key in ("asc", "asc_theta") if report[key]["witness"] != witness]
    return problems + check_analyze(report, curves_path, rc)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

SUITES = ("scalar_closure", "sum_closure", "markov_step",
          "refinement_aggregation", "delta_transfer", "lac1_bound")
#: Suites that `verify` runs with max(50, instances // 2) instances.
HALF_SUITES = ("refinement_aggregation", "delta_transfer", "lac1_bound")


def gcd_periodic(length: int, modulus: int, table: dict[int, float]) -> np.ndarray:
    lut = np.zeros(modulus + 1)
    for d, v in table.items():
        lut[d] = v
    return lut[np.gcd(np.arange(1, length + 1), modulus)]


def spikes(length: int, height: float, power: int) -> np.ndarray:
    vals = np.zeros(length)
    p = power
    while p <= length:
        vals[p - 1] = height
        p *= power
    return vals


def standard_family(length: int) -> dict[str, np.ndarray]:
    """The twelve members `verify` runs its experiments on, as documented in
    `arithstat.theorems.standard_family`, built here without arithstat."""
    g6 = gcd_periodic(length, 6, {1: 1.0, 2: 2.0, 3: 3.0, 6: 6.0})
    g12 = gcd_periodic(length, 12, {d: d / 2 for d in (1, 2, 3, 4, 6, 12)})
    g5 = gcd_periodic(length, 5, {1: 0.5, 5: -1.5})
    g4 = gcd_periodic(length, 4, {1: 1.0, 2: 2.5, 4: -1.0})
    pow2 = spikes(length, 10.0, 2)
    pow3 = spikes(length, -4.0, 3)
    return {
        "const_2": np.full(length, 2.0),
        "const_neg": np.full(length, -0.75),
        "gcdper_6": g6,
        "gcdper_12": g12,
        "gcdper_5": g5,
        "spikes_pow2": pow2,
        "spikes_pow3": pow3,
        "scaled_gcdper": 3.0 * g6,
        "scaled_spikes": -0.5 * pow2,
        "sum_gcdper": g6 + g12,
        "sum_gcdper_spikes": g4 + pow3,
        "sum_spikes": pow2 + pow3,
    }


def dyadic_points(length: int) -> list[int]:
    """The scheme `verify` builds for its family: 1, 2, 4, ... up to length."""
    return [2**j for j in range(length.bit_length()) if 2**j <= length]


def check_verify(report: dict, exit_code: int, instances: int,
                 family: dict[str, np.ndarray]) -> list[str]:
    """verify_report.json: every suite ran in full without a failure, and
    every convergent verdict of the inclusion experiments passes the recount."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    if report.get("verified") is not True:
        problems.append("verify_report.json says verified: false")
    for name in SUITES:
        res = report["property_suites"].get(name)
        want = max(50, instances // 2) if name in HALF_SUITES else instances
        if res is None:
            problems.append(f"suite {name} is missing")
        elif res["instances"] != want or res["failures"] or not res["passed"]:
            problems.append(f"suite {name}: {res['instances']} instances (want {want}), "
                            f"{len(res['failures'])} failures")

    length = report["family_length"]
    if any(v.size != length for v in family.values()):
        return problems + [f"family length {length} is not the one the recount built"]
    points = report["scheme_points"]
    if points != dyadic_points(length):
        problems.append(f"scheme points {points} are not the powers of two <= {length}")
    recounts = {name: Recount(v, points) for name, v in family.items()}
    for hyp, exp in report["inclusion_experiments"].items():
        if exp["summary"]["contradictions"]:
            problems.append(f"inclusion {hyp}: {exp['summary']['contradictions']} contradictions")
        if [c["name"] for c in exp["comparisons"]] != list(family):
            problems.append(f"inclusion {hyp}: members are not the standard family")
            continue
        for c in exp["comparisons"]:
            rc = recounts[c["name"]]
            for side in ("left", "right"):
                v = c[side]
                label = f"inclusion {hyp} {c['name']} {side}"
                if "tail_mean" in v:
                    problems += check_mean_verdict(label, v, rc)
                elif v["outcome"] == CONVERGENT:
                    problems += check_density_verdict(label, v, rc, v["axis"])
    return problems
