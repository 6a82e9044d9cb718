"""Batch front end: analyze a sequence, inspect schemes, run the verification suite.

Exit codes: 0 success (refusals included, they are reported rather than
failed), 1 verification failure, 2 malformed input, 3 invalid configuration.
Outputs are byte-identical across runs with the same config and seed; no
timestamps or machine details are embedded anywhere.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .kernel import (
    Constant,
    GcdPeriodic,
    GeneratorSpec,
    Scaled,
    SeqSample,
    SparseSpike,
    Summed,
    generate,
)
from .density import (
    DEFAULT_GRID,
    VerdictPolicy,
    ac_sup_deviation,
    ac_theta_block_mean,
    asc_theta_verdict,
    asc_verdict,
    check_grid,
    density_curve,
    exceedance_prefix,
    ntheta_norm,
    Outcome,
)
from .lacunary import (
    LacunaryScheme,
    block_intersections,
    factorial_points,
    first_blocks,
    geometric_points,
    is_refinement,
    make_scheme,
    polynomial_points,
    q_ratio_stats,
    refinement_map,
)
from .theorems import (
    CheckReport,
    HypothesisNotMet,
    ramp_sample,
    run_inclusion_experiment,
    run_property_suite,
    standard_family,
)
from .continuity import (
    Affine,
    Clamp,
    Composition,
    Tabulated,
    closure_checks,
    continuity_battery,
    crossing_sequence,
    uniform_limit_check,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3

CSV_HEADER = ("axis", "index", "epsilon", "witness_n", "density")

#: Deepest nesting of `scaled` and `sum` nodes accepted in a generator spec.
MAX_SPEC_DEPTH = 100
#: Largest --length. A witness pass holds several full-length arrays of 8
#: bytes per index (values, anchors, deviations, running counts), about 1 GiB
#: at 2**25; that is 16 times the longest benchmark sample (2**21).
MAX_LENGTH = 2**25
#: Errors of malformed JSON values, such as a number too large for a float.
_VALUE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


class InputError(Exception):
    """Malformed or missing input data (exit code 2)."""


class ConfigError(Exception):
    """Invalid flag values or combinations (exit code 3)."""


@dataclass
class RunConfig:
    """Resolved invocation, embedded verbatim into every report."""

    command: str
    input: str | None
    schemes: tuple[str, ...]
    length: int | None
    grid: tuple[float, ...]
    n_max: int
    tail_window: int
    tol: float
    tol_hi: float
    growth: float
    out: str
    seed: int
    instances: int
    inject_fault: str | None

    def to_dict(self) -> dict:
        # The output directory is deliberately not serialized: reports must be
        # byte-identical for the same computation regardless of where they land.
        return {("eps_grid" if k == "grid" else k): list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items() if k != "out"}

    def policy(self) -> VerdictPolicy:
        try:
            return VerdictPolicy(
                tail_window=self.tail_window, tol=self.tol, tol_hi=self.tol_hi,
                n_max=self.n_max, growth=self.growth,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None


def _parse_grid(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_GRID
    try:
        return check_grid([float(v) for v in text.split(",") if v.strip()])
    except ValueError as e:
        raise ConfigError(f"bad epsilon grid {text!r}: {e}") from None


def config_from_args(args: argparse.Namespace) -> RunConfig:
    grid = _parse_grid(getattr(args, "eps_grid", None))
    length = getattr(args, "length", None)
    if length is not None and not 1 <= length <= MAX_LENGTH:
        raise ConfigError(f"--length must lie in 1..{MAX_LENGTH}, got {length}")
    cfg = RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        schemes=tuple(getattr(args, "scheme", None) or ()),
        length=length,
        grid=grid,
        n_max=getattr(args, "n_max", 64),
        tail_window=getattr(args, "tail_window", 8),
        tol=getattr(args, "tol", 0.02),
        tol_hi=getattr(args, "tol_hi", 0.2),
        growth=getattr(args, "growth", 1.3),
        out=args.out,
        seed=getattr(args, "seed", 0),
        instances=getattr(args, "instances", 300),
        inject_fault=getattr(args, "inject_fault", None),
    )
    cfg.policy()  # validate early
    if cfg.instances < 1:
        raise ConfigError("--instances must be >= 1")
    return cfg


# ---------------------------------------------------------------------------
# Input parsing. The JSON spec vocabulary lives here, not in the library:
# files are a CLI concern.
# ---------------------------------------------------------------------------


def parse_generator_spec(obj) -> GeneratorSpec:
    """JSON object -> generator spec. See README for the vocabulary."""
    return _parse_spec(obj, 1)


def _parse_spec(obj, depth: int) -> GeneratorSpec:
    if depth > MAX_SPEC_DEPTH:
        raise InputError(f"generator spec nests deeper than {MAX_SPEC_DEPTH} levels")
    if not isinstance(obj, dict):
        raise InputError(f"generator spec must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == "constant":
            return Constant(float(obj["value"]))
        if kind == "gcd_periodic":
            table = {int(k): float(v) for k, v in obj["table"].items()}
            return GcdPeriodic(int(obj["modulus"]), table)
        if kind == "sparse_spike":
            support = obj.get("support")
            return SparseSpike(
                height=float(obj.get("height", 1.0)),
                base=float(obj.get("base", 0.0)),
                support=None if support is None else tuple(int(s) for s in support),
                power=None if obj.get("power") is None else int(obj["power"]),
                rate=None if obj.get("rate") is None else float(obj["rate"]),
                seed=int(obj.get("seed", 0)),
            )
        if kind == "scaled":
            return Scaled(float(obj["factor"]), _parse_spec(obj["child"], depth + 1))
        if kind == "sum":
            return Summed(_parse_spec(obj["left"], depth + 1),
                          _parse_spec(obj["right"], depth + 1))
    except InputError:
        raise
    except _VALUE_ERRORS as e:
        raise InputError(f"bad {kind!r} spec: {e}") from None
    raise InputError(f"unknown generator kind {kind!r}")


def parse_scheme_spec(obj) -> LacunaryScheme:
    """JSON object -> scheme: explicit points or a generator.

    Generators (count is always the number of blocks):
      {"geometric": {"ratio": 2.0, "count": 16, "start": 1}}
      {"polynomial": {"degree": 2, "count": 99}}
      {"factorial": {"count": 8}}
    """
    if not isinstance(obj, dict):
        raise InputError(f"scheme spec must be a JSON object, got {type(obj).__name__}")
    try:
        if "points" in obj:
            return make_scheme(int(p) for p in obj["points"])
        if "geometric" in obj:
            g = obj["geometric"]
            points = geometric_points(float(g["ratio"]), int(g.get("start", 1)))
            return first_blocks(points, int(g["count"]))
        if "polynomial" in obj:
            g = obj["polynomial"]
            return first_blocks(polynomial_points(int(g["degree"])), int(g["count"]))
        if "factorial" in obj:
            return first_blocks(factorial_points(), int(obj["factorial"]["count"]))
    except _VALUE_ERRORS as e:
        raise InputError(f"bad scheme spec: {e}") from None
    raise InputError("scheme spec needs 'points', 'geometric', 'polynomial', or 'factorial'")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from None


def _read_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise InputError(f"{path} nests too deeply") from None


def load_sequence(path: str, length: int | None) -> SeqSample:
    """Sequence from a .json generator spec or a CSV of one value per line."""
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {p}")
    if p.suffix.lower() == ".json":
        spec = parse_generator_spec(_read_json(p))
        if length is None:
            raise ConfigError("--length is required with a generator spec input")
        try:
            return generate(spec, length)
        except ValueError as e:
            raise InputError(f"{p}: {e}") from None
    lines = [ln.strip() for ln in _read_text(p).splitlines() if ln.strip()]
    if not lines:
        raise InputError(f"{p} holds no values")
    try:
        vals = [float(v) for v in lines]
    except ValueError:
        raise InputError(f"{p} holds a non-numeric line") from None
    if length is not None:
        if length > len(vals):
            raise InputError(f"--length {length} exceeds the {len(vals)} values in {p}")
        vals = vals[:length]
    try:
        return SeqSample(np.asarray(vals), recipe=f"csv({p.name})")
    except ValueError as e:
        raise InputError(str(e)) from None


def load_scheme(path: str) -> LacunaryScheme:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {p}")
    return parse_scheme_spec(_read_json(p))


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_analyze(cfg: RunConfig) -> None:
    x = load_sequence(cfg.input, cfg.length)
    scheme = load_scheme(cfg.schemes[0]) if cfg.schemes else None
    policy = cfg.policy()
    try:
        asc = asc_verdict(x, cfg.grid, policy)
        theta = asc_theta_verdict(x, scheme, cfg.grid, policy) if scheme else None
        curves = [density_curve(x, asc.evaluated_n, e, "prefix", growth=cfg.growth)
                  for e in cfg.grid]
        block_means = norm = None
        if theta is not None:
            curves += [density_curve(x, theta.evaluated_n, e, "block", scheme)
                       for e in cfg.grid]
            block_means = [ac_theta_block_mean(x, scheme, theta.evaluated_n, r)
                           for r in range(1, scheme.blocks_within(x.length) + 1)]
            norm = ntheta_norm(x, scheme)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    out = Path(cfg.out)
    report = {
        "schema": 1,
        "config": cfg.to_dict(),
        "sequence": {"recipe": x.recipe, "length": x.length},
        "asc": asc.to_dict(),
        "asc_theta": None if theta is None else theta.to_dict(),
        "ac_sup_deviation": {"n": asc.evaluated_n,
                             "value": ac_sup_deviation(x, asc.evaluated_n)},
        "ac_theta_block_means": None if block_means is None else
            {"n": theta.evaluated_n, "values": block_means},
        "ntheta_norm": norm,
    }
    _write_json(out / "report.json", report)
    _write_csv(out / "curves.csv", CSV_HEADER,
               ((c.axis, i, c.epsilon, c.witness, v) for c in curves for i, v in c.points))
    wit = f" (witness n = {asc.witness})" if asc.witness else ""
    print(f"asc: {asc.outcome.value}{wit}")
    if theta is not None:
        wit = f" (witness n = {theta.witness})" if theta.witness else ""
        print(f"asc_theta: {theta.outcome.value}{wit}")
    print(f"wrote {out / 'report.json'}")
    print(f"wrote {out / 'curves.csv'}")


def cmd_scheme(cfg: RunConfig) -> None:
    if not 1 <= len(cfg.schemes) <= 2:
        raise ConfigError("give one --scheme, or two for a relation")
    schemes = [load_scheme(s) for s in cfg.schemes]
    out = Path(cfg.out)
    described = []
    for i, s in enumerate(schemes, start=1):
        try:
            lo, hi = q_ratio_stats(s)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        described.append({
            "points": len(s.points),
            "k_first": s.points[0],
            "k_last": s.points[-1],
            "blocks": s.block_count,
            "liminf_estimate": lo,
            "limsup_estimate": hi,
            "advisory_flag": s.advisory_flag,
        })
        _write_csv(out / f"scheme_{i}.csv", ("r", "k", "h", "q"),
                   [(0, s.points[0], "", ""),
                    *zip(range(1, s.block_count + 1), s.points[1:], s.lengths, s.ratios)])
        print(f"scheme {i}: {s.block_count} blocks, q tail in "
              f"[{lo:g}, {hi:g}]" + (", advisory: not lacunary-looking"
                                     if s.advisory_flag else ""))

    relation = None
    if len(schemes) == 2:
        a, b = schemes
        if is_refinement(a, b):
            rel, direction = refinement_map(a, b), "second refines first"
        elif is_refinement(b, a):
            rel, direction = refinement_map(b, a), "first refines second"
        else:
            rel, direction = block_intersections(a, b), "general pair"
        relation = {"direction": direction, **rel.to_dict()}
        delta = "undefined" if rel.delta is None else f"{rel.delta:g}"
        print(f"relation: {direction}, delta = {delta}")

    _write_json(out / "scheme_report.json", {
        "schema": 1,
        "config": cfg.to_dict(),
        "schemes": described,
        "relation": relation,
    })
    print(f"wrote {out / 'scheme_report.json'}")


def _injected_scaling_report() -> CheckReport:
    # Deliberately wrong comparison (right side not rescaled by 1/|c|); used
    # by --inject-fault to prove the suite can fail.
    x = generate(GcdPeriodic(6, {1: 1.0, 2: 2.0, 3: 3.0, 6: 6.0}), 512)
    left = exceedance_prefix(3.0 * x, 1, 2.0, x.length)
    right = exceedance_prefix(x, 1, 2.0, x.length)
    return CheckReport(
        "scalar_closure",
        {"injected": True, "c": 3.0, "eps": 2.0, "note": "right side epsilon not rescaled"},
        left.members == right.members,
    )


def _ok_line(label: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return ok


def cmd_verify(cfg: RunConfig) -> bool:
    length = cfg.length or 8193
    policy = cfg.policy()
    grid = cfg.grid
    ok = True

    suites = run_property_suite(
        cfg.seed, instances=cfg.instances,
        refinement_instances=max(50, cfg.instances // 2),
    )
    if cfg.inject_fault == "scaling":
        rep = _injected_scaling_report()
        if not rep.passed:
            suites["scalar_closure"].failures.append(rep)
    suites_report = {}
    for name, res in suites.items():
        suites_report[name] = res.to_dict()
        ok &= _ok_line(f"property {name} ({res.instances} instances)", res.passed)

    try:
        family = standard_family(length)
        scheme = make_scheme(2**j for j in range(length.bit_length()))
        experiments = {}
        for hyp in ("lac1", "lac2", "corollary", "ac_subset"):
            exp = run_inclusion_experiment(hyp, family, scheme, grid, policy)
            experiments[hyp] = exp.to_dict()
            good = exp.summary["contradictions"] == 0
            ok &= _ok_line(
                f"inclusion {hyp} ({exp.summary['supported']}/{exp.summary['total']} supported)",
                good,
            )

        continuity_report = {}
        aff, clamp = Affine(2.0, -1.0), Clamp(-1.0, 5.0)
        for label, fn in (("affine", aff), ("clamp", clamp)):
            rep = continuity_battery(fn, family, scheme, grid, policy)
            continuity_report[f"battery_{label}"] = rep.to_dict()
            good = rep.contradiction_count == 0 and rep.support_count > 0
            ok &= _ok_line(f"continuity battery {label}", good)
        closure = closure_checks(aff, clamp, family, scheme, grid, policy)
        continuity_report["closure"] = closure.to_dict()
        ok &= _ok_line("continuity closure (sum, difference, composition)", closure.passed)

        probe = tuple(np.linspace(-10.0, 10.0, 41))
        g6 = dict(family)["gcdper_6"]
        uniform_cases = [
            ("shifts_to_identity",
             [Affine(1.0, 1.0 / m) for m in range(1, 33)], Affine(1.0, 0.0),
             g6, 6),
            ("clamped_shifts",
             [Composition(Clamp(0.0, 1.0), Affine(1.0, 1.0 / m)) for m in range(1, 33)],
             Clamp(0.0, 1.0), dict(family)["spikes_pow2"], 1),
            ("slopes_to_identity",
             [Affine(1.0 + 1.0 / m, 0.0) for m in range(1, 65)], Affine(1.0, 0.0),
             dict(family)["gcdper_5"], 5),
        ]
        # eps = 0.75 keeps eps/3 exactly representable, so the three-piece
        # cover comparison has no rounding slack.
        for label, f_list, f, x, n in uniform_cases:
            rep = uniform_limit_check(f_list, f, x, scheme, n, 0.75, probe)
            continuity_report[f"uniform_{label}"] = rep.to_dict()
            ok &= _ok_line(f"uniform limit cover ({label})", rep.passed)

        controls = {}
        ramp = asc_verdict(ramp_sample(length), grid, policy)
        controls["ramp_not_convergent"] = ramp.to_dict()
        good = ramp.outcome is Outcome.NOT_CONVERGENT
        ok &= _ok_line("control: ramp is NotConvergentAtScale", good)

        square_scheme = make_scheme(r * r for r in range(1, 62))
        try:
            run_inclusion_experiment("lac1", family, square_scheme, grid, policy)
            refused, note = False, "experiment unexpectedly ran"
        except HypothesisNotMet as e:
            refused, note = True, str(e)
        controls["lac1_refusal"] = {"refused": refused, "note": note}
        ok &= _ok_line("control: square scheme refuses the lac1 experiment", refused)

        step = Tabulated((0.0, 1.0), (0.0, 1.0), rule="step")
        crossing = [("crossing", crossing_sequence(length, level=1.0, hold=policy.n_max,
                                                   gap=min(grid) / 2))]
        rep = continuity_battery(step, family + crossing, scheme, grid, policy)
        controls["step_battery"] = rep.to_dict()
        good = rep.contradiction_count >= 1
        ok &= _ok_line("control: step function produces a contradiction", good)
    except (HypothesisNotMet, ValueError) as e:
        raise ConfigError(str(e)) from None

    report = {
        "schema": 1,
        "config": cfg.to_dict(),
        "family_length": length,
        "scheme_points": list(scheme.points),
        "property_suites": suites_report,
        "inclusion_experiments": experiments,
        "continuity": continuity_report,
        "negative_controls": controls,
        "verified": ok,
    }
    out = Path(cfg.out)
    _write_json(out / "verify_report.json", report)
    print(f"wrote {out / 'verify_report.json'}")
    print(f"verification: {'OK' if ok else 'FAILED'}")
    return ok


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-grid", dest="eps_grid", metavar="E1,E2,...",
                   help="strictly decreasing thresholds (default 1,0.5,0.1,0.05,0.01)")
    p.add_argument("--n-max", dest="n_max", type=int, default=64,
                   help="largest witness modulus searched (default 64)")
    p.add_argument("--tail-window", dest="tail_window", type=int, default=8,
                   help="trailing curve points averaged into the tail (default 8)")
    p.add_argument("--tol", type=float, default=0.02,
                   help="tail level accepted as converged (default 0.02)")
    p.add_argument("--tol-hi", dest="tol_hi", type=float, default=0.2,
                   help="tail level counted as hard evidence against (default 0.2)")
    p.add_argument("--growth", type=float, default=1.3,
                   help="prefix checkpoint spacing factor (default 1.3)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arithstat",
        description="Finite-scale diagnostics for arithmetic and lacunary "
                    "statistical convergence.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="verdicts and density curves for one sequence")
    pa.add_argument("--input", required=True,
                    help="JSON generator spec, or CSV with one value per line")
    pa.add_argument("--scheme", action="append",
                    help="JSON scheme spec enabling the blockwise verdicts")
    pa.add_argument("--length", type=int,
                    help="sample length (required for generator specs)")
    _policy_flags(pa)
    pa.add_argument("--out", required=True, help="output directory")
    pa.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("scheme", help="block table, ratio estimates, relations")
    ps.add_argument("--scheme", action="append", required=True,
                    help="JSON scheme spec (repeat for a two-scheme relation)")
    ps.add_argument("--out", required=True, help="output directory")

    pv = sub.add_parser("verify", help="run the property suites and experiments")
    pv.add_argument("--length", type=int, default=8193,
                    help="family sample length (default 8193)")
    pv.add_argument("--instances", type=int, default=300,
                    help="instances per randomized suite (default 300)")
    _policy_flags(pv)
    pv.add_argument("--out", required=True, help="output directory")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--inject-fault", dest="inject_fault", choices=("scaling",),
                    help="testing hook: force one scalar-closure failure")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "analyze":
            cmd_analyze(cfg)
            return EXIT_OK
        if args.command == "scheme":
            cmd_scheme(cfg)
            return EXIT_OK
        return EXIT_OK if cmd_verify(cfg) else EXIT_VERIFY_FAILED
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
