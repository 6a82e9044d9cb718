"""Batch front end: analyze a sequence, inspect schemes, run the verification suite.

Exit codes: 0 success (refusals included, they are reported rather than
failed), 1 verification failure, 2 malformed input, 3 invalid configuration.
Outputs are byte-identical across runs with the same config and seed; no
timestamps or machine details are embedded anywhere.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import json
import sys
from collections import deque
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, islice
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
    _flags,
    generate,
)
from .density import (
    DEFAULT_GRID,
    DEFAULT_POLICY,
    VerdictPolicy,
    ac_sup_deviation,
    ac_theta_block_means,
    asc_verdict,
    asc_verdicts,
    check_grid,
    ntheta_norm,
    Outcome,
    prefix_checkpoints,
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
    evidence_table,
    ramp_sample,
    ratio_gate,
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
#: Largest --length, and most values a CSV may hold. A witness pass holds
#: full-length values and deviations (8 bytes per index each), flags (1 byte)
#: and the int32 copy of the flags that the segment count reduces (4 bytes):
#: 21 bytes per index, 672 MiB at 2**25. That is 16 times the longest
#: benchmark sample (2**21).
MAX_LENGTH = 2**25
#: Largest --n-max. Every witness costs a deviation pass over the whole
#: sample, so a search runs n_max passes per axis: 2**16 of them take about
#: 5 s on a 200-value sample and minutes at 2**20 points.
MAX_N_MAX = 2**16
#: Bytes of a CSV decoded at a time. A load holds one chunk's text and lines
#: besides the value array, never the whole text.
_CSV_CHUNK = 2**18
#: Errors of malformed JSON values, such as a number too large for a float or
#: a list where an object belongs.
_VALUE_ERRORS = (AttributeError, KeyError, TypeError, ValueError, OverflowError)


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
    policy: VerdictPolicy
    out: str
    seed: int
    instances: int
    inject_fault: str | None

    def to_dict(self) -> dict:
        # The output directory is deliberately not serialized: reports must be
        # byte-identical for the same computation regardless of where they land.
        p = self.policy
        return {"command": self.command, "input": self.input, "schemes": list(self.schemes),
                "length": self.length, "eps_grid": list(p.grid), "n_max": p.n_max,
                "tail_window": p.tail_window, "tol": p.tol, "tol_hi": p.tol_hi,
                "growth": p.growth, "seed": self.seed, "instances": self.instances,
                "inject_fault": self.inject_fault}


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
    n_max = getattr(args, "n_max", DEFAULT_POLICY.n_max)
    if n_max > MAX_N_MAX:
        raise ConfigError(f"--n-max must be at most {MAX_N_MAX}, got {n_max}")
    try:  # a command without the policy flags keeps the defaults
        policy = VerdictPolicy(grid=grid, **{k: getattr(args, k) for k in (
            "tail_window", "tol", "tol_hi", "n_max", "growth") if hasattr(args, k)})
    except ValueError as e:
        raise ConfigError(str(e)) from None
    cfg = RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        schemes=tuple(getattr(args, "scheme", None) or ()),
        length=length,
        policy=policy,
        out=args.out,
        seed=getattr(args, "seed", 0),
        instances=getattr(args, "instances", 300),
        inject_fault=getattr(args, "inject_fault", None),
    )
    if cfg.instances < 1:
        raise ConfigError("--instances must be >= 1")
    if cfg.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {cfg.seed}")
    return cfg


# ---------------------------------------------------------------------------
# Input parsing. The JSON spec vocabulary lives here, not in the library:
# files are a CLI concern.
# ---------------------------------------------------------------------------


def _integer(v) -> int:
    """A JSON integer field's value; ValueError when it is not a whole number."""
    n = int(v)
    if n != v:
        raise ValueError(f"{v!r} is not an integer")
    return n


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
            return GcdPeriodic(_integer(obj["modulus"]), table)
        if kind == "sparse_spike":
            support = obj.get("support")
            return SparseSpike(
                height=float(obj.get("height", 1.0)),
                base=float(obj.get("base", 0.0)),
                support=None if support is None else tuple(map(_integer, support)),
                power=None if obj.get("power") is None else _integer(obj["power"]),
                rate=None if obj.get("rate") is None else float(obj["rate"]),
                seed=_integer(obj.get("seed", 0)),
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
            return make_scheme(map(_integer, obj["points"]))
        if "geometric" in obj:
            g = obj["geometric"]
            points = geometric_points(float(g["ratio"]), _integer(g.get("start", 1)))
            return first_blocks(points, _integer(g["count"]))
        if "polynomial" in obj:
            g = obj["polynomial"]
            return first_blocks(polynomial_points(_integer(g["degree"])), _integer(g["count"]))
        if "factorial" in obj:
            return first_blocks(factorial_points(), _integer(obj["factorial"]["count"]))
    except _VALUE_ERRORS as e:
        raise InputError(f"bad scheme spec: {e}") from None
    raise InputError("scheme spec needs 'points', 'geometric', 'polynomial', or 'factorial'")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e, 0) from None


def _read_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except ValueError as e:  # also an integer past the int(str) digit limit
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
    with closing(_csv_lines(p)) as chunks:
        lines = chain.from_iterable(chunks)
        try:
            vals = np.fromiter(map(float, islice(lines, MAX_LENGTH + 1)), np.float64)
        except ValueError:
            # A bad byte anywhere in the file outranks a bad line, as it did
            # when the whole text was decoded before any line was parsed.
            deque(lines, maxlen=0)
            raise InputError(f"{p} holds a non-numeric line") from None
    if vals.size > MAX_LENGTH:
        raise InputError(f"{p} holds more than {MAX_LENGTH} values")
    if not vals.size:
        raise InputError(f"{p} holds no values")
    if length is not None:
        if length > vals.size:
            raise InputError(f"--length {length} exceeds the {vals.size} values in {p}")
        vals = vals[:length]
    try:
        return SeqSample(vals, recipe=f"csv({p.name})")
    except ValueError as e:
        raise InputError(str(e)) from None


def _csv_lines(p: Path) -> Iterator[list[str]]:
    """The stripped, non-empty lines of a UTF-8 file, one list per chunk read.

    Lines end where `str.splitlines` ends them on the whole text: at \\n, \\r,
    \\r\\n, \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029. Text after a chunk's
    last line break begins the next chunk's first line. A decode error raises
    InputError with the message that decoding the whole file gives.
    """
    with open(p, "rb") as fh:
        pos, undecoded, head = 0, b"", []  # head: pieces of a line not yet ended
        while True:
            chunk = fh.read(_CSV_CHUNK)
            data = undecoded + chunk
            try:  # at the end of the file, an unfinished character is an error
                text, used = codecs.utf_8_decode(data, "strict", not chunk)
            except UnicodeDecodeError as e:
                raise _not_utf8(p, e, pos - len(undecoded)) from None
            if not chunk:
                break
            pos, undecoded = pos + len(chunk), data[used:]
            lines = text.splitlines()
            # the last line runs on unless the text ends in a line break
            tail = lines.pop() if lines and lines[-1] and text.endswith(lines[-1]) else None
            if lines:
                head.append(lines[0])
                lines[0] = "".join(head)
                head = []
            if tail is not None:
                head.append(tail)
            yield [s for s in map(str.strip, lines) if s]
        last = "".join(head).strip()
        yield [last] if last else []


def _not_utf8(p: Path, e: UnicodeDecodeError, offset: int) -> InputError:
    """The refusal of a decode error `e` in bytes that start `offset` bytes
    into the file, worded as `str(e)` words it, with file positions."""
    start, end = offset + e.start, offset + e.end
    if end - start == 1:
        where = f"byte 0x{e.object[e.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return InputError(f"{p} is not UTF-8 text: '{e.encoding}' codec can't decode {where}: "
                      f"{e.reason}")


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
    if len(cfg.schemes) > 1:
        raise ConfigError("give at most one --scheme to analyze")
    x = load_sequence(cfg.input, cfg.length)
    scheme = load_scheme(cfg.schemes[0]) if cfg.schemes else None
    try:
        if scheme is None:
            asc, theta = asc_verdict(x, cfg.policy), None
        else:
            asc, theta = asc_verdicts(x, scheme, cfg.policy)
        curves = list(asc.curves())
        block_means = norm = None
        if theta is not None:
            curves += theta.curves()
            block_means = ac_theta_block_means(x, scheme, theta.evaluated_n)
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
    return CheckReport(
        "scalar_closure",
        {"injected": True, "c": 3.0, "eps": 2.0, "note": "right side epsilon not rescaled"},
        np.array_equal(_flags(3.0 * x, 1, 2.0), _flags(x, 1, 2.0)),
    )


def _ok_line(label: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return ok


def cmd_verify(cfg: RunConfig) -> bool:
    length = cfg.length
    policy = cfg.policy
    ok = True
    try:
        # every verdict of the family, searched before the suites run, so a
        # config the experiments below cannot use is refused first
        scheme = make_scheme(2**j for j in range(length.bit_length()))
        family = standard_family(length)
        table = evidence_table(family, scheme, policy)
        q_ratio_stats(scheme)
        # each m <= n_max is its own anchor for the witness n = m; the ramp and
        # step controls show their effect only on tails past those indices
        start = prefix_checkpoints(length, policy.growth)[-policy.tail_window]
        if min(start, scheme.points[-2]) < policy.n_max:
            raise ConfigError(
                f"--length {length} is too short for --n-max {policy.n_max}: the prefix tail "
                f"starts at {start} and the last block at {scheme.points[-2]}, "
                f"both must reach {policy.n_max}")
        crossing = evidence_table([("crossing", crossing_sequence(
            length, hold=policy.n_max, gap=policy.grid[-1] / 2))], scheme, policy)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    experiments, continuity_report, controls, checks = {}, {}, {}, []

    def family_checks() -> None:  # in this process, while the suites run in workers
        try:
            for hyp in ("lac1", "lac2", "corollary", "ac_subset"):
                exp = run_inclusion_experiment(hyp, table)
                experiments[hyp] = exp.to_dict()
                good = exp.summary["contradictions"] == 0
                supported = f"{exp.summary['supported']}/{exp.summary['total']} supported"
                checks.append((f"inclusion {hyp} ({supported})", good))

            base = []
            for label, fn in (("affine", Affine(2.0, -1.0)), ("clamp", Clamp(-1.0, 5.0))):
                rep = continuity_battery(fn, table)
                base.append(rep)
                continuity_report[f"battery_{label}"] = rep.to_dict()
                good = rep.contradiction_count == 0 and rep.support_count > 0
                checks.append((f"continuity battery {label}", good))
            closure = closure_checks(*base, table)
            continuity_report["closure"] = closure.to_dict()
            checks.append(("continuity closure (sum, difference, composition)", closure.passed))

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
                checks.append((f"uniform limit cover ({label})", rep.passed))

            ramp = asc_verdict(ramp_sample(length), policy)
            controls["ramp_not_convergent"] = ramp.to_dict()
            good = ramp.outcome is Outcome.NOT_CONVERGENT
            checks.append(("control: ramp is NotConvergentAtScale", good))

            try:
                ratio_gate("lac1", make_scheme(r * r for r in range(1, 62)))
                refused, note = False, "experiment unexpectedly ran"
            except HypothesisNotMet as e:
                refused, note = True, str(e)
            controls["lac1_refusal"] = {"refused": refused, "note": note}
            checks.append(("control: square scheme refuses the lac1 experiment", refused))

            step = Tabulated((0.0, 1.0), (0.0, 1.0), rule="step")
            rep = continuity_battery(step, table + crossing)
            controls["step_battery"] = rep.to_dict()
            good = rep.contradiction_count >= 1
            checks.append(("control: step function produces a contradiction", good))
        except (HypothesisNotMet, ValueError) as e:
            raise ConfigError(str(e)) from None

    suites = run_property_suite(cfg.seed, instances=cfg.instances, meanwhile=family_checks)
    if cfg.inject_fault == "scaling":
        rep = _injected_scaling_report()
        if not rep.passed:
            suites["scalar_closure"].failures.append(rep)
    suites_report = {}
    for name, res in suites.items():
        suites_report[name] = res.to_dict()
        ok &= _ok_line(f"property {name} ({res.instances} instances)", res.passed)

    for label, good in checks:
        ok &= _ok_line(label, good)

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
                   default=",".join(f"{e:g}" for e in DEFAULT_GRID),
                   help="strictly decreasing thresholds (default %(default)s)")
    p.add_argument("--n-max", dest="n_max", type=int, default=DEFAULT_POLICY.n_max,
                   help="largest witness modulus searched (default %(default)s)")
    p.add_argument("--tail-window", dest="tail_window", type=int,
                   default=DEFAULT_POLICY.tail_window,
                   help="trailing curve points averaged into the tail (default %(default)s)")
    p.add_argument("--tol", type=float, default=DEFAULT_POLICY.tol,
                   help="tail level accepted as converged (default %(default)s)")
    p.add_argument("--tol-hi", dest="tol_hi", type=float, default=DEFAULT_POLICY.tol_hi,
                   help="tail level counted as hard evidence against (default %(default)s)")
    p.add_argument("--growth", type=float, default=DEFAULT_POLICY.growth,
                   help="prefix checkpoint spacing factor (default %(default)s)")


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
