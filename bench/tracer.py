"""Traced in-process run of one arithstat CLI command, and its per-layer sums.

    python3 bench/tracer.py SPANS.json -- verify --instances 300 --out DIR

Before calling `arithstat.cli.main(argv)`, this wraps the public functions
that each arithstat module calls in the next layer, under the names the
calling module looks them up by (`density.deviations` is `kernel.deviations`
as `density` sees it). Every call records a span (name, start, end, parent)
and a count in memory. After `main` returns, the spans go to SPANS.json
together with the end time of `main` and the names that could not be
wrapped. A name the program no longer has is reported, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

clock = time.monotonic_ns  # system-wide on Linux, so the parent can compare


def _length(args, result) -> int:
    return len(args[0])


def _blocks(args, result) -> int:
    return int(result.extra.get("blocks_checked", 0))


#: (module, attribute, span name, count taken from (args, result) or None)
WRAPS = [
    ("cli", "load_sequence", "cli.load_sequence", None),
    ("cli", "asc_verdict", "density.asc_verdict", None),
    ("cli", "asc_theta_verdict", "density.asc_theta_verdict", None),
    ("cli", "density_curve", "density.density_curve", None),
    ("cli", "ac_theta_block_mean", "density.ac_theta_block_mean", None),
    ("cli", "ntheta_norm", "density.ntheta_norm", None),
    ("cli", "run_property_suite", "theorems.run_property_suite", None),
    ("cli", "run_inclusion_experiment", "theorems.run_inclusion_experiment", None),
    ("cli", "continuity_battery", "continuity.continuity_battery", None),
    ("cli", "closure_checks", "continuity.closure_checks", None),
    ("cli", "uniform_limit_check", "continuity.uniform_limit_check", None),
    ("density", "deviations", "kernel.deviations", _length),
    # lacunary.coarse_block_density_from_fine imports this at call time
    ("density", "block_density", "density.block_density", None),
    ("theorems", "deviations", "kernel.deviations", _length),
    ("theorems", "asc_verdict", "density.asc_verdict", None),
    ("theorems", "asc_theta_verdict", "density.asc_theta_verdict", None),
    ("theorems", "ac_theta_at_scale", "density.ac_theta_at_scale", None),
    ("theorems", "exceedance_prefix", "density.exceedance_prefix", None),
    ("theorems", "block_exceedance", "density.block_exceedance", None),
    ("theorems", "block_density", "density.block_density", None),
    ("theorems", "refinement_map", "lacunary.refinement_map", None),
    ("theorems", "coarse_block_density_from_fine",
     "lacunary.coarse_block_density_from_fine", None),
    ("theorems", "scalar_closure_suite", "theorems.scalar_closure_suite", None),
    ("theorems", "sum_closure_suite", "theorems.sum_closure_suite", None),
    ("theorems", "markov_step_suite", "theorems.markov_step_suite", _blocks),
    ("theorems", "refinement_aggregation_suite", "theorems.refinement_aggregation_suite", None),
    ("theorems", "delta_transfer_suite", "theorems.delta_transfer_suite", None),
    ("theorems", "lac1_bound_suite", "theorems.lac1_bound_suite", _blocks),
    ("lacunary", "refinement_map", "lacunary.refinement_map", None),
    ("continuity", "asc_theta_verdict", "density.asc_theta_verdict", None),
    ("continuity", "continuity_battery", "continuity.continuity_battery", None),
]

VERDICTS = ("density.asc_verdict", "density.asc_theta_verdict", "density.ac_theta_at_scale")
EXCEEDANCE_SETS = ("density.exceedance_prefix", "density.block_exceedance",
                   "density.block_density")

#: per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "cli.load_sequence_s": ("cli.load_sequence",),
    "cli.write_reports_s": ("cli.main",),  # residual of main after its traced children
    "kernel.deviations_s": ("kernel.deviations",),
    "density.asc_verdict_s": ("density.asc_verdict",),
    "density.asc_theta_verdict_s": ("density.asc_theta_verdict",),
    "density.ac_theta_at_scale_s": ("density.ac_theta_at_scale",),
    "density.density_curve_s": ("density.density_curve",),
    "density.ac_theta_block_mean_s": ("density.ac_theta_block_mean",),
    "density.ntheta_norm_s": ("density.ntheta_norm",),
    "density.exceedance_set_s": EXCEEDANCE_SETS,
    "lacunary.refinement_map_s": ("lacunary.refinement_map",),
    "lacunary.coarse_from_fine_s": ("lacunary.coarse_block_density_from_fine",),
    "theorems.scalar_closure_s": ("theorems.scalar_closure_suite",),
    "theorems.sum_closure_s": ("theorems.sum_closure_suite",),
    "theorems.markov_step_s": ("theorems.markov_step_suite",),
    "theorems.refinement_aggregation_s": ("theorems.refinement_aggregation_suite",),
    "theorems.delta_transfer_s": ("theorems.delta_transfer_suite",),
    "theorems.lac1_bound_s": ("theorems.lac1_bound_suite",),
    "theorems.inclusion_s": ("theorems.run_inclusion_experiment",),
    "continuity.battery_s": ("continuity.continuity_battery", "continuity.closure_checks"),
    "continuity.uniform_limit_s": ("continuity.uniform_limit_check",),
}
#: per-layer metric -> span names whose calls it counts
CALLS = {
    "kernel.deviations_calls": ("kernel.deviations",),
    "density.verdict_calls": VERDICTS,
    "density.exceedance_set_calls": EXCEEDANCE_SETS,
    "lacunary.refinement_map_calls": ("lacunary.refinement_map",),
}
#: per-layer metric -> span names whose recorded counts it sums
COUNTS = {
    "kernel.deviation_points": ("kernel.deviations",),
    "theorems.blocks_checked": ("theorems.markov_step_suite", "theorems.lac1_bound_suite"),
}


class Tracer:
    """Spans of one process: [name, start_ns, end_ns, parent index, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, 0])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][2] = clock()
                stack.pop()
            if count is not None:
                spans[i][4] = count(args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every name in WRAPS; return the ones the program lacks."""
        missing = []
        for module, attr, name, count in WRAPS:
            try:
                mod = importlib.import_module(f"arithstat.{module}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.wrap(fn, name, count))
        return missing


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self times, call counts and recorded counts per metric, from spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s, calls, counts = {}, {}, {}
    for (name, start, end, _, count), inner in zip(spans, child_ns):
        self_s[name] = self_s.get(name, 0) + (end - start - inner) / 1e9
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count
    out: dict[str, float] = {}
    for table, source in ((SELF_TIME, self_s), (CALLS, calls), (COUNTS, counts)):
        for metric, names in table.items():
            out[metric] = sum(source.get(n, 0) for n in names)
    out["density.witnesses_tried"] = sum(
        1 for name, _, _, parent, _ in spans
        if name == "kernel.deviations" and parent >= 0 and spans[parent][0] in VERDICTS)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <arithstat arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    missing = tracer.install()
    from arithstat import cli

    rc = tracer.wrap(cli.main, "cli.main")(argv[2:])
    end = clock()
    with open(argv[0], "w") as fh:
        json.dump({"exit_code": rc, "main_end_ns": end, "missing": missing,
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
