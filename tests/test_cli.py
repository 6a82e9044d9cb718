"""End-to-end checks of the command line: exit codes, report shapes, determinism."""
from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import arithstat
from arithstat import cli, continuity, density, kernel, lacunary, theorems
from arithstat.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    MAX_LENGTH,
    MAX_MAGNITUDE,
    MAX_N_MAX,
    main,
)
from arithstat.continuity import Affine, Clamp, ContinuityReport, Tabulated
from arithstat.density import Outcome
from arithstat.kernel import SparseSpike, generate
from arithstat.lacunary import MAX_BLOCKS
from arithstat.theorems import CheckReport, Suite, random_sample

DYADIC_POINTS = {"points": [1, 2, 4, 8, 16]}
GEOMETRIC_10 = {"geometric": {"ratio": 2.0, "count": 10, "start": 1}}


def assert_one_line_input_error(stderr: str) -> None:
    assert stderr.startswith("input error:"), stderr
    assert stderr.count("\n") == 1
    assert "Traceback" not in stderr


#: 1e300 * 1e300, past the float range: inf
BIG_PRODUCT = {"kind": "scaled", "factor": 1e300, "child": {"kind": "constant", "value": 1e300}}
#: gcd_periodic(4) plus a spike at 4 whose base cancels the table except at gcd 4:
#: there the bulk value is 1e308 + 1e308 = inf, and the spike value 1e308 - 1e308 = 0
SPIKE_MASKED_INF = {
    "kind": "sum",
    "left": {"kind": "gcd_periodic", "modulus": 4,
             "table": {"1": -1e308, "2": -1e308, "4": 1e308}},
    "right": {"kind": "sparse_spike", "base": 1e308, "height": -1e308, "support": [4]},
}
#: the same with a bulk value of 1e301 at gcd 4: finite, but past MAX_MAGNITUDE
SPIKE_MASKED_BIG = {
    "kind": "sum",
    "left": {"kind": "gcd_periodic", "modulus": 4, "table": {"1": 0, "2": 0, "4": 1e301}},
    "right": {"kind": "sparse_spike", "height": -1e301, "support": [4]},
}
#: the generator spec of the analyze-spec-early benchmark workload
SPEC_EARLY = {
    "kind": "sum",
    "left": {"kind": "gcd_periodic", "modulus": 12,
             "table": {"1": 0.5, "2": 1, "3": 1.5, "4": 2, "6": 3, "12": 6}},
    "right": {"kind": "sparse_spike", "height": 4, "power": 5},
}


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def const_spec(tmp_path):
    return write_json(tmp_path / "const.json", {"kind": "constant", "value": 2.0})


@pytest.fixture
def scheme_file(tmp_path):
    return write_json(tmp_path / "scheme.json", GEOMETRIC_10)


class TestAnalyze:
    def test_constant_sequence(self, tmp_path, const_spec, scheme_file, capsys):
        out = tmp_path / "out"
        rc = main(["analyze", "--input", const_spec, "--scheme", scheme_file,
                   "--length", "1024", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["asc"]["outcome"] == "ConvergentAtScale"
        assert report["asc"]["witness"] == 1
        assert report["asc_theta"]["outcome"] == "ConvergentAtScale"
        assert report["ac_sup_deviation"]["value"] == 0.0
        assert report["ntheta_norm"] == 2.0
        assert report["sequence"]["length"] == 1024
        captured = capsys.readouterr().out
        assert "asc: ConvergentAtScale (witness n = 1)" in captured

    def test_config_omits_output_path(self, tmp_path, const_spec):
        out = tmp_path / "out"
        main(["analyze", "--input", const_spec, "--length", "1024", "--out", str(out)])
        config = json.loads((out / "report.json").read_text())["config"]
        assert "out" not in config
        assert config["command"] == "analyze"
        assert config["eps_grid"] == [1.0, 0.5, 0.1, 0.05, 0.01]
        assert config["seed"] == 0  # analyze draws nothing; the key keeps the report shape

    def test_config_holds_one_policy(self):
        cfg = cli.config_from_args(cli.build_parser().parse_args(
            ["verify", "--tol", "0.05", "--eps-grid", "1,0.5", "--out", "o"]))
        assert cfg.policy == density.VerdictPolicy(tol=0.05, grid=(1.0, 0.5))
        assert cli.config_from_args(cli.build_parser().parse_args(
            ["scheme", "--scheme", "s.json", "--out", "o"])).policy == density.DEFAULT_POLICY

    def test_analyze_has_no_seed_flag(self, tmp_path, const_spec):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", const_spec, "--length", "1024", "--seed", "1",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_spike_csv_block_curve(self, tmp_path, scheme_file):
        x = generate(SparseSpike(height=1.0, power=2), 1024)
        seq = tmp_path / "seq.csv"
        seq.write_text("\n".join(f"{v:.1f}" for v in x.values) + "\n")
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(seq), "--scheme", scheme_file,
                   "--out", str(out)])
        assert rc == EXIT_OK

        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        # one spike per dyadic block, so the block density halves each block
        rows = [ln.split(",") for ln in lines[1:]]
        block_half = [(int(r[1]), float(r[4])) for r in rows
                      if r[0] == "block" and float(r[2]) == 0.5]
        assert block_half == [(r, 2.0 ** (1 - r)) for r in range(1, 11)]
        witnesses = {r[3] for r in rows}
        assert witnesses == {"1"}

    def test_csv_respects_length_truncation(self, tmp_path):
        seq = tmp_path / "seq.csv"
        seq.write_text("\n".join("0.0" for _ in range(300)))
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(seq), "--length", "256", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["sequence"]["length"] == 256
        assert report["asc_theta"] is None

    @pytest.mark.parametrize("content,reason", [
        ("", "empty"),
        ("1.0\ntwo\n3.0\n", "non-numeric"),
        (b"1.0\n\xff\n", "not UTF-8"),
        ("1.0\nnan\n", "not finite"),
        ("1.0\n1e400\n", "overflows to inf"),
    ])
    def test_bad_csv_is_input_error(self, tmp_path, content, reason, capsys):
        seq = tmp_path / "seq.csv"
        if isinstance(content, bytes):
            seq.write_bytes(content)
        else:
            seq.write_text(content)
        rc = main(["analyze", "--input", str(seq), "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT, reason
        err = capsys.readouterr().err
        assert_one_line_input_error(err)
        assert str(seq) in err, reason

    @pytest.mark.parametrize("name, text, length", [
        # the deviations' fsum in ntheta_norm overflowed and raised
        ("big.csv", "1e307\n" * 5000, None),
        ("const.json", json.dumps({"kind": "constant", "value": 1e307}), 5000),
        # deviations of 2e308 overflowed to inf with a numpy warning
        ("pm.csv", "1e308\n-1e308\n" * 2500, None),
        # the product overflows to inf, with a numpy warning, while the sample is generated
        ("scaled.json", json.dumps({"kind": "scaled", "factor": 1e300,
                                    "child": {"kind": "constant", "value": 1e300}}), 100),
    ], ids=["big.csv", "const.json", "pm.csv", "scaled.json"])
    def test_values_past_the_magnitude_bound_are_input_errors(self, tmp_path, capsys,
                                                              name, text, length):
        path = tmp_path / name
        path.write_text(text)
        scheme = write_json(tmp_path / "dyadic.json", {"geometric": {"ratio": 2, "count": 12}})
        argv = ["analyze", "--input", str(path), "--scheme", scheme, "--out", str(tmp_path / "o")]
        rc = main(argv + ([] if length is None else ["--length", str(length)]))
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        assert_one_line_input_error(captured.err)

    def test_values_at_the_magnitude_bound_are_analyzed(self, tmp_path):
        # deviations reach twice the bound; the tests fail on any numpy RuntimeWarning
        path = tmp_path / "edge.csv"
        path.write_text(f"{MAX_MAGNITUDE!r}\n{-MAX_MAGNITUDE!r}\n" * 2500)
        scheme = write_json(tmp_path / "dyadic.json", {"geometric": {"ratio": 2, "count": 12}})
        rc = main(["analyze", "--input", str(path), "--scheme", scheme,
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("spec, length", [
        (BIG_PRODUCT, 100),
        # inf - inf: not a number
        ({"kind": "sum", "left": BIG_PRODUCT, "right": {"kind": "scaled", "factor": -1,
                                                        "child": BIG_PRODUCT}}, 100),
        ({"kind": "constant", "value": 1e307}, 5000),
        # only a spike reaches past the bound; the bulk stays inside it
        ({"kind": "sum", "left": {"kind": "gcd_periodic", "modulus": 3,
                                  "table": {"1": 0, "3": 1}},
          "right": {"kind": "sparse_spike", "height": 1e301, "power": 3}}, 100),
        # the bulk value at m = 0 mod 4 is inf, or 1e301 past the bound: accepted while
        # every such m up to the length is a spike, refused from the first that is not
        (SPIKE_MASKED_INF, 7), (SPIKE_MASKED_INF, 8), (SPIKE_MASKED_INF, 12),
        (SPIKE_MASKED_BIG, 7), (SPIKE_MASKED_BIG, 8),
        ({**SPIKE_MASKED_BIG, "right": {**SPIKE_MASKED_BIG["right"], "support": [4, 8]}}, 11),
        ({**SPIKE_MASKED_BIG, "right": {**SPIKE_MASKED_BIG["right"], "support": [4, 8]}}, 12),
        ({**SPIKE_MASKED_BIG, "right": {**SPIKE_MASKED_BIG["right"], "support": [4, 8]}}, 13),
    ])
    def test_spec_refusals_match_the_materialized_sample(self, tmp_path, capsys, spec, length):
        path = write_json(tmp_path / "spec.json", spec)
        with np.errstate(all="ignore"):
            try:
                values = generate(cli.parse_generator_spec(spec), length).values
            except ValueError as e:
                expected = f"input error: {path}: {e}\n"
            else:
                expected = ("" if max(values.max(), -values.min()) <= MAX_MAGNITUDE else
                            f"input error: {path} holds a value of magnitude above "
                            f"{MAX_MAGNITUDE:g}\n")
        rc = main(["analyze", "--input", path, "--length", str(length), "--tail-window", "2",
                   "--n-max", "2", "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert captured.err == expected
        assert rc == (EXIT_INPUT if expected else EXIT_OK)

    def test_spec_analysis_never_holds_the_sample(self):
        # the period-backed sample answers every count, sum and maximum of the
        # report; the 2**25 values alone would take 256 MiB
        spec = cli.parse_generator_spec(json.loads(json.dumps(SPEC_EARLY)))
        scheme = cli.parse_scheme_spec({"geometric": {"ratio": 2, "count": 21}})
        tracemalloc.start()
        try:
            x = kernel.PeriodicSample(spec, MAX_LENGTH)
            asc, theta = density.asc_verdicts(x, scheme)
            density.ac_theta_block_means(x, scheme, theta.evaluated_n)
            density.ntheta_norm(x, scheme)
            density.ac_sup_deviation(x, asc.evaluated_n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (asc.witness, theta.witness) == (12, 12)
        assert peak < 32 * 2**20

    def test_missing_file_is_input_error(self, tmp_path, capsys, const_spec):
        csv, scheme = tmp_path / "absent.csv", tmp_path / "absent.json"
        for absent, args in ((csv, ["analyze", "--input", str(csv)]),
                             (scheme, ["analyze", "--input", const_spec, "--length", "64",
                                       "--scheme", str(scheme)]),
                             (scheme, ["scheme", "--scheme", str(scheme)])):
            rc = main([*args, "--out", str(tmp_path / "o")])
            assert rc == EXIT_INPUT, args
            assert capsys.readouterr().err == f"input error: no such file: {absent}\n", args

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        def scaled(depth: int) -> str:
            return ('{"kind": "scaled", "factor": 1.0, "child": ' * depth
                    + '{"kind": "constant", "value": 1.0}' + "}" * depth)

        texts = [
            "{not json",
            scaled(990),  # deeper than the JSON parser recurses
            scaled(200),  # parses, but nests past the generator spec limit
            '{"kind": "constant", "value": 1e400}',
            '{"kind": "constant", "value": 1' + "0" * 400 + "}",
            # past Python's 4300-digit limit for int(str): json.loads raises ValueError
            '{"kind": "constant", "value": 1' + "0" * 5000 + "}",
        ]
        spec = tmp_path / "broken.json"
        for text in texts:
            spec.write_text(text)
            rc = main(["analyze", "--input", str(spec), "--length", "64",
                       "--out", str(tmp_path / "o")])
            assert rc == EXIT_INPUT, text[:40]
            assert_one_line_input_error(capsys.readouterr().err)
        spec.write_bytes(b'{"kind": "constant", "value": \xff}')
        rc = main(["analyze", "--input", str(spec), "--length", "64",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert_one_line_input_error(capsys.readouterr().err)

    @pytest.mark.parametrize("spec", [
        {"kind": "mystery"},
        {"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0.0}},
        {"kind": "sparse_spike", "power": 2, "rate": 0.5},
        {"kind": "scaled", "factor": 2.0},
        # integer fields refuse fractions rather than truncate them
        {"kind": "gcd_periodic", "modulus": 6.9, "table": {"1": 0, "2": 1, "3": 1, "6": 2}},
        {"kind": "sparse_spike", "support": [1, 2.5]},
        {"kind": "sparse_spike", "power": 2.7},
        {"kind": "sparse_spike", "rate": 0.5, "seed": 0.5},
        # number fields refuse booleans and strings, which float() and int() would read
        {"kind": "constant", "value": True},
        {"kind": "constant", "value": "2"},
        {"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0, "2": 1, "3": True, "6": 2}},
        {"kind": "gcd_periodic", "modulus": True, "table": {"1": 0}},
        {"kind": "sparse_spike", "height": "4", "power": 2},
        {"kind": "sparse_spike", "base": False, "power": 2},
        {"kind": "sparse_spike", "support": [True, 2]},
        {"kind": "sparse_spike", "rate": True},
        {"kind": "sparse_spike", "rate": "0.5"},
        {"kind": "sparse_spike", "rate": 0.5, "seed": True},
        {"kind": "scaled", "factor": "2", "child": {"kind": "constant", "value": 1}},
        # two table keys that name one divisor would keep only the last entry
        {"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0, "2": 1, "3": 1, "6": 6, "06": 1}},
        {"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0, "2": 1, "3": 1, "6": 6, "+6": 1}},
        {"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0, "2": 1, "3": 1, "6": 6, " 6": 1}},
        # a misspelt field would otherwise be ignored and its default used
        {"kind": "sparse_spike", "hieght": 4, "power": 3},
        {"kind": "constant", "value": 1, "power": 3},
        {"kind": "scaled", "factor": 2, "child": {"kind": "constant", "value": 1, "x": 0}},
    ])
    def test_bad_generator_spec_is_input_error(self, tmp_path, capsys, spec):
        path = write_json(tmp_path / "spec.json", spec)
        rc = main(["analyze", "--input", path, "--length", "64",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_input_error(captured.err)

    def test_generator_without_length_is_config_error(self, tmp_path, const_spec):
        rc = main(["analyze", "--input", const_spec, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_two_schemes_are_refused_before_the_input_is_read(self, tmp_path, capsys,
                                                             scheme_file):
        # the input is absent: reading it first would end in an input error
        rc = main(["analyze", "--input", str(tmp_path / "absent.csv"), "--scheme", scheme_file,
                   "--scheme", scheme_file, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ("--tol", "0.5", "--tol-hi", "0.2"),
        ("--eps-grid", "0.5,1"),
        ("--eps-grid", "abc"),
        ("--length", "0"),
        ("--length", "4"),  # too short for a full tail window of checkpoints
        ("--n-max", "0"),
        ("--length", str(MAX_LENGTH + 1)),
        # a non-finite tol_hi or growth would be written as Infinity, which is not JSON
        ("--tol-hi", "inf"),
        ("--tol-hi", "1e400"),
        ("--growth", "inf", "--tail-window", "1"),
    ])
    def test_bad_policy_is_config_error(self, tmp_path, capsys, const_spec, flags):
        rc = main(["analyze", "--input", const_spec, "--length", "1024",
                   "--out", str(tmp_path / "o"), *flags])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_reruns_are_byte_identical(self, tmp_path, const_spec, scheme_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["analyze", "--input", const_spec, "--scheme", scheme_file,
                  "--length", "1024", "--out", str(out)])
            outs.append(out)
        a, b = outs
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()


class TestCsvLoad:
    """The CSV is read in chunks of `cli._CSV_CHUNK` bytes, but validated whole."""

    def analyze(self, capsys, seq, *flags: str) -> str:
        capsys.readouterr()
        rc = main(["analyze", "--input", str(seq), *flags, "--out", str(seq.parent / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT, err
        assert_one_line_input_error(err)
        return err

    @pytest.mark.parametrize("before", [b"", b"1.0\ntwo\n"])
    def test_bad_byte_past_the_first_chunk(self, tmp_path, capsys, before):
        # UnicodeDecodeError is a ValueError: it must not read as a bad line,
        # and it outranks a bad line that comes before it
        data = before + b"0.125\n" * (cli._CSV_CHUNK // 6 + 100) + b"\xff\n"
        assert data.index(b"\xff") >= cli._CSV_CHUNK
        seq = tmp_path / "seq.csv"
        seq.write_bytes(data)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            whole = e
        # the position counts from the start of the file, not of the chunk
        assert self.analyze(capsys, seq) == f"input error: {seq} is not UTF-8 text: {whole}\n"

    def test_bad_line_past_length_is_refused(self, tmp_path, capsys):
        seq = tmp_path / "seq.csv"
        seq.write_text("0.0\n" * 300 + "two\n")
        err = self.analyze(capsys, seq, "--length", "256")
        assert err == f"input error: {seq} holds a non-numeric line\n"

    def test_length_past_the_values_is_refused(self, tmp_path, capsys):
        seq = tmp_path / "seq.csv"
        seq.write_text("0.0\n" * 300)
        err = self.analyze(capsys, seq, "--length", "301")
        assert err == f"input error: --length 301 exceeds the 300 values in {seq}\n"

    @pytest.mark.parametrize("flags", [(), ("--length", "4")])
    def test_value_count_is_capped(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli, "MAX_LENGTH", 8)
        seq = tmp_path / "seq.csv"
        seq.write_text("0.5\n" * 8)
        rc = main(["analyze", "--input", str(seq), *flags, "--n-max", "2",
                   "--tail-window", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        # reading stops at the ninth value: a bad byte in a later chunk is never read
        monkeypatch.setattr(cli, "_CSV_CHUNK", 4)
        seq.write_bytes(b"0.5\n" * 9 + b"\xff\n")
        err = self.analyze(capsys, seq, *flags)
        assert err == f"input error: {seq} holds more than 8 values\n"

    def test_load_memory_stays_near_the_value_array(self, tmp_path):
        # the text, its lines and their floats are never all held at once:
        # loading the whole text first peaked at 13.8 times the value array
        seq = tmp_path / "seq.csv"
        with open(seq, "w") as fh:
            fh.writelines(f"{(m % 129 - 64) / 8:.3f}\n" for m in range(2**18))
        tracemalloc.start()
        try:
            x = cli.load_sequence(str(seq), None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.length == 2**18
        assert peak < 6 * x.values.nbytes

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    @pytest.mark.parametrize("where", ["open", "read"])
    def test_unreadable_input_is_input_error(self, tmp_path, capsys, monkeypatch,
                                             suffix, where):
        # file permissions do not stop a root user, so the read itself is made to fail
        path = tmp_path / f"seq{suffix}"
        path.write_text("1.0\n" * 100 if suffix == ".csv" else
                        json.dumps({"kind": "constant", "value": 1.0}))

        class Unreadable:
            def __init__(self, *args, **kwargs):
                if where == "open":
                    raise PermissionError(13, "Permission denied")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, *args):
                raise OSError(5, "Input/output error")

        monkeypatch.setattr(cli, "open", Unreadable, raising=False)
        monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: Unreadable().read())
        out = tmp_path / "o"
        rc = main(["analyze", "--input", str(path), "--length", "100", "--out", str(out)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        assert_one_line_input_error(captured.err)
        assert str(path) in captured.err
        assert not out.exists()


class TestOutputDirectory:
    @pytest.mark.parametrize("command", [
        ["scheme", "--scheme", "s.json"],
        ["analyze", "--input", "c.json", "--length", "100"],
        ["verify", "--instances", "1"],
    ], ids=["scheme", "analyze", "verify"])
    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_that_cannot_be_a_directory_is_config_error(self, tmp_path, monkeypatch,
                                                            capsys, command, out):
        # it ended in FileExistsError or NotADirectoryError and exit 1, after the work
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "s.json", DYADIC_POINTS)
        write_json(tmp_path / "c.json", {"kind": "constant", "value": 2.0})
        (tmp_path / "afile").write_text("x\n")
        before = sorted(tmp_path.rglob("*"))
        rc = main([*command, "--out", out])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_CONFIG, "")
        assert captured.err == (f"config error: --out {out} cannot be made a directory: "
                                "afile is not one\n")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "afile").read_text() == "x\n"

    @pytest.mark.parametrize("command, first_written", [
        (["scheme", "--scheme", "s.json"], "scheme_1.csv"),
        (["analyze", "--input", "c.json", "--length", "100"], "report.json"),
        (["verify", "--instances", "1", "--length", "513"], "verify_report.json"),
    ], ids=["scheme", "analyze", "verify"])
    def test_out_that_cannot_be_made_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                     command, first_written):
        # it ended in PermissionError and exit 1; root ignores permission bits,
        # so the refusal is patched in
        def refused(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "s.json", DYADIC_POINTS)
        write_json(tmp_path / "c.json", {"kind": "constant", "value": 2.0})
        monkeypatch.setattr(Path, "mkdir", refused)
        rc = main([*command, "--out", "o"])
        assert (rc, capsys.readouterr()) == (EXIT_CONFIG, (
            "", f"config error: cannot write o/{first_written}: Permission denied\n"))

    def test_a_failed_write_of_the_verify_report_prints_no_line(self, tmp_path, monkeypatch,
                                                                 capsys):
        def full(obj, fh, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.json, "dump", full)
        rc = main(["verify", "--instances", "1", "--length", "513", "--out", "o"])
        assert (rc, capsys.readouterr()) == (EXIT_CONFIG, (
            "", "config error: cannot write o/verify_report.json: No space left on device\n"))

    @pytest.mark.parametrize("command, names", [
        (["scheme", "--scheme", "s.json"], ["scheme_1.csv", "scheme_report.json"]),
        (["analyze", "--input", "c.json", "--length", "100"], ["report.json", "curves.csv"]),
    ], ids=["scheme", "analyze"])
    def test_a_failed_second_write_leaves_the_earlier_outputs(self, tmp_path, monkeypatch,
                                                              capsys, command, names):
        # it left the first file of the new run beside the second of the earlier one
        def full_on_second(path, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(path)
                if len(written) == 2:
                    raise OSError(28, "No space left on device")
            return open(path, mode, *args, **kwargs)

        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "s.json", DYADIC_POINTS)
        write_json(tmp_path / "c.json", {"kind": "constant", "value": 2.0})
        (tmp_path / "o").mkdir()
        for name in names:
            (tmp_path / "o" / name).write_text(f"earlier {name}\n")
        written: list = []
        monkeypatch.setattr(cli, "open", full_on_second, raising=False)
        rc = main([*command, "--out", "o"])
        assert (rc, capsys.readouterr()) == (EXIT_CONFIG, (
            "", f"config error: cannot write o/{names[1]}: No space left on device\n"))
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == sorted(names)
        for name in names:
            assert (tmp_path / "o" / name).read_text() == f"earlier {name}\n"


class TestScheme:
    def test_single_scheme_table(self, tmp_path):
        path = write_json(tmp_path / "s.json", DYADIC_POINTS)
        out = tmp_path / "out"
        rc = main(["scheme", "--scheme", path, "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "scheme_1.csv").read_text().splitlines()
        assert lines[0] == "r,k,h,q"
        assert lines[1] == "0,1,,"
        assert lines[2] == "1,2,1,2.0"
        report = json.loads((out / "scheme_report.json").read_text())
        assert report["schemes"][0]["blocks"] == 4
        assert report["schemes"][0]["advisory_flag"] is False
        assert report["relation"] is None

    def test_refinement_pair(self, tmp_path, capsys):
        coarse = write_json(tmp_path / "coarse.json", {"points": [1, 4, 16]})
        fine = write_json(tmp_path / "fine.json", DYADIC_POINTS)
        out = tmp_path / "out"
        rc = main(["scheme", "--scheme", coarse, "--scheme", fine, "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "scheme_report.json").read_text())
        assert report["relation"]["direction"] == "second refines first"
        assert report["relation"]["delta"] == pytest.approx(1.0 / 3.0)
        assert "delta = 0.333333" in capsys.readouterr().out

    def test_general_pair_direction(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"points": [1, 3, 9]})
        b = write_json(tmp_path / "b.json", DYADIC_POINTS)
        out = tmp_path / "out"
        rc = main(["scheme", "--scheme", a, "--scheme", b, "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "scheme_report.json").read_text())
        assert report["relation"]["direction"] == "general pair"

    def test_factorial_generator(self, tmp_path):
        path = write_json(tmp_path / "f.json", {"factorial": {"count": 4}})
        out = tmp_path / "out"
        rc = main(["scheme", "--scheme", path, "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "scheme_1.csv").read_text().splitlines()
        ks = [int(ln.split(",")[1]) for ln in lines[1:]]
        assert ks == [1, 2, 6, 24, 120]

    def test_three_schemes_is_config_error(self, tmp_path):
        path = write_json(tmp_path / "s.json", DYADIC_POINTS)
        rc = main(["scheme", "--scheme", path, "--scheme", path, "--scheme", path,
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_one_block_scheme_is_config_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {"points": [1, 4]})
        rc = main(["scheme", "--scheme", path, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: ratio statistics need a scheme with at least two blocks\n")

    def test_bad_scheme_spec_is_input_error(self, tmp_path, capsys):
        texts = [
            json.dumps({"points": [5, 3, 1]}),
            json.dumps({"geometric": {"ratio": 10, "count": 400}}),
            json.dumps({"geometric": {"ratio": 1e308, "count": 3}}),
            json.dumps({"geometric": {"ratio": 0.5, "count": 3}}),
            '{"points": [1, 1e400]}',
            json.dumps({"points": [1, 2**63]}),
            json.dumps({"factorial": {"count": 3000}}),
            '{"factorial": {"count": 1e400}}',
            json.dumps({"polynomial": {"degree": 400, "count": 300}}),
            json.dumps({"polynomial": {"degree": 1, "count": MAX_BLOCKS + 1}}),
            # refused before 2**(10**12) is computed
            json.dumps({"polynomial": {"degree": 10**12, "count": 1}}),
            '{"points": [1, 2' + "0" * 5000 + "]}",
            # integer fields refuse fractions rather than truncate them
            json.dumps({"points": [1, 2.5, 4.9, 8]}),
            json.dumps({"geometric": {"ratio": 2, "count": 3.5}}),
            json.dumps({"geometric": {"ratio": 2, "count": 3, "start": 1.5}}),
            json.dumps({"polynomial": {"degree": 2.7, "count": 3}}),
            json.dumps({"factorial": {"count": 3.5}}),
            # number fields refuse booleans and strings, which float() and int() would read
            json.dumps({"points": [True, 2, 4, 8]}),
            json.dumps({"geometric": {"ratio": "2", "count": 3}}),
            json.dumps({"geometric": {"ratio": 2, "count": True}}),
            json.dumps({"geometric": {"ratio": 2, "count": 3, "start": True}}),
            json.dumps({"polynomial": {"degree": True, "count": 3}}),
            json.dumps({"factorial": {"count": "3"}}),
            # two generator keys are refused, not read by whichever key is tested first
            json.dumps({"geometric": {"ratio": 2, "count": 12},
                        "polynomial": {"degree": 2, "count": 40}}),
            json.dumps({"points": [1, 2, 4, 8], "factorial": {"count": 5}}),
            # a misspelt or extra field would otherwise be ignored
            json.dumps({"geometric": {"ratio": 2, "count": 12, "strat": 5}}),
            json.dumps({"polynomial": {"degree": 2, "count": 12, "ratio": 2}}),
            json.dumps({"factorial": {"count": 5, "start": 2}}),
            json.dumps({"points": [1, 2, 4, 8], "note": 1}),
        ]
        path = tmp_path / "s.json"
        for text in texts:
            path.write_text(text)
            rc = main(["scheme", "--scheme", str(path), "--out", str(tmp_path / "o")])
            assert rc == EXIT_INPUT, text
            assert_one_line_input_error(capsys.readouterr().err)

    @pytest.mark.parametrize("command, spec, message", [
        ("analyze", {"kind": "sparse_spike", "hieght": 4, "power": 3},
         "bad 'sparse_spike' spec: unknown field 'hieght'"),
        # the kind is checked before its fields
        ("analyze", {"kind": "mystery", "x": 1}, "unknown generator kind 'mystery'"),
        ("scheme", {"geometric": {"ratio": 2, "count": 12, "strat": 5}},
         "bad scheme spec: unknown field 'strat'"),
        ("scheme", {"points": [1, 2, 4, 8], "note": 1}, "bad scheme spec: unknown field 'note'"),
        # a field of the wrong JSON type is named, with the type it must have
        ("analyze", {"kind": "gcd_periodic", "modulus": 6, "table": [1]},
         "bad 'gcd_periodic' spec: field 'table' must be a JSON object, got list"),
        ("analyze", {"kind": "sparse_spike", "support": 5},
         "bad 'sparse_spike' spec: field 'support' must be a JSON list, got number"),
        ("scheme", {"factorial": 8},
         "bad scheme spec: field 'factorial' must be a JSON object, got number"),
        ("scheme", {"geometric": [2, 3]},
         "bad scheme spec: field 'geometric' must be a JSON object, got list"),
        ("scheme", {"points": 5},
         "bad scheme spec: field 'points' must be a JSON list, got number"),
        # every type in JSON's words, and a required field that is left out by its name
        ("analyze", {"kind": "constant"}, "bad 'constant' spec: missing field 'value'"),
        ("analyze", {"kind": "constant", "value": None},
         "bad 'constant' spec: field 'value' must be a JSON number, got null"),
        ("analyze", {"kind": "constant", "value": True},
         "bad 'constant' spec: field 'value' must be a JSON number, got boolean"),
        ("analyze", {"kind": "sparse_spike", "support": [1, "2"]},
         "bad 'sparse_spike' spec: field 'support' at index 1 must be a whole number, "
         "got string"),
        ("analyze", {"kind": "gcd_periodic", "modulus": 6,
                     "table": {"x": 1, "2": 1, "3": 1, "6": 1}},
         'bad \'gcd_periodic\' spec: field \'table\' key "x" must be a whole number'),
        ("analyze", {"kind": "gcd_periodic", "modulus": 6, "table": None},
         "bad 'gcd_periodic' spec: field 'table' must be a JSON object, got null"),
        ("scheme", {"factorial": {}}, "bad scheme spec: missing field 'count'"),
        ("scheme", {"geometric": {"ratio": None, "count": 5}},
         "bad scheme spec: field 'ratio' must be a JSON number, got null"),
        ("analyze", 5, "generator spec must be a JSON object, got number"),
        ("analyze", {"value": 1}, "bad generator spec: missing field 'kind'"),
        ("analyze", {"kind": None},
         "bad generator spec: field 'kind' must be a JSON string, got null"),
        ("analyze", {"kind": "scaled", "factor": 1, "child": [2]},
         "bad 'scaled' spec: field 'child' must be a JSON object, got list"),
        ("analyze", {"kind": "gcd_periodic", "modulus": 6,
                     "table": {"1": 0, "2": 1, "3": False, "6": 2}},
         'bad \'gcd_periodic\' spec: field \'table\' value of "3" must be a JSON number, '
         "got boolean"),
        ("scheme", {"points": [1, 2.5]},
         "bad scheme spec: field 'points' at index 1 must be a whole number, got 2.5"),
        # int() would read these keys as 10 and 2: a key is ASCII digits, with a sign
        ("analyze", {"kind": "gcd_periodic", "modulus": 10,
                     "table": {"1": 0, "2": 1, "5": 2, "1_0": 3}},
         'bad \'gcd_periodic\' spec: field \'table\' key "1_0" must be a whole number'),
        ("analyze", {"kind": "gcd_periodic", "modulus": 2, "table": {"1": 0, "\u0662": 1}},
         'bad \'gcd_periodic\' spec: field \'table\' key "\\u0662" must be a whole number'),
    ])
    def test_unknown_spec_field_is_named(self, tmp_path, capsys, command, spec, message):
        path = write_json(tmp_path / "spec.json", spec)
        flag = ["--input", path, "--length", "4096"] if command == "analyze" else ["--scheme", path]
        rc = main([command, *flag, "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {message}\n"


LEAF = {"kind": "constant", "value": -0.5}
NESTED = {"kind": "sum", "left": LEAF, "right": {"kind": "scaled", "factor": 3, "child": LEAF}}
NESTED_SPEC = kernel.Summed(kernel.Constant(-0.5), kernel.Scaled(3.0, kernel.Constant(-0.5)))


class TestSpecVocabulary:
    """Every field of the JSON vocabulary reaches the spec or scheme that it builds."""

    @pytest.mark.parametrize("obj, spec", [
        ({"kind": "constant", "value": 2.5}, kernel.Constant(2.5)),
        ({"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0, "2": 1.5, "3": -2, "6": 4}},
         kernel.GcdPeriodic(6, {1: 0.0, 2: 1.5, 3: -2.0, 6: 4.0})),
        # the support rules exclude one another: one case each, with every other field
        ({"kind": "sparse_spike", "height": 3, "base": -1, "support": [2, 5, 9], "seed": 4},
         SparseSpike(height=3.0, base=-1.0, support=(2, 5, 9), seed=4)),
        ({"kind": "sparse_spike", "height": 3, "base": -1, "power": 3, "seed": 4},
         SparseSpike(height=3.0, base=-1.0, power=3, seed=4)),
        ({"kind": "sparse_spike", "height": 3, "base": -1, "rate": 0.75, "seed": 4,
          "support": None, "power": None},
         SparseSpike(height=3.0, base=-1.0, rate=0.75, seed=4)),
        ({"kind": "scaled", "factor": -2, "child": NESTED}, kernel.Scaled(-2.0, NESTED_SPEC)),
        ({"kind": "sum", "left": NESTED, "right": {"kind": "scaled", "factor": 0, "child": NESTED}},
         kernel.Summed(NESTED_SPEC, kernel.Scaled(0.0, NESTED_SPEC))),
        # a table key may carry leading zeros, a sign and spaces around it
        ({"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0, "2": 1.5, "3": -2, "06": 4}},
         kernel.GcdPeriodic(6, {1: 0.0, 2: 1.5, 3: -2.0, 6: 4.0})),
        ({"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0, "2": 1.5, "3": -2, "+6": 4}},
         kernel.GcdPeriodic(6, {1: 0.0, 2: 1.5, 3: -2.0, 6: 4.0})),
        ({"kind": "gcd_periodic", "modulus": 6, "table": {"1": 0, "2": 1.5, "3": -2, " 6": 4}},
         kernel.GcdPeriodic(6, {1: 0.0, 2: 1.5, 3: -2.0, 6: 4.0})),
    ])
    def test_generator_spec_fields(self, obj, spec):
        assert cli.parse_generator_spec(obj) == spec

    @pytest.mark.parametrize("obj, points, count", [
        ({"geometric": {"ratio": 1.5, "count": 9, "start": 3}},
         lacunary.geometric_points(1.5, 3), 9),
        ({"polynomial": {"degree": 3, "count": 7}}, lacunary.polynomial_points(3), 7),
        ({"factorial": {"count": 6}}, lacunary.factorial_points(), 6),
    ])
    def test_scheme_generator_fields(self, obj, points, count):
        assert cli.parse_scheme_spec(obj) == lacunary.first_blocks(points, count)

    @pytest.mark.parametrize("command, spec, field", [
        ("analyze", {"kind": "scaled", "factor": 2}, "child"),
        ("scheme", {"geometric": {"count": 5}}, "ratio"),
        ("scheme", {"factorial": {}}, "count"),
    ])
    def test_missing_field_is_named(self, tmp_path, capsys, command, spec, field):
        path = write_json(tmp_path / "spec.json", spec)
        flag = ["--input", path, "--length", "64"] if command == "analyze" else ["--scheme", path]
        rc = main([command, *flag, "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert_one_line_input_error(err)
        assert repr(field) in err


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify", "--instances", "20", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "verify_report.json").read_text())
        assert report["verified"] is True
        assert report["negative_controls"]["lac1_refusal"]["refused"] is True
        assert report["negative_controls"]["step_battery"]["contradictions"] >= 1
        text = capsys.readouterr().out
        assert "verification: OK" in text
        assert "FAIL" not in text

    def test_injected_fault_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify", "--instances", "20", "--inject-fault", "scaling",
                   "--out", str(out)])
        assert rc == EXIT_VERIFY_FAILED
        report = json.loads((out / "verify_report.json").read_text())
        assert report["verified"] is False
        failures = report["property_suites"]["scalar_closure"]["failures"]
        assert any(f["instance"].get("injected") for f in failures)
        assert "FAIL  property scalar_closure" in capsys.readouterr().out

    def test_square_scheme_control_fails_when_the_gate_lets_it_through(self, tmp_path, capsys,
                                                                      monkeypatch):
        # the experiments read theorems.ratio_gate, so only the control sees this gate
        monkeypatch.setattr(cli, "ratio_gate", lambda hypothesis, scheme: (1.0, 1.0))
        out = tmp_path / "out"
        rc = main(["verify", "--instances", "20", "--out", str(out)])
        assert rc == EXIT_VERIFY_FAILED
        assert ("FAIL  control: square scheme refuses the lac1 experiment"
                in capsys.readouterr().out)
        report = json.loads((out / "verify_report.json").read_text())
        assert report["negative_controls"]["lac1_refusal"] == {
            "refused": False, "note": "experiment unexpectedly ran"}

    @pytest.mark.parametrize("flags", [
        ("--growth", "1.000000001"),  # over 100,000 checkpoint steps
        ("--tail-window", "64"),  # more than the 33 checkpoints of 8193
        ("--length", "100"),  # 6 dyadic blocks, fewer than the tail window
        ("--length", "40", "--n-max", "64"),  # the crossing control holds 64 values
        ("--length", "3", "--tail-window", "1", "--n-max", "1"),  # one block: no ratio tail
        ("--length", "257"),  # the prefix tail starts at 51, below --n-max 64
        ("--length", "65", "--tail-window", "2"),  # prefix tail at 51, last block at 32
        ("--length", "65", "--tail-window", "1"),  # the last block starts at 32
        ("--seed", "-1"),  # numpy draws from no negative seed
        ("--tol-hi", "inf"),
        ("--tol-hi", "1e400"),
        ("--growth", "inf", "--tail-window", "1"),
        ("--instances", "0"),
    ])
    def test_bad_family_config_is_refused_before_the_suites(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        rc = main(["verify", "--instances", "1", *flags, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.fixture
    def two_quick_workers(self, monkeypatch):
        """Two suite workers, and six suites that return at once: these tests are
        about the workers, not about what the suites check."""
        monkeypatch.setattr(theorems, "_usable_cpus", lambda: 2)
        for name in theorems.SUITES:
            monkeypatch.setitem(theorems.SUITES, name, Suite(lambda rng, x: {},
                                                             lambda x, n, eps: ()))

    @pytest.mark.parametrize("flags, code", [
        ((), EXIT_OK),
        (("--inject-fault", "scaling"), EXIT_VERIFY_FAILED),
    ])
    def test_no_worker_outlives_main(self, tmp_path, monkeypatch, two_quick_workers,
                                     flags, code):
        workers_meanwhile = []

        def experiment(*args, fn=cli.run_inclusion_experiment):
            workers_meanwhile.append(len(multiprocessing.active_children()))
            return fn(*args)

        monkeypatch.setattr(cli, "run_inclusion_experiment", experiment)
        rc = main(["verify", "--length", "513", *flags, "--out", str(tmp_path / "out")])
        assert rc == code
        assert workers_meanwhile[0] == 2  # the family checks run beside the suites
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failing_suite(self, tmp_path, monkeypatch, two_quick_workers):
        def broken(rng, x):
            raise RuntimeError(f"suite broke on {x.recipe}")

        monkeypatch.setitem(theorems.SUITES, "delta_transfer", Suite(broken, lambda x, n, eps: ()))
        first = random_sample(np.random.default_rng(4), max_length=10_000)  # seed 0 + suite 4
        with pytest.raises(RuntimeError, match=re.escape(f"suite broke on {first.recipe}")):
            main(["verify", "--length", "513", "--out", str(tmp_path / "out")])
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out").exists()

    def test_config_error_beside_the_suites_prints_no_suite_line(self, tmp_path, capsys,
                                                                  monkeypatch, two_quick_workers):
        def refused(hypothesis, table):
            raise theorems.HypothesisNotMet(f"{hypothesis} refused")

        monkeypatch.setattr(cli, "run_inclusion_experiment", refused)
        rc = main(["verify", "--length", "513", "--out", str(tmp_path / "out")])
        assert (rc, capsys.readouterr()) == (EXIT_CONFIG, ("", "config error: lac1 refused\n"))
        assert multiprocessing.active_children() == []

    def test_tails_must_reach_n_max(self, tmp_path, capsys):
        rc = main(["verify", "--instances", "1", "--length", "257", "--out", str(tmp_path / "a")])
        assert (rc, capsys.readouterr().err) == (EXIT_CONFIG, (
            "config error: --length 257 is too short for --n-max 64: the prefix tail "
            "starts at 51 and the last block at 128, both must reach 64\n"))
        # 513 values: the prefix tail starts at 86 and the last block at 256
        rc = main(["verify", "--instances", "1", "--length", "513", "--out", str(tmp_path / "b")])
        assert rc == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_each_family_verdict_is_searched_once(self, tmp_path, monkeypatch):
        # 13 verdict pairs (the family and the crossing control), 73 mapped
        # samples of the seven batteries and the ramp control: 87 searches
        calls = {"_density_verdicts": 0, "ac_theta_at_scale": 0}
        for module, name in ((density, "_density_verdicts"), (theorems, "ac_theta_at_scale")):
            def counted(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)
        assert main(["verify", "--instances", "1", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls["_density_verdicts"] <= 87
        assert calls["ac_theta_at_scale"] == 12

    def test_reruns_are_byte_identical(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["verify", "--instances", "20", "--seed", "7", "--out", str(out)])
            assert rc == EXIT_OK
            reports.append((out / "verify_report.json").read_bytes())
        assert reports[0] == reports[1]


def contradicted(rep: ContinuityReport) -> ContinuityReport:
    """`rep` with the mapped verdict of its first supporting entry made NotConvergentAtScale."""
    i = next(i for i, e in enumerate(rep.entries) if e.status == "support")
    e = rep.entries[i]
    bad = replace(e, right=replace(e.right, outcome=Outcome.NOT_CONVERGENT))
    return replace(rep, entries=(*rep.entries[:i], bad, *rep.entries[i + 1:]))


def uncontradicted(rep: ContinuityReport) -> ContinuityReport:
    return replace(rep, entries=tuple(e for e in rep.entries if e.status != "contradiction"))


def failed(rep: CheckReport) -> CheckReport:
    return replace(rep, passed=False, witness={"planted": True})


#: each `verify` line that no other test fails: its label, the `cli` name it reads, which
#: calls of that name are planted a failure and how, and what the report then holds
LINE_FAULTS = [
    ("continuity battery affine", "continuity_battery",
     lambda f, table: f == Affine(2.0, -1.0), contradicted,
     "continuity", "battery_affine", {"contradictions": 1}),
    ("continuity battery clamp", "continuity_battery",
     lambda f, table: f == Clamp(-1.0, 5.0), contradicted,
     "continuity", "battery_clamp", {"contradictions": 1}),
    ("continuity closure (sum, difference, composition)", "closure_checks",
     lambda *args: True, failed, "continuity", "closure", {"passed": False}),
    # the three covers are told apart by their witness n
    ("uniform limit cover (shifts_to_identity)", "uniform_limit_check",
     lambda *args: args[4] == 6, failed,
     "continuity", "uniform_shifts_to_identity", {"passed": False}),
    ("uniform limit cover (clamped_shifts)", "uniform_limit_check",
     lambda *args: args[4] == 1, failed,
     "continuity", "uniform_clamped_shifts", {"passed": False}),
    ("uniform limit cover (slopes_to_identity)", "uniform_limit_check",
     lambda *args: args[4] == 5, failed,
     "continuity", "uniform_slopes_to_identity", {"passed": False}),
    ("control: ramp is NotConvergentAtScale", "asc_verdict",
     lambda *args: True, lambda v: replace(v, outcome=Outcome.INCONCLUSIVE),
     "negative_controls", "ramp_not_convergent", {"outcome": "Inconclusive"}),
    ("control: step function produces a contradiction", "continuity_battery",
     lambda f, table: isinstance(f, Tabulated), uncontradicted,
     "negative_controls", "step_battery", {"contradictions": 0}),
]


class TestEveryVerifyLineCanFail:
    """One planted failure makes its own `verify` line, and no other, print FAIL."""

    @staticmethod
    def run_verify(tmp_path, capsys, label: str) -> dict:
        out = tmp_path / "out"
        rc = main(["verify", "--length", "513", "--instances", "2", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_VERIFY_FAILED
        assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL  {label}"]
        assert lines[-1] == "verification: FAILED"
        return json.loads((out / "verify_report.json").read_text())

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("name", list(theorems.SUITES))
    def test_suite_row(self, tmp_path, capsys, monkeypatch, name, cpus):
        row = theorems.SUITES[name]

        def check(x, **params):
            reports = list(row.check(x, **params))
            if reports:  # the delta-transfer row's measure reads the instance's delta
                reports.append(CheckReport(name, dict(reports[-1].instance), False,
                                           {"planted": True}))
            return reports

        monkeypatch.setitem(theorems.SUITES, name, replace(row, check=check))
        monkeypatch.setattr(theorems, "_usable_cpus", lambda: cpus)
        count = 50 if row.half else 2  # max(50, instances // 2) for a half row
        report = self.run_verify(tmp_path, capsys, f"property {name} ({count} instances)")
        failures = report["property_suites"][name]["failures"]
        assert failures and all(f["witness"] == {"planted": True} for f in failures)

    @pytest.mark.parametrize("label, name, planted, fail, section, key, value", LINE_FAULTS,
                             ids=[case[0] for case in LINE_FAULTS])
    def test_verify_line(self, tmp_path, capsys, monkeypatch, label, name, planted, fail,
                         section, key, value):
        # six suites that return at once: only the line under test can fail
        monkeypatch.setattr(theorems, "_usable_cpus", lambda: 1)
        for suite in theorems.SUITES:
            monkeypatch.setitem(theorems.SUITES, suite, Suite(lambda rng, x: {},
                                                              lambda x, n, eps: ()))

        def patched(*args, real=getattr(cli, name)):
            result = real(*args)
            return fail(result) if planted(*args) else result

        monkeypatch.setattr(cli, name, patched)
        report = self.run_verify(tmp_path, capsys, label)
        assert report[section][key].items() >= value.items()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_declared_entry_point(*args):
    """Run the ``arithstat`` target of ``[project.scripts]`` in its own process.

    The command mirrors the wrapper setuptools installs for a console script,
    so the exit code and output come from ``sys.exit(<target>())`` without
    needing the script on ``PATH``.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["arithstat"]
    module, _, func = target.partition(":")
    code = (
        "import importlib, sys\n"
        f"entry = getattr(importlib.import_module({module!r}), {func!r})\n"
        "sys.argv[0] = 'arithstat'\n"
        "sys.exit(entry())\n"
    )
    # Put the checkout's package first, so the child imports the same
    # arithstat as this test process.
    package_root = str(Path(arithstat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    # a hang fails the test instead of stalling the suite
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_every_exported_name_resolves():
    modules = [arithstat] + [importlib.import_module(f"arithstat.{m.name}")
                             for m in pkgutil.iter_modules(arithstat.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert sum(hasattr(m, "__all__") for m in modules) >= 6  # the package and five modules


def test_package_republishes_each_module_list():
    modules = [kernel, lacunary, density, theorems, continuity]
    names = [n for m in modules for n in m.__all__]
    assert arithstat.__all__ == [*names, "__version__"]
    # a name in two lists would let one wildcard import shadow another
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(arithstat, name) is getattr(module, name), name


class TestConsoleScript:
    def test_import_leaves_the_worker_modules_unloaded(self):
        # setup time: only `verify` imports what its suite workers need
        package_root = str(Path(arithstat.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, arithstat.cli; print(sorted(m for m in "
             "('multiprocessing', 'concurrent.futures') if m in sys.modules))"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": package_root})
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_scheme_smoke(self, tmp_path):
        path = write_json(tmp_path / "s.json", DYADIC_POINTS)
        proc = run_declared_entry_point(
            "scheme", "--scheme", str(path), "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "scheme 1: 4 blocks" in proc.stdout

    def test_input_error_exit_code(self, tmp_path):
        proc = run_declared_entry_point(
            "scheme", "--scheme", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == EXIT_INPUT, proc.stderr
        assert proc.stderr.startswith("input error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("spec, length, code", [
        # checked against MAX_LENGTH before any array is allocated
        ({"kind": "constant", "value": 1.0}, 10**12, EXIT_CONFIG),
        # a prime modulus far past the length: the lookup table is cut to the length
        ({"kind": "gcd_periodic", "modulus": 1000000000039,
          "table": {"1": 0.0, "1000000000039": 1.0}}, 64, EXIT_OK),
        # past kernel.MAX_MODULUS: refused before its divisors are listed
        ({"kind": "gcd_periodic", "modulus": 10**30, "table": {"1": 0.0}}, 64, EXIT_INPUT),
    ])
    def test_oversized_input_ends_cleanly(self, tmp_path, spec, length, code):
        path = write_json(tmp_path / "spec.json", spec)
        proc = run_declared_entry_point(
            "analyze", "--input", path, "--length", str(length),
            "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == (code != EXIT_OK)
        prefix = {EXIT_OK: "", EXIT_INPUT: "input error:", EXIT_CONFIG: "config error:"}
        assert proc.stderr.startswith(prefix[code])

    def test_growth_too_close_to_one_is_refused(self, tmp_path):
        # about log(1024) / log(growth) = 7e9 checkpoint steps: refused up front
        data = tmp_path / "small.csv"
        data.write_text("".join(f"{m % 17 / 8}\n" for m in range(1024)))
        proc = run_declared_entry_point(
            "analyze", "--input", str(data), "--growth", "1.000000001",
            "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("config error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n_max", [str(MAX_N_MAX + 1), "100000000000"])
    def test_oversized_witness_bound_is_refused(self, tmp_path, n_max):
        # each witness costs a deviation pass: 10**11 of them would run for days
        data = tmp_path / "small.csv"
        data.write_text("".join(f"{m % 17 / 8}\n" for m in range(200)))
        proc = run_declared_entry_point(
            "analyze", "--input", str(data), "--tail-window", "2", "--n-max", n_max,
            "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr == f"config error: --n-max must be at most {MAX_N_MAX}, got {n_max}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(shutil.which("arithstat") is None,
                        reason="arithstat console script is not installed on PATH")
    def test_installed_script_smoke(self, tmp_path):
        path = write_json(tmp_path / "s.json", DYADIC_POINTS)
        proc = subprocess.run(
            ["arithstat", "scheme", "--scheme", str(path), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "scheme 1: 4 blocks" in proc.stdout
