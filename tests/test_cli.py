"""End-to-end checks of the command line: exit codes, report shapes, determinism."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import arithstat
from arithstat.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    MAX_LENGTH,
    main,
)
from arithstat.kernel import SparseSpike, generate
from arithstat.lacunary import MAX_BLOCKS

DYADIC_POINTS = {"points": [1, 2, 4, 8, 16]}
GEOMETRIC_10 = {"geometric": {"ratio": 2.0, "count": 10, "start": 1}}


def assert_one_line_input_error(stderr: str) -> None:
    assert stderr.startswith("input error:"), stderr
    assert stderr.count("\n") == 1
    assert "Traceback" not in stderr


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
    ])
    def test_bad_csv_is_input_error(self, tmp_path, content, reason, capsys):
        seq = tmp_path / "seq.csv"
        if isinstance(content, bytes):
            seq.write_bytes(content)
        else:
            seq.write_text(content)
        rc = main(["analyze", "--input", str(seq), "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT, reason
        assert_one_line_input_error(capsys.readouterr().err)

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(["analyze", "--input", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT

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
    ])
    def test_bad_generator_spec_is_input_error(self, tmp_path, spec):
        path = write_json(tmp_path / "spec.json", spec)
        rc = main(["analyze", "--input", path, "--length", "64",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT

    def test_generator_without_length_is_config_error(self, tmp_path, const_spec):
        rc = main(["analyze", "--input", const_spec, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [
        ("--tol", "0.5", "--tol-hi", "0.2"),
        ("--eps-grid", "0.5,1"),
        ("--eps-grid", "abc"),
        ("--length", "0"),
        ("--length", "4"),  # too short for a full tail window of checkpoints
        ("--n-max", "0"),
        ("--length", str(MAX_LENGTH + 1)),
    ])
    def test_bad_policy_is_config_error(self, tmp_path, const_spec, flags):
        rc = main(["analyze", "--input", const_spec, "--length", "1024",
                   "--out", str(tmp_path / "o"), *flags])
        assert rc == EXIT_CONFIG

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
        ]
        path = tmp_path / "s.json"
        for text in texts:
            path.write_text(text)
            rc = main(["scheme", "--scheme", str(path), "--out", str(tmp_path / "o")])
            assert rc == EXIT_INPUT, text
            assert_one_line_input_error(capsys.readouterr().err)


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

    def test_reruns_are_byte_identical(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["verify", "--instances", "20", "--seed", "7", "--out", str(out)])
            assert rc == EXIT_OK
            reports.append((out / "verify_report.json").read_bytes())
        assert reports[0] == reports[1]


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
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env,
    )


class TestConsoleScript:
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
