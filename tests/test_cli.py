"""End-to-end checks of the command line: exit codes, report shapes, determinism."""
from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import arithstat
from arithstat import cli, density, theorems
from arithstat.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    MAX_LENGTH,
    MAX_N_MAX,
    main,
)
from arithstat.kernel import SparseSpike, generate
from arithstat.lacunary import MAX_BLOCKS
from arithstat.theorems import SuiteResult

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
            # refused before 2**(10**12) is computed
            json.dumps({"polynomial": {"degree": 10**12, "count": 1}}),
            '{"points": [1, 2' + "0" * 5000 + "]}",
            # integer fields refuse fractions rather than truncate them
            json.dumps({"points": [1, 2.5, 4.9, 8]}),
            json.dumps({"geometric": {"ratio": 2, "count": 3.5}}),
            json.dumps({"geometric": {"ratio": 2, "count": 3, "start": 1.5}}),
            json.dumps({"polynomial": {"degree": 2.7, "count": 3}}),
            json.dumps({"factorial": {"count": 3.5}}),
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
            monkeypatch.setattr(theorems, f"{name}_suite", lambda seed, instances, max_length,
                                name=name: SuiteResult(name, instances))

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
        def broken(seed, instances, max_length):
            raise RuntimeError(f"suite broke at seed {seed}")

        monkeypatch.setattr(theorems, "delta_transfer_suite", broken)
        with pytest.raises(RuntimeError, match="suite broke at seed 4"):
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
