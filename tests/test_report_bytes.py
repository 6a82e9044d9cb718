"""Report-bytes guard: `analyze`, `scheme` and `verify` keep their exact output bytes.

The digests below were recorded from these same runs before the counting,
search and suite code was consolidated (x86-64 Linux, Python 3.11, numpy
2.4); those of `analyze-noise` were recorded before both verdict axes came to
share one deviation pass per witness, those of `verify-100` before the
block checks came to count every block of an instance from one pass, and
those of `verify-fault` before the scaling and sum checks came to return
both axes from one flag mask and the injected fault to compare flag masks, and
those of `analyze-grid` and `verify-grid` before the threshold grid became a
field of the verdict policy, those of `scheme-refinement` before a
refinement map came to be computed as the block intersections of a
refinement, and those of `verify-contradiction` before the inclusion
experiments and continuity batteries came to read each verdict pair with one
rule. Every `verify` stdout digest predates the shared verdicts: it was
recorded while each experiment and battery still searched its own input
verdicts, before `verify` searched them once into one evidence table.

The five `verify_report.json` digests were recorded again when the random
schemes of the property suites came to draw the closed-form
`geometric_points` (k_j = floor(start * ratio**j)) in place of a compounding
generator (k_j = floor(k_{j-1} * ratio)). The two differ only at ratio 1.5
(1, 2, 3, 4, 5, 7, 11, ... against 1, 2, 3, 4, 6, 9, 13, ...), so only the
suite tallies of those draws moved, and every stdout line stayed the same.
The new digests equal those of the older code with its compounding generator
replaced by `geometric_points`, with one suite worker and with two.

Any change to a verdict, a density, a scheme generator or a suite draw shows
up as a changed digest. The `verify` digests hold whether the suites run in
this process or in worker processes.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from arithstat import theorems
from arithstat.cli import EXIT_OK, EXIT_VERIFY_FAILED, main

INPUTS = {
    "spec.json": {
        "kind": "sum",
        "left": {"kind": "gcd_periodic", "modulus": 6,
                 "table": {"1": 0.5, "2": 1, "3": 1.5, "6": 3}},
        "right": {"kind": "sparse_spike", "height": 4, "power": 3},
    },
    "geometric.json": {"geometric": {"ratio": 1.5, "count": 24, "start": 1}},
    "polynomial.json": {"polynomial": {"degree": 2, "count": 40}},
    "dyadic.json": {"geometric": {"ratio": 2, "count": 12}},
    # its last block ends at 1477, before the end of the 3000-value sample
    "ratio15.json": {"geometric": {"ratio": 1.5, "count": 18, "start": 1}},
    # every fourth breakpoint of dyadic.json, up to 64 of its 4096
    "refiner.json": {"points": [1, 4, 16, 64]},
}


def noise_lines(count: int, seed: int = 3) -> str:
    """Multiples of 1/8 in [-8, 8] from a fixed linear congruential generator."""
    state, lines = seed, []
    for _ in range(count):
        state = (state * 1103515245 + 12345) % 2**31
        lines.append(f"{((state >> 16) % 129 - 64) / 8}\n")
    return "".join(lines)


RUNS = {
    "analyze": ["analyze", "--input", "spec.json", "--length", "4096",
                "--scheme", "dyadic.json"],
    "scheme": ["scheme", "--scheme", "geometric.json", "--scheme", "polynomial.json"],
    # a refinement relation, first refines second, with fine blocks past the coarse range
    "scheme-refinement": ["scheme", "--scheme", "dyadic.json", "--scheme", "refiner.json"],
    "verify": ["verify", "--instances", "20", "--seed", "7"],
    # enough instances that the block suites check thousands of blocks
    "verify-100": ["verify", "--instances", "100", "--seed", "1"],
    # no witness up to 16 on either axis, and the two axes end at different
    # evaluated_n (16 on the prefix axis, 5 on the block axis)
    "analyze-noise": ["analyze", "--input", "noise.csv", "--scheme", "ratio15.json",
                      "--n-max", "16"],
    # the failing path: one injected scalar-closure failure, exit 1
    "verify-fault": ["verify", "--instances", "20", "--seed", "7", "--inject-fault", "scaling"],
    # non-default decision rules: a coarse grid with a short tail and a looser tol
    "analyze-grid": ["analyze", "--input", "spec.json", "--length", "4096",
                     "--scheme", "dyadic.json", "--eps-grid", "2,0.3", "--tail-window", "4",
                     "--tol", "0.05"],
    "verify-grid": ["verify", "--instances", "20", "--seed", "7",
                    "--eps-grid", "1,0.25,0.05", "--tail-window", "4"],
    # the contradiction paths: a family too short for its tail window, so lac2
    # meets one contradiction and one inconclusive right side, and corollary
    # its contradiction from the reverse direction only; exit 1
    "verify-contradiction": ["verify", "--length", "9", "--tail-window", "1",
                             "--n-max", "4", "--instances", "5"],
}
#: exit code of each run that does not end in EXIT_OK
EXIT = {"verify-fault": EXIT_VERIFY_FAILED, "verify-contradiction": EXIT_VERIFY_FAILED}

EXPECTED = {
    "analyze/stdout": "a82b6a7d81187a792ba329945867601eeda7164582bf3df15aa4a87c415375d3",
    "analyze/curves.csv": "5fa6440c0e3e989e864c933a89de073103538670e7b828c68c718c4b430f9aa1",
    "analyze/report.json": "69180b29d621b87088cb958ba6f8c1dc690e8b0e04374e5140b8444607ce5888",
    "scheme/stdout": "84069ac794acb2f859a18392b5813e306ea91fe6745c758793a129c41d80d5cc",
    "scheme/scheme_1.csv": "0706d64833800ea3da28f2602abbfc7b96c8eff2ac97e4084882a8b6b674ad9c",
    "scheme/scheme_2.csv": "ce5a037dd3856c9416025160cdb2581f38b16e3772988c0346506d0779953e98",
    "scheme/scheme_report.json": "1a0eacb1759ad15c9ce10d379af2082b797a5b0bee5c39a239a4964ae912737f",
    "scheme-refinement/stdout": "40c0aad9c19d7d5693efd0a6fb42ccbbfc792f5a9c24035c766268bcdf8b374c",
    "scheme-refinement/scheme_1.csv":
        "d48280a8b42e1fa0eb26aaa418a6711bfc194dbca7d9ad8877a198abdb211dad",
    "scheme-refinement/scheme_2.csv":
        "b65508b687f17eb26c3516931f0cd6bacbb4fa0f3fa82ee519304d7902b793a5",
    "scheme-refinement/scheme_report.json":
        "eec76d444cff1596b4a1f33327dd6e8e018958f8165cdb61c5d3eec993b31919",
    "verify/stdout": "65070b4ef578688d958b300a7592bdd6b7cd732a6006c184cfb2bce988273a60",
    "verify/verify_report.json": "db12b3ae3dec23b0c1045c0c29332bf456ea179ffc91d8b62b87a25bd76c484d",
    "verify-100/stdout": "8eaa9a8c645b5f6a68454222aeaf84d1273ebae0dc0ccad53ef594637e7c71c4",
    "verify-100/verify_report.json":
        "06c54bedd08c6b7a474d245d2bd6a06ed6a17408d005ee5cc10f215d02ffa36c",
    "analyze-noise/stdout": "dca6dbcc3b749ac4cae19ddcc3b916993900749ede16a992bf59f9adfbce793e",
    "analyze-noise/curves.csv": "b433d07852aaf9136805c742c63c0511766006ecfb2477b46850994d504508a4",
    "analyze-noise/report.json": "620cf388d13b188a5f79839d9d391b23f436d0c731df916991bc3ca3875efb4b",
    "verify-fault/stdout": "02e613ed711535c8d1588fcfc176e11b86dfa65a7f81d00bf9e7d9962d9dc951",
    "verify-fault/verify_report.json":
        "8b9b02ce68aff338e6bb0adf5513fba0720d8b56a451a61be647f56c03c44d7a",
    "analyze-grid/stdout": "e3c5bec14784af90a5b092e2061909faab1eb5d9702b4ce17dcfbd9d78d3be4d",
    "analyze-grid/curves.csv": "17efe672bcc0ef87b1be48efb1189687845c4baa75258d463b6f895370e94bc2",
    "analyze-grid/report.json": "faa0fbd20720f504d9f4e83986f46b9a4d55400510e2680210497056948c54b2",
    "verify-grid/stdout": "80f95e4bd99f281a3b83ffb410ddbfe1ffcfd79b652235bbc00918e64e10fd5d",
    "verify-grid/verify_report.json":
        "ff90a71c72d0888cf35a7dd5c4c7418173e973cc90c532fa996dc9ec2ff2df82",
    "verify-contradiction/stdout":
        "2eb540336b7d1eb7d1eea3b3ddc3efbe5810dadb4973edcfe4816e3dcbb6d951",
    "verify-contradiction/verify_report.json":
        "a3923846ff9c280e34d03630c00c429ca175dfdd8922edc79dd42a0b415d71ae",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests_of(runs: list[str], capsys) -> dict[str, str]:
    """Digest of the stdout and each output file of every named run, in the cwd."""
    for name, obj in INPUTS.items():
        Path(name).write_text(json.dumps(obj))
    Path("noise.csv").write_text(noise_lines(3000))
    digests = {}
    for out in runs:
        assert main([*RUNS[out], "--out", out]) == EXIT.get(out, EXIT_OK)
        digests[f"{out}/stdout"] = sha256(capsys.readouterr().out.encode())
        for path in sorted(Path(out).iterdir()):
            digests[f"{out}/{path.name}"] = sha256(path.read_bytes())
    return digests


def test_outputs_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths keep the embedded config stable
    monkeypatch.setattr(theorems, "_usable_cpus", lambda: 2)  # two suite workers
    assert digests_of(list(RUNS), capsys) == EXPECTED


def test_verify_bytes_with_the_suites_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(theorems, "_usable_cpus", lambda: 1)
    runs = [out for out, argv in RUNS.items() if argv[0] == "verify"]
    assert digests_of(runs, capsys) == {
        key: digest for key, digest in EXPECTED.items() if key.split("/")[0] in runs}
