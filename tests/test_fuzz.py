"""Fuzzed inputs through `arithstat analyze`: generator specs, scheme specs and raw CSV bytes.

Whatever the file holds, the command ends with exit code 0, 2 (malformed
input) or 3 (invalid configuration), never with an escaping exception, and a
nonzero exit writes exactly one line to stderr. The chunked CSV loader reads
the same values as `float` over the whole text's `str.splitlines`.
"""
from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arithstat import cli
from arithstat.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, InputError, main

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

scalars = (st.none() | st.booleans() | st.integers(-10, 100) | st.integers()
           | st.floats() | st.text(max_size=6))
json_values = (scalars | st.lists(scalars, max_size=3)
               | st.dictionaries(st.text(max_size=3), scalars, max_size=3))

#: each kind's fields, with values of the right type; any field may also be any JSON value
SPEC_FIELDS = {
    "constant": {"value": st.integers(-9, 9)},
    "gcd_periodic": {"modulus": st.integers(1, 6), "table": st.dictionaries(
        st.integers(1, 6).map(str), st.integers(-9, 9), max_size=4)},
    "sparse_spike": {"height": st.integers(-9, 9), "base": st.integers(-9, 9),
                     "support": st.lists(st.integers(-1, 64), max_size=4),
                     "power": st.integers(1, 5), "rate": st.floats(0, 4),
                     "seed": st.integers(-1, 9)},
    "mystery": {},
}


def spec_node(kind: str, fields: dict) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {"kind": st.just(kind)}, optional={f: v | json_values for f, v in fields.items()})


leaf_specs = st.one_of([spec_node(kind, fields) for kind, fields in SPEC_FIELDS.items()])
generator_specs = leaf_specs | st.recursive(
    leaf_specs,
    lambda children: spec_node("scaled", {"factor": st.integers(-3, 3), "child": children})
    | spec_node("sum", {"left": children, "right": children}),
    max_leaves=4)

counts = st.integers(-2, 64) | scalars
scheme_specs = st.one_of(
    st.fixed_dictionaries({"points": st.lists(st.integers(-2, 5000) | scalars, max_size=65)
                           | json_values}),
    st.fixed_dictionaries({"geometric": st.fixed_dictionaries(
        {"ratio": st.floats(0.5, 4.0) | scalars, "count": counts},
        optional={"start": st.integers(-2, 64) | scalars}) | json_values}),
    st.fixed_dictionaries({"polynomial": st.fixed_dictionaries(
        {"degree": st.integers(-1, 80) | scalars, "count": counts}) | json_values}),
    st.fixed_dictionaries({"factorial": st.fixed_dictionaries({"count": counts})
                           | json_values}),
    json_values)

#: Every line break of `str.splitlines`, and \r\n
LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")

csv_bytes = st.one_of(
    st.binary(max_size=512),
    st.lists(st.tuples(st.integers(-64, 64).map(lambda k: f"{k / 8}") | st.text(max_size=4),
                       st.sampled_from(LINE_BREAKS)),
             min_size=1, max_size=300).map(lambda lines: "".join(map("".join, lines)).encode()))

#: digits, blanks, every line break and a letter that can also make exponents
csv_text = st.lists(st.sampled_from((*"0123456789", " ", "\t", *LINE_BREAKS, "e")),
                    max_size=40).map("".join)


#: Python's words for what JSON calls null, a number, an object, a string or a boolean,
#: and the callables whose own refusals would otherwise reach the message; "got str"
#: and "got bool" as whole words, since "got string" and "got boolean" are JSON's
PYTHON_WORDS = re.compile(
    r"NoneType|__init__|_first_blocks|float\(\)|int\(\)|got (int|float|dict|str|bool)\b")


def run_analyze(tmp_path, capsys, *args: str) -> None:
    capsys.readouterr()
    rc = main(["analyze", *args, "--n-max", "8", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG)
    if rc != EXIT_OK:
        assert err.count("\n") == 1 and err.startswith(("input error:", "config error:")), err
        assert not PYTHON_WORDS.search(err), err


@given(spec=generator_specs.map(json.dumps) | st.text(max_size=512), length=st.integers(1, 1024))
@settings(FUZZ, max_examples=300)
def test_generator_spec(tmp_path, capsys, spec, length):
    path = tmp_path / "spec.json"
    path.write_text(spec[:512])
    run_analyze(tmp_path, capsys, "--input", str(path), "--length", str(length))


@given(scheme=scheme_specs)
@FUZZ
def test_scheme_spec(tmp_path, capsys, scheme):
    data = tmp_path / "seq.csv"
    data.write_text("".join(f"{(m % 7) / 8}\n" for m in range(1, 1025)))
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme))
    run_analyze(tmp_path, capsys, "--input", str(data), "--scheme", str(path))


@given(content=csv_bytes)
@FUZZ
def test_csv_bytes(tmp_path, capsys, content):
    path = tmp_path / "seq.csv"
    path.write_bytes(content)
    run_analyze(tmp_path, capsys, "--input", str(path))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@given(text=csv_text, bad=st.none() | st.tuples(
    st.integers(0, 80), st.sampled_from((b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"))))
@FUZZ
def test_csv_values_are_those_of_splitlines(tmp_path, monkeypatch, chunk, text, bad):
    # tiny chunks put a chunk boundary at every position, \r\n included
    monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
    data = text.encode()
    if bad is not None:  # may split a multibyte line break
        at, junk = bad
        data = data[:at] + junk + data[at:]
    path = tmp_path / "seq.csv"
    path.write_bytes(data)
    try:
        whole = data.decode("utf-8")
    except UnicodeDecodeError as e:
        with pytest.raises(InputError) as refused:
            cli.load_sequence(str(path), None)
        assert str(refused.value) == f"{path} is not UTF-8 text: {e}"
        return
    try:
        want = [float(s) for s in whole.splitlines() if s.strip()]
    except ValueError:
        want = []
    if not all(map(math.isfinite, want)):
        want = []
    try:  # a loaded sample is never empty: [] stands for a refusal
        got = cli.load_sequence(str(path), None).values.tolist()
    except InputError:
        got = []
    assert got == want
