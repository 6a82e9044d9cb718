"""Checks of the project around the package: the README's example and the pytest settings."""
from __future__ import annotations

import contextlib
import io
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"Typical library use:\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert len(expected) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # On a failing @given test the hypothesis plugin imports libcst, whose import
    # warns; under error::DeprecationWarning that broke the plugin's report hook
    # and no later test reported.
    (tmp_path / "test_sample.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(k):
            assert k != 0

        def test_passes():
            pass
        """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_sample.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
