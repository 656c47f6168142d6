"""The Python demos run to completion against the public API.

Each script in demos/ is executed in-process with its output captured,
from an empty working directory that must stay empty.
"""

import contextlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")
SCRIPTS = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def test_the_four_python_demos_are_found():
    assert [name[:2] for name in SCRIPTS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert out.getvalue().strip()
    assert os.listdir(tmp_path) == []
