"""The demos run to completion against the public API.

Each Python script in demos/ is executed in-process with its output
captured, from an empty working directory that must stay empty.  The shell
session runs under bash with a `nematicflow` command on PATH that calls the
package's CLI module with this interpreter.
"""

import contextlib
import io
import os
import runpy
import shutil
import subprocess
import sys

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


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_cli_session_demo_runs(tmp_path):
    shim = tmp_path / "bin" / "nematicflow"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m nematicflow.cli "$@"\n')
    shim.chmod(0o755)
    src = os.path.join(os.path.dirname(DEMOS), "src")
    env = dict(os.environ, PATH=f"{shim.parent}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(["bash", os.path.join(DEMOS, "05_cli_session.sh")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for check in ("cancellation", "skew_symmetry"):
        assert f"N=32 {check}: verdict = True" in proc.stdout
