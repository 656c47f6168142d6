"""Source hygiene: no module imports a name it never reads, no private
module-level function or class goes unread, and the package and its
commands run on numpy alone.

Each module of the package except __init__ (whose imports are its
exports) is parsed with ast.  Every name an import statement binds must be
read somewhere in the module, as a bare name or as the base of an
attribute access, or be listed in the module's __all__.  Every function or
class defined at module level under a private name (one leading
underscore) must be read by some module of the package, __init__ included,
as a bare name or as an attribute; what only the tests read is dead code.
Only the transform layer of grid reads numpy.fft.
"""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from nematicflow import DyadicPartition

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematicflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """Names bound by import statements, with their line numbers."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    return bound


def _read(tree):
    """Names the module reads, plus the strings listed in __all__."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unread = {name: line for name, line in _imported(tree).items()
              if name not in read}
    assert not unread, f"{path.name}: imported but never read: {unread}"


def _private_definitions(tree):
    """Private module-level functions and classes, with their line numbers."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _package_reads():
    """Every bare name and attribute name any package module reads."""
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_definition_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _package_reads()
    unread = {name: line for name, line in _private_definitions(tree).items()
              if name not in read}
    assert not unread, f"{path.name}: defined but never read: {unread}"


def test_no_module_keeps_buffers_per_thread():
    """Kept buffers are owned by a job (an engine, the twin driver, one
    check) and handed down as arguments: no package module imports
    threading or contextlib, and a DyadicPartition is a plain value that
    holds its grid and nothing else."""
    for path in SRC.glob("*.py"):
        modules = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module.split(".")[0])
        assert not {"threading", "contextlib"} & modules, path.name
    assert [f.name for f in dataclasses.fields(DyadicPartition)] == ["grid"]


# The one transform layer: numpy.fft is read only by these definitions.
_FFT_OWNERS = {"grid._irfft_padded", "grid._rfft_truncated", "grid._tables"}


def _fft_users(path):
    """The qualified name (<module> at module level) of every definition
    in a package module that reads np.fft or numpy.fft or imports a module
    or name called fft (numpy.fft, scipy.fft)."""
    users = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        reads = (isinstance(node, ast.Attribute) and node.attr == "fft"
                 and isinstance(node.value, ast.Name)
                 and node.value.id in ("np", "numpy"))
        imports = (isinstance(node, (ast.Import, ast.ImportFrom))
                   and "fft" in ".".join([getattr(node, "module", None) or ""]
                                         + [a.name for a in node.names]
                                         ).split("."))
        if reads or imports:
            users.add(".".join((path.stem,) + (scope or ("<module>",))))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return users


def test_only_the_transform_layer_calls_numpy_fft():
    """Samples become spectra, and spectra samples, only through
    grid._irfft_padded and grid._rfft_truncated (grid._tables reads
    fftfreq), so every field the package makes shares their conventions."""
    users = set().union(*(_fft_users(p) for p in SRC.glob("*.py")))
    assert users == _FFT_OWNERS


# Runs in a fresh interpreter: the package, then every command at N = 16,
# then the comparison ODE, which alone loads scipy.
_COMMANDS_ON_NUMPY_ALONE = """
import pathlib, sys
import numpy as np
import nematicflow
from nematicflow import cli, comparison_ode

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), ("import", scipy_modules())
out = pathlib.Path(sys.argv[1])
config = out / "case.ini"
config.write_text("[grid]\\nn = 16\\n[time]\\ndt = 1e-3\\nt_end = 0.004\\n"
                  "[verify]\\nn_trials = 30\\ngrids = 16\\n")
for words in (["run"], ["twin"],
              ["decompose", "--snapshot", str(out / "final.lcsf")],
              ["verify", "--checks", "all"]):
    assert cli.main([*words, "--config", str(config), "--out", str(out),
                     "--quiet"]) == 0, words
    assert not scipy_modules(), (words, scipy_modules())
t = np.linspace(0.0, 1.0, 5)
assert np.all(np.isfinite(comparison_ode(t, np.ones_like(t), 1e-3)))
assert "scipy.integrate" in sys.modules
"""


def test_the_package_and_its_commands_import_no_scipy(tmp_path):
    """import nematicflow and the commands run, twin, decompose and verify
    leave no scipy module loaded; comparison_ode loads scipy.integrate
    when called and works."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _COMMANDS_ON_NUMPY_ALONE,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
