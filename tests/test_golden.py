"""Golden outputs: the command line's `run`, `twin`, `decompose` and
`verify` at N = 16, compared with output files captured from an earlier
commit in tests/golden/.

Each case is one or two CLI calls on a config written here (`decompose`
reads the snapshot that a `run` of its config leaves).  Its outputs are
held to two levels:

- digest: the sha256 of every output file equals the one in
  golden/manifest.json.  It applies only when numpy is the version the
  manifest names, since other FFT builds may round otherwise; the package
  loads no scipy.
- numbers: applied always.  Every number of a CSV or text output is within
  1e-12 relative of the golden's, except the values that are roundoff by
  construction, which must stay below 1e-12: `div_residual` and the ratios
  of the verifier's identity residuals.  Every component of a snapshot is
  within 1e-12 of the golden's largest coefficient in that component.

The twins perturb by delta = 1e-4: Phi and frakD are differences of two
trajectories, so their roundoff grows like 1 / delta.  One ulp of nu moves
twin.csv by 1.2e-11 relative at delta = 1e-6 and by 1.3e-13 at 1e-4.

A change that moves these bits on purpose writes the goldens anew with
`PYTHONPATH=src python tests/test_golden.py` and says why in CHANGES.md.
"""

import csv
import hashlib
import io
import json
import pathlib
import re

import numpy as np
import pytest

from nematicflow import cli
from nematicflow.snapshots import read_snapshot

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
REL = 1e-12
ROUNDOFF = 1e-12

ANSATZ = "[coefficients]\npreset = ansatz\n"
GENERAL = ("[coefficients]\nmu1 = 0.5\nmu2 = -2\nmu3 = 0\nmu4 = 1\n"
           "mu5 = 1.5\nmu6 = 0.75\n")
TWIN = "[twin]\nmode = perturb\ndelta = 1e-4\nseed = 4\n"
VERIFY = "[verify]\nn_trials = 30\ngrids = 16\n"


def _config(scheme, cadence, coefficients, extra=""):
    return (f"[grid]\nn = 16\n[time]\ndt = 1e-3\nt_end = 0.02\n"
            f"scheme = {scheme}\ncadence = {cadence}\n{coefficients}"
            "[initial]\nprofile = random\nseed = 3\n" + extra)


# case name: (commands, config text, output files).  A command is its words
# after the subcommand's name; a word naming a snapshot (.lcsf) is a file of
# the case's output directory.
RUN_CMD, TWIN_CMD = (("run",),), (("twin",),)
DECOMPOSE_CMD = (("run",), ("decompose", "--snapshot", "final.lcsf"))
VERIFY_CMD = (("verify", "--checks", "all"),)
RUN_FILES = ("trace.csv", "final.lcsf")
TWIN_FILES = ("twin.csv", "osgood.csv", "osgood_summary.txt",
              "final_a.lcsf", "final_b.lcsf")
DECOMPOSE_FILES = tuple(f"decompose_{c}.csv"
                        for c in ("u_x", "u_y", "d_x", "d_y"))
VERIFY_FILES = ("verify_16.csv", "verify_osgood.csv",
                "verify_osgood_summary.txt")
CASES = {
    "run_imex1_ansatz": (RUN_CMD, _config("imex1", 1, ANSATZ), RUN_FILES),
    "run_imex1_general": (RUN_CMD, _config("imex1", 1, GENERAL), RUN_FILES),
    "run_imex2_ansatz": (RUN_CMD, _config("imex2", 3, ANSATZ), RUN_FILES),
    "run_imex2_general": (RUN_CMD, _config("imex2", 3, GENERAL), RUN_FILES),
    "twin_imex1_ansatz": (TWIN_CMD, _config("imex1", 1, ANSATZ, TWIN),
                          TWIN_FILES),
    "twin_imex2_general": (TWIN_CMD, _config("imex2", 3, GENERAL, TWIN),
                           TWIN_FILES),
    "decompose_imex2_general": (DECOMPOSE_CMD, _config("imex2", 3, GENERAL),
                                DECOMPOSE_FILES),
    "verify_16": (VERIFY_CMD, _config("imex1", 1, ANSATZ, VERIFY),
                  VERIFY_FILES),
}


def _run_case(name, out):
    commands, text, _ = CASES[name]
    out.mkdir(parents=True, exist_ok=True)
    config = out / "case.ini"
    config.write_text(text)
    for words in commands:
        words = [str(out / w) if w.endswith(".lcsf") else w for w in words]
        assert cli.main([*words, "--config", str(config), "--out", str(out),
                         "--quiet"]) == 0


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _snapshot_half(path):
    """The ny >= 0 half of every component of a snapshot, time included."""
    arrays, n = read_snapshot(path)
    return np.stack([a[:, :n // 2 + 1] for a in arrays])


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _assert_text_close(got, want, where):
    """Text outputs: the same words, and the same numbers to REL."""
    assert NUMBER.split(got) == NUMBER.split(want), where
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        g, w = float(g), float(w)
        assert g == w or abs(g - w) <= REL * abs(w), (where, g, w)


def _is_roundoff(header, row, name):
    """The divergence residual, and the ratios of the verifier's identity
    residuals (the rows whose param names a residual)."""
    if name.startswith("ratio_"):
        return row[header.index("param")].endswith("residual")
    return name == "div_residual"


def _assert_csv_close(got, want, where):
    got, want = (list(csv.reader(io.StringIO(s))) for s in (got, want))
    header = want[0]
    assert got[0] == header and len(got) == len(want), where
    for column, name in enumerate(header):
        for row, (got_row, want_row) in enumerate(zip(got[1:], want[1:]),
                                                  start=1):
            g, w = got_row[column], want_row[column]
            at = (where, row, name, g, w)
            try:
                g, w = float(g), float(w)
            except ValueError:
                assert g == w, at
                continue
            if _is_roundoff(header, want_row, name):
                assert abs(g) <= ROUNDOFF, at
            else:
                assert g == w or abs(g - w) <= REL * abs(w), at


def _assert_numbers_close(name, out, states):
    for fname in CASES[name][2]:
        where = f"{name}/{fname}"
        if fname.endswith(".lcsf"):
            got, want = _snapshot_half(out / fname), states[where]
            assert got.shape == want.shape, where
            for component, (g, w) in enumerate(zip(got, want)):
                assert np.max(np.abs(g - w)) <= REL * np.max(np.abs(w)), (
                    where, component)
            continue
        got = (out / fname).read_text()
        want = (GOLDEN / name / fname).read_text()
        compare = _assert_csv_close if fname.endswith(".csv") else _assert_text_close
        compare(got, want, where)


@pytest.fixture(scope="module")
def manifest():
    return json.loads((GOLDEN / "manifest.json").read_text())


@pytest.fixture(scope="module")
def states():
    with np.load(GOLDEN / "snapshots.npz") as kept:
        return dict(kept)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name in CASES:
        _run_case(name, root / name)
    return root


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_golden_numbers(name, outputs, states):
    _assert_numbers_close(name, outputs / name, states)


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_golden_digests(name, outputs, manifest):
    versions = {"numpy": np.__version__}
    if versions != manifest["versions"]:
        pytest.skip(f"goldens made with {manifest['versions']}, here {versions}")
    got = {f: _digest(outputs / name / f) for f in CASES[name][2]}
    assert got == manifest["digests"][name]


def _write_goldens():
    """Run every case and keep its outputs as the goldens."""
    digests, halves = {}, {}
    for name, (_, _, files) in CASES.items():
        out = GOLDEN / name
        _run_case(name, out)
        digests[name] = {f: _digest(out / f) for f in files}
        for path in out.iterdir():
            if path.name in files and path.suffix == ".lcsf":
                halves[f"{name}/{path.name}"] = _snapshot_half(path)
            if path.name not in files or path.suffix == ".lcsf":
                path.unlink()
    np.savez_compressed(GOLDEN / "snapshots.npz", **halves)
    manifest = {"versions": {"numpy": np.__version__},
                "digests": digests}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    _write_goldens()
