"""Snapshot persistence, configuration parsing, and the command line."""

import csv
import operator
import struct

import numpy as np
import pytest

from nematicflow import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    LeslieCoefficients,
    SnapshotFormatError,
    SnapshotSizeError,
    SolverConfig,
    State,
    generate_initial,
    load,
    parse_config,
    persist,
    read_snapshot,
    write_snapshot,
)
from nematicflow import cli, experiments, snapshots
from nematicflow.configio import _KNOWN


def _state(grid, seed=0, t=0.0):
    u, d = generate_initial(grid, profile="random", seed=seed)
    return State(grid, u, d, t)


class TestSnapshotRoundTrip:
    def test_state_round_trip_is_bit_exact(self, grid32, tmp_path):
        """persist/load reproduces every coefficient and the time."""
        state = _state(grid32, seed=1, t=0.625)
        path = tmp_path / "state.lcsf"
        persist(state, path)
        back = load(path)
        assert back.t == 0.625
        assert np.array_equal(back.u.x.coeffs, state.u.x.coeffs)
        assert np.array_equal(back.u.y.coeffs, state.u.y.coeffs)
        assert np.array_equal(back.d.x.coeffs, state.d.x.coeffs)
        assert np.array_equal(back.d.y.coeffs, state.d.y.coeffs)

    def test_header_layout(self, grid16, tmp_path):
        """Magic, version, grid size, and component count sit up front."""
        path = tmp_path / "h.lcsf"
        persist(_state(grid16), path)
        raw = path.read_bytes()
        magic, version, n, ncomp = struct.unpack_from("<4sIII", raw, 0)
        assert magic == b"LCSF"
        assert version == 1
        assert n == 16
        assert ncomp == 5
        assert len(raw) == 16 + 5 * 16 * 16 * 16

    def test_raw_component_io(self, tmp_path):
        """write_snapshot/read_snapshot carry arbitrary component lists."""
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                  for _ in range(2)]
        path = tmp_path / "raw.lcsf"
        write_snapshot(path, arrays, 8)
        back, n = read_snapshot(path)
        assert n == 8
        assert len(back) == 2
        assert np.array_equal(back[0], arrays[0])
        assert np.array_equal(back[1], arrays[1])

    def test_grid_mismatch_raises(self, grid32, grid16, tmp_path):
        """Loading against the wrong grid is refused, not silently resized."""
        path = tmp_path / "m.lcsf"
        persist(_state(grid32), path)
        with pytest.raises(SnapshotSizeError):
            load(path, grid=grid16)

    def test_component_shape_mismatch_raises(self, tmp_path):
        with pytest.raises(SnapshotSizeError):
            write_snapshot(tmp_path / "bad.lcsf",
                           [np.zeros((4, 4), dtype=complex)], 8)


class TestSnapshotErrors:
    def test_bad_magic_names_the_offset(self, tmp_path):
        path = tmp_path / "bad.lcsf"
        path.write_bytes(b"XXXX" + b"\x00" * 28)
        with pytest.raises(SnapshotFormatError, match="offset 0"):
            read_snapshot(path)

    def test_bad_version_names_the_offset(self, tmp_path):
        path = tmp_path / "bad.lcsf"
        path.write_bytes(struct.pack("<4sIII", b"LCSF", 9, 8, 1)
                         + b"\x00" * (8 * 8 * 16))
        with pytest.raises(SnapshotFormatError, match="offset 4"):
            read_snapshot(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.lcsf"
        path.write_bytes(b"LC")
        with pytest.raises(SnapshotFormatError, match="truncated header"):
            read_snapshot(path)

    def test_truncated_component_names_the_offset(self, tmp_path):
        path = tmp_path / "trunc.lcsf"
        path.write_bytes(struct.pack("<4sIII", b"LCSF", 1, 8, 1) + b"\x00" * 100)
        with pytest.raises(SnapshotFormatError, match="truncated component 0"):
            read_snapshot(path)

    def test_huge_grid_size_is_a_format_error(self, tmp_path):
        """N = 0xFFFFFFFF is refused by the header check, not by overflow."""
        path = tmp_path / "huge.lcsf"
        path.write_bytes(struct.pack("<4sIII", b"LCSF", 1, 0xFFFFFFFF, 5))
        with pytest.raises(SnapshotFormatError, match="N=4294967295.*offset 8"):
            read_snapshot(path)

    def test_payload_beyond_the_file_fails_before_the_body_is_read(
            self, tmp_path, monkeypatch):
        """A moderate N whose payload (21 GB) exceeds the file reads no body."""
        path = tmp_path / "big.lcsf"
        path.write_bytes(struct.pack("<4sIII", b"LCSF", 1, 1 << 14, 5)
                         + b"\x00" * 64)
        reads = []

        class ReadSpy:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def read(self, size):
                reads.append(size)
                return self.fh.read(size)

        monkeypatch.setattr(snapshots, "open",
                            lambda *a, **k: ReadSpy(open(*a, **k)),
                            raising=False)
        with pytest.raises(SnapshotFormatError,
                           match="truncated component 0: file ends at offset 80"):
            read_snapshot(path)
        assert reads == [16]

    def test_grid_size_below_eight_is_a_format_error(self, tmp_path):
        """N = 6 with a complete body fails in read_snapshot, not in GridSpec."""
        path = tmp_path / "six.lcsf"
        write_snapshot(path, [np.zeros((6, 6), dtype=complex)] * 5, 6)
        with pytest.raises(SnapshotFormatError, match="N=6.*offset 8"):
            load(path)

    def test_wrong_component_count_for_states(self, tmp_path):
        path = tmp_path / "c.lcsf"
        write_snapshot(path, [np.zeros((8, 8), dtype=complex)] * 3, 8)
        with pytest.raises(SnapshotFormatError, match="5 components"):
            load(path)

    @staticmethod
    def _state_components(grid, tmp_path):
        persist(_state(grid, seed=2), tmp_path / "ok.lcsf")
        return read_snapshot(tmp_path / "ok.lcsf")[0]

    def test_non_hermitian_component_is_a_format_error(self, grid16, tmp_path):
        """A component that is not the spectrum of a real field is refused,
        naming it, instead of being cut to its half spectrum."""
        arrays = self._state_components(grid16, tmp_path)
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        noise[8, :] = 0.0
        noise[:, 8] = 0.0
        arrays[1] = noise
        path = tmp_path / "complex.lcsf"
        write_snapshot(path, arrays, 16)
        with pytest.raises(SnapshotFormatError, match="component u_y.*not Hermitian"):
            load(path)

    def test_populated_nyquist_line_is_a_format_error(self, grid16, tmp_path,
                                                      capsys):
        """Nyquist modes hold no field content; a file with them exits 2."""
        arrays = self._state_components(grid16, tmp_path)
        arrays[2][8, 3] = 0.5
        arrays[2][8, 13] = 0.5
        path = tmp_path / "nyquist.lcsf"
        write_snapshot(path, arrays, 16)
        with pytest.raises(SnapshotFormatError, match="component d_x.*Nyquist"):
            load(path)
        cfg = tmp_path / "d.ini"
        _write_run_config(cfg)
        rc = cli.main(["decompose", "--config", str(cfg), "--out",
                       str(tmp_path / "out"), "--snapshot", str(path), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("snapshot error: ") and "d_x" in err


class TestConfigParsing:
    def test_full_config_round_trip(self, tmp_path):
        """Every section lands in the corresponding dataclass."""
        path = tmp_path / "full.ini"
        path.write_text(
            "[grid]\nn = 32\n"
            "[time]\ndt = 1e-3\nt_end = 0.01\nscheme = imex2\ncadence = 5\n"
            "[coefficients]\npreset = ansatz\nnu = 2.0\n"
            "[initial]\nprofile = random\nseed = 9\ndecay = 2.75\n"
            "amplitude_u = 0.4\namplitude_d = 0.2\ndirector = 0.8,0.6\n"
            "[twin]\nmode = perturb\ndelta = 1e-6\nseed = 4\n"
            "[verify]\nn_trials = 50\nseed = 123\ngrids = 32,64\n"
            "[output]\ndir = results\n"
        )
        cfg = parse_config(path)
        assert cfg.grid.n_modes == 32
        assert cfg.solver.dt == 1e-3
        assert cfg.solver.scheme == "imex2"
        assert cfg.solver.record_cadence == 5
        assert cfg.coeffs.nu == 2.0
        assert cfg.initial.seed == 9
        assert cfg.initial.director == (0.8, 0.6)
        assert cfg.twin.mode == "perturb"
        assert cfg.twin.delta == 1e-6
        assert cfg.verify.grids == (32, 64)
        assert cfg.output_dir == "results"

    def test_minimal_config_defaults(self, tmp_path):
        """An empty file still yields usable defaults."""
        path = tmp_path / "min.ini"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.grid is None
        assert cfg.solver is None
        assert cfg.coeffs.is_ansatz
        assert cfg.initial.profile == "random"
        assert cfg.verify.grids == (64, 128)

    def test_unknown_section_and_key_raise(self, tmp_path):
        p1 = tmp_path / "s.ini"
        p1.write_text("[physics]\nq = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(p1)
        p2 = tmp_path / "k.ini"
        p2.write_text("[grid]\nnn = 32\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(p2)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.ini")

    def test_explicit_coefficients_are_all_or_none(self, tmp_path):
        path = tmp_path / "mu.ini"
        path.write_text("[coefficients]\nmu1 = 1.0\nmu2 = -1.0\n")
        with pytest.raises(ConfigError, match="all of mu1..mu6"):
            parse_config(path)

    def test_explicit_coefficient_set(self, tmp_path):
        path = tmp_path / "mu6.ini"
        path.write_text(
            "[coefficients]\nmu1 = 0.5\nmu2 = -2.0\nmu3 = 0.0\n"
            "mu4 = 1.0\nmu5 = 1.5\nmu6 = 0.75\n"
        )
        cfg = parse_config(path)
        assert cfg.coeffs.mu2 == -2.0
        assert not cfg.coeffs.is_ansatz

    def test_invalid_values_become_config_errors(self, tmp_path):
        """Validation failures inside nested dataclasses keep the error type."""
        for body in (
            "[grid]\nn = 7\n",
            "[time]\ndt = 1e-3\n",
            "[time]\ndt = 1e-3\nt_end = 1.0\nscheme = rk9\n",
            "[coefficients]\npreset = isotropic\n",
            "[initial]\nprofile = vortex\n",
            "[twin]\nmode = mirrored\n",
            "[twin]\nmode = perturb\ndelta = -1.0\n",
            "[initial]\ndirector = 1,2,3\n",
        ):
            path = tmp_path / "bad.ini"
            path.write_text(body)
            with pytest.raises(ConfigError):
                parse_config(path)


# Every config key set to a value that is not its default: (section, key,
# raw value, attribute of the ExperimentConfig it lands in, parsed value).
# The one preset, "ansatz", has no other value.  Explicit mu1..mu6 replace
# the preset and nu, so they go into a second file.
_EVERY_KEY = [
    ("grid", "n", "32", "grid.n_modes", 32),
    ("time", "dt", "2e-3", "solver.dt", 2e-3),
    ("time", "t_end", "0.5", "solver.t_end", 0.5),
    ("time", "scheme", "imex2", "solver.scheme", "imex2"),
    ("time", "cadence", "5", "solver.record_cadence", 5),
    ("coefficients", "preset", "ansatz", "coeffs", LeslieCoefficients.ansatz(2.5)),
    ("coefficients", "nu", "2.5", "coeffs.nu", 2.5),
    ("initial", "profile", "rest-uniform", "initial.profile", "rest-uniform"),
    ("initial", "seed", "9", "initial.seed", 9),
    ("initial", "decay", "2.75", "initial.decay", 2.75),
    ("initial", "band", "5", "initial.band", 5.0),
    ("initial", "amplitude_u", "0.4", "initial.amplitude_u", 0.4),
    ("initial", "amplitude_d", "0.2", "initial.amplitude_d", 0.2),
    ("initial", "director", "0.8,0.6", "initial.director", (0.8, 0.6)),
    ("twin", "mode", "perturb", "twin.mode", "perturb"),
    ("twin", "seed", "4", "twin.seed", 4),
    ("twin", "delta", "1e-6", "twin.delta", 1e-6),
    ("twin", "decay", "1.5", "twin.decay", 1.5),
    ("twin", "band", "6", "twin.band", 6.0),
    ("verify", "n_trials", "50", "verify.n_trials", 50),
    ("verify", "seed", "123", "verify.seed", 123),
    ("verify", "grids", "32,16", "verify.grids", (32, 16)),
    ("output", "dir", "results", "output_dir", "results"),
]
_EVERY_MU = [("coefficients", f"mu{k}", repr(v), f"coeffs.mu{k}", v)
             for k, v in enumerate((0.5, -2.0, 0.25, 1.5, 1.25, 0.5), start=1)]


def _config_file(path, entries):
    sections = {}
    for section, key, raw, _, _ in entries:
        sections.setdefault(section, []).append(f"{key} = {raw}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n"
                            for s, lines in sections.items()))
    return path


class TestConfigSchema:
    """The parser adds no defaults of its own: each key fills one field of
    the dataclasses, and what is not set keeps the dataclass default."""

    def test_an_empty_file_is_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert parse_config(path) == ExperimentConfig(
            grid=None, solver=None, coeffs=LeslieCoefficients.ansatz())

    def test_a_time_section_with_dt_and_t_end_only(self, tmp_path):
        path = tmp_path / "time.ini"
        path.write_text("[time]\ndt = 2e-3\nt_end = 0.5\n")
        assert parse_config(path).solver == SolverConfig(2e-3, 0.5)

    def test_a_default_section_is_unknown(self, tmp_path):
        """configparser copies [DEFAULT] keys into every section; the file
        is rejected instead of seeding [initial] and [twin] at once."""
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\nseed = 5\n[initial]\nprofile = random\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_config(path)

    def test_the_table_names_every_known_key(self):
        named = {(s, k) for s, k, *_ in _EVERY_KEY + _EVERY_MU}
        assert named == {(s, k) for s in _KNOWN for k in _KNOWN[s]}

    @pytest.mark.parametrize("entries", [_EVERY_KEY, _EVERY_MU],
                             ids=["preset", "explicit"])
    def test_every_key_lands_in_its_field(self, tmp_path, entries):
        cfg = parse_config(_config_file(tmp_path / "every.ini", entries))
        defaults = ExperimentConfig(grid=GridSpec(16),
                                    solver=SolverConfig(1e-3, 1.0),
                                    coeffs=LeslieCoefficients.ansatz())
        for section, key, _, where, value in entries:
            got = operator.attrgetter(where)(cfg)
            assert got == value and type(got) is type(value), (section, key)
            if key != "preset":
                default = operator.attrgetter(where)(defaults)
                assert default != value, (section, key)


def _write_run_config(path, n=16, dt="2e-3", t_end="0.01", extra=""):
    path.write_text(
        f"[grid]\nn = {n}\n"
        f"[time]\ndt = {dt}\nt_end = {t_end}\ncadence = 2\n"
        "[coefficients]\npreset = ansatz\nnu = 1.0\n"
        "[initial]\nprofile = random\nseed = 3\n"
        + extra
    )


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCli:
    def test_run_writes_trace_and_snapshot(self, tmp_path):
        cfg = tmp_path / "run.ini"
        _write_run_config(cfg)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out),
                       "--quiet"])
        assert rc == 0
        header, rows = _read_csv(out / "trace.csv")
        assert header == ["t", "E_total", "E_kin", "E_elastic", "D_total",
                          "D_term1", "D_term2", "D_term3", "D_term4",
                          "D_term5", "div_residual"]
        assert len(rows) == 4  # t = 0, 2 cadence points, final
        final = load(out / "final.lcsf")
        assert final.t == pytest.approx(0.01, rel=1e-12)

    def test_run_seed_override_changes_the_data(self, tmp_path):
        cfg = tmp_path / "run.ini"
        _write_run_config(cfg)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_a),
                         "--quiet"]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_b),
                         "--seed", "99", "--quiet"]) == 0
        sa = load(out_a / "final.lcsf")
        sb = load(out_b / "final.lcsf")
        assert not np.array_equal(sa.u.x.coeffs, sb.u.x.coeffs)

    def test_twin_writes_functional_traces(self, tmp_path):
        cfg = tmp_path / "twin.ini"
        _write_run_config(
            cfg, extra="[twin]\nmode = perturb\ndelta = 1e-5\nseed = 7\n")
        out = tmp_path / "out"
        rc = cli.main(["twin", "--config", str(cfg), "--out", str(out),
                       "--quiet"])
        assert rc == 0
        header, rows = _read_csv(out / "twin.csv")
        assert header[:3] == ["t", "Phi", "frakD"]
        assert len(rows) >= 2
        phi0 = float(rows[0][1])
        assert phi0 > 0.0
        _, osg = _read_csv(out / "osgood.csv")
        assert (out / "osgood_summary.txt").exists()
        assert load(out / "final_a.lcsf").t == pytest.approx(0.01, rel=1e-12)
        assert load(out / "final_b.lcsf").t == pytest.approx(0.01, rel=1e-12)

    def test_twin_identical_mode_reports_zero_phi(self, tmp_path):
        cfg = tmp_path / "twin.ini"
        _write_run_config(cfg, extra="[twin]\nmode = identical\n")
        out = tmp_path / "out"
        assert cli.main(["twin", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        _, rows = _read_csv(out / "twin.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_decompose_from_snapshot(self, tmp_path, grid16):
        cfg = tmp_path / "d.ini"
        _write_run_config(cfg)
        snap = tmp_path / "s.lcsf"
        persist(_state(grid16, seed=5), snap)
        out = tmp_path / "out"
        rc = cli.main(["decompose", "--config", str(cfg), "--out", str(out),
                       "--snapshot", str(snap), "--quiet"])
        assert rc == 0
        for comp in ("u_x", "u_y", "d_x", "d_y"):
            header, rows = _read_csv(out / f"decompose_{comp}.csv")
            assert header == ["q", "block_l2", "weighted_block_l2"]
            assert len(rows) >= 3

    def test_verify_subset_passes(self, tmp_path):
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\nn_trials = 30\nseed = 11\ngrids = 16\n")
        out = tmp_path / "out"
        rc = cli.main(["verify", "--config", str(cfg), "--out", str(out),
                       "--checks", "cancel,skew,product", "--quiet"])
        assert rc == 0
        header, rows = _read_csv(out / "verify_16.csv")
        assert header == ["lemma", "param", "ratio_max", "ratio_median",
                          "verdict"]
        assert rows
        # product_rule labels such as "sobolev product|(0.0, 0.5)" hold commas
        assert all(len(r) == len(header) for r in rows)
        assert {r[0] for r in rows} == {"cancellation", "skew_symmetry",
                                        "product_rule"}
        assert all(r[4] == "true" for r in rows)

    def test_bad_snapshot_exits_2(self, tmp_path, grid32, capsys):
        """Malformed and mismatched snapshots end in one line and exit 2."""
        cfg = tmp_path / "d.ini"
        _write_run_config(cfg)
        bad = tmp_path / "bad.lcsf"
        bad.write_bytes(struct.pack("<4sIII", b"LCSF", 1, 0xFFFFFFFF, 5))
        other = tmp_path / "n32.lcsf"
        persist(_state(grid32), other)
        for snap, kind in ((bad, "offset 8"), (other, "does not match")):
            rc = cli.main(["decompose", "--config", str(cfg), "--out",
                           str(tmp_path / "out"), "--snapshot", str(snap),
                           "--quiet"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("snapshot error: ") and kind in err
            assert err.count("\n") == 1

    def test_absent_snapshot_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "d.ini"
        _write_run_config(cfg)
        rc = cli.main(["decompose", "--config", str(cfg), "--out",
                       str(tmp_path / "out"), "--snapshot",
                       str(tmp_path / "absent.lcsf"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("snapshot error: cannot read snapshot ")
        assert err.count("\n") == 1

    def test_output_dir_from_the_config(self, tmp_path, monkeypatch):
        """Without --out the run writes into [output] dir."""
        cfg = tmp_path / "o.ini"
        _write_run_config(cfg, extra="[output]\ndir = sub\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "sub" / "trace.csv").is_file()
        assert not (tmp_path / "trace.csv").exists()
        assert cli.main(["run", "--config", str(cfg), "--out", "flag",
                         "--quiet"]) == 0
        assert (tmp_path / "flag" / "trace.csv").is_file()

    def test_uncreatable_output_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "f"
        blocker.write_text("a regular file\n")
        cfg = tmp_path / "r.ini"
        _write_run_config(cfg)
        out = blocker / "sub"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out),
                       "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(
            f"configuration error: cannot create output directory {out}: ")
        assert err.count("\n") == 1

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes(b"[grid]\nn = 16 # \xe9t\xe9\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path),
                       "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("configuration error: ")

    def test_percent_in_a_config_value_exits_2(self, tmp_path, capsys):
        """Values are taken literally: no %(name)s interpolation."""
        cfg = tmp_path / "percent.ini"
        _write_run_config(cfg, extra="[twin]\nmode = %(x)s\n")
        rc = cli.main(["twin", "--config", str(cfg), "--out", str(tmp_path),
                       "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2 and "'%(x)s'" in err

    def test_verify_unknown_check_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\nn_trials = 30\ngrids = 16\n")
        rc = cli.main(["verify", "--config", str(cfg), "--out",
                       str(tmp_path / "o"), "--checks", "everything",
                       "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize("body", ["n_trials = 5\ngrids = 16\n",
                                      "n_trials = 30\ngrids = 16,10\n"],
                             ids=["few_trials", "small_grid"])
    def test_bad_verify_ensemble_exits_2_before_any_check(self, tmp_path,
                                                           capsys, body):
        """Every ensemble is checked before the first verifier runs, so a
        bad grid after a good one writes nothing."""
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\n" + body)
        out = tmp_path / "o"
        rc = cli.main(["verify", "--config", str(cfg), "--out", str(out),
                       "--checks", "skew", "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("configuration error: [verify] ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "twin", "decompose"])
    def test_a_bad_verify_section_fails_every_command(self, tmp_path, capsys,
                                                       command):
        """The [verify] rules hold for the commands that do not verify too:
        the config is rejected as a whole, with one line and exit 2."""
        cfg = tmp_path / "c.ini"
        _write_run_config(cfg, extra="[twin]\nmode = perturb\ndelta = 1e-6\n"
                                     "[verify]\nn_trials = 5\ngrids = 7\n")
        out = tmp_path / "o"
        rc = cli.main([command, "--config", str(cfg), "--out", str(out),
                       "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error: [verify] ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("config, argv, message", [
        ({"seed": "-1"}, ["run"], "[initial] seed must be nonnegative"),
        ({"extra": "[twin]\nmode = perturb\ndelta = 1e-6\nseed = -2\n"},
         ["twin"], "[twin] seed must be nonnegative"),
        ({"extra": "[verify]\nn_trials = 30\ngrids = 16\nseed = -3\n"},
         ["verify", "--checks", "skew"], "[verify] seed must be nonnegative"),
        ({}, ["run", "--seed", "-5"], "seed must be nonnegative, got -5"),
        ({"nu": "nan"}, ["run"], "[coefficients] nu = 'nan': not a finite"),
        ({"extra": "[twin]\nmode = perturb\ndelta = nan\n"}, ["twin"],
         "[twin] delta = 'nan': not a finite"),
        ({"extra": "[verify]\nn_trials = 30\ngrids = 16\n"},
         ["verify", "--checks", "skew", "--seed", "12345"],
         "unrecognized arguments: --seed 12345"),
        ({"extra": "band = 0\n"}, ["run"], "[initial] band must be positive"),
        ({"extra": "[twin]\nmode = perturb\ndelta = 1e-6\nband = -2\n"},
         ["twin"], "[twin] band must be positive"),
        ({"nu": "nan", "mu": "mu1 = 1\nmu2 = -1\nmu3 = 0\nmu4 = 2\n"
                             "mu5 = 3\nmu6 = 1\n"},
         ["run"], "[coefficients] nu = 'nan': not a finite"),
        ({"time": "t_end = nan\n"}, ["run"],
         "[time] t_end = 'nan': not a finite"),
    ], ids=["initial_seed", "twin_seed", "verify_seed", "seed_flag", "nan_nu",
            "nan_delta", "verify_seed_flag", "initial_band", "twin_band",
            "nan_nu_beside_mus", "nan_t_end_without_dt"])
    def test_values_that_escaped_validation_exit_2(self, tmp_path, capsys,
                                                    config, argv, message):
        """Negative seeds, non-finite numbers, nonpositive bands and a
        verify --seed end in exit 2 and write nothing; argparse prints its
        usage line first, and main returns its code instead of exiting."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[grid]\nn = 16\n[time]\n"
            + config.get("time", "dt = 2e-3\nt_end = 0.01\n")
            + f"[coefficients]\nnu = {config.get('nu', '1.0')}\n"
            + config.get("mu", "")
            + f"[initial]\nseed = {config.get('seed', '3')}\n"
            + config.get("extra", ""))
        out = tmp_path / "o"
        rc = cli.main(argv[:1] + ["--config", str(cfg), "--out", str(out),
                                  "--quiet"] + argv[1:])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err.splitlines()[-1]
        if not message.startswith("unrecognized"):  # argparse adds usage
            assert err.startswith("configuration error: ")
            assert err.count("\n") == 1
        assert not out.exists()

    def test_padding_key_exits_2(self, tmp_path, capsys):
        """Products always run on the 2N grid; there is no padding key."""
        cfg = tmp_path / "pad.ini"
        cfg.write_text("[grid]\nn = 16\npadding = 1.5\n")
        rc = cli.main(["decompose", "--config", str(cfg), "--out",
                       str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2 and "unknown key 'padding'" in err

    def test_help_returns_0(self, capsys):
        assert cli.main(["verify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: nematicflow verify")

    def test_missing_config_exits_2(self, tmp_path):
        rc = cli.main(["run", "--config", str(tmp_path / "absent.ini"),
                       "--out", str(tmp_path), "--quiet"])
        assert rc == 2

    def test_run_without_time_section_exits_2(self, tmp_path):
        cfg = tmp_path / "no_time.ini"
        cfg.write_text("[grid]\nn = 16\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path),
                       "--quiet"])
        assert rc == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_exits_3(self, tmp_path):
        cfg = tmp_path / "explode.ini"
        cfg.write_text(
            "[grid]\nn = 16\n"
            "[time]\ndt = 0.5\nt_end = 50.0\n"
            "[initial]\nprofile = random\nseed = 1\n"
            "amplitude_u = 30.0\namplitude_d = 30.0\n"
        )
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path),
                       "--quiet"])
        assert rc == 3

    def test_failed_verification_exits_4(self, tmp_path, monkeypatch):
        """The wiring maps a False verdict to exit code 4."""
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\nn_trials = 30\ngrids = 16\n")
        monkeypatch.setattr(experiments, "verify_experiment",
                            lambda *a, **k: False)
        rc = cli.main(["verify", "--config", str(cfg), "--out",
                       str(tmp_path / "o"), "--quiet"])
        assert rc == 4
