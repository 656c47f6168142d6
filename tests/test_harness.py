"""Statistical verifiers for the supporting functional inequalities."""

import math

import numpy as np
import pytest

from nematicflow import (
    ALL_CHECKS,
    DyadicPartition,
    EnsembleSpec,
    GridSpec,
    HarnessError,
    RatioReport,
    jacobian,
    laplacian,
    random_vector,
    run_all,
    to_physical,
    verify_bernstein,
    verify_cancellation,
    verify_commutator,
    verify_skew_symmetry,
)
from nematicflow.harness import _cancellation_sums, _skew_residual


@pytest.fixture(scope="module")
def small_spec():
    """The smallest admissible ensemble: quick but statistically meaningful."""
    return EnsembleSpec(grid_n=32, n_trials=30, seed=1234)


class TestEnsembleSpec:
    def test_validation(self):
        """Trial floor and grid parity are enforced."""
        with pytest.raises(HarnessError):
            EnsembleSpec(grid_n=32, n_trials=5)
        with pytest.raises(HarnessError):
            EnsembleSpec(grid_n=15, n_trials=30)
        with pytest.raises(HarnessError):
            EnsembleSpec(grid_n=8, n_trials=30)
        with pytest.raises(HarnessError):
            EnsembleSpec(grid_n=32, n_trials=30, seed=-1)

    def test_rng_streams_are_per_trial(self):
        """Different trials draw independent, reproducible streams."""
        spec = EnsembleSpec(grid_n=32, n_trials=30, seed=7)
        a1 = spec.rng(0).standard_normal(4)
        a2 = spec.rng(0).standard_normal(4)
        b = spec.rng(1).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_field_decay_override(self):
        spec = EnsembleSpec(grid_n=32, n_trials=30, decay=1.0)
        assert spec.field_decay(2.5) == 1.0
        assert EnsembleSpec(grid_n=32, n_trials=30).field_decay(2.5) == 2.5


class TestVerifierReports:
    def test_all_checks_pass_on_a_small_ensemble(self, small_spec):
        """Every registered verifier returns verdict True at N = 32."""
        reports = run_all(small_spec)
        assert set(reports) == {name for name, _ in ALL_CHECKS}
        for name, rep in reports.items():
            assert isinstance(rep, RatioReport)
            assert rep.verdict, (name, rep.worst_uniformity, rep.max_ratio)
            assert rep.n_trials == 30

    def test_reports_are_reproducible(self, small_spec):
        """The same spec produces identical rows on a second run."""
        r1 = verify_bernstein(small_spec)
        r2 = verify_bernstein(small_spec)
        assert r1.rows == r2.rows
        assert r1.worst_uniformity == r2.worst_uniformity

    def test_rows_carry_parameter_labels_and_finite_ratios(self, small_spec):
        """Each row is (family|parameter, max, median) with sane values."""
        rep = verify_bernstein(small_spec)
        assert len(rep.rows) > 0
        for label, rmax, rmed in rep.rows:
            assert "|" in label
            assert np.isfinite(rmax) and np.isfinite(rmed)
            assert 0.0 <= rmed <= rmax

    def test_uniformity_statistic_is_bounded_by_the_cap(self, small_spec):
        """verdict True implies max/median within the cap for every trial."""
        for verifier in (verify_bernstein, verify_commutator):
            rep = verifier(small_spec)
            assert rep.worst_uniformity <= rep.cap

    def test_cancellation_residuals_are_tiny(self, small_spec):
        """The advection identity residual sits at roundoff level."""
        rep = verify_cancellation(small_spec)
        assert rep.verdict
        assert rep.max_ratio <= 1e-11

    def test_skew_symmetry_residuals_are_tiny(self, small_spec):
        """The projected-gradient pairing residual sits at roundoff level."""
        rep = verify_skew_symmetry(small_spec)
        assert rep.verdict
        assert rep.max_ratio <= 1e-12


def _identity_draws(grid, seed):
    """One trial's (du, dd, d1) as verify_cancellation draws them."""
    rng = np.random.default_rng((seed, 0))
    du = random_vector(grid, rng, decay=2.5, divergence_free=True)
    dd = random_vector(grid, rng, decay=3.5)
    d1 = random_vector(grid, rng, decay=2.5)
    return du, dd, d1


def _oracle_cancellation_sums(du, dd, d1):
    """I3 and J3 plane by plane: every block and low-pass sampled on the
    2N grid by its own to_physical call."""
    part = DyadicPartition(du.grid)
    gdu = jacobian(du)
    lap = (laplacian(dd.x), laplacian(dd.y))
    area = (2.0 * math.pi) ** 2
    i3 = j3 = 0.0
    for q in range(1, part.q_max + 1):
        a11, a12, a21, a22 = (to_physical(part.delta(f, q), 2)
                              for f in (gdu.xx, gdu.xy, gdu.yx, gdu.yy))
        s1, s2 = (to_physical(part.low_pass(f, q - 1), 2) for f in (d1.x, d1.y))
        w1, w2 = (to_physical(part.delta(f, q), 2) for f in lap)
        i3 -= 2.0 ** (-q) * area * float(np.mean(
            (a11 * s1 + a12 * s2) * w1 + (a21 * s1 + a22 * s2) * w2))
        j3 += 2.0 ** (-q) * area * float(np.mean(
            s1 * w1 * a11 + s1 * w2 * a21 + s2 * w1 * a12 + s2 * w2 * a22))
    return i3, j3


class TestIdentityCores:
    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_cancellation_sums_match_the_plane_by_plane_formula(self, n):
        """The band-sized block-pair grids give the 2N-grid I3 and J3."""
        du, dd, d1 = _identity_draws(GridSpec(n), 3)
        got = _cancellation_sums(du, dd, d1)
        want = _oracle_cancellation_sums(du, dd, d1)
        for g, w in zip(got, want):
            assert abs(w) > 0.0
            assert g == pytest.approx(w, rel=1e-12)

    def test_cores_run_the_counted_transforms(self, grid16, fft_counts):
        """At N = 16 (q = 1..3), per q: 6 block + 2 low planes for the
        cancellation, 8 + 2 for the skew check; no forward transform."""
        du, dd, d1 = _identity_draws(grid16, 5)
        fft_counts[:] = [0, 0]
        _cancellation_sums(du, dd, d1)
        assert fft_counts == [24, 0]
        fft_counts[:] = [0, 0]
        _skew_residual(du, d1)
        assert fft_counts == [30, 0]
