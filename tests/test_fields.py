"""Random and structured field generators."""

import math

import numpy as np
import pytest

from nematicflow import (
    GridError,
    constant_vector,
    divergence_residual,
    focused_scalar,
    focused_vector,
    generate_initial,
    l2_norm,
    lp_norm,
    perturb,
    random_scalar,
    random_vector,
    to_physical,
    vector_l2_norm,
)


class TestRandomScalar:
    def test_deterministic_per_seed(self, grid32):
        """Identical generators give bit-identical fields."""
        f1 = random_scalar(grid32, np.random.default_rng(5))
        f2 = random_scalar(grid32, np.random.default_rng(5))
        assert np.array_equal(f1.coeffs, f2.coeffs)

    def test_zero_mean_and_amplitude(self, grid32, rng):
        """The mean mode is removed and the L2 norm matches the request."""
        f = random_scalar(grid32, rng, amplitude=2.5)
        assert f.coeffs[0, 0] == 0.0
        assert l2_norm(f) == pytest.approx(2.5, rel=1e-13)

    def test_band_limit(self, grid32, rng):
        """band = 6 leaves no content above |n| = 6."""
        f = random_scalar(grid32, rng, band=6.0)
        t = grid32.tables()
        outside = np.abs(f.coeffs[t["radius"] > 6.0])
        assert np.max(outside) == 0.0

    def test_field_is_real(self, grid32, rng):
        """Sampled values are real to machine precision."""
        f = random_scalar(grid32, rng)
        assert f.coeffs.shape == (32, 17)
        values = to_physical(f)
        assert values.dtype == np.float64
        assert np.all(np.isfinite(values))

    def test_spectral_envelope_decays(self, grid64, rng):
        """Across many draws the high band carries less energy than the low.

        The envelope (1+|n|)^(-decay) makes shells lose mass in n, averaged
        over draws.
        """
        t = grid64.tables()
        low = (t["radius"] >= 2.0) & (t["radius"] < 4.0)
        high = (t["radius"] >= 16.0) & (t["radius"] < 18.0)
        low_e, high_e = 0.0, 0.0
        for _ in range(10):
            f = random_scalar(grid64, rng, decay=2.5)
            p = np.abs(f.coeffs) ** 2
            low_e += float(p[low].sum())
            high_e += float(p[high].sum())
        assert high_e < low_e


class TestRandomVector:
    def test_divergence_free_option(self, grid32, rng):
        """divergence_free=True produces solenoidal fields."""
        v = random_vector(grid32, rng, divergence_free=True)
        assert divergence_residual(v) <= 1e-13

    def test_amplitude_after_projection(self, grid32, rng):
        """Rescaling happens after the projection, so norms are exact."""
        v = random_vector(grid32, rng, divergence_free=True, amplitude=0.5)
        assert vector_l2_norm(v) == pytest.approx(0.5, rel=1e-13)


class TestFocusedFields:
    def test_deterministic_and_real(self, grid64):
        """Same generator state gives the same coherent field, real valued."""
        f1 = focused_scalar(grid64, np.random.default_rng(9))
        f2 = focused_scalar(grid64, np.random.default_rng(9))
        assert np.array_equal(f1.coeffs, f2.coeffs)
        assert f1.coeffs.shape == (64, 33)
        assert to_physical(f1).dtype == np.float64

    def test_zero_mean_unit_norm(self, grid64, rng):
        """Focused fields are mean free with the requested L2 size."""
        f = focused_scalar(grid64, rng, amplitude=3.0)
        assert f.coeffs[0, 0] == 0.0
        assert l2_norm(f) == pytest.approx(3.0, rel=1e-13)

    def test_phase_coherence_concentrates_mass(self, grid64):
        """Aligned phases give a much larger sup norm than random phases.

        Both fields share the unit L2 norm; the coherent one stacks its
        modes at one point, so its L-infinity norm must be several times
        the random field's.
        """
        f_coh = focused_scalar(grid64, np.random.default_rng(3), decay=2.0)
        f_rnd = random_scalar(grid64, np.random.default_rng(3), decay=2.0,
                              zero_mean=False)
        ratio = lp_norm(f_coh, np.inf) / lp_norm(f_rnd, np.inf)
        assert ratio > 2.0

    def test_focused_vector_divergence_free(self, grid64, rng):
        """The solenoidal option carries over to coherent vector fields."""
        v = focused_vector(grid64, rng, divergence_free=True)
        assert divergence_residual(v) <= 1e-13


class TestGenerateInitial:
    def test_rest_unit_profile(self, grid32):
        """u = 0 and d = (1, 0) exactly."""
        u, d = generate_initial(grid32, profile="rest-unit")
        assert vector_l2_norm(u) == 0.0
        assert d.x.mean == 1.0
        assert d.y.mean == 0.0
        assert l2_norm(d.x) == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_rest_uniform_profile(self, grid32):
        """The constant director comes from the director argument."""
        _, d = generate_initial(grid32, profile="rest-uniform",
                                director=(2.0, -0.5))
        assert d.x.mean == 2.0
        assert d.y.mean == -0.5

    def test_random_profile_structure(self, grid64):
        """Velocity is solenoidal/mean-free; director sits near its mean."""
        u, d = generate_initial(grid64, profile="random", seed=4,
                                amplitude_u=0.5, amplitude_d=0.25,
                                director=(1.0, 0.0))
        assert divergence_residual(u) <= 1e-13
        assert u.x.mean == 0.0 and u.y.mean == 0.0
        assert vector_l2_norm(u) == pytest.approx(0.5, rel=1e-12)
        assert d.x.mean == pytest.approx(1.0, abs=1e-14)
        pert = d - constant_vector(d.grid, (1.0, 0.0))
        assert vector_l2_norm(pert) == pytest.approx(0.25, rel=1e-12)

    def test_seeds_are_reproducible_and_distinct(self, grid32):
        """Equal seeds agree bit for bit; different seeds differ."""
        u1, _ = generate_initial(grid32, seed=11)
        u2, _ = generate_initial(grid32, seed=11)
        u3, _ = generate_initial(grid32, seed=12)
        assert np.array_equal(u1.x.coeffs, u2.x.coeffs)
        assert not np.array_equal(u1.x.coeffs, u3.x.coeffs)

    def test_unknown_profile_raises(self, grid32):
        with pytest.raises(GridError):
            generate_initial(grid32, profile="vortex")


class TestPerturb:
    def test_perturbation_scales_linearly_in_delta(self, grid32):
        """The same seed at two deltas gives scalar multiples.

        Recovering the delta = 1e-8 increment by subtraction from O(1)
        coefficients costs about eight digits, so the ratio is checked to
        1e-6 rather than machine precision.
        """
        u, d = generate_initial(grid32, seed=0)
        u1, d1 = perturb(u, d, seed=5, delta=1e-4)
        u2, d2 = perturb(u, d, seed=5, delta=1e-8)
        big = vector_l2_norm(u1 - u)
        small = vector_l2_norm(u2 - u)
        assert big / small == pytest.approx(1e4, rel=1e-6)
        big_d = vector_l2_norm(d1 - d)
        small_d = vector_l2_norm(d2 - d)
        assert big_d / small_d == pytest.approx(1e4, rel=1e-6)

    def test_perturbed_velocity_stays_solenoidal(self, grid32):
        """The velocity perturbation respects the divergence constraint."""
        u, d = generate_initial(grid32, seed=0)
        u1, _ = perturb(u, d, seed=6, delta=1e-3)
        assert divergence_residual(u1) <= 1e-12

    def test_zero_delta_is_identity(self, grid32):
        """delta = 0 returns the unperturbed pair."""
        u, d = generate_initial(grid32, seed=0)
        u1, d1 = perturb(u, d, seed=6, delta=0.0)
        assert np.array_equal(u1.x.coeffs, u.x.coeffs)
        assert np.array_equal(d1.y.coeffs, d.y.coeffs)
