"""Energy, dissipation, twin-state functionals, and pressure recovery."""

import math

import numpy as np
import pytest

from nematicflow import (
    DyadicPartition,
    GridSpec,
    LeslieCoefficients,
    SolverConfig,
    SpectralField,
    State,
    VectorField2,
    constant_vector,
    divergence,
    elastic_energy,
    energy_record,
    f_bound,
    frak_d,
    frak_d_components,
    generate_initial,
    gradient,
    jacobian,
    kinetic_energy,
    l2_norm,
    perturb,
    phi,
    product,
    recover_pressure,
    rhs,
    run,
    strain_and_vorticity,
    to_physical,
    total_dissipation,
    total_energy,
    uniqueness_record,
    vector_l2_norm,
)

from nematicflow.diagnostics import _dad_l2

from _frozen import TORUS_AREA, W_AT_2


class _GeneralView(LeslieCoefficients):
    """Identical coefficient values routed through the general-form code path."""

    @property
    def is_ansatz(self):
        return False


def _random_state(grid, seed=0):
    u, d = generate_initial(grid, profile="random", seed=seed)
    return State(grid, u, d, 0.0)


def _rest_state(grid, director=(1.0, 0.0)):
    u, d = generate_initial(grid, profile="rest-uniform", director=director)
    return State(grid, u, d, 0.0)


class TestEnergies:
    def test_kinetic_energy_of_a_shear_mode(self, grid32):
        """E_kin = |u|_{L2}^2 / 2 = pi^2 for u = (cos y, 0)."""
        _, y = grid32.points()
        u = VectorField2(
            SpectralField.from_samples(grid32, np.cos(y)),
            SpectralField.zero(grid32),
        )
        d = constant_vector(grid32, (1.0, 0.0))
        state = State(grid32, u, d, 0.0)
        assert kinetic_energy(state) == pytest.approx(math.pi ** 2, rel=1e-13)

    def test_elastic_energy_of_a_stretched_director(self, grid32):
        """Constant d = (2, 0): no gradient part, W = 9/4 over the box."""
        state = _rest_state(grid32, director=(2.0, 0.0))
        assert elastic_energy(state) == pytest.approx(
            W_AT_2 * TORUS_AREA, rel=1e-13)

    def test_elastic_energy_gradient_part(self, grid32):
        """d = (1 + eps cos x, 0): the |grad d|^2 / 2 part adds eps^2 pi^2."""
        eps = 1e-3
        x, _ = grid32.points()
        d = VectorField2(
            SpectralField.from_samples(grid32, 1.0 + eps * np.cos(x)),
            SpectralField.zero(grid32),
        )
        state = State(grid32, VectorField2.zero(grid32), d, 0.0)
        grad_part = 0.5 * (eps ** 2) * TORUS_AREA / 2.0
        # W = (2 eps cos x + eps^2 cos^2 x)^2 / 4 integrates to
        # eps^2 pi^2 (1 + ...); keep only the leading term and use a loose
        # relative tolerance for the eps^4 remainder.
        w_part = (eps ** 2) * TORUS_AREA / 4.0 * 2.0
        expected = grad_part + w_part
        assert elastic_energy(state) == pytest.approx(expected, rel=1e-5)

    def test_total_energy_is_the_sum(self, grid32):
        state = _random_state(grid32, seed=1)
        assert total_energy(state) == pytest.approx(
            kinetic_energy(state) + elastic_energy(state), rel=1e-14)

    def test_energy_vanishes_only_at_the_ground_state(self, grid32):
        """The uniform unit director has zero energy; random states do not."""
        assert total_energy(_rest_state(grid32)) <= 1e-26
        assert total_energy(_random_state(grid32, seed=2)) > 1e-3


class TestDissipation:
    def test_equilibrium_has_zero_dissipation(self, grid32):
        total, terms = total_dissipation(_rest_state(grid32))
        assert total <= 1e-26
        assert len(terms) == 5

    def test_terms_are_nonnegative_for_default_coefficients(self, grid32):
        """The default split is a sum of five squares."""
        total, terms = total_dissipation(_random_state(grid32, seed=3))
        assert all(t >= 0.0 for t in terms)
        assert total == pytest.approx(sum(terms), rel=1e-14)

    def test_general_form_matches_the_five_square_split(self, grid32):
        """Dual route: the general quadratic form at the default values.

        mu_1 |d.Ad|^2 + (mu_4/2)|grad u|^2 + (mu_5+mu_6)|Ad|^2
        - lambda_1 |N|^2 - (lambda_2 - mu_2 - mu_3) N.Ad  collapses to the
        five-square split when the default values are inserted.
        """
        state = _random_state(grid32, seed=4)
        fast, _ = total_dissipation(state, LeslieCoefficients.ansatz())
        slow, slow_terms = total_dissipation(
            state, _GeneralView(1.0, -1.0, 0.0, 2.0, 3.0, 1.0))
        assert slow == pytest.approx(fast, rel=1e-12)
        assert len(slow_terms) == 5

    def test_energy_record_is_consistent(self, grid32):
        """The bundled record repeats the individual functionals."""
        state = _random_state(grid32, seed=5)
        rec = energy_record(state)
        assert rec.e_total == pytest.approx(total_energy(state), rel=1e-14)
        assert rec.d_total == pytest.approx(
            total_dissipation(state)[0], rel=1e-14)
        assert rec.t == 0.0

    def test_short_run_balances_energy_and_dissipation(self, grid32):
        """|E(t) + int D - E(0)| stays within 5 dt E(0) on a short run."""
        state = _random_state(grid32, seed=6)
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_end=0.05, scheme="imex1", record_cadence=1)
        _, records = run(state, LeslieCoefficients.ansatz(), cfg)
        t = np.array([r.t for r in records])
        e = np.array([r.e_total for r in records])
        d = np.array([r.d_total for r in records])
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(t) * (d[1:] + d[:-1]))))
        resid = np.max(np.abs(e + cum - e[0]))
        assert resid <= 5.0 * dt * e[0]


class TestTwinFunctionals:
    def test_phi_vanishes_for_identical_states(self, grid32):
        state = _random_state(grid32, seed=7)
        assert phi(state, state.copy()) == 0.0

    def test_phi_is_symmetric(self, grid32):
        s1 = _random_state(grid32, seed=8)
        s2 = _random_state(grid32, seed=9)
        assert phi(s1, s2) == pytest.approx(phi(s2, s1), rel=1e-13)

    def test_phi_scales_quadratically_in_the_perturbation(self, grid32):
        """Phi(delta) / Phi(delta/10) = 100 for scalar-multiple perturbations."""
        s1 = _random_state(grid32, seed=10)
        u_a, d_a = perturb(s1.u, s1.d, seed=77, delta=1e-3)
        u_b, d_b = perturb(s1.u, s1.d, seed=77, delta=1e-4)
        big = phi(s1, State(grid32, u_a, d_a, 0.0))
        small = phi(s1, State(grid32, u_b, d_b, 0.0))
        assert big / small == pytest.approx(100.0, rel=1e-8)

    def test_frak_d_components_are_nonnegative_and_sum(self, grid32):
        s1 = _random_state(grid32, seed=11)
        u2, d2 = perturb(s1.u, s1.d, seed=5, delta=1e-2)
        s2 = State(grid32, u2, d2, 0.0)
        total, addends = frak_d(s1, s2)
        assert all(a >= 0.0 for a in addends)
        assert total == pytest.approx(sum(addends), rel=1e-14)
        assert total > 0.0

    def test_frak_d_vanishes_for_identical_states(self, grid32):
        s = _random_state(grid32, seed=12)
        total, _ = frak_d(s, s.copy())
        assert total == 0.0

    def test_uniqueness_record_recomputes_its_parts(self, grid32):
        """phi and frakD in the record match the assembly formulas."""
        s1 = _random_state(grid32, seed=13)
        u2, d2 = perturb(s1.u, s1.d, seed=6, delta=1e-3)
        s2 = State(grid32, u2, d2, 0.0)
        coeffs = LeslieCoefficients.ansatz()
        rec = uniqueness_record(s1, s2, coeffs)
        part = DyadicPartition(grid32)
        assert rec.phi == pytest.approx(phi(s1, s2, part), rel=1e-13)
        gdu, gdd, lpv, lpt = frak_d_components(s1, s2, coeffs, part)
        expected_frakd = coeffs.nu * gdu + gdd + 2.0 * lpv + lpt
        assert rec.frak_d == pytest.approx(expected_frakd, rel=1e-13)
        assert rec.frak_d == pytest.approx(
            coeffs.nu * rec.grad_du_norm ** 2 + rec.grad_dd_norm ** 2
            + 2.0 * rec.lp_sum_vector + rec.lp_sum_tensor, rel=1e-13)
        assert rec.f_hat == pytest.approx(f_bound(s1, s2), rel=1e-13)

    def test_f_bound_baseline_and_monotonicity(self, grid32):
        """F_hat equals 4 for two zero states and grows with the states."""
        zero = State(grid32, VectorField2.zero(grid32),
                     VectorField2.zero(grid32), 0.0)
        assert f_bound(zero, zero.copy()) == pytest.approx(4.0, rel=1e-14)
        small = _rest_state(grid32)
        big = _random_state(grid32, seed=14)
        assert f_bound(small, small.copy()) < f_bound(big, big.copy())


def _block_sum_sq(f, s, part):
    """sum_q 4^{qs} ||Delta_q f||^2, block by block."""
    return sum(4.0 ** (q * s) * l2_norm(part.delta(f, q)) ** 2
               for q in part.q_range)


def _oracle_frak_d_components(state1, state2, part):
    """frakD's addends block by block: jacobian entries in the explicit
    block sum, d x d by truncated products, every block and low-pass
    sampled on the 2N grid."""
    gdu = jacobian(state1.u - state2.u)
    gdd = jacobian(state1.d - state2.d)
    grad_du_sq = sum(_block_sum_sq(f, -0.5, part)
                     for f in (gdu.xx, gdu.xy, gdu.yx, gdu.yy))
    grad_dd_sq = sum(_block_sum_sq(f, 0.5, part)
                     for f in (gdd.xx, gdd.xy, gdd.yx, gdd.yy))
    da = strain_and_vorticity(state1.u)[0] - strain_and_vorticity(state2.u)[0]
    d = state1.d
    dd11, dd12, dd22 = product(d.x, d.x), product(d.x, d.y), product(d.y, d.y)

    def integral(samples):
        return TORUS_AREA * float(np.mean(samples))

    lp_vec = lp_ten = 0.0
    for q in range(1, part.q_max + 1):
        b11, b12, b22 = (to_physical(part.delta(f, q), 2)
                         for f in (da.xx, da.xy, da.yy))
        s1, s2, t11, t12, t22 = (to_physical(part.low_pass(f, q - 1), 2)
                                 for f in (d.x, d.y, dd11, dd12, dd22))
        v1 = b11 * s1 + b12 * s2
        v2 = b12 * s1 + b22 * s2
        lp_vec += 2.0 ** (-q) * integral(v1 * v1 + v2 * v2)
        contraction = b11 * t11 + 2.0 * b12 * t12 + b22 * t22
        lp_ten += 2.0 ** (-q) * integral(contraction * contraction)
    return grad_du_sq, grad_dd_sq, lp_vec, lp_ten


def _twins(grid, near):
    s1 = _random_state(grid, seed=21)
    if near:
        u2, d2 = perturb(s1.u, s1.d, seed=22, delta=1e-6)
    else:  # full-band difference, so every block is populated
        u2, d2 = perturb(s1.u, s1.d, seed=23, delta=0.3, decay=0.5,
                         band=grid.n_modes / 2)
    return s1, State(grid, u2, d2, 0.0)


class TestTwinRecordOracle:
    @pytest.mark.parametrize("grid", [GridSpec(16), GridSpec(32), GridSpec(64),
                                      GridSpec(48, padding_factor=1.5)],
                             ids=lambda g: f"N{g.n_modes}p{g.padding_factor}")
    @pytest.mark.parametrize("near", [True, False], ids=["near", "far"])
    def test_frak_d_components_match_the_block_formula(self, grid, near):
        """Band-sized block grids and closed-form norms give the 2N-grid
        block-by-block values."""
        s1, s2 = _twins(grid, near)
        part = DyadicPartition(grid)
        got = frak_d_components(s1, s2, partition=part)
        want = _oracle_frak_d_components(s1, s2, part)
        for g, w in zip(got, want):
            assert w > 0.0
            assert g == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("grid", [GridSpec(32),
                                      GridSpec(48, padding_factor=1.5)],
                             ids=lambda g: f"N{g.n_modes}p{g.padding_factor}")
    def test_dad_l2_matches_the_cubic_products(self, grid):
        state = _twins(grid, near=False)[1]
        a, _ = strain_and_vorticity(state.u)
        d = state.d
        want = l2_norm(product(a.xx, d.x, d.x) + 2.0 * product(a.xy, d.x, d.y)
                       + product(a.yy, d.y, d.y))
        assert _dad_l2(a, d) == pytest.approx(want, rel=1e-12)

    def test_record_runs_the_counted_transforms(self, grid16, fft_counts):
        """At N = 16 (q = 1..3): 3 x 8 block planes, 2 + 3 for d x d and
        5 + 1 for d.Ad; Phi and the gradient norms need none."""
        s1, s2 = _twins(grid16, near=True)
        part = DyadicPartition(grid16)
        fft_counts[:] = [0, 0]
        uniqueness_record(s1, s2, partition=part)
        assert fft_counts == [31, 4]


class TestPressureRecovery:
    def test_recovered_pressure_closes_the_momentum_balance(self, grid32):
        """div(momentum rhs - grad p) = 0 once p solves the Poisson problem."""
        state = _random_state(grid32, seed=15)
        coeffs = LeslieCoefficients.ansatz()
        p = recover_pressure(state, coeffs)
        mom, _ = rhs(state, coeffs)
        g = gradient(p)
        resid = divergence(mom - VectorField2(g.x, g.y))
        assert l2_norm(resid) <= 1e-12 * max(1.0, vector_l2_norm(mom))

    def test_pressure_is_mean_free(self, grid32):
        state = _random_state(grid32, seed=16)
        p = recover_pressure(state)
        assert abs(p.mean) == 0.0
