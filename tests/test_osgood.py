"""Osgood modulus, divergent integrals, comparison ODE, master inequality."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nematicflow import (
    OsgoodError,
    OsgoodTrace,
    check_master_inequality,
    comparison_ode,
    mu,
    mu_control,
    osgood_divergence_certificate,
    osgood_integral,
)

from _frozen import (
    CONTROL_INTEGRALS,
    MU_AT_1,
    OSGOOD_EPS,
    OSGOOD_INTEGRALS,
)


class TestModulus:
    def test_value_at_one_matches_the_frozen_oracle(self):
        """mu(1) = (1 + log 2)(1 + log(1 + log 2))."""
        assert mu(1.0) == pytest.approx(MU_AT_1, rel=1e-14)

    def test_zero_is_a_fixed_point(self):
        assert mu(0.0) == 0.0
        assert mu_control(0.0) == 0.0

    def test_monotone_increasing(self):
        """mu grows with its argument across many scales."""
        s = np.logspace(-300, 2, 80)
        v = mu(s)
        assert np.all(np.diff(v) > 0)

    def test_superlinear_near_zero(self):
        """mu(s)/s -> infinity as s -> 0 (the Osgood hallmark)."""
        assert mu(1e-12) / 1e-12 > mu(1e-3) / 1e-3 > mu(1.0)

    def test_control_relation_at_one(self):
        """mu_c(1) = (1 + log 2)^2, tied to mu(1) through log(1 + log 2)."""
        base = 1.0 + math.log(2.0)
        assert mu_control(1.0) == pytest.approx(base ** 2, rel=1e-14)
        assert mu(1.0) == pytest.approx(
            base * (1.0 + math.log(base)), rel=1e-14)

    def test_rejects_negative_arguments(self):
        with pytest.raises(OsgoodError):
            mu(-1e-9)
        with pytest.raises(OsgoodError):
            mu_control(-1.0)

    def test_array_and_scalar_signatures_agree(self):
        s = np.array([0.0, 1e-8, 0.5, 1.0])
        v = mu(s)
        assert v.shape == s.shape
        assert v[3] == pytest.approx(mu(1.0), rel=1e-15)


class TestOsgoodIntegral:
    def test_matches_frozen_values(self):
        """Quadrature agrees with the 40-digit oracle at every eps."""
        for eps in OSGOOD_EPS:
            assert osgood_integral(eps) == pytest.approx(
                OSGOOD_INTEGRALS[eps], rel=1e-9), eps

    def test_control_matches_frozen_values(self):
        for eps in OSGOOD_EPS:
            assert osgood_integral(eps, modulus=mu_control) == pytest.approx(
                CONTROL_INTEGRALS[eps], rel=1e-9), eps

    def test_the_rule_reaches_double_precision(self):
        """The composite Gauss-Legendre rule matches the 40-digit oracle to
        1e-14 relative, for both moduli at every eps."""
        for modulus, table in ((mu, OSGOOD_INTEGRALS),
                               (mu_control, CONTROL_INTEGRALS)):
            for eps in OSGOOD_EPS:
                assert osgood_integral(eps, modulus) == pytest.approx(
                    table[eps], rel=1e-14), (modulus.__name__, eps)

    def test_stable_down_to_the_smallest_double(self):
        """At eps = 5e-324, the smallest positive double, the integral is
        finite and above its value at 1e-300."""
        for modulus in (mu, mu_control):
            smallest = osgood_integral(5e-324, modulus)
            assert math.isfinite(smallest)
            assert smallest > osgood_integral(1e-300, modulus), modulus.__name__

    def test_rejects_eps_outside_the_unit_interval(self):
        with pytest.raises(OsgoodError):
            osgood_integral(0.0)
        with pytest.raises(OsgoodError):
            osgood_integral(1.0)
        with pytest.raises(OsgoodError):
            osgood_integral(-1e-3)

    def test_rejects_a_modulus_other_than_the_two_built_ins(self):
        with pytest.raises(OsgoodError):
            osgood_integral(1e-3, modulus=lambda r: r)
        with pytest.raises(OsgoodError):
            osgood_divergence_certificate([1e-3, 1e-6],
                                          modulus=lambda r: mu_control(r))

    def test_divergence_certificate(self):
        """I(eps) increases strictly as eps sweeps down 42 decades."""
        cert = osgood_divergence_certificate(OSGOOD_EPS)
        assert cert["strictly_increasing"]
        assert cert["decades"] == pytest.approx(42.0, rel=1e-12)
        assert all(inc > 0.01 for inc in cert["increments"])

    def test_control_increments_shrink(self):
        """The non-Osgood modulus shows converging integrals."""
        cert = osgood_divergence_certificate(OSGOOD_EPS, modulus=mu_control)
        incs = cert["increments"]
        assert all(b < a for a, b in zip(incs, incs[1:]))
        assert incs[-1] < 0.01

    def test_certificate_input_validation(self):
        with pytest.raises(OsgoodError):
            osgood_divergence_certificate([1e-6])
        with pytest.raises(OsgoodError):
            osgood_divergence_certificate([1e-12, 1e-6])
        for eps in ([1.5, 1e-6], [1e-6, 0.0], [1e-3, -1e-6]):
            with pytest.raises(OsgoodError, match="lie in"):
                osgood_divergence_certificate(eps)


class TestComparisonOde:
    def test_zero_initial_data_stays_zero(self):
        """y0 = 0 is the exact fixed point of y' = c F mu(y), and F = 0 or
        c = 0 leaves any y0 where it is, bit for bit."""
        t = np.linspace(0.0, 1.0, 11)
        y = comparison_ode(t, np.ones_like(t), 0.0)
        assert np.all(y == 0.0)
        for y0 in (1e-300, 1e-7, 0.37, 2.5e3):
            assert np.all(comparison_ode(t, np.zeros_like(t), y0) == y0)
            assert np.all(comparison_ode(t, np.ones_like(t), y0, 0.0) == y0)

    def test_linear_modulus_has_an_exponential_solution(self):
        """With modulus(s) = s and constant F the solution is y0 exp(c t)."""
        t = np.linspace(0.0, 1.0, 21)
        y = comparison_ode(t, np.ones_like(t), 1e-4, c_fit=2.0,
                           modulus=lambda s: s)
        expected = 1e-4 * np.exp(2.0 * t)
        assert y[0] == 1e-4
        assert np.max(np.abs(y / expected - 1.0)) <= 1e-8

    def test_agrees_with_an_independent_integrator(self):
        """Dual route: the closed form against raw RK45 on the same field,
        from y0 near 0 to above 1, for mu, mu_control and a linear modulus.

        The modulus has a large logarithmic derivative at small y, which
        amplifies integrator differences; at rtol 1e-11 RK45 stays within
        4e-7 of the closed form on every case here.
        """
        t = np.linspace(0.0, 1.0, 41)
        f = 0.3 + 0.2 * np.sin(3.0 * t)
        for y0, c, modulus in ((1e-3, 1.0, mu), (1e-8, 4.0, mu),
                               (1e-12, 1.0, mu), (0.5, 3.0, mu),
                               (1e-6, 2.0, mu_control),
                               (1e-4, 2.0, lambda s: s)):
            y = comparison_ode(t, f, y0, c_fit=c, modulus=modulus)

            def rhs(s, z):
                return (c * np.interp(s, t, f) * modulus(max(z[0], 0.0)),)

            alt = solve_ivp(rhs, (0.0, 1.0), (y0,), t_eval=t, method="RK45",
                            rtol=1e-11, atol=1e-18)
            assert alt.success
            assert y[0] == y0
            assert np.max(np.abs(y / alt.y[0] - 1.0)) <= 1e-6, (y0, c)

    def test_monotone_in_the_constant(self):
        """A larger constant c dominates pointwise."""
        t = np.linspace(0.0, 1.0, 11)
        f = np.ones_like(t)
        y1 = comparison_ode(t, f, 1e-8, c_fit=1.0)
        y2 = comparison_ode(t, f, 1e-8, c_fit=4.0)
        assert np.all(y2[1:] > y1[1:])

    def test_input_validation(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(OsgoodError):
            comparison_ode(t, np.ones(4), 1e-6)
        with pytest.raises(OsgoodError):
            comparison_ode(t[::-1], np.ones(5), 1e-6)
        with pytest.raises(OsgoodError):
            comparison_ode(t, -np.ones(5), 1e-6)
        with pytest.raises(OsgoodError):
            comparison_ode(t, np.ones(5), -1e-6)
        for bad in (math.nan, math.inf):
            with pytest.raises(OsgoodError):
                comparison_ode(np.r_[t[:-1], bad], np.ones(5), 1e-6)
            with pytest.raises(OsgoodError):
                comparison_ode(t, np.r_[1.0, bad, 1.0, 1.0, 1.0], 1e-6)
            with pytest.raises(OsgoodError):
                comparison_ode(t, np.ones(5), bad)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(OsgoodError):
                comparison_ode(t, np.ones(5), 1e-6, c_fit=bad)
        # Newton's method that cannot converge raises and returns nothing
        with pytest.raises(OsgoodError, match="did not converge"):
            comparison_ode(t, np.ones(5), 1e-3,
                           modulus=lambda s: np.full_like(s, math.nan))
        # blow-up past the double range raises, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OsgoodError, match="double range"):
                comparison_ode(t, np.ones(5), 1e-3, c_fit=1e3)


class TestMasterInequality:
    def _exact_trace(self, c=2.0, y0=1e-8, t_end=1.0, n=201):
        """A trace that satisfies Phi' = c F mu(Phi) exactly (F = 1)."""
        t = np.linspace(0.0, t_end, n)

        def rhs(s, z):
            return (c * mu(max(z[0], 0.0)),)

        sol = solve_ivp(rhs, (0.0, t_end), (y0,), t_eval=t, method="DOP853",
                        rtol=1e-12, atol=1e-20)
        assert sol.success
        return t, sol.y[0]

    def test_recovers_the_generating_constant_exactly(self):
        """A trace built by the checker's own discrete recursion fits c.

        Phi_{m+1} = Phi_m + c dt F_m mu(Phi_m) makes the left-rectangle
        integral inside the checker exact, so c_fit returns the generating
        constant to the tolerance floor.
        """
        c = 2.0
        t = np.linspace(0.0, 1.0, 201)
        f = 0.5 + 0.4 * np.cos(2.0 * t)
        p = np.empty_like(t)
        p[0] = 1e-8
        for m in range(len(t) - 1):
            p[m + 1] = p[m] + c * (t[m + 1] - t[m]) * f[m] * mu(p[m])
        trace = OsgoodTrace(times=t, phi=p, f=f)
        report = check_master_inequality(trace, np.zeros_like(t))
        assert report["holds"]
        assert report["first_violation_index"] is None
        assert report["c_fit"] == pytest.approx(c, rel=1e-6)

    def test_finer_sampling_tightens_the_constant(self):
        """For a continuous trajectory the fitted constant approaches c.

        Left-rectangle sums under-integrate the increasing integrand
        F mu(Phi), so coarse traces need an inflated constant; refining the
        sampling must shrink it toward the generating value.
        """
        c = 2.0
        fits = []
        for n in (201, 3201):
            t, p = self._exact_trace(c=c, n=n)
            trace = OsgoodTrace(times=t, phi=p, f=np.ones_like(t))
            report = check_master_inequality(trace, np.zeros_like(t))
            assert report["holds"]
            fits.append(report["c_fit"])
        assert fits[1] < fits[0]
        assert c <= fits[1] <= 1.2 * c

    def test_flags_an_uncoverable_jump(self):
        """Phi rising with F = 0 cannot be covered by any finite constant."""
        t = np.array([0.0, 0.5, 1.0])
        p = np.array([1e-10, 1e-10, 1.0])
        trace = OsgoodTrace(times=t, phi=p, f=np.zeros_like(t))
        report = check_master_inequality(trace, np.zeros_like(t))
        assert not report["holds"]
        assert report["c_required"] == math.inf
        assert report["first_violation_index"] == 2
        assert report["max_violation"] > 0.0

    def test_rejects_a_tolerance_that_is_not_finite_and_nonnegative(self):
        """A NaN or infinite tol would cover every sample (a NaN makes every
        needed constant NaN, and max(1, nan) is 1), so the jump that fails
        at the default tol would read as holding; such a tol, and a
        negative one, is refused.  A finite tol >= 0 is still taken."""
        t = np.array([0.0, 0.5, 1.0])
        trace = OsgoodTrace(times=t, phi=np.array([1e-8, 1e-8, 1.0]),
                            f=np.zeros_like(t))
        frakd = np.zeros_like(t)
        assert not check_master_inequality(trace, frakd)["holds"]
        for bad in (math.nan, math.inf, -math.inf, -1e-12):
            with pytest.raises(OsgoodError, match="tol"):
                check_master_inequality(trace, frakd, tol=bad)
        assert check_master_inequality(trace, frakd, tol=0.0)["tol"] == 0.0
        assert check_master_inequality(trace, frakd, tol=2.0)["holds"]

    def test_dissipation_term_raises_the_left_side(self):
        """Positive frakD with gamma weighting needs a larger constant."""
        t, p = self._exact_trace(c=1.5)
        trace = OsgoodTrace(times=t, phi=p, f=np.ones_like(t))
        base = check_master_inequality(trace, np.zeros_like(t))
        loaded = check_master_inequality(trace, np.full_like(t, 1e-6))
        assert loaded["c_required"] > base["c_required"]

    def test_identical_twins_hold_with_unit_constant(self):
        """Phi = 0 throughout holds with the floor constant c = 1."""
        t = np.linspace(0.0, 1.0, 11)
        z = np.zeros_like(t)
        trace = OsgoodTrace(times=t, phi=z, f=np.ones_like(t))
        report = check_master_inequality(trace, z)
        assert report["holds"]
        assert report["c_fit"] == 1.0
        assert report["max_slack"] <= 0.0

    def test_trace_validation(self):
        t = np.linspace(0.0, 1.0, 5)
        for phi, f in ((np.ones(4), np.ones(5)), (np.ones(5), np.ones(6)),
                       (np.ones((5, 1)), np.ones(5))):
            with pytest.raises(OsgoodError, match="equal length"):
                OsgoodTrace(times=t, phi=phi, f=f)
        with pytest.raises(OsgoodError):
            OsgoodTrace(times=t, phi=-np.ones(5), f=np.ones(5))
        with pytest.raises(OsgoodError):
            OsgoodTrace(times=np.zeros(5), phi=np.ones(5), f=np.ones(5))
        with pytest.raises(OsgoodError):
            OsgoodTrace(times=t, phi=np.ones(5), f=np.ones(5), gamma=1.5)
        with pytest.raises(OsgoodError):
            OsgoodTrace(times=t, phi=np.ones(5), f=-np.ones(5))
        for bad in (math.nan, math.inf):
            spiked = np.r_[1.0, 1.0, bad, 1.0, 1.0]
            with pytest.raises(OsgoodError):
                OsgoodTrace(times=np.r_[t[:-1], bad], phi=np.ones(5),
                            f=np.ones(5))
            with pytest.raises(OsgoodError):
                OsgoodTrace(times=t, phi=spiked, f=np.ones(5))
            with pytest.raises(OsgoodError):
                OsgoodTrace(times=t, phi=np.ones(5), f=spiked)
        trace = OsgoodTrace(times=t, phi=np.ones(5), f=np.ones(5))
        with pytest.raises(OsgoodError):
            check_master_inequality(trace, np.ones(4))
        with pytest.raises(OsgoodError):
            check_master_inequality(trace, -np.ones(5))
        for bad in (math.nan, math.inf):
            with pytest.raises(OsgoodError):
                check_master_inequality(trace, np.r_[0.0, 0.0, bad, 0.0, 0.0])
