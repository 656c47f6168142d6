"""Coupled velocity/director dynamics on the periodic box.

The system evolved here couples an incompressible velocity u with a director
field d (both 2-component, on the 2-torus):

    dt u + u.grad u - nu lap u + grad p = -div(grad d o. grad d) + div sigma
    dt d + u.grad d - (3/2)(grad u) d - (1/2)(grad u)^T d
         = lap d - (|d|^2 - 1) d

with (grad u)_ij = d_j u_i, (grad d o. grad d)_ij = d_i d . d_j d, the
Ginzburg-Landau potential W(d) = (1/4)(|d|^2 - 1)^2, and for the default
("ansatz") coefficient set the extra stress

    sigma = (d . A d) d x d + d x (A d) + (A d) x d - (lap d - grad_d W) x d,

A the symmetric part of grad u.  Pressure never materializes: the momentum
right side is Leray-projected spectrally each step.

A general coefficient set mu_1..mu_6 (with lambda_1 = mu_2 - mu_3 < 0,
lambda_2 = mu_5 - mu_6, viscosity nu = mu_4 / 2) is also supported; the
director equation becomes

    dt d + u.grad d - omega d + (lambda_2/lambda_1) A d
        = -(1/lambda_1)(lap d - grad_d W)

and the stress sigma = mu_1 (d.Ad)(d x d) + (mu_2 N + mu_5 Ad) x d
+ d x (mu_3 N + mu_6 Ad) with the rotation rate N eliminated through the
director equation: N = -(lambda_2/lambda_1) Ad - (1/lambda_1)(lap d - grad W).
The default set is mu = (1, -1, 0, 2 nu, 3, 1), i.e. lambda_1 = -1,
lambda_2 = 2, for which the general path reduces to the formulas above.

Time stepping is IMEX: the stiff diffusion (nu lap u, kappa lap d with
kappa = -1/lambda_1) is integrated exactly per mode by an integrating factor,
everything else explicitly.  "imex1" is the first-order baseline; "imex2" is
a second-order integrating-factor Heun variant.  The inner loop is a batched
engine on the fields' own half spectra (stacked per vector field, no layout
conversion) that shares the grid module's real-FFT transform layer; the
module-level operations (strain_and_vorticity, gl_gradient, leslie_stress,
rhs) form the readable reference path the engine is tested against.  One
engine evaluation runs 20 padded inverse and 16 forward transforms (22
inverse when it also records energies), so an imex1 step costs 20 + 16 and
an imex2 step 40 + 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    TWO_PI,
    GridError,
    SpectralField,
    TensorField22,
    VectorField2,
    _irfft_padded,
    _rfft_truncated,
    _sample_integral,
    _tables,
    _weighted_power,
    derivative,
    jacobian,
    laplacian,
    product,
    require_same_grid,
    tensor_divergence,
)


class CoefficientError(ValueError):
    """Raised when a coefficient set violates the dissipativity constraints."""


class DivergenceError(RuntimeError):
    """Raised when the state stops being finite during time stepping."""

    def __init__(self, step_index, t):
        self.step_index = step_index
        self.t = t
        super().__init__(f"non-finite state after step {step_index} (t = {t:.6g})")


@dataclass(frozen=True)
class LeslieCoefficients:
    """Viscous coefficient set mu_1..mu_6 with viscosity nu = mu_4 / 2.

    Validated constraints: lambda_1 = mu_2 - mu_3 < 0, mu_1 >= 0, mu_4 > 0,
    mu_5 + mu_6 >= 0, and dissipativity through either branch:
    the transpose relation mu_2 + mu_3 = mu_6 - mu_5 together with
    lambda_2^2 < -lambda_1 (mu_5 + mu_6) when lambda_2 != 0, or
    |lambda_2 - mu_2 - mu_3| < 2 sqrt(-lambda_1) sqrt(mu_5 + mu_6).
    """

    mu1: float
    mu2: float
    mu3: float
    mu4: float
    mu5: float
    mu6: float

    def __post_init__(self):
        mus = (self.mu1, self.mu2, self.mu3, self.mu4, self.mu5, self.mu6)
        if not all(math.isfinite(m) for m in mus):
            raise CoefficientError(f"mu1..mu6 must be finite, got {mus}")
        if self.mu4 <= 0:
            raise CoefficientError(f"mu4 must be positive, got {self.mu4}")
        if self.mu1 < 0:
            raise CoefficientError(f"mu1 must be nonnegative, got {self.mu1}")
        if self.lambda1 >= 0:
            raise CoefficientError(
                f"lambda1 = mu2 - mu3 must be negative, got {self.lambda1}"
            )
        if self.mu5 + self.mu6 < 0:
            raise CoefficientError("mu5 + mu6 must be nonnegative")
        l1, l2 = self.lambda1, self.lambda2
        transpose_ok = math.isclose(self.mu2 + self.mu3, self.mu6 - self.mu5,
                                    rel_tol=0.0, abs_tol=1e-12)
        if transpose_ok and (l2 == 0 or l2 * l2 / (-l1) < self.mu5 + self.mu6):
            return
        if abs(l2 - self.mu2 - self.mu3) < 2.0 * math.sqrt(-l1) * math.sqrt(
            self.mu5 + self.mu6
        ):
            return
        raise CoefficientError("coefficients fail the dissipativity condition")

    @property
    def lambda1(self):
        return self.mu2 - self.mu3

    @property
    def lambda2(self):
        return self.mu5 - self.mu6

    @property
    def nu(self):
        return self.mu4 / 2.0

    @property
    def kappa(self):
        """Director diffusivity -1/lambda_1."""
        return -1.0 / self.lambda1

    @classmethod
    def ansatz(cls, nu=1.0):
        """The default set mu = (1, -1, 0, 2 nu, 3, 1)."""
        return cls(1.0, -1.0, 0.0, 2.0 * nu, 3.0, 1.0)

    @property
    def is_ansatz(self):
        return (self.mu1, self.mu2, self.mu3, self.mu5, self.mu6) == (
            1.0, -1.0, 0.0, 3.0, 1.0)


class State:
    """Simulation state: velocity u, director d, time t, on one grid."""

    __slots__ = ("grid", "u", "d", "t")

    def __init__(self, grid, u, d, t=0.0):
        require_same_grid(u.x, u.y, d.x, d.y)
        if u.grid != grid:
            raise GridError("state fields live on a different grid")
        self.grid = grid
        self.u = u
        self.d = d
        self.t = float(t)

    def copy(self):
        return State(self.grid, self.u.copy(), self.d.copy(), self.t)


@dataclass(frozen=True)
class SolverConfig:
    """Stepping parameters: dt, final time, scheme, and recording cadence."""

    dt: float
    t_end: float
    scheme: str = "imex1"
    record_cadence: int = 1

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if self.scheme not in ("imex1", "imex2"):
            raise ValueError(f"scheme must be 'imex1' or 'imex2', got {self.scheme!r}")
        if self.record_cadence < 1:
            raise ValueError("record_cadence must be >= 1")
        steps = self.t_end / self.dt
        if steps == math.inf or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


# -- reference-path operations ---------------------------------------------------


def strain_and_vorticity(u):
    """Symmetric and antisymmetric parts of grad u (convention d_j u_i)."""
    j = jacobian(u)
    half = 0.5
    a12 = (j.xy + j.yx) * half
    w12 = (j.xy - j.yx) * half
    a = TensorField22(j.xx, a12, a12, j.yy)
    w = TensorField22(SpectralField.zero(u.grid), w12, -1.0 * w12,
                      SpectralField.zero(u.grid))
    return a, w


def gl_gradient(d):
    """grad_d W = (|d|^2 - 1) d, assembled from exact cubic products."""
    gx = product(d.x, d.x, d.x) + product(d.y, d.y, d.x) - d.x
    gy = product(d.x, d.x, d.y) + product(d.y, d.y, d.y) - d.y
    return VectorField2(gx, gy)


def _matvec(t, v):
    """Truncated pointwise product T v for a tensor and a vector field."""
    return VectorField2(
        product(t.xx, v.x) + product(t.xy, v.y),
        product(t.yx, v.x) + product(t.yy, v.y),
    )


def _advection(u, v):
    """u . grad v, componentwise truncated products."""
    return VectorField2(
        product(u.x, derivative(v.x, 0)) + product(u.y, derivative(v.x, 1)),
        product(u.x, derivative(v.y, 0)) + product(u.y, derivative(v.y, 1)),
    )


def gl_force(d):
    """lap d - grad_d W, the resolved director force field."""
    g = gl_gradient(d)
    return VectorField2(laplacian(d.x) - g.x, laplacian(d.y) - g.y)


def leslie_stress(u, d, coeffs):
    """Extra stress tensor (viscous mu_4 part excluded; it is the nu lap u term).

    General grouped assembly: mu_1 (d.Ad)(d x d) + (mu_2 N + mu_5 Ad) x d
    + d x (mu_3 N + mu_6 Ad), with N = -(lambda_2/lambda_1) Ad
    - (1/lambda_1)(lap d - grad W).  For the default coefficients this is
    (d.Ad)(d x d) + (Ad) x d + d x (Ad) - (lap d - grad W) x d.
    """
    a, _ = strain_and_vorticity(u)
    ad = _matvec(a, d)
    # d.(A d) as exact single-stage cubics: A11 d1^2 + 2 A12 d1 d2 + A22 d2^2
    dad = (
        product(a.xx, d.x, d.x)
        + 2.0 * product(a.xy, d.x, d.y)
        + product(a.yy, d.y, d.y)
    )
    ddt = TensorField22(product(d.x, d.x), product(d.x, d.y),
                        product(d.y, d.x), product(d.y, d.y))
    g = gl_force(d)
    l1, l2 = coeffs.lambda1, coeffs.lambda2
    nvec = ad * (-l2 / l1) + g * (-1.0 / l1)
    left = nvec * coeffs.mu2 + ad * coeffs.mu5
    right = nvec * coeffs.mu3 + ad * coeffs.mu6
    term1 = TensorField22(
        product(dad, ddt.xx), product(dad, ddt.xy),
        product(dad, ddt.yx), product(dad, ddt.yy),
    ) * coeffs.mu1
    outer_left = TensorField22(
        product(left.x, d.x), product(left.x, d.y),
        product(left.y, d.x), product(left.y, d.y),
    )
    outer_right = TensorField22(
        product(d.x, right.x), product(d.x, right.y),
        product(d.y, right.x), product(d.y, right.y),
    )
    return term1 + outer_left + outer_right


def ericksen_stress(d):
    """(grad d o. grad d)_ij = d_i d . d_j d, truncated products."""
    dx1, dy1 = derivative(d.x, 0), derivative(d.x, 1)
    dx2, dy2 = derivative(d.y, 0), derivative(d.y, 1)
    e11 = product(dx1, dx1) + product(dx2, dx2)
    e12 = product(dx1, dy1) + product(dx2, dy2)
    e22 = product(dy1, dy1) + product(dy2, dy2)
    return TensorField22(e11, e12, e12, e22)


def rhs(state, coeffs):
    """Full right sides (du/dt, dd/dt) before Leray projection.

    Momentum: -u.grad u - div(grad d o. grad d) + div sigma + nu lap u.
    Director (default coefficients): -u.grad d + (3/2)(grad u) d
    + (1/2)(grad u)^T d + lap d - grad_d W; the general-coefficient variant
    uses omega d - (lambda_2/lambda_1) A d - (1/lambda_1)(lap d - grad_d W).
    """
    u, d = state.u, state.d
    adv_u = _advection(u, u)
    sigma = leslie_stress(u, d, coeffs)
    mom = (
        -1.0 * adv_u
        - tensor_divergence(ericksen_stress(d))
        + tensor_divergence(sigma)
        + VectorField2(laplacian(u.x), laplacian(u.y)) * coeffs.nu
    )
    adv_d = _advection(u, d)
    j = jacobian(u)
    if coeffs.is_ansatz:
        stretch = _matvec(j, d) * 1.5 + _matvec(j.transpose(), d) * 0.5
        direc = -1.0 * adv_d + stretch + gl_force(d)
    else:
        a, w = strain_and_vorticity(u)
        stretch = _matvec(w, d) + _matvec(a, d) * (-coeffs.lambda2 / coeffs.lambda1)
        direc = -1.0 * adv_d + stretch + gl_force(d) * coeffs.kappa
    return mom, direc


# -- energy and dissipation ------------------------------------------------------


def _energy_split(uh, dh, q):
    """(e_kin, e_elastic, int |grad u|^2) of one state.

    uh and dh hold the half spectra of the components of u and d along
    axis 0; q = |d|^2 - 1 is sampled on the 2N grid.  The quadratic parts
    are Parseval sums, and the potential int q^2 / 4 is exact there by
    equal-weight quadrature.
    """
    t = _tables(uh.shape[-2])
    w, wn2 = t["weight"], t["weight"] * t["n2"]
    area = TWO_PI ** 2
    return (0.5 * area * _weighted_power(w, uh),
            0.5 * area * _weighted_power(wn2, dh) + _sample_integral(0.25 * q * q),
            area * _weighted_power(wn2, uh))



def _dissipation_terms(coeffs, grad_u_int, ad, dad, g):
    """The five dissipation integrals from pointwise samples.

    grad_u_int is int |grad u|^2; ad = (Ad_1, Ad_2), dad = d.Ad and
    g = (G_1, G_2) with G = lap d - grad_d W are samples on a grid where
    equal-weight quadrature is exact.  Default coefficients give the
    five-square split (nu |grad u|^2, |d.Ad|^2, (3/2)|Ad|^2, |G|^2/2,
    |Ad+G|^2/2); other coefficients the general form (mu_1 |d.Ad|^2,
    (mu_4/2)|grad u|^2, (mu_5+mu_6)|Ad|^2, -lambda_1 |N|^2,
    -(lambda_2-mu_2-mu_3) N.Ad) with N = -(lambda_2/lambda_1) Ad
    - (1/lambda_1) G.
    """
    ad1, ad2 = ad
    g1, g2 = g
    if coeffs.is_ansatz:
        return (
            coeffs.nu * grad_u_int,
            _sample_integral(dad * dad),
            1.5 * _sample_integral(ad1 * ad1 + ad2 * ad2),
            0.5 * _sample_integral(g1 * g1 + g2 * g2),
            0.5 * _sample_integral((ad1 + g1) ** 2 + (ad2 + g2) ** 2),
        )
    l1, l2 = coeffs.lambda1, coeffs.lambda2
    n1 = -(l2 / l1) * ad1 - (1.0 / l1) * g1
    n2 = -(l2 / l1) * ad2 - (1.0 / l1) * g2
    return (
        coeffs.mu1 * _sample_integral(dad * dad),
        0.5 * coeffs.mu4 * grad_u_int,
        (coeffs.mu5 + coeffs.mu6) * _sample_integral(ad1 * ad1 + ad2 * ad2),
        -l1 * _sample_integral(n1 * n1 + n2 * n2),
        -(l2 - coeffs.mu2 - coeffs.mu3) * _sample_integral(n1 * ad1 + n2 * ad2),
    )


# -- half-spectrum stepping engine ------------------------------------------------


class _Engine:
    """Batched real-FFT inner loop for one (grid, coefficients, dt, scheme)."""

    def __init__(self, grid, coeffs, config):
        self.grid = grid
        self.coeffs = coeffs
        self.config = config
        self.n = grid.n_modes
        self.m = grid.padded_size
        self.t = _tables(self.n)
        self.ik = np.stack([1j * self.t["nx"], 1j * self.t["ny"]])
        dt = config.dt
        self.exp_u = np.exp(-coeffs.nu * self.t["n2"] * dt)
        self.exp_d = np.exp(-coeffs.kappa * self.t["n2"] * dt)
        # transform batches, rewritten by every nonlinear() call
        n, h, m = self.n, self.n // 2 + 1, self.m
        self.in1 = np.empty((14, n, h), dtype=np.complex128)
        self.in2 = np.empty((8, n, h), dtype=np.complex128)
        self.products = np.empty((16, m, m))

    def start(self, state):
        """A state's stacked (u, d) half spectra (copies), u projected."""
        u, d = state.u, state.d
        return (self.project(np.stack([u.x.coeffs, u.y.coeffs])),
                np.stack([d.x.coeffs, d.y.coeffs]))

    def state(self, uh, dh, t):
        """A State whose fields hold the rows of uh and dh (no copy)."""
        g = self.grid
        u, d = (VectorField2(SpectralField(g, h[0]), SpectralField(g, h[1]))
                for h in (uh, dh))
        return State(g, u, d, t)

    def project(self, uh):
        """Leray projection plus exact zero mean, half layout, in place."""
        t = self.t
        kdot = (t["nx"] * uh[0] + t["ny"] * uh[1]) / t["n2_safe"]
        kdot[0, 0] = 0.0
        uh[0] -= t["nx"] * kdot
        uh[1] -= t["ny"] * kdot
        uh[0][0, 0] = 0.0
        uh[1][0, 0] = 0.0
        return uh

    # -- nonlinear assembly --------------------------------------------------------

    def nonlinear(self, uh, dh, want_diag=False):
        """Explicit right sides (momentum projected) and optional diagnostics.

        The diffusion terms are not included here; the stepper integrates them
        exactly through the per-mode factors.  Terms that share a right side
        are summed on the padded grid before one forward transform
        (truncation is linear): 12 + 8 padded inverses, 12 + 4 forwards, and
        2 more inverses (lap d) only when diagnostics are wanted.
        """
        co = self.coeffs
        t = self.t
        m = self.m
        b1 = self.in1  # u, d, their first derivatives (, lap d): 2+2+8 (+2)
        b1[0:2] = uh
        b1[2:4] = dh
        np.multiply(self.ik, b1[0:4, None], out=b1[4:12].reshape(4, 2, self.n, -1))
        if want_diag:
            np.multiply(-t["n2"], dh, out=b1[12:14])
        p = _irfft_padded(b1 if want_diag else b1[:12], m)
        u1, u2, d1, d2 = p[0:4]
        grad = p[4:12].reshape(4, 2, m, m)  # grad[f, k] = d_k f, f = u1, u2, d1, d2
        (gu0, gu1), (gu2, gu3), (gd0, gd1), (gd2, gd3) = grad

        # 0-1 u.grad u, 2-3 director side, 4-5 grad W, 6-7 Ad, 8 d.Ad,
        # 9-11 d x d, the 12 planes of the first forward batch; 12-14 scratch,
        # then the Ericksen planes, kept for stage 2; 15 |d|^2 - 1, then scratch
        o = self.products
        np.multiply(u1, grad[:, 0], out=o[0:4])  # u.grad of u1, u2, d1, d2
        o[0:4] += np.multiply(u2, grad[:, 1], out=o[12:16])
        np.multiply(d1, p[2:4], out=o[9:11])
        np.multiply(d2, d2, out=o[11])
        q = o[15]
        np.add(o[9], o[11], out=q)
        q -= 1.0
        np.multiply(q, p[2:4], out=o[4:6])  # grad W = (|d|^2 - 1) d
        a12, w12, t1 = o[12], o[13], o[14]
        np.add(gu1, gu2, out=a12)
        a12 *= 0.5
        ad1, ad2, dad = o[6], o[7], o[8]
        np.multiply(gu0, d1, out=ad1)
        ad1 += np.multiply(a12, d2, out=t1)
        np.multiply(a12, d1, out=ad2)
        ad2 += np.multiply(gu3, d2, out=t1)
        np.multiply(d1, ad1, out=dad)
        dad += np.multiply(d2, ad2, out=t1)
        # director side -u.grad d + W d + c A d with c = -lambda_2/lambda_1;
        # the default set has c = 2, where W d + 2 A d is the stretch
        # (3/2)(grad u) d + (1/2)(grad u)^T d of its director equation
        side = o[2:4]
        cad = np.multiply(-co.lambda2 / co.lambda1, o[6:8], out=o[12:14])
        np.subtract(cad, side, out=side)
        np.subtract(gu1, gu2, out=w12)
        w12 *= 0.5
        side[0] += np.multiply(w12, d2, out=t1)
        side[1] -= np.multiply(w12, d1, out=t1)

        diag = None
        if want_diag:
            gw1, gw2 = o[4], o[5]
            e_kin, e_elastic, grad_u_int = _energy_split(uh, dh, q)
            diag = {
                "e_kin": e_kin,
                "e_elastic": e_elastic,
                "d_terms": _dissipation_terms(
                    co, grad_u_int, (ad1, ad2), dad, (p[12] - gw1, p[13] - gw2)
                ),
                "div_residual": float(
                    np.max(np.abs(t["nx"] * uh[0] + t["ny"] * uh[1]))
                ),
            }

        e11, e12, e22 = o[12], o[13], o[14]  # grad d o. grad d
        np.multiply(gd0, gd0, out=e11)
        e11 += np.multiply(gd2, gd2, out=o[15])
        np.multiply(gd0, gd1, out=e12)
        e12 += np.multiply(gd2, gd3, out=o[15])
        np.multiply(gd1, gd1, out=e22)
        e22 += np.multiply(gd3, gd3, out=o[15])
        s1 = _rfft_truncated(o[0:12], self.n)
        advu_h, gw_h = s1[0:2], s1[4:6]

        b2 = self.in2  # Ad, d.Ad, d x d, lap d - grad W: 2+1+3+2 = 8
        b2[0:6] = s1[6:12]
        np.multiply(-t["n2"], dh, out=b2[6:8])
        b2[6:8] -= gw_h  # resolved lap d - grad W
        p2 = _irfft_padded(b2, m)
        adn, dad_n, ddt, nv = p2[0:2], p2[2], p2[3:6], p2[6:8]
        l1, l2 = co.lambda1, co.lambda2
        nv *= -1.0 / l1
        nv += (-l2 / l1) * adn  # N = -(lambda_2/lambda_1) Ad - (1/lambda_1) G
        lf = co.mu2 * nv + co.mu5 * adn
        rt = co.mu3 * nv + co.mu6 * adn
        # S = mu1 (d.Ad) d x d + (mu2 N + mu5 Ad) x d + d x (mu3 N + mu6 Ad) - E
        ddt *= co.mu1 * dad_n
        s = o[0:4]  # S11, S12, S21, S22; stage-1 planes 0-11 are spent
        np.subtract(ddt[0], e11, out=s[0])
        np.subtract(ddt[1], e12, out=s[1])
        s[2] = s[1]
        np.subtract(ddt[2], e22, out=s[3])
        outer = o[4:8].reshape(2, 2, m, m)
        s += np.multiply(lf[:, None], p[None, 2:4], out=outer).reshape(4, m, m)
        s += np.multiply(p[2:4, None], rt[None], out=outer).reshape(4, m, m)
        sh = _rfft_truncated(s, self.n)

        ikx, iky = self.ik
        mom = np.empty_like(uh)
        mom[0] = -advu_h[0] + ikx * sh[0] + iky * sh[1]
        mom[1] = -advu_h[1] + ikx * sh[2] + iky * sh[3]
        self.project(mom)

        # the lap d part of G duplicates the integrating factor's diffusion,
        # so the explicit side carries only the potential force -kappa grad W
        direc = s1[2:4] - co.kappa * gw_h
        return mom, direc, diag

    # -- steps ----------------------------------------------------------------------

    def step(self, uh, dh, want_diag=False):
        cfg = self.config
        dt = cfg.dt
        eu, ed = self.exp_u, self.exp_d
        fu, fd, diag = self.nonlinear(uh, dh, want_diag)
        if cfg.scheme == "imex1":
            un = eu * (uh + dt * fu)
            dn = ed * (dh + dt * fd)
        else:
            us = eu * (uh + dt * fu)
            ds = ed * (dh + dt * fd)
            fu2, fd2, _ = self.nonlinear(us, ds)
            un = eu * uh + 0.5 * dt * (eu * fu + fu2)
            dn = ed * dh + 0.5 * dt * (ed * fd + fd2)
        self.project(un)
        return un, dn, diag


# -- public stepping interface -----------------------------------------------------


def step(state, coeffs, config):
    """One IMEX step of the full system; returns the advanced state."""
    engine = _Engine(state.grid, coeffs, config)
    un, dn, _ = engine.step(*engine.start(state))
    if not (np.all(np.isfinite(un)) and np.all(np.isfinite(dn))):
        raise DivergenceError(0, state.t + config.dt)
    return engine.state(un, dn, state.t + config.dt)


def iterate(state, coeffs, config):
    """Yield (step_index, state) snapshots every record_cadence steps.

    The initial state is yielded as (0, state); the final step is always
    yielded.  Raises DivergenceError naming the step if the state stops
    being finite.  Useful for driving two trajectories in lockstep.  A
    yielded state holds the arrays the next step reads: copy it before
    changing it in place.
    """
    engine = _Engine(state.grid, coeffs, config)
    uh, dh = engine.start(state)
    t0 = state.t
    yield 0, engine.state(uh, dh, t0)
    n_steps = config.n_steps
    for m in range(1, n_steps + 1):
        uh, dh, _ = engine.step(uh, dh)
        if not (np.all(np.isfinite(uh)) and np.all(np.isfinite(dh))):
            raise DivergenceError(m - 1, t0 + m * config.dt)
        if m % config.record_cadence == 0 or m == n_steps:
            yield m, engine.state(uh, dh, t0 + m * config.dt)


def run(state, coeffs, config, record=True):
    """March the system from state.t over n_steps = t_end/dt steps.

    Returns (final_state, records): records is a list of per-time energy
    records (time, energy split, the five dissipation integrands, divergence
    residual) taken every record_cadence steps plus the final time; empty when
    record=False.  Raises DivergenceError naming the step if the state stops
    being finite.
    """
    from .diagnostics import EnergyRecord

    engine = _Engine(state.grid, coeffs, config)
    uh, dh = engine.start(state)
    records = []
    t0 = state.t

    def snap(step_index, diag):
        t = t0 + step_index * config.dt
        terms = diag["d_terms"]
        records.append(EnergyRecord(
            t=t,
            e_total=diag["e_kin"] + diag["e_elastic"],
            e_kin=diag["e_kin"],
            e_elastic=diag["e_elastic"],
            d_total=float(sum(terms)),
            d_terms=tuple(float(x) for x in terms),
            div_residual=diag["div_residual"],
        ))

    n_steps = config.n_steps
    for m in range(n_steps):
        want = record and (m % config.record_cadence == 0)
        un, dn, diag = engine.step(uh, dh, want_diag=want)
        if want:
            snap(m, diag)
        uh, dh = un, dn
        if not (np.all(np.isfinite(uh)) and np.all(np.isfinite(dh))):
            raise DivergenceError(m, t0 + (m + 1) * config.dt)
    if record:
        _, _, diag = engine.nonlinear(uh, dh, want_diag=True)
        snap(n_steps, diag)
    return engine.state(uh, dh, t0 + n_steps * config.dt), records
