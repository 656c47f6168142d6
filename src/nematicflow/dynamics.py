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
rhs) form the readable reference path the engine is tested against.  The
engine samples each product on the smallest grid where its truncation is
exact: the cubic terms grad W and d.Ad on the 2N grid, the pairwise
products on the 3N/2 grid.  One engine evaluation runs 25 padded inverse
and 16 forward transforms (5 + 3 at 2N, 20 + 13 at 3N/2; 27 inverse when it
also records energies, whose quadratures stay on the 2N grid), so an imex1
step costs 25 + 16 and an imex2 step 50 + 32.  _Engine.nonlinear reads as
its stages, each a method that runs one transform batch each way with its
pointwise work: cubic (2N), stage1 and stage2 (3N/2), and assemble, the
projected momentum and director sides.  The energy balance is
written once: every record of a run, the last one included, comes from
_Engine.cubic, and it and diagnostics.energy_record both form their 2N
samples' products with _cubic_fields and the energies and dissipation terms
with _energy_terms.  Every record forms the strain with the engine's
_strain_half, and the twin records form d.Ad with _cubic_fields and d x d
on the 3N/2 grid, as the engine does.

Each engine keeps its transform batches in a workspace of its own: the
padded inverses write into kept full-width spectra and sample arrays, and
each forward writes its spectrum into the inverse's and its N-grid result
into the input batch that the inverse has spent, so a warm step's
transforms allocate nothing.  Right sides and stepped states are always
fresh arrays, never views of the workspace, and the engine holds no state
of any trajectory.

One loop, _march, drives the engine.  It marches a tuple of states in
lockstep with one engine, stepping them in turn: run, iterate and step
march one state, and the twin driver marches its two.  run always records
the energy balance, iterate is the lazy, record-free generator, and step is
a one-step march.  The twin driver also passes a products list.  The first
evaluation of the step from each sample then hands out the truncated d x d
and d.Ad it formed at each trajectory's state, for the sample's twin
record.  Nothing else asks for them, and the engine does not store them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .grid import (
    TWO_PI,
    GridError,
    SpectralField,
    TensorField22,
    VectorField2,
    _integer,
    _irfft_padded,
    _rfft_truncated,
    _sample_integral,
    _shared,
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
    """Raised when the state stops being finite during time stepping.  In a
    lockstep march of several states, trajectory is the index of the one
    that did (None for a march of one)."""

    def __init__(self, step_index, t, trajectory=None):
        self.step_index = step_index
        self.t = t
        self.trajectory = trajectory
        of = "" if trajectory is None else f" of trajectory {trajectory}"
        super().__init__(
            f"non-finite state{of} after step {step_index} (t = {t:.6g})")


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
        if not all(isinstance(m, numbers.Real) and math.isfinite(m) for m in mus):
            raise CoefficientError(f"mu1..mu6 must be finite reals, got {mus}")
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
        if not math.isfinite(self.t):
            raise ValueError(f"state time must be finite, got {t}")

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
        if not all(isinstance(x, numbers.Real) and 0 < x < math.inf
                   for x in (self.dt, self.t_end)):
            raise ValueError("dt and t_end must be positive and finite reals")
        if self.scheme not in ("imex1", "imex2"):
            raise ValueError(f"scheme must be 'imex1' or 'imex2', got {self.scheme!r}")
        if _integer(self.record_cadence, "record_cadence", ValueError) < 1:
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


class EnergyRecord(NamedTuple):
    """One time sample of the energy balance along a run."""

    t: float
    e_total: float
    e_kin: float
    e_elastic: float
    d_total: float
    d_terms: tuple
    div_residual: float


def _energy_record(t, e_kin, e_elastic, d_terms, div_residual):
    """The EnergyRecord of one sample; e_total and d_total are the sums."""
    return EnergyRecord(t, e_kin + e_elastic, e_kin, e_elastic, float(sum(d_terms)),
                        tuple(float(x) for x in d_terms), div_residual)


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


def _cubic_fields(pc, out):
    """The cubic-stage pointwise products of 2N samples, into out.

    pc holds the samples of d1, d2, A11, A12, A22 in planes 0-4; out gets
    0-1 grad W = (|d|^2 - 1) d, 2 d.Ad, 3 |d|^2 - 1, 4-5 Ad, and 6 as
    scratch.  Returns out.
    """
    d1, d2, a11, a12, a22 = pc[0:5]
    gw, dad, q, ad1, ad2, t1 = out[0:2], out[2], out[3], out[4], out[5], out[6]
    np.multiply(d1, d1, out=q)
    q += np.multiply(d2, d2, out=t1)
    q -= 1.0
    np.multiply(q, pc[0:2], out=gw)
    np.multiply(a11, d1, out=ad1)
    ad1 += np.multiply(a12, d2, out=t1)
    np.multiply(a12, d1, out=ad2)
    ad2 += np.multiply(a22, d2, out=t1)
    np.multiply(d1, ad1, out=dad)
    dad += np.multiply(d2, ad2, out=t1)
    return out


def _energy_terms(coeffs, uh, dh, pc, oc):
    """(e_kin, e_elastic, d_terms, div_residual) of one state.

    uh and dh hold the half spectra of the components of u and d along
    axis 0, pc the 2N samples of d, A and lap d (planes 0-6) and oc their
    _cubic_fields.  The quadratic energies and int |grad u|^2 are Parseval
    sums; the potential int (|d|^2 - 1)^2 / 4 and the dissipation terms
    are exact on the 2N grid by equal-weight quadrature.
    """
    t = _tables(uh.shape[-2])
    wn2 = t["weight"] * t["n2"]
    area = TWO_PI ** 2
    gw, dad, q, ad1, ad2 = oc[0:2], oc[2], oc[3], oc[4], oc[5]
    return (
        0.5 * area * _weighted_power(t["weight"], uh),
        0.5 * area * _weighted_power(wn2, dh) + _sample_integral(0.25 * q * q),
        _dissipation_terms(coeffs, area * _weighted_power(wn2, uh), (ad1, ad2),
                           dad, (pc[5] - gw[0], pc[6] - gw[1])),
        float(np.max(np.abs(t["nx"] * uh[0] + t["ny"] * uh[1]))),
    )


def _stacked(vec):
    """The half spectra of a vector field's components, stacked (a copy)."""
    return np.stack([vec.x.coeffs, vec.y.coeffs])


def _strain_half(grad, out):
    """Half spectra of the strain (A11, A12, A22) into out, from those of
    the velocity gradient planes grad = (d_x u1, d_y u1, d_x u2, d_y u2):
    the one strain kernel, for the engine's planes and the records'."""
    out[0] = grad[0]
    np.add(grad[1], grad[2], out=out[1])
    out[1] *= 0.5
    out[2] = grad[3]
    return out


# -- half-spectrum stepping engine ------------------------------------------------


class _Workspace:
    """The transform batches of one engine: the N-grid input batches of its
    three stages and three sample-sized buffers.

    Only the engine reads it.  Each of its stage methods writes what it
    reads here before reading it, and nothing nonlinear() returns is a view
    of these arrays, so one engine steps any number of trajectories in turn.
    Each stage's full-width inverse spectra (see grid._irfft_padded) also
    take the spectra of the forward that ends it, whose N-grid result is
    cut into the stage's input batch, spent by its inverse:

    - cubic fills in1 and in_cubic, samples in_cubic through wide_cubic
      into samples_cubic and forms cubic; nonlinear's cubic forward cuts
      cubic[0:3] through wide_cubic[:3] into in_cubic[:3];
    - stage1 samples in1 through wide_pair into samples1, forms pairs and
      cuts pairs[0:9] into in1[:9], keeping the Ericksen planes pairs[9:12];
    - stage2 fills in2 from in1[:9] and in_cubic[:3] and samples it through
      wide_pair[:8] into samples1[4:12], stage 1's spent derivative planes;
      it forms the stress in pairs[0:4] with the d samples samples1[2:4]
      and the Ericksen planes, and cuts it into in2[:4];
    - assemble reads in1[0:4], in_cubic[0:2] and in2[:4] into fresh arrays.

    Two arrays share a buffer only where their lives, within an evaluation,
    do not overlap:

    - samples_cubic, read until the cubic products and energy terms are
      formed, and wide_pair, written from stage 1's inverse on;
    - cubic, read until the cubic forward, and samples1, written from
      stage 1's inverse on;
    - wide_cubic, read until the cubic forward, and pairs, written from
      stage 1's products on and read until stage 2's forward.
    """

    def __init__(self, n, mc, mp):
        h = n // 2
        self.in_cubic = np.empty((7, n, h + 1), dtype=np.complex128)
        self.in1 = np.empty((12, n, h + 1), dtype=np.complex128)
        self.in2 = np.empty((8, n, h + 1), dtype=np.complex128)
        self.samples_cubic, self.wide_pair = _shared(
            (7, mc, mc), ((12, mp, mp // 2 + 1), np.complex128))
        self.cubic, self.samples1 = _shared((7, mc, mc), (12, mp, mp))
        self.wide_cubic, self.pairs = _shared(
            ((7, mc, mc // 2 + 1), np.complex128), (13, mp, mp))


class _Engine:
    """Batched real-FFT inner loop for one (grid, coefficients, dt, scheme)."""

    def __init__(self, grid, coeffs, config):
        self.grid = grid
        self.coeffs = coeffs
        self.config = config
        self.n = grid.n_modes
        self.m_cubic = grid.padded_size
        self.m_pair = 3 * self.n // 2
        self.t = _tables(self.n)
        self.ik = np.stack([1j * self.t["nx"], 1j * self.t["ny"]])
        dt = config.dt
        self.exp_u = np.exp(-coeffs.nu * self.t["n2"] * dt)
        self.exp_d = np.exp(-coeffs.kappa * self.t["n2"] * dt)
        self.ws = _Workspace(self.n, self.m_cubic, self.m_pair)

    def start(self, state):
        """A state's stacked (u, d) half spectra (copies), u projected."""
        return self.project(_stacked(state.u)), _stacked(state.d)

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

    def cubic(self, uh, dh, want_diag=False):
        """The cubic stage: 5 inverses to 2N (d, A11, A12, A22), 2 more (lap d)
        with want_diag, after filling stage 1's batch in1, whose derivative
        planes give A.  Returns (oc, terms): the samples' _cubic_fields, a
        workspace view, and with want_diag their _energy_terms (else None).
        max ||d| - 1| is |q| / (sqrt(q + 1) + 1) on these samples, with
        q = |d|^2 - 1 = oc[3], at no extra transform."""
        ws, n, mc = self.ws, self.n, self.m_cubic
        b1 = ws.in1  # u, d and their first derivatives (d_k f at 4 + 2f + k)
        b1[0:2] = uh
        b1[2:4] = dh
        np.multiply(self.ik, b1[0:4, None], out=b1[4:12].reshape(4, 2, n, -1))
        bc = ws.in_cubic  # d1, d2, A11, A12, A22 (, lap d1, lap d2)
        bc[0:2] = dh
        _strain_half(b1[4:8], out=bc[2:5])
        if want_diag:
            np.multiply(-self.t["n2"], dh, out=bc[5:7])
        k = 7 if want_diag else 5
        pc = _irfft_padded(bc[:k], mc, out=(ws.wide_cubic[:k], ws.samples_cubic[:k]))
        # 0-1 grad W, 2 d.Ad, the cubic forward batch; 3 |d|^2 - 1, 4-5 Ad
        oc = _cubic_fields(pc, ws.cubic)
        return oc, _energy_terms(self.coeffs, uh, dh, pc, oc) if want_diag else None

    def nonlinear(self, uh, dh, want_diag=False, products=None):
        """Explicit right sides (momentum projected) and, with want_diag, the
        state's _energy_terms (else None).  Given a list as products, appends
        the half spectra of the state's truncated (d x d, d.Ad), which the
        evaluation forms anyway.

        The diffusion terms are not included here; the stepper integrates them
        exactly through the per-mode factors.  Terms that share a right side
        are summed on one sample grid before one forward transform
        (truncation is linear).  Each product is sampled on the smallest grid
        where its truncation is exact (see the grid module): M = 2N for the
        cubic terms, M = 3N/2 for the pairwise ones.  Each stage method runs
        one transform batch each way with its pointwise work: cubic (5 or 7
        inverses at 2N; its 3 forwards, grad W and d.Ad, run here), stage1
        (12 + 9 at 3N/2), stage2 (8 + 4 at 3N/2) and assemble (none).
        """
        oc, terms = self.cubic(uh, dh, want_diag)
        sc = _rfft_truncated(oc[0:3], self.n, spectrum=self.ws.wide_cubic[:3],
                             out=self.ws.in_cubic[:3])
        s1 = self.stage1()
        sh = self.stage2(dh, s1, sc)
        mom, direc = self.assemble(s1, sc, sh)
        if products is not None:  # copies: s1 and sc are workspace views
            products.append((s1[6:9].copy(), sc[2].copy()))
        return mom, direc, terms

    def stage1(self):
        """Pairwise stage 1, 3N/2: 12 inverses of in1 (u, d, their first
        derivatives) into samples1, the products, and 9 forwards (u.grad u,
        the director side, Ad, d x d) into in1[:9], returned; the Ericksen
        planes stay in pairs[9:12].  max |u| reads samples1[0:2], the u
        samples, so the CFL number dt max|u| N/2 costs no extra transform."""
        co, ws, n, mp = self.coeffs, self.ws, self.n, self.m_pair
        p = _irfft_padded(ws.in1, mp, out=(ws.wide_pair, ws.samples1))
        u1, u2, d1, d2 = p[0:4]
        grad = p[4:12].reshape(4, 2, mp, mp)  # grad[f, k] = d_k f, f = u1, u2, d1, d2
        (gu0, gu1), (gu2, gu3), (gd0, gd1), (gd2, gd3) = grad

        # 0-1 u.grad u, 2-3 director side, 4-5 Ad, 6-8 d x d, the first
        # pairwise forward batch; 9-12 scratch, then 9-11 the Ericksen
        # planes, kept for stage 2
        o = ws.pairs
        np.multiply(u1, grad[:, 0], out=o[0:4])  # u.grad of u1, u2, d1, d2
        o[0:4] += np.multiply(u2, grad[:, 1], out=o[9:13])
        a12, t1 = o[9], o[12]
        np.add(gu1, gu2, out=a12)
        a12 *= 0.5
        ad = o[4:6]
        np.multiply(gu0, d1, out=ad[0])
        ad[0] += np.multiply(a12, d2, out=t1)
        np.multiply(a12, d1, out=ad[1])
        ad[1] += np.multiply(gu3, d2, out=t1)
        np.multiply(d1, p[2:4], out=o[6:8])
        np.multiply(d2, d2, out=o[8])
        # director side -u.grad d + W d + c A d with c = -lambda_2/lambda_1;
        # the default set has c = 2, where W d + 2 A d is the stretch
        # (3/2)(grad u) d + (1/2)(grad u)^T d of its director equation
        side = o[2:4]
        cad = np.multiply(-co.lambda2 / co.lambda1, ad, out=o[9:11])
        np.subtract(cad, side, out=side)
        w12 = o[11]
        np.subtract(gu1, gu2, out=w12)
        w12 *= 0.5
        side[0] += np.multiply(w12, d2, out=t1)
        side[1] -= np.multiply(w12, d1, out=t1)

        e11, e12, e22 = o[9], o[10], o[11]  # grad d o. grad d
        np.multiply(gd0, gd0, out=e11)
        e11 += np.multiply(gd2, gd2, out=t1)
        np.multiply(gd0, gd1, out=e12)
        e12 += np.multiply(gd2, gd3, out=t1)
        np.multiply(gd1, gd1, out=e22)
        e22 += np.multiply(gd3, gd3, out=t1)
        return _rfft_truncated(o[0:9], n, spectrum=ws.wide_pair[:9], out=ws.in1[:9])

    def stage2(self, dh, s1, sc):
        """Pairwise stage 2, 3N/2: 8 inverses of in2, filled from s1 and sc,
        into stage 1's spent derivative samples, the stress with stage 1's d
        samples and Ericksen planes, and 4 forwards into in2[:4], returned."""
        co, ws, n, mp = self.coeffs, self.ws, self.n, self.m_pair
        p, o = ws.samples1, ws.pairs
        b2 = ws.in2  # Ad, d.Ad, d x d, lap d - grad W: 2+1+3+2 = 8
        b2[0:2] = s1[4:6]
        b2[2] = sc[2]
        b2[3:6] = s1[6:9]
        np.multiply(-self.t["n2"], dh, out=b2[6:8])
        b2[6:8] -= sc[0:2]  # resolved lap d - grad W
        # stage 1's derivative samples are spent; its d samples stay
        p2 = _irfft_padded(b2, mp, out=(ws.wide_pair[:8], p[4:12]))
        adn, dad_n, ddt, nv = p2[0:2], p2[2], p2[3:6], p2[6:8]
        l1, l2 = co.lambda1, co.lambda2
        nv *= -1.0 / l1
        nv += (-l2 / l1) * adn  # N = -(lambda_2/lambda_1) Ad - (1/lambda_1) G
        lf = co.mu2 * nv + co.mu5 * adn
        rt = co.mu3 * nv + co.mu6 * adn
        # S = mu1 (d.Ad) d x d + (mu2 N + mu5 Ad) x d + d x (mu3 N + mu6 Ad) - E
        ddt *= co.mu1 * dad_n
        e11, e12, e22 = o[9], o[10], o[11]  # grad d o. grad d, from stage 1
        s = o[0:4]  # S11, S12, S21, S22; stage-1 planes 0-8 are spent
        np.subtract(ddt[0], e11, out=s[0])
        np.subtract(ddt[1], e12, out=s[1])
        s[2] = s[1]
        np.subtract(ddt[2], e22, out=s[3])
        outer = o[4:8].reshape(2, 2, mp, mp)
        s += np.multiply(lf[:, None], p[None, 2:4], out=outer).reshape(4, mp, mp)
        s += np.multiply(p[2:4, None], rt[None], out=outer).reshape(4, mp, mp)
        return _rfft_truncated(s, n, spectrum=ws.wide_pair[:4], out=b2[:4])

    def assemble(self, s1, sc, sh):
        """The fresh right sides (mom projected, direc) from stage spectra."""
        ikx, iky = self.ik
        advu_h = s1[0:2]
        mom = np.empty_like(advu_h)
        mom[0] = -advu_h[0] + ikx * sh[0] + iky * sh[1]
        mom[1] = -advu_h[1] + ikx * sh[2] + iky * sh[3]
        self.project(mom)

        # the lap d part of G duplicates the integrating factor's diffusion,
        # so the explicit side carries only the potential force -kappa grad W
        direc = s1[2:4] - self.coeffs.kappa * sc[0:2]
        return mom, direc

    # -- steps ----------------------------------------------------------------------

    def step(self, uh, dh, want_diag=False, products=None):
        cfg = self.config
        dt = cfg.dt
        eu, ed = self.exp_u, self.exp_d
        # the first evaluation is at the step's own state (uh, dh)
        fu, fd, terms = self.nonlinear(uh, dh, want_diag, products)
        # the imex1 update, which is also imex2's predictor
        un = eu * (uh + dt * fu)
        dn = ed * (dh + dt * fd)
        if cfg.scheme == "imex2":
            fu2, fd2, _ = self.nonlinear(un, dn)
            un = eu * uh + 0.5 * dt * (eu * fu + fu2)
            dn = ed * dh + 0.5 * dt * (ed * fd + fd2)
        self.project(un)
        return un, dn, terms


# -- public stepping interface -----------------------------------------------------


def _march(states, coeffs, config, records=None, products=None):
    """The one loop behind step, iterate, run and the twin driver.

    Marches a tuple of states on one grid, from the first one's time, in
    lockstep with one engine, stepping them in turn.  Yields (m, states at
    m) at m = 0, every multiple of record_cadence and the last step, each
    before stepping from m.  Given a list as records, a march of one state
    appends each sample's EnergyRecord from _Engine.cubic: run by the step
    from m, or alone at the last sample, which takes no step.
    Given a list as products, the step from each sample but the last
    appends one entry: per trajectory, the (d x d, d.Ad) half spectra its
    first evaluation formed at the sample's state (see _Engine.nonlinear).
    So each entry arrives after its sample is yielded and before the next
    sample is.
    """
    assert records is None or len(states) == 1
    engine = _Engine(states[0].grid, coeffs, config)
    halves = [engine.start(s) for s in states]
    t0, n_steps = states[0].t, config.n_steps
    for m in range(n_steps + 1):
        t = t0 + m * config.dt
        sample = m % config.record_cadence == 0 or m == n_steps
        if sample:
            yield m, tuple(engine.state(uh, dh, t) for uh, dh in halves)
        want = sample and records is not None
        if m < n_steps:
            formed = [] if sample and products is not None else None
            for k, (uh, dh) in enumerate(halves):
                uh, dh, terms = engine.step(uh, dh, want, formed)
                if not (np.all(np.isfinite(uh)) and np.all(np.isfinite(dh))):
                    raise DivergenceError(m, t0 + (m + 1) * config.dt,
                                          k if len(states) > 1 else None)
                halves[k] = uh, dh
            if formed is not None:
                products.append(tuple(formed))
            if want:
                records.append(_energy_record(t, *terms))
        elif want:
            records.append(_energy_record(t, *engine.cubic(*halves[0], True)[1]))


def step(state, coeffs, config):
    """One IMEX step of the full system; returns the advanced state."""
    for _, (final,) in _march((state,), coeffs, replace(config, t_end=config.dt)):
        pass
    return final


def iterate(state, coeffs, config):
    """Yield (step_index, state) snapshots every record_cadence steps.

    The lazy, record-free driver of one trajectory.  The initial state is
    yielded as (0, state); the final step is always yielded.  Raises
    DivergenceError naming the step if the state stops being finite.  A
    yielded state holds the arrays the next step reads: copy it before
    changing it in place.  Generators zipped to march in lockstep each step
    with an engine and a workspace of their own.
    """
    for m, (state,) in _march((state,), coeffs, config):
        yield m, state


def run(state, coeffs, config):
    """March the system from state.t over n_steps = t_end/dt steps.

    Returns (final_state, records): records is a list of per-time energy
    records (time, energy split, the five dissipation integrands, divergence
    residual) taken every record_cadence steps plus the final time.  Raises
    DivergenceError naming the step if the state stops being finite.
    """
    records = []
    for _, (final,) in _march((state,), coeffs, config, records):
        pass
    return final, records
