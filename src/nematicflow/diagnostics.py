"""Energy bookkeeping and twin-state functionals.

Single-state side: the total energy

    E = int ( |u|^2 / 2 + |grad d|^2 / 2 + W(d) ),   W(d) = (|d|^2 - 1)^2 / 4,

and the dissipation rate.  For the default coefficient set the dissipation
splits into five squares,

    D = int ( nu |grad u|^2 + |d.Ad|^2 + (3/2)|Ad|^2 + |G|^2 / 2
              + |Ad + G|^2 / 2 ),        G = lap d - (|d|^2 - 1) d,

and for general coefficients it is the quadratic form

    D = int ( mu_1 |d.Ad|^2 + (mu_4/2)|grad u|^2 + (mu_5+mu_6)|Ad|^2
              - lambda_1 |N|^2 - (lambda_2 - mu_2 - mu_3) N.(Ad) ),

with N = -(lambda_2/lambda_1) Ad - (1/lambda_1) G; the two agree at the
default set.  energy_record samples one state into fresh arrays and runs
the kernels (dynamics._cubic_fields, dynamics._energy_terms) that a run's
records run in the engine's cubic stage (dynamics._Engine.cubic), so it
equals a run's record of the same state bit for bit.

Twin-state side: given two states on one grid, with differences
delta u, delta d, delta A (strain difference), the distance functional

    Phi = ( ||delta u||_{H^{-1/2}}^2 + ||delta d||_{H^{1/2}}^2 ) / 2

and the dissipation-distance functional

    frakD = nu ||grad delta u||_{H^{-1/2}}^2 + ||grad delta d||_{H^{1/2}}^2
            + 2 sum_q 2^{-q} int |Delta_q delta A  S_{q-1} d_1|^2
            +   sum_q 2^{-q} int |Delta_q delta A : S_{q-1}(d_1 x d_1)|^2,

all Sobolev norms in the dyadic-block (lp) form, evaluated as weighted sums
over the modes (dyadic.hs_norm).  Each block Delta_q delta A and its
low-passes S_{q-1} d_1, S_{q-1}(d_1 x d_1) are sampled on a band-sized grid,
the smallest on which the sampled integral of the squared integrands is
exact, not on the 2N grid; dyadic._block_pair_samples does this here and
for the harness identity checks, into spectra and samples kept in a dict
that the job owns: the twin driver makes one and hands it to every record.
frakD's S_{q-1}(d_1 x d_1) needs the truncated d_1 x d_1 and F_hat the
truncated d_2.A_2 d_2.  Every record forms its products with the engine's
kernels on the engine's grids: the strains with dynamics._strain_half,
d x d from 2 + 3 transform planes on the 3N/2 grid, and d.Ad from 5 + 1
on the 2N grid through dynamics._cubic_fields.  uniqueness_record forms
the two products itself; the twin driver hands _twin_record the ones
its engine formed at the same states (dynamics._march), so its records
run only the block-pair inverses and equal uniqueness_record of the
same states bit for bit.  The bound function F_hat
is a polynomial in standard norms of the two states (f1 + f2 + f3 + f4
below, every hidden constant set to 1) that multiplies mu(Phi) in the
two-state comparison inequality; the fitted-constant check lives in the
osgood module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dyadic import _block_pair_samples, _lp_weight, hs_norm_vector
from .dynamics import (
    LeslieCoefficients,
    _cubic_fields,
    _energy_record,
    _energy_terms,
    _stacked,
    _strain_half,
    rhs,
)
from .grid import (
    TWO_PI,
    SpectralField,
    _irfft_padded,
    _rfft_truncated,
    _sample_integral,
    _tables,
    _weighted_power,
    divergence,
    invert_laplacian,
    l2_norm,
    require_same_grid,
    vector_hs_norm_fourier,
    vector_l2_norm,
)


class UniquenessRecord(NamedTuple):
    """One time sample of the twin-state functionals.

    lp_sum_vector and lp_sum_tensor are the bare dyadic sums (no prefactor);
    frak_d = nu * grad_du_norm^2 + grad_dd_norm^2 + 2 lp_sum_vector
    + lp_sum_tensor.
    """

    t: float
    phi: float
    frak_d: float
    du_norm: float
    dd_norm: float
    grad_du_norm: float
    grad_dd_norm: float
    lp_sum_vector: float
    lp_sum_tensor: float
    f_hat: float


# -- single-state functionals ----------------------------------------------------


def _velocity_strain(uh):
    """dynamics._strain_half of the velocity with stacked half spectra uh."""
    t = _tables(uh.shape[-2])
    ik = 1j * t["nx"], 1j * t["ny"]
    return _strain_half([k * u for u in uh for k in ik],
                        np.empty((3,) + uh.shape[1:], dtype=np.complex128))


def energy_record(state, coeffs=None):
    """Full energy/dissipation snapshot of one state, from one 7-plane inverse
    into fresh arrays (d, A, lap d) and the kernels of the engine's recorded
    evaluations (dynamics._Engine.cubic): _cubic_fields and _energy_terms."""
    if coeffs is None:
        coeffs = LeslieCoefficients.ansatz()
    uh, dh = _stacked(state.u), _stacked(state.d)
    planes = [dh, _velocity_strain(uh), -state.grid.tables()["n2"] * dh]
    pc = _irfft_padded(np.concatenate(planes), state.grid.padded_size)
    oc = _cubic_fields(pc, np.empty_like(pc))
    return _energy_record(state.t, *_energy_terms(coeffs, uh, dh, pc, oc))


# -- twin-state functionals --------------------------------------------------------


def _require_shared_grid(state1, state2):
    require_same_grid(state1.u.x, state2.u.x, state1.d.x, state2.d.x)


def phi(state1, state2, partition=None):
    """Phi = (||delta u||_{H^{-1/2},lp}^2 + ||delta d||_{H^{1/2},lp}^2) / 2."""
    _require_shared_grid(state1, state2)
    du = state1.u - state2.u
    dd = state1.d - state2.d
    return 0.5 * (
        hs_norm_vector(du, -0.5, form="lp", partition=partition) ** 2
        + hs_norm_vector(dd, 0.5, form="lp", partition=partition) ** 2
    )


def _grad_sq(vec, s=None):
    """sum_ij ||d_j v_i||^2 in closed form, (2 pi)^2 sum_n w(n) |n|^2
    (|v1_n|^2 + |v2_n|^2): the L2 norms by default, the lp-form H^s norms
    (w = w_s, see dyadic._lp_weight) when s is given."""
    t = vec.grid.tables()
    w = t["weight"] if s is None else _lp_weight(vec.grid.n_modes, s)
    return TWO_PI ** 2 * _weighted_power(w * t["n2"], vec.x.coeffs, vec.y.coeffs)


def _outer_half(dh):
    """Half spectra of the truncated products d1 d1, d1 d2, d2 d2 of the
    director with stacked half spectra dh, as the engine forms them: one
    padded inverse of (d1, d2) on its pairwise 3N/2 grid, one forward
    transform of the three planes."""
    n = dh.shape[-2]
    d1, d2 = _irfft_padded(dh, 3 * n // 2)
    return _rfft_truncated(np.stack([d1 * d1, d1 * d2, d2 * d2]), n)


def _dad_half(a, dh):
    """Half spectrum of the truncated d.(A d) for the strain and director
    with half spectra a = (A11, A12, A22) and dh = (d1, d2), as the engine
    forms it: one padded inverse of (d, A) on the 2N grid, the engine's
    dynamics._cubic_fields, one forward transform of its d.Ad plane."""
    n = dh.shape[-2]
    pc = _irfft_padded(np.concatenate([dh, a]), 2 * n)
    oc = _cubic_fields(pc, np.empty((7,) + pc.shape[1:]))
    return _rfft_truncated(oc[2], n)


def frak_d_components(state1, state2, coeffs=None, partition=None):
    """The four addends of frakD plus the bare dyadic sums.

    Returns (grad_du_sq, grad_dd_sq, lp_sum_vector, lp_sum_tensor) where the
    first two are the squared lp-form norms (no nu yet) and the sums carry no
    prefactor; frakD = nu*grad_du_sq + grad_dd_sq + 2*lp_vec + lp_tensor.
    Each block pair is sampled by dyadic._block_pair_samples.  coeffs is
    not read (no addend here carries a coefficient); a given partition only
    checks the grid.
    """
    _require_shared_grid(state1, state2)
    if partition is not None:
        partition._check_grid(state1.u.x)
    d1 = _stacked(state1.d)
    da = _velocity_strain(_stacked(state1.u)) - _velocity_strain(_stacked(state2.u))
    return (_grad_sq(state1.u - state2.u, -0.5), _grad_sq(state1.d - state2.d, 0.5),
            *_lp_sums(d1, da, _outer_half(d1)))


def _lp_sums(d1, da, dd1, kept=None):
    """frakD's bare dyadic sums (lp_sum_vector, lp_sum_tensor), given the
    half spectra of the director d1 of the first state, of the difference
    da of the two strains, and dd1 of the truncated d1 d1, d1 d2, d2 d2;
    the block-pair buffers are kept in kept (see _block_pair_samples)."""
    lp_vec = 0.0
    lp_ten = 0.0
    # S_{q-1} vanishes for q <= 0, so the sums start at q = 1
    for q, (b11, b12, b22), (s1, s2, t11, t12, t22) in _block_pair_samples(
            da, np.concatenate([d1, dd1]), kept):
        v1 = b11 * s1 + b12 * s2
        v2 = b12 * s1 + b22 * s2
        lp_vec += 2.0 ** (-q) * _sample_integral(v1 * v1 + v2 * v2)
        contraction = b11 * t11 + 2.0 * b12 * t12 + b22 * t22
        lp_ten += 2.0 ** (-q) * _sample_integral(contraction * contraction)
    return lp_vec, lp_ten


# -- bound function ----------------------------------------------------------------


def _state_norms(state):
    u, d = state.u, state.d
    return {
        "u_l2": vector_l2_norm(u),
        "u_h1": vector_hs_norm_fourier(u, 1.0),
        "grad_u_l2": math.sqrt(_grad_sq(u)),
        "d_h1": vector_hs_norm_fourier(d, 1.0),
        "d_h2": vector_hs_norm_fourier(d, 2.0),
    }


def f_bound(state1, state2):
    """F_hat = f1 + f2 + f3 + g1 + g2, every hidden constant set to 1.

    A polynomial in L2/H1/H2 norms of the two states; equals 4 when both
    states vanish, and is nondecreasing in each norm.
    """
    _require_shared_grid(state1, state2)
    return _f_hat(state1, state2, _dad_half(_velocity_strain(_stacked(state2.u)),
                                            _stacked(state2.d)))


def _f_hat(state1, state2, dad2):
    """f_bound, given the half spectrum dad2 of the truncated d.(A d) of
    state2."""
    a2d2 = l2_norm(SpectralField(state2.grid, dad2))
    n1 = _state_norms(state1)
    n2 = _state_norms(state2)

    f1 = (
        (1.0 + n1["u_l2"] + n2["u_l2"]) * (n1["u_h1"] ** 2 + n2["u_h1"] ** 2)
        + (1.0 + n1["d_h1"] + n2["d_h1"]) * (n1["d_h2"] ** 2 + n2["d_h2"] ** 2)
        + n1["d_h1"] ** 6
        + n2["d_h1"] ** 6
        + a2d2 ** 2
        + 1.0
    )
    f2 = (
        1.0
        + n1["d_h1"] ** 3
        + n2["grad_u_l2"] ** 2
        + (1.0 + n1["d_h1"] ** 2) * n1["d_h2"] ** 2
    )
    f3 = (
        (1.0 + n1["u_l2"] ** 2 + n2["u_l2"] ** 2 + n1["d_h1"] ** 6)
        * (n1["d_h2"] ** 2 + n2["d_h2"] ** 2)
        + (n1["u_l2"] ** 2 + n2["u_l2"] ** 2 + n1["d_h1"] ** 2 + n2["d_h1"] ** 2)
        * (n1["grad_u_l2"] ** 2 + n2["grad_u_l2"] ** 2)
        + 1.0
    )
    g1 = (
        a2d2 ** 2 * (n1["d_h1"] ** 2 + n2["d_h1"] ** 2)
        + (n1["u_l2"] + n2["u_l2"])
        * (n1["d_h1"] ** 2 + n2["d_h1"] ** 2)
        * (n1["grad_u_l2"] + n2["grad_u_l2"])
        + (
            n1["d_h1"] ** 2
            + n2["d_h1"] ** 2
            + n1["d_h1"] ** 6
            + n2["d_h1"] ** 6
            + n1["u_l2"] ** 4
            + n2["u_l2"] ** 4
        )
        * (n1["d_h2"] ** 2 + n1["grad_u_l2"] ** 2 + n2["grad_u_l2"] ** 2)
    )
    g2 = (
        n1["d_h1"] ** 2
        + n1["d_h1"] ** 6
        + n1["u_l2"] ** 4
        + n2["u_l2"] ** 4
    ) * (n1["d_h2"] ** 2 + n1["grad_u_l2"] ** 2 + n2["grad_u_l2"] ** 2) + 1.0
    return float(f1 + f2 + f3 + g1 + g2)


def recover_pressure(state, coeffs=None):
    """Pressure field implied by the momentum balance.

    The stepper eliminates the pressure by projection; this diagnostic
    reconstructs it after the fact by solving the Poisson problem
    lap p = div(momentum right side before projection) with zero mean.
    """
    if coeffs is None:
        coeffs = LeslieCoefficients.ansatz()
    mom, _ = rhs(state, coeffs)
    return invert_laplacian(divergence(mom))


def uniqueness_record(state1, state2, coeffs=None, partition=None):
    """Full twin-state snapshot at the states' common time.  A given
    partition only checks the grid."""
    if coeffs is None:
        coeffs = LeslieCoefficients.ansatz()
    if partition is not None:
        partition._check_grid(state1.u.x)
    return _twin_record(state1, state2, coeffs)


def _twin_record(state1, state2, coeffs, kept=None, products=None):
    """uniqueness_record, keeping its block-pair buffers in kept (see
    dyadic._block_pair_samples).  products is an entry of a lockstep march's
    products list (dynamics._march): per state, the half spectra of its
    truncated d1 d1, d1 d2, d2 d2 and d.(A d), formed by the engine's
    evaluations at these states.  The record reads those of d x d of state1
    and d.(A d) of state2 and then runs no forward transform.  Without
    them it forms the two here (_outer_half, _dad_half)."""
    a2 = _velocity_strain(_stacked(state2.u))  # formed once, for frakD and F_hat
    d1 = _stacked(state1.d)
    # d.(A d) first, while little else is alive: its 2N samples and their
    # _cubic_fields (12 planes) are a standalone record's memory peak
    dad2, dd1 = ((products[1][1], products[0][0]) if products
                 else (_dad_half(a2, _stacked(state2.d)), _outer_half(d1)))
    du = state1.u - state2.u
    dd = state1.d - state2.d
    du_norm = hs_norm_vector(du, -0.5, form="lp")
    dd_norm = hs_norm_vector(dd, 0.5, form="lp")
    gdu_sq, gdd_sq = _grad_sq(du, -0.5), _grad_sq(dd, 0.5)
    lp_vec, lp_ten = _lp_sums(d1, _velocity_strain(_stacked(state1.u)) - a2,
                              dd1, kept)
    total = coeffs.nu * gdu_sq + gdd_sq + 2.0 * lp_vec + lp_ten
    return UniquenessRecord(
        t=state1.t,
        phi=0.5 * (du_norm ** 2 + dd_norm ** 2),
        frak_d=float(total),
        du_norm=du_norm,
        dd_norm=dd_norm,
        grad_du_norm=math.sqrt(gdu_sq),
        grad_dd_norm=math.sqrt(gdd_sq),
        lp_sum_vector=float(lp_vec),
        lp_sum_tensor=float(lp_ten),
        f_hat=_f_hat(state1, state2, dad2),
    )
