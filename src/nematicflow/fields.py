"""Deterministic construction of initial data and random test fields.

Random fields are built by transforming seeded white noise and shaping the
spectrum with the radial law (1 + |n|)^(-decay), optionally band-limited.
Starting from real noise makes the fields real; they are stored as half
spectra, like every real field (see grid).  All draws go through numpy's
seeded Generator in a fixed order, so a seed pins the field bit-for-bit.

Only the random_* generators take a band.  Every random field has zero mean,
unless random_scalar is called with zero_mean=False.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (
    GridError,
    SpectralField,
    VectorField2,
    _rfft_truncated,
    l2_norm,
    leray_project,
    vector_l2_norm,
)


def _rescaled(field, amplitude, divergence_free=False):
    """A scalar or vector field, Leray-projected if asked, rescaled to L2 norm
    amplitude (a zero field is left at zero)."""
    if divergence_free:
        field = leray_project(field)
    norm = (vector_l2_norm(field) if isinstance(field, VectorField2)
            else l2_norm(field))
    return field * (amplitude / norm) if norm > 0.0 else field


def random_scalar(grid, rng, decay=2.5, band=None, amplitude=1.0, zero_mean=True):
    """Random real scalar field with an (1+|n|)^(-decay) spectral envelope.

    band, when given, zeroes every mode with |n| > band.  amplitude rescales
    the result to that L2 norm (a zero draw is left at zero).
    """
    n = grid.n_modes
    t = grid.tables()
    # the spectrum of the noise read as samples from x = 0, not from -pi
    coeffs = _rfft_truncated(rng.standard_normal((n, n)), n)
    coeffs *= (1.0 + t["radius"]) ** (-float(decay))
    if band is not None:
        coeffs[t["radius"] > band] = 0.0
    if zero_mean:
        coeffs[0, 0] = 0.0
    return _rescaled(SpectralField(grid, coeffs), amplitude)


def random_vector(grid, rng, decay=2.5, band=None, amplitude=1.0,
                  divergence_free=False):
    """Random real 2-vector field of two zero-mean random_scalar components;
    optionally Leray-projected, then rescaled."""
    v = VectorField2(
        random_scalar(grid, rng, decay, band, 1.0),
        random_scalar(grid, rng, decay, band, 1.0),
    )
    return _rescaled(v, amplitude, divergence_free)


def focused_scalar(grid, rng, decay=2.5, amplitude=1.0):
    """Random real scalar field whose dyadic blocks are phase-coherent.

    Coefficients carry the same (1+|n|)^(-decay) envelope as random_scalar,
    but the phases are aligned, up to small jitter, toward a random focus
    point, so every block concentrates in physical space like a wave packet.
    Such fields nearly saturate the Lebesgue-norm gain inequalities on
    spectrally localized pieces at every block index, which is what a
    uniform-in-q constant check has to probe; independent-phase fields
    underfill those inequalities at a q-dependent rate and would make any
    cross-q statistic measure the ensemble instead of the inequality.  The
    jitter is kept small (0.05) since rough mode-to-mode noise scatters the
    packet tails and re-inflates block L1 norms at high q.

    The field has zero mean.  amplitude rescales the L2 norm.
    """
    n = grid.n_modes
    t = grid.tables()
    focus = rng.uniform(0.0, 2.0 * math.pi, size=2)
    amp_noise = rng.standard_normal((n, n))
    phase_noise = rng.standard_normal((n, n))
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    # The noise is indexed by mode; its even and odd parts at the stored
    # modes make the ny = 0 column exactly Hermitian.
    neg = t["mirror"]
    mirror = np.ix_(neg, neg[: n // 2 + 1])
    amp_jitter = 0.5 * (amp_noise[:, : n // 2 + 1] + amp_noise[mirror])
    phase_jitter = 0.5 * (phase_noise[:, : n // 2 + 1] - phase_noise[mirror])
    envelope = (1.0 + t["radius"]) ** (-float(decay)) * np.exp(0.05 * amp_jitter)
    angle = -(t["nx"] * focus[0] + t["ny"] * focus[1]) + 0.05 * phase_jitter
    coeffs = sign * envelope * np.exp(1j * angle)
    coeffs[t["nyquist"]] = 0.0
    coeffs[0, 0] = 0.0
    return _rescaled(SpectralField(grid, coeffs), amplitude)


def focused_vector(grid, rng, decay=2.5, amplitude=1.0,
                   divergence_free=False):
    """Two-component variant of focused_scalar; optionally Leray-projected."""
    v = VectorField2(
        focused_scalar(grid, rng, decay, 1.0),
        focused_scalar(grid, rng, decay, 1.0),
    )
    return _rescaled(v, amplitude, divergence_free)


def constant_vector(grid, values):
    """The spatially constant vector field with the given two components."""
    v = VectorField2.zero(grid)
    v.x.coeffs[0, 0] = values[0]
    v.y.coeffs[0, 0] = values[1]
    return v


def generate_initial(grid, profile="random", seed=0, decay=3.0, band=None,
                     amplitude_u=0.5, amplitude_d=0.25, director=(1.0, 0.0)):
    """Initial velocity and director fields for the solver.

    Profiles:
      "rest-unit"    u = 0, d = (1, 0) everywhere.
      "rest-uniform" u = 0, d = the constant `director`.
      "random"       u = seeded divergence-free zero-mean field of L2 size
                     amplitude_u; d = `director` plus a seeded perturbation of
                     L2 size amplitude_d.  band defaults to N/4 so the data
                     are well inside the resolved band.

    The default decay exponent 3.0 keeps the initial dissipation rate within
    an order of magnitude of the initial energy, so first-order energy-law
    residuals stay proportional to the step size with a modest constant.

    Returns (u, d) as vector fields.  Deterministic per seed.
    """
    if profile == "rest-unit":
        return VectorField2.zero(grid), constant_vector(grid, (1.0, 0.0))
    if profile == "rest-uniform":
        return VectorField2.zero(grid), constant_vector(grid, director)
    if profile == "random":
        if band is None:
            band = grid.n_modes / 4.0
        rng = np.random.default_rng(seed)
        u = random_vector(grid, rng, decay, band, amplitude_u,
                          divergence_free=True)
        pert = random_vector(grid, rng, decay, band, amplitude_d)
        d = constant_vector(grid, director) + pert
        return u, d
    raise GridError(f"unknown initial profile {profile!r}")


def perturb(u, d, seed, delta, decay=2.5, band=None):
    """Perturbed copies of (u, d): adds delta-sized seeded fields.

    The velocity perturbation is divergence-free and zero-mean so the
    perturbed state satisfies the same constraints.  The same seed with two
    different delta values gives perturbations that are exact scalar multiples
    of each other.
    """
    grid = u.grid
    if band is None:
        band = grid.n_modes / 4.0
    rng = np.random.default_rng(seed)
    du = random_vector(grid, rng, decay, band, 1.0, divergence_free=True)
    dd = random_vector(grid, rng, decay, band, 1.0)
    return u + du * float(delta), d + dd * float(delta)
