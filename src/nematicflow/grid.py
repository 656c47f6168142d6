"""Spectral fields on the periodic box [-pi, pi]^2.

A field is held by its Fourier coefficients on an even N x N integer mode
grid, with the convention

    f(x) = sum_n f_n exp(i n.x),      f_n = (2 pi)^-2 int f(x) exp(-i n.x) dx.

Fields of the model are real, so f_{-n} = conj(f_n) and only the half
spectrum is stored: columns ny = 0..N/2, rows nx in FFT order, the real-FFT
layout of shape (N, N/2 + 1); only its ny = 0 column holds both n and -n.
A complex field (from_mode makes one) is the pair of half spectra of its
real and imaginary parts.  Full N x N arrays appear only at the boundaries:
from_coeffs and from_samples read them, the snapshot writer writes them.

Physical samples live on the uniform grid x_j = -pi + 2 pi j / N.  Relative to
numpy's FFT (which assumes samples starting at 0) this shifts every mode by
exp(-i pi (nx+ny)) = (-1)^(nx+ny), an exact factor in floating point, so the
round trip costs no accuracy.

On an even grid the modes with |n_i| = N/2 have no conjugate partner; they are
zeroed on construction and kept at zero by every operation here.

Products of fields are computed pointwise on a padded physical grid and
truncated back to the mode grid.  With the default padding factor 2, the
product of two resolved fields is the exact L2 projection of the true product
onto the resolved modes, and a single-shot product of three resolved fields is
exact as well (alias images of degree-3 products land outside the retained
band).  Degree four and higher single-shot products are not exact and callers
are expected to stage them pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

TWO_PI = 2.0 * math.pi
_ALLOWED_PADDING = (1.0, 1.5, 2.0)


class GridError(ValueError):
    """Raised for invalid grid parameters or mismatched-grid operands."""


@lru_cache(maxsize=32)
def _tables(n_modes):
    """Cached read-only wavenumber tables of the half layout: axis 0 holds
    nx in FFT order, axis 1 holds ny = 0..N/2."""
    n = n_modes
    kx = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)  # 0, 1, ..., -1
    nx, ny = np.meshgrid(kx, np.arange(n // 2 + 1), indexing="ij")
    n2 = (nx * nx + ny * ny).astype(np.float64)
    n2_safe = n2.copy()
    n2_safe[0, 0] = 1.0  # for divisions by |n|^2 whose n = 0 result is zeroed
    tables = {
        "nx": nx,
        "ny": ny,
        "n2": n2,
        "n2_safe": n2_safe,
        "radius": np.sqrt(n2),
        "nyquist": (np.abs(nx) == n // 2) | (ny == n // 2),
        # Phase relating samples on [-pi, pi)^2 to numpy's [0, 2pi)^2 convention.
        "phase": np.where((nx + ny) % 2 == 0, 1.0, -1.0),
        # Parseval multiplicity: a column ny > 0 also stands for its mirror -n.
        "weight": np.where(ny == 0, 1.0, 2.0),
    }
    for value in tables.values():
        value.setflags(write=False)
    return tables


@lru_cache(maxsize=64)
def _hs_weight(n_modes, s):
    """(1 + |n|)^{2s} times the Parseval multiplicity, read-only."""
    t = _tables(n_modes)
    w = (1.0 + t["radius"]) ** (2.0 * s) * t["weight"]
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class GridSpec:
    """Mode grid for the periodic box: N modes per axis plus a padding rule.

    Parameters
    ----------
    n_modes : int
        Modes per axis.  Must be even and at least 8.
    padding_factor : float
        Oversampling used for pointwise products: 1 (no dealiasing),
        1.5, or 2 (default; exact pairwise products).
    """

    n_modes: int
    padding_factor: float = 2.0

    def __post_init__(self):
        if self.n_modes < 8 or self.n_modes % 2 != 0:
            raise GridError(f"n_modes must be even and >= 8, got {self.n_modes}")
        if self.padding_factor not in _ALLOWED_PADDING:
            raise GridError(
                f"padding_factor must be one of {_ALLOWED_PADDING}, got {self.padding_factor}"
            )
        if int(round(self.n_modes * self.padding_factor)) % 2 != 0:
            raise GridError("padded grid size must be even")

    @property
    def padded_size(self):
        return int(round(self.n_modes * self.padding_factor))

    @property
    def max_radius(self):
        """Largest |n| over populated modes (Nyquist lines are always empty)."""
        half = self.n_modes // 2 - 1
        return math.sqrt(2.0) * half

    def tables(self):
        """Read-only wavenumber tables of the half layout."""
        return _tables(self.n_modes)

    def points(self, oversample=1):
        """Physical sample points x_j = -pi + 2 pi j / M, M = oversample * N."""
        m = self.n_modes * oversample
        x = -math.pi + TWO_PI * np.arange(m) / m
        return np.meshgrid(x, x, indexing="ij")


class SpectralField:
    """A scalar field on the box, held by its half spectrum.

    Attributes
    ----------
    grid : GridSpec
    coeffs : complex ndarray
        Shape (N, N/2 + 1) for a real field: the coefficients f_n with
        ny = 0..N/2, rows nx in FFT order.  Shape (2, N, N/2 + 1) for a
        complex field: the half spectra of its real and imaginary parts.
    real : bool
        True when the field is real-valued.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        self.grid = grid
        self.coeffs = coeffs

    @property
    def real(self):
        return self.coeffs.ndim == 2

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_samples(cls, grid, values):
        """Build a field from physical samples on the N x N grid of points()."""
        values = np.asarray(values)
        n = grid.n_modes
        if values.shape != (n, n):
            raise GridError(
                f"sample array must be {n} x {n}, got {values.shape}"
            )
        t = grid.tables()
        if np.iscomplexobj(values):
            values = np.stack([values.real, values.imag])
        coeffs = np.fft.fft2(values)[..., : n // 2 + 1] / (n * n)
        coeffs *= t["phase"]
        coeffs[..., t["nyquist"]] = 0.0
        return cls(grid, coeffs)

    @classmethod
    def from_coeffs(cls, grid, coeffs, real=None):
        """Build a field from a full N x N array of FFT-ordered coefficients.

        Nyquist modes are zeroed.  With real=True the coefficients must be
        Hermitian (f_{-n} = conj(f_n)) to within roundoff; real=None detects.
        A real field keeps the given ny >= 0 half; a complex one stores the
        half spectra of its real and imaginary parts.
        """
        n = grid.n_modes
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (n, n):
            raise GridError(
                f"coefficient array must be {n} x {n}, got {c.shape}"
            )
        c[n // 2, :] = 0.0
        c[:, n // 2] = 0.0
        neg = -np.arange(n) % n
        flipped = np.conj(c[np.ix_(neg, neg)])  # conj(f_{-n})
        scale = np.max(np.abs(c)) or 1.0
        hermitian = np.max(np.abs(c - flipped)) <= 1e-12 * scale
        if real is None:
            real = bool(hermitian)
        elif real and not hermitian:
            raise GridError("coefficients flagged real are not Hermitian")
        if not real:
            c = np.stack([0.5 * (c + flipped), -0.5j * (c - flipped)])
        return cls(grid, np.ascontiguousarray(c[..., : n // 2 + 1]))

    @classmethod
    def zero(cls, grid):
        n = grid.n_modes
        return cls(grid, np.zeros((n, n // 2 + 1), dtype=np.complex128))

    @classmethod
    def from_mode(cls, grid, mode, amplitude=1.0):
        """The single complex exponential amplitude * exp(i n.x)."""
        nx, ny = mode
        n = grid.n_modes
        if abs(nx) >= n // 2 or abs(ny) >= n // 2:
            raise GridError(f"mode {mode} is outside the populated band of N={n}")
        coeffs = np.zeros((2, n, n // 2 + 1), dtype=np.complex128)
        # the real and imaginary parts hold (a/2, -i a/2) at n and the
        # conjugates at -n; the entries with ny >= 0 are the stored ones
        at_n = amplitude * np.array([0.5, -0.5j])
        for kx, ky, parts in ((nx, ny, at_n), (-nx, -ny, np.conj(at_n))):
            if ky >= 0:
                coeffs[:, kx % n, ky] += parts
        return cls(grid, coeffs)

    # -- basics --------------------------------------------------------------

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other):
        a, b = _operands(self, other)
        return SpectralField(self.grid, a + b)

    def __sub__(self, other):
        a, b = _operands(self, other)
        return SpectralField(self.grid, a - b)

    def __mul__(self, scalar):
        s = complex(scalar)
        if s.imag == 0.0:
            return SpectralField(self.grid, self.coeffs * scalar)
        re, im = _pair(self)
        return SpectralField(self.grid, np.stack([s.real * re - s.imag * im,
                                                  s.imag * re + s.real * im]))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)

    @property
    def mean(self):
        """Mean value over the box (the n = 0 coefficient)."""
        v = self.coeffs[..., 0, 0].real
        return float(v) if self.real else complex(*v)


def _pair(field):
    """Half spectra of a field's real and imaginary parts, stacked."""
    c = field.coeffs
    return c if c.ndim == 3 else np.stack([c, np.zeros_like(c)])


def _operands(f, g):
    """Coefficients of two fields on one grid, both real or both as pairs."""
    require_same_grid(f, g)
    if f.real == g.real:
        return f.coeffs, g.coeffs
    return _pair(f), _pair(g)


def require_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridError("fields live on different grids")
    return g


# -- transforms ---------------------------------------------------------------
#
# Every transform runs on half spectra; a complex field is carried as its
# real and imaginary parts.
#
# The padded inverse is pruned.  Of the M x M half spectrum only the columns
# ny = 0..N/2-1 can be nonzero, so the pad holds just those N/2 columns.
# numpy.fft.irfft2 runs its axis -2 pass on the columns it is given and
# zero-extends them to M/2 + 1 inside the last-axis irfft, so the empty
# columns are never transformed.  scipy.fft.irfft2 would zero-extend first
# and transform them all, so the inverse stays on numpy.  The forward goes
# through scipy.fft.rfft2, which is faster than numpy.fft.rfft2 on batches
# of real arrays with one worker; its output is then cut to the N grid.  Both
# use norm="forward" (1/M^2 on the forward side): for a power-of-two M this
# gives the same bits as scaling after an unnormalized transform.  The FFT
# functions are looked up on their modules at call time, and only their 2-D
# entry points are used.
#
# Pad buffers are kept per shape (at most 16) and only their two data bands
# are rewritten on each call, so the rest stays zero.  A buffer never leaves
# _irfft_padded, whose results are fresh arrays.


@lru_cache(maxsize=16)
def _pad_buffer(shape):
    """A zero complex array of this shape, shared by every call that pads to it."""
    return np.zeros(shape, dtype=np.complex128)


def _irfft_padded(half, m, shared_pad=True):
    """Samples on the M x M grid of N-grid half spectra, zero-padded.

    half has shape (..., N, N/2 + 1); leading axes form one batched
    transform.  The samples start at 0, not at -pi (see _samples).
    shared_pad=False pads into a fresh array, for shapes used too rarely
    for a kept buffer to pay for its memory.
    """
    h = half.shape[-2] // 2
    shape = half.shape[:-2] + (m, h)
    pad = _pad_buffer(shape) if shared_pad else np.zeros(shape, np.complex128)
    pad[..., :h, :] = half[..., :h, :h]
    pad[..., m - h + 1:, :] = half[..., h + 1:, :h]
    return np.fft.irfft2(pad, s=(m, m), axes=(-2, -1), norm="forward")


def _rfft_truncated(values, n):
    """N-grid half spectra of real M x M samples (any leading axes).

    The N-grid Nyquist row and column are left at zero.  The ny = 0 column
    holds both n and -n, which the transform computes separately; each pair
    is averaged so that f_{-n} = conj(f_n) holds exactly there too.
    """
    m = values.shape[-1]
    h = n // 2
    c = scipy.fft.rfft2(values, axes=(-2, -1), norm="forward")
    out = np.zeros(values.shape[:-2] + (n, h + 1), dtype=np.complex128)
    out[..., :h, :h] = c[..., :h, :h]
    out[..., h + 1:, :h] = c[..., m - h + 1:, :h]
    col = out[..., 0]
    out[..., 0] = 0.5 * (col + np.conj(col[..., -np.arange(n) % n]))
    return out


def _samples(fields, m, phase=False):
    """Samples of fields on an M x M grid from one batched inverse transform.

    With phase=True they sit at the points() of the box; without it the
    grid is shifted by (pi, pi), which pointwise products do not see.
    """
    n = fields[0].grid.n_modes
    half = np.concatenate([f.coeffs.reshape(-1, n, n // 2 + 1) for f in fields])
    if phase:
        half *= _tables(n)["phase"]
    values = iter(_irfft_padded(half, m))
    return [next(values) if f.real else next(values) + 1j * next(values)
            for f in fields]


def to_physical(field, oversample=1):
    """Physical samples of a field on the (oversample * N)^2 grid of points().

    Returns a real array for real-valued fields, complex otherwise.
    """
    return _samples([field], field.grid.n_modes * oversample, phase=True)[0]


# -- calculus -----------------------------------------------------------------


def derivative(field, axis):
    """Partial derivative along axis 0 (x) or 1 (y): multiplier i n_axis."""
    if axis not in (0, 1):
        raise GridError(f"axis must be 0 or 1, got {axis}")
    t = field.grid.tables()
    mult = 1j * (t["nx"] if axis == 0 else t["ny"])
    return SpectralField(field.grid, field.coeffs * mult)


def laplacian(field):
    t = field.grid.tables()
    return SpectralField(field.grid, -t["n2"] * field.coeffs)


def invert_laplacian(field):
    """Solve lap(u) = f for the mean-zero u; the n = 0 mode is set to zero."""
    coeffs = -field.coeffs / field.grid.tables()["n2_safe"]
    coeffs[..., 0, 0] = 0.0
    return SpectralField(field.grid, coeffs)


class VectorField2:
    """A 2-component field; components share one grid."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        require_same_grid(x, y)
        self.x = x
        self.y = y

    @property
    def grid(self):
        return self.x.grid

    @property
    def components(self):
        return (self.x, self.y)

    @classmethod
    def zero(cls, grid):
        return cls(SpectralField.zero(grid), SpectralField.zero(grid))

    def __add__(self, other):
        return VectorField2(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return VectorField2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar):
        return VectorField2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def copy(self):
        return VectorField2(self.x.copy(), self.y.copy())


class TensorField22:
    """A 2x2 tensor field; entry [i][j] follows T_ij."""

    __slots__ = ("xx", "xy", "yx", "yy")

    def __init__(self, xx, xy, yx, yy):
        require_same_grid(xx, xy, yx, yy)
        self.xx = xx
        self.xy = xy
        self.yx = yx
        self.yy = yy

    @property
    def grid(self):
        return self.xx.grid

    @property
    def entries(self):
        return ((self.xx, self.xy), (self.yx, self.yy))

    def __add__(self, other):
        return TensorField22(self.xx + other.xx, self.xy + other.xy,
                             self.yx + other.yx, self.yy + other.yy)

    def __sub__(self, other):
        return TensorField22(self.xx - other.xx, self.xy - other.xy,
                             self.yx - other.yx, self.yy - other.yy)

    def __mul__(self, scalar):
        return TensorField22(self.xx * scalar, self.xy * scalar,
                             self.yx * scalar, self.yy * scalar)

    __rmul__ = __mul__

    def transpose(self):
        return TensorField22(self.xx, self.yx, self.xy, self.yy)


def gradient(field):
    """Gradient of a scalar as a vector field (d/dx f, d/dy f)."""
    return VectorField2(derivative(field, 0), derivative(field, 1))


def jacobian(vec):
    """Velocity-gradient tensor with the convention (grad v)_ij = d_j v_i."""
    return TensorField22(
        derivative(vec.x, 0), derivative(vec.x, 1),
        derivative(vec.y, 0), derivative(vec.y, 1),
    )


def divergence(vec):
    return derivative(vec.x, 0) + derivative(vec.y, 1)


def tensor_divergence(tensor):
    """(div T)_i = sum_j d_j T_ij."""
    return VectorField2(
        derivative(tensor.xx, 0) + derivative(tensor.xy, 1),
        derivative(tensor.yx, 0) + derivative(tensor.yy, 1),
    )


def leray_project(vec):
    """Remove the gradient part: (P u)_n = u_n - n (n.u_n)/|n|^2.

    The n = 0 mode (the mean) is untouched; constants are divergence-free.
    Idempotent, annihilates gradients, keeps real fields real.
    """
    t = vec.grid.tables()
    nx, ny = t["nx"], t["ny"]
    ux, uy = _operands(vec.x, vec.y)
    ndotu = (nx * ux + ny * uy) / t["n2_safe"]
    ndotu[..., 0, 0] = 0.0
    return VectorField2(
        SpectralField(vec.grid, ux - nx * ndotu),
        SpectralField(vec.grid, uy - ny * ndotu),
    )


def divergence_residual(vec):
    """sup_n |n . u_n| over the stored modes, the spectral divergence residual."""
    t = vec.grid.tables()
    ux, uy = _operands(vec.x, vec.y)
    return float(np.max(np.abs(t["nx"] * ux + t["ny"] * uy)))


# -- products -----------------------------------------------------------------


def product(*fields):
    """Pointwise product of fields, truncated once to the mode grid.

    Exact (equal to the L2 projection of the true product) for two factors at
    padding >= 1.5 and for three factors at padding 2.  More factors alias;
    stage them pairwise instead.  Real products are exactly Hermitian.
    """
    grid = require_same_grid(*fields)
    values = _samples(fields, grid.padded_size)
    acc = values[0]
    for v in values[1:]:
        acc = acc * v
    if np.iscomplexobj(acc):
        acc = np.stack([acc.real, acc.imag])
    return SpectralField(grid, _rfft_truncated(acc, grid.n_modes))


# -- integrals and norms -------------------------------------------------------


def _weighted_power(weight, *coeffs):
    """sum_n weight(n) |c_n|^2 over half spectra, leading axes included: the
    sum over all modes when weight counts each ny > 0 column twice (the
    table "weight" and the weights built on it), for a complex field too."""
    return float(sum(np.sum(weight * (c.real * c.real + c.imag * c.imag))
                     for c in coeffs))


def integral(field):
    """int f dx over the box: (2 pi)^2 times the n = 0 coefficient."""
    return field.mean * TWO_PI ** 2


def _sample_integral(samples):
    """(2 pi)^2 times the grid mean: the torus integral of sampled values."""
    return TWO_PI ** 2 * float(np.mean(samples))


def inner(f, g):
    """L2 inner product int f conj(g) dx via Parseval."""
    require_same_grid(f, g)
    w = f.grid.tables()["weight"]

    def dot(a, b):  # int a b dx for real fields a, b
        return TWO_PI ** 2 * float(np.sum(w * (a.real * b.real + a.imag * b.imag)))

    if f.real and g.real:
        return dot(f.coeffs, g.coeffs)
    (a, b), (c, d) = _pair(f), _pair(g)
    return complex(dot(a, c) + dot(b, d), dot(b, c) - dot(a, d))


def l2_norm(field):
    """True L2 norm: (2 pi) * l2 norm of the coefficients (Parseval)."""
    return TWO_PI * math.sqrt(_weighted_power(field.grid.tables()["weight"],
                                              field.coeffs))


def lp_norm(field, p, oversample=None):
    """L^p norm by equal-weight quadrature on an oversampled physical grid.

    p = inf gives the max of |f| over the oversampled grid.  The default
    oversampling is the grid's padding factor (minimum 2): exact for p = 2
    and p = 4 on band-limited fields, a controlled approximation otherwise.
    """
    grid = field.grid
    if oversample is None:
        oversample = max(2, int(math.ceil(grid.padding_factor)))
    values = np.abs(to_physical(field, oversample=oversample))
    if p == np.inf or p == "inf":
        return float(np.max(values))
    if p <= 0:
        raise GridError(f"p must be positive or inf, got {p}")
    return float(np.mean(values ** p) ** (1.0 / p) * TWO_PI ** (2.0 / p))


def hs_norm_fourier(field, s):
    """Sobolev H^s norm, weight form: (2 pi) (sum_n (1+|n|)^{2s} |f_n|^2)^{1/2}.

    The prefactor (2 pi) = (2 pi)^{d/2} at d = 2 makes s = 0 the true L2 norm.
    """
    w = _hs_weight(field.grid.n_modes, s)
    return TWO_PI * math.sqrt(_weighted_power(w, field.coeffs))


def vector_l2_norm(vec):
    return math.hypot(l2_norm(vec.x), l2_norm(vec.y))


def vector_hs_norm_fourier(vec, s):
    return math.hypot(hs_norm_fourier(vec.x, s), hs_norm_fourier(vec.y, s))
