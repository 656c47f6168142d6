"""Spectral fields on the periodic box [-pi, pi]^2.

A field is stored by its Fourier coefficients in FFT ordering on an even
N x N integer mode grid, with the convention

    f(x) = sum_n f_n exp(i n.x),      f_n = (2 pi)^-2 int f(x) exp(-i n.x) dx.

Physical samples live on the uniform grid x_j = -pi + 2 pi j / N.  Relative to
numpy's FFT (which assumes samples starting at 0) this shifts every mode by
exp(-i pi (nx+ny)) = (-1)^(nx+ny), an exact factor in floating point, so the
round trip costs no accuracy.

On an even grid the modes with |n_i| = N/2 have no conjugate partner; they are
zeroed on construction and kept at zero by every operation here, so real
fields stay exactly Hermitian.

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
    """Cached wavenumber tables for an N x N mode grid (FFT ordering)."""
    n = n_modes
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)  # 0, 1, ..., -1
    # axis 0 = x, axis 1 = y
    nx, ny = np.meshgrid(k, k, indexing="ij")
    n2 = (nx * nx + ny * ny).astype(np.float64)
    radius = np.sqrt(n2)
    n2_safe = n2.copy()
    n2_safe[0, 0] = 1.0  # for divisions by |n|^2 whose n = 0 result is zeroed
    nyquist = (np.abs(nx) == n // 2) | (np.abs(ny) == n // 2)
    # Phase relating samples on [-pi, pi)^2 to numpy's [0, 2pi)^2 convention.
    phase = np.where((nx + ny) % 2 == 0, 1.0, -1.0)
    return {
        "nx": nx,
        "ny": ny,
        "n2": n2,
        "n2_safe": n2_safe,
        "radius": radius,
        "nyquist": nyquist,
        "phase": phase,
    }


@lru_cache(maxsize=32)
def _rfft_tables(n_modes):
    """The ny >= 0 columns 0..N/2 of the tables: the real-FFT half layout."""
    return {key: np.ascontiguousarray(value[:, : n_modes // 2 + 1])
            for key, value in _tables(n_modes).items()}


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
        return _tables(self.n_modes)

    def points(self, oversample=1):
        """Physical sample points x_j = -pi + 2 pi j / M, M = oversample * N."""
        m = self.n_modes * oversample
        x = -math.pi + TWO_PI * np.arange(m) / m
        return np.meshgrid(x, x, indexing="ij")


class SpectralField:
    """A scalar field on the box, held by its Fourier coefficients.

    Attributes
    ----------
    grid : GridSpec
    coeffs : complex ndarray, shape (N, N), FFT ordering
    real : bool
        True when the field is real-valued (coefficients Hermitian).
    """

    __slots__ = ("grid", "coeffs", "real")

    def __init__(self, grid, coeffs, real):
        self.grid = grid
        self.coeffs = coeffs
        self.real = real

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_samples(cls, grid, values):
        """Build a field from physical samples on the N x N grid of points()."""
        values = np.asarray(values)
        if values.shape != (grid.n_modes, grid.n_modes):
            raise GridError(
                f"sample array must be {grid.n_modes} x {grid.n_modes}, got {values.shape}"
            )
        t = grid.tables()
        real = not np.iscomplexobj(values)
        coeffs = np.fft.fft2(values) / values.size
        coeffs *= t["phase"]
        coeffs[t["nyquist"]] = 0.0
        return cls(grid, coeffs, real)

    @classmethod
    def from_coeffs(cls, grid, coeffs, real=None):
        """Build a field from FFT-ordered coefficients.

        Nyquist modes are zeroed.  With real=True the coefficients must be
        Hermitian (f_{-n} = conj(f_n)) to within roundoff; real=None detects.
        """
        coeffs = np.array(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.n_modes, grid.n_modes):
            raise GridError(
                f"coefficient array must be {grid.n_modes} x {grid.n_modes}, got {coeffs.shape}"
            )
        t = grid.tables()
        coeffs[t["nyquist"]] = 0.0
        flipped = _conj_flip(coeffs)
        scale = np.max(np.abs(coeffs)) or 1.0
        hermitian = np.max(np.abs(coeffs - flipped)) <= 1e-12 * scale
        if real is None:
            real = bool(hermitian)
        elif real and not hermitian:
            raise GridError("coefficients flagged real are not Hermitian")
        return cls(grid, coeffs, real)

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros((grid.n_modes, grid.n_modes), dtype=np.complex128), True)

    @classmethod
    def from_mode(cls, grid, mode, amplitude=1.0):
        """The single complex exponential amplitude * exp(i n.x)."""
        nx, ny = mode
        n = grid.n_modes
        if abs(nx) >= n // 2 or abs(ny) >= n // 2:
            raise GridError(f"mode {mode} is outside the populated band of N={n}")
        coeffs = np.zeros((n, n), dtype=np.complex128)
        coeffs[nx % n, ny % n] = amplitude
        return cls(grid, coeffs, False)

    # -- basics --------------------------------------------------------------

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy(), self.real)

    def __add__(self, other):
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs, self.real and other.real)

    def __sub__(self, other):
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs, self.real and other.real)

    def __mul__(self, scalar):
        s = complex(scalar)
        real = self.real and s.imag == 0.0
        return SpectralField(self.grid, self.coeffs * scalar, real)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs, self.real)

    @property
    def mean(self):
        """Mean value over the box (the n = 0 coefficient)."""
        v = self.coeffs[0, 0]
        return v.real if self.real else v


def _conj_flip(coeffs):
    """conj(f_{-n}) in FFT ordering."""
    return np.conj(coeffs[np.ix_(_flip_index(coeffs.shape[0]), _flip_index(coeffs.shape[1]))])


@lru_cache(maxsize=32)
def _flip_index(n):
    idx = np.zeros(n, dtype=np.intp)
    idx[0] = 0
    idx[1:] = np.arange(n - 1, 0, -1)
    return idx


def require_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridError("fields live on different grids")
    return g


# -- transforms ---------------------------------------------------------------
#
# Every transform runs on half spectra: the ny >= 0 columns 0..N/2 of a real
# field's coefficients, which fix the rest through f_{-n} = conj(f_n).  A
# complex field is carried as its real and imaginary parts.
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

    The N-grid Nyquist row and column are left at zero.
    """
    m = values.shape[-1]
    h = n // 2
    c = scipy.fft.rfft2(values, axes=(-2, -1), norm="forward")
    out = np.zeros(values.shape[:-2] + (n, h + 1), dtype=np.complex128)
    out[..., :h, :h] = c[..., :h, :h]
    out[..., h + 1:, :h] = c[..., m - h + 1:, :h]
    return out


def _symmetrize_ny0(half):
    """In place: the ny = 0 column holds both n and -n; average each pair
    so that f_{-n} = conj(f_n) holds exactly there too."""
    col = half[..., 0]
    half[..., 0] = 0.5 * (col + np.conj(col[..., _flip_index(half.shape[-2])]))


def _full_from_half(half):
    """Full FFT-ordered coefficients from half spectra; ny < 0 by symmetry."""
    n = half.shape[-2]
    h = n // 2
    full = np.zeros(half.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : h + 1] = half
    # f(-nx, -ny) = conj(f(nx, ny)); columns h+1.. hold ny = -(h-1)..-1
    full[..., h + 1:] = np.conj(full[..., _flip_index(n), 1:h][..., ::-1])
    return full


def _samples(fields, m, phase=False):
    """Samples of fields on an M x M grid from one batched inverse transform.

    With phase=True they sit at the points() of the box; without it the
    grid is shifted by (pi, pi), which pointwise products do not see.
    """
    n = fields[0].grid.n_modes
    parts = []
    for f in fields:
        c = f.coeffs
        if f.real:
            parts.append(c)
        else:
            flip = _conj_flip(c)
            parts += [0.5 * (c + flip), -0.5j * (c - flip)]
    half = np.stack([c[:, : n // 2 + 1] for c in parts])
    if phase:
        half *= _rfft_tables(n)["phase"]
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
    return SpectralField(field.grid, field.coeffs * mult, field.real)


def laplacian(field):
    t = field.grid.tables()
    return SpectralField(field.grid, -t["n2"] * field.coeffs, field.real)


def invert_laplacian(field):
    """Solve lap(u) = f for the mean-zero u; the n = 0 mode is set to zero."""
    coeffs = -field.coeffs / field.grid.tables()["n2_safe"]
    coeffs[0, 0] = 0.0
    return SpectralField(field.grid, coeffs, field.real)


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
    ndotu = (nx * vec.x.coeffs + ny * vec.y.coeffs) / t["n2_safe"]
    ndotu[0, 0] = 0.0
    real = vec.x.real and vec.y.real
    return VectorField2(
        SpectralField(vec.grid, vec.x.coeffs - nx * ndotu, real),
        SpectralField(vec.grid, vec.y.coeffs - ny * ndotu, real),
    )


def divergence_residual(vec):
    """sup_n |n . u_n|, the spectral divergence residual."""
    t = vec.grid.tables()
    return float(np.max(np.abs(t["nx"] * vec.x.coeffs + t["ny"] * vec.y.coeffs)))


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
    n = grid.n_modes
    real = all(f.real for f in fields)
    half = _rfft_truncated(acc[None] if real else np.stack([acc.real, acc.imag]), n)
    _symmetrize_ny0(half)
    full = _full_from_half(half)
    return SpectralField(grid, full[0] if real else full[0] + 1j * full[1], real)


# -- integrals and norms -------------------------------------------------------


def integral(field):
    """int f dx over the box: (2 pi)^2 times the n = 0 coefficient."""
    v = field.coeffs[0, 0] * TWO_PI ** 2
    return v.real if field.real else v


def _sample_integral(samples):
    """(2 pi)^2 times the grid mean: the torus integral of sampled values."""
    return TWO_PI ** 2 * float(np.mean(samples))


def inner(f, g):
    """L2 inner product int f conj(g) dx via Parseval."""
    require_same_grid(f, g)
    v = np.vdot(g.coeffs, f.coeffs) * TWO_PI ** 2  # vdot conjugates its first arg
    if f.real and g.real:
        return v.real
    return v


def l2_norm(field):
    """True L2 norm: (2 pi) * l2 norm of the coefficients (Parseval)."""
    return TWO_PI * float(np.linalg.norm(field.coeffs))


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
    t = field.grid.tables()
    w = (1.0 + t["radius"]) ** (2.0 * s)
    return TWO_PI * float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2)))


def vector_l2_norm(vec):
    return math.hypot(l2_norm(vec.x), l2_norm(vec.y))


def vector_hs_norm_fourier(vec, s):
    return math.hypot(hs_norm_fourier(vec.x, s), hs_norm_fourier(vec.y, s))
