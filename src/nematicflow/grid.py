"""Real fields on the periodic box [-pi, pi]^2.

A field is held by its Fourier coefficients on an even N x N integer mode
grid, with the convention

    f(x) = sum_n f_n exp(i n.x),      f_n = (2 pi)^-2 int f(x) exp(-i n.x) dx.

Every field of the model is real, so f_{-n} = conj(f_n) and only the half
spectrum is stored: columns ny = 0..N/2, rows nx in FFT order, the real-FFT
layout of shape (N, N/2 + 1); only its ny = 0 column holds both n and -n.
Full N x N arrays appear only at the boundaries: from_coeffs reads one and
checks that it is Hermitian, the snapshot writer writes them.

Physical samples live on the uniform grid x_j = -pi + 2 pi j / N.  Relative to
numpy's FFT (which assumes samples starting at 0) this shifts every mode by
exp(-i pi (nx+ny)) = (-1)^(nx+ny), an exact factor in floating point, so the
round trip costs no accuracy.

On an even grid the modes with |n_i| = N/2 have no conjugate partner; they are
zeroed on construction and kept at zero by every operation here.

Products of fields are computed pointwise on a padded M x M grid and
truncated back to the mode grid.  A product of k resolved fields (modes
|n_i| <= N/2 - 1) reaches |n_i| <= k(N/2 - 1); sampled on M points its
alias images shift by multiples of M, and they miss the retained band
exactly when M >= k(N/2 - 1) + N/2.  Then the truncated product is the exact
L2 projection of the true product onto the resolved modes.  That is
M >= 3N/2 - 2 for two factors (the 3/2 rule) and M >= 2N - 3 for three.
product and padded_size stay at 2N, where pairwise and single-shot triple
products are exact; the stepping engine picks its own grid per stage (2N for
its cubic terms, 3N/2 for its pairwise ones).  Degree four and higher
single-shot products are not exact on 2N, so product refuses them: stage
them pairwise.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


class GridError(ValueError):
    """Raised for invalid grid parameters or mismatched-grid operands."""


def _integer(value, name, error=GridError):
    """value as an int through operator.index, which takes np.int64 and
    refuses 16.0; an error naming name where it refuses."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


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
        # FFT-order index of -k for k = 0..N-1, along either axis.
        "mirror": -np.arange(n) % n,
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
    if not math.isfinite(s):
        raise GridError(f"s must be finite, got {s}")
    t = _tables(n_modes)
    w = (1.0 + t["radius"]) ** (2.0 * s) * t["weight"]
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class GridSpec:
    """Mode grid for the periodic box: N modes per axis.

    Parameters
    ----------
    n_modes : int
        Modes per axis.  Must be even and at least 8.  A product of k
        factors is exact on an M grid when M >= k(N/2 - 1) + N/2 (see the
        module docstring); product samples on the padded_size = 2N grid,
        where two and three factors are exact.  The stepping engine picks
        its own per-stage grids.
    """

    n_modes: int

    def __post_init__(self):
        if _integer(self.n_modes, "n_modes") < 8 or self.n_modes % 2 != 0:
            raise GridError(f"n_modes must be even and >= 8, got {self.n_modes}")

    @property
    def padded_size(self):
        return 2 * self.n_modes

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
        m = _oversampled(self.n_modes, oversample)
        x = -math.pi + TWO_PI * np.arange(m) / m
        return np.meshgrid(x, x, indexing="ij")


class SpectralField:
    """A real scalar field on the box, held by its half spectrum.

    Attributes
    ----------
    grid : GridSpec
    coeffs : complex ndarray
        Shape (N, N/2 + 1): the coefficients f_n with ny = 0..N/2, rows nx
        in FFT order.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        self.grid = grid
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_samples(cls, grid, values):
        """Build a field from real physical samples on the N x N grid of
        points(), through the one forward, _rfft_truncated."""
        values = np.asarray(values)
        n = grid.n_modes
        if values.shape != (n, n):
            raise GridError(
                f"sample array must be {n} x {n}, got {values.shape}"
            )
        if np.iscomplexobj(values):
            raise GridError("samples must be real")
        return cls(grid, _rfft_truncated(values, n) * _tables(n)["phase"])

    @classmethod
    def from_coeffs(cls, grid, coeffs):
        """Build a field from a full N x N array of FFT-ordered coefficients.

        Nyquist modes are zeroed.  The other coefficients must be finite
        and Hermitian (f_{-n} = conj(f_n)) to within roundoff, or GridError
        names which of the two fails; the field keeps their ny >= 0 half.
        """
        n = grid.n_modes
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (n, n):
            raise GridError(
                f"coefficient array must be {n} x {n}, got {c.shape}"
            )
        c[n // 2, :] = 0.0
        c[:, n // 2] = 0.0
        if not np.all(np.isfinite(c)):
            raise GridError("coefficients are non-finite (NaN or infinite)")
        neg = _tables(n)["mirror"]
        scale = np.max(np.abs(c)) or 1.0
        if not np.max(np.abs(c - np.conj(c[np.ix_(neg, neg)]))) <= 1e-12 * scale:
            raise GridError("coefficients are not Hermitian (not a real field)")
        return cls(grid, np.ascontiguousarray(c[:, : n // 2 + 1]))

    @classmethod
    def zero(cls, grid):
        n = grid.n_modes
        return cls(grid, np.zeros((n, n // 2 + 1), dtype=np.complex128))

    # -- basics --------------------------------------------------------------

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other):
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    @property
    def mean(self):
        """Mean value over the box (the n = 0 coefficient)."""
        return float(self.coeffs[0, 0].real)


def require_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridError("fields live on different grids")
    return g


# -- transforms ---------------------------------------------------------------
#
# Every transform runs on half spectra.
#
# The padded inverse is pruned.  Of the M x M half spectrum only the columns
# ny = 0..h-1 (h = N/2, or a block's band) can be nonzero, and only they get
# the axis -2 numpy.fft.ifft, run in place (out=) on a column view of a
# full-width (..., M, M/2 + 1) spectrum whose other columns are zeroed.  The
# last-axis numpy.fft.irfft then runs on the full width: given narrow rows,
# numpy would zero-extend each of them in a fresh intermediate, on a slower
# path, for the same bits.  The columns are filled by two basic-slice
# copies, or products with a multiplier, so a block Delta_q f is sampled
# without being formed.  Neither direction reads the spectrum it is handed
# before writing it, so a kept one serves an inverse and the forward after.
#
# The forward is pruned the same way, in two 1-D passes: a last-axis
# numpy.fft.rfft, then a numpy.fft.fft along axis -2 of only the N/2
# columns ny = 0..N/2-1 that the cut keeps, written back into those columns
# of the rfft's output (out=), so the pass allocates no spectrum of its
# own.  The other M/2 + 1 - N/2 columns are never transformed along axis -2.
# The kept rows are then cut into an N-grid half spectrum.  A caller that
# keeps the rfft's output, or the cut's, passes it in; neither is read
# before it is written, so the cut may go into a spent input batch.  Both
# directions use norm="forward" (1/M^2 on the forward side, 1/M per pass
# here): for a power-of-two M this gives the same bits as one 2-D transform
# that scales once.  The FFT functions are looked up on numpy.fft at call
# time.


def _irfft_padded(half, m, out=None, mult=None, band=None):
    """Samples on the M x M grid of N-grid half spectra, zero-padded.

    half has shape (..., N, N/2 + 1); leading axes form one batched
    transform.  The samples start at 0, not at -pi: the grid is shifted by
    (pi, pi), which pointwise products do not see (to_physical phases the
    half spectrum onto points() first).

    Without out, each call pads into a fresh buffer.  out = (wide,
    samples) gives kept arrays of shapes (..., M, M/2 + 1) complex and
    (..., M, M) real: the padded spectrum is written into wide, whose
    content on entry is never read, and the samples into samples, which is
    returned.  The bits are the same.  band, h = N/2 unless the block
    sampler passes its own, takes the rows 0..h-1 and N-h+1..N-1 of half
    at columns 0..h-1: at h < N/2, the 2h-grid half spectrum (the rest of
    half is dropped).

    mult, a real multiplier of half's layout, multiplies half on its way
    into the buffer: the bits of half * mult, without forming the product
    or its cut.  Leading axes of mult broadcast against half's into a given
    buffer's.
    """
    n = half.shape[-2]
    h = n // 2 if band is None else band
    if out is None:
        out = (np.empty(half.shape[:-2] + (m, m // 2 + 1), dtype=np.complex128),
               None)
    wide, samples = out
    cols = wide[..., :h]
    for src, dst in ((np.s_[..., :h, :h], cols[..., :h, :]),
                     (np.s_[..., n - h + 1:, :h], cols[..., m - h + 1:, :])):
        if mult is None:
            dst[...] = half[src]
        else:
            np.multiply(half[src], mult[src], out=dst)
    cols[..., h:m - h + 1, :] = 0.0
    wide[..., h:] = 0.0
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(wide, n=m, axis=-1, norm="forward", out=samples)


def _shared(*shapes, dtype=np.float64):
    """Arrays of the given shapes over one buffer, for arrays that never
    live at the same time: of dtype, or of d for a shape given as (shape, d)."""
    specs = [s if isinstance(s[0], tuple) else (s, dtype) for s in shapes]
    sizes = [math.prod(s) * np.dtype(d).itemsize for s, d in specs]
    buf = np.empty(max(sizes), dtype=np.uint8)
    return [buf[:k].view(d).reshape(s) for (s, d), k in zip(specs, sizes)]


def _rfft_truncated(values, n, spectrum=None, out=None):
    """N-grid half spectra of real M x M samples (any leading axes).

    Two 1-D passes: a last-axis rfft, then an axis -2 fft of the N/2
    columns that are kept, written back into them (see the comment above).
    The N-grid Nyquist row and column are set to zero.  The ny = 0 column
    holds both n and -n, which the transform computes separately; each pair
    is averaged so that f_{-n} = conj(f_n) holds exactly there too.
    spectrum, a kept complex (..., M, M/2 + 1) array, receives the
    last-axis spectrum, and out, a kept complex (..., N, N/2 + 1) array,
    the result, which is returned (fresh arrays without).  The content of
    neither is read on entry, and the bits are the same.
    """
    m = values.shape[-1]
    h = n // 2
    c = np.fft.rfft(values, axis=-1, norm="forward", out=spectrum)
    np.fft.fft(c[..., :h], axis=-2, norm="forward", out=c[..., :h])
    if out is None:
        out = np.empty(values.shape[:-2] + (n, h + 1), dtype=np.complex128)
    out[..., :h, :h] = c[..., :h, :h]
    out[..., h + 1:, :h] = c[..., m - h + 1:, :h]
    out[..., h, :] = 0.0
    out[..., h] = 0.0
    col = out[..., 0]
    out[..., 0] = 0.5 * (col + np.conj(col[..., _tables(n)["mirror"]]))
    return out


def to_physical(field, oversample=1):
    """Real samples of a field on the (oversample * N)^2 grid of points()."""
    n = field.grid.n_modes
    return _irfft_padded(field.coeffs * _tables(n)["phase"],
                         _oversampled(n, oversample))


def _oversampled(n, oversample):
    """M = oversample * N, for an integer oversample >= 1."""
    if _integer(oversample, "oversample") < 1:
        raise GridError(f"oversample must be >= 1, got {oversample}")
    return n * oversample


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
    coeffs[0, 0] = 0.0
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
    ux, uy = vec.x.coeffs, vec.y.coeffs
    ndotu = (nx * ux + ny * uy) / t["n2_safe"]
    ndotu[0, 0] = 0.0
    return VectorField2(
        SpectralField(vec.grid, ux - nx * ndotu),
        SpectralField(vec.grid, uy - ny * ndotu),
    )


def divergence_residual(vec):
    """sup_n |n . u_n| over the stored modes, the spectral divergence residual."""
    t = vec.grid.tables()
    return float(np.max(np.abs(t["nx"] * vec.x.coeffs + t["ny"] * vec.y.coeffs)))


# -- products -----------------------------------------------------------------


def product(*fields):
    """Pointwise product of fields on the 2N grid, truncated once to the mode grid.

    Exact (equal to the L2 projection of the true product) for two and for
    three factors.  More factors would alias and raise GridError; stage them
    pairwise instead.  The product is exactly Hermitian.
    """
    if len(fields) > 3:
        raise GridError(f"product takes at most 3 factors, got {len(fields)}")
    grid = require_same_grid(*fields)
    values = _irfft_padded(np.stack([f.coeffs for f in fields]),
                           grid.padded_size)
    acc = values[0]
    for v in values[1:]:
        acc = acc * v
    return SpectralField(grid, _rfft_truncated(acc, grid.n_modes))


# -- integrals and norms -------------------------------------------------------


def _weighted_power(weight, *coeffs):
    """sum_n weight(n) |c_n|^2 over half spectra, leading axes included: the
    sum over all modes when weight counts each ny > 0 column twice (the
    table "weight" and the weights built on it)."""
    return float(sum(np.sum(weight * (c.real * c.real + c.imag * c.imag))
                     for c in coeffs))


def integral(field):
    """int f dx over the box: (2 pi)^2 times the n = 0 coefficient."""
    return field.mean * TWO_PI ** 2


def _sample_integral(samples):
    """(2 pi)^2 times the grid mean: the torus integral of sampled values."""
    return TWO_PI ** 2 * float(np.mean(samples))


def inner(f, g):
    """L2 inner product int f g dx via Parseval."""
    require_same_grid(f, g)
    a, b = f.coeffs, g.coeffs
    w = f.grid.tables()["weight"]
    return TWO_PI ** 2 * float(np.sum(w * (a.real * b.real + a.imag * b.imag)))


def l2_norm(field):
    """True L2 norm: (2 pi) * l2 norm of the coefficients (Parseval)."""
    return TWO_PI * math.sqrt(_weighted_power(field.grid.tables()["weight"],
                                              field.coeffs))


def _lp_norms(samples, p, out=None):
    """L^p norms over the last two axes of samples taken on a uniform grid of
    the box, leading axes kept: the max of |f| for p = np.inf, otherwise
    equal-weight quadrature for a positive real p.  |f|^p is formed in one
    array: out, of the samples' shape (a fresh one without)."""
    values = np.abs(samples, out=out)
    if p == np.inf:
        return np.max(values, axis=(-2, -1))
    if not (isinstance(p, numbers.Real) and p > 0):
        raise GridError(f"p must be positive or inf, got {p}")
    values **= p
    return np.mean(values, axis=(-2, -1)) ** (1.0 / p) * TWO_PI ** (2.0 / p)


def lp_norm(field, p):
    """L^p norm of one field from its samples on the 2N grid (see _lp_norms).

    The quadrature is exact for p = 2 and p = 4 on band-limited fields, a
    controlled approximation otherwise; p = np.inf gives the max of |f| over
    the 2N grid.  Callers that need many norms sample their fields once,
    batched, and call _lp_norms on the samples.
    """
    return float(_lp_norms(to_physical(field, 2), p))


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
