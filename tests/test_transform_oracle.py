"""Property tests of the transform layer against an independent oracle.

The oracle is built here from full complex np.fft.fft2/ifft2 on a 3x-padded
grid and from direct evaluation of the Fourier sum, never from grid helpers,
so it stays independent of the half-spectrum transforms that products, the
stepping engine and to_physical share.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nematicflow import GridSpec, SpectralField, product, to_physical

SETTINGS = settings(max_examples=40, deadline=None)


def _wavenumbers(n):
    return np.fft.fftfreq(n, 1.0 / n).astype(np.int64)


def _negated(n):
    return (-np.arange(n)) % n


def _real_coeffs(n, band, rng):
    """Hermitian coefficients supported on max(|nx|, |ny|) <= band < n/2."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = _wavenumbers(n)
    outside = (np.abs(k)[:, None] > band) | (np.abs(k)[None, :] > band)
    raw[outside] = 0.0
    return 0.5 * (raw + np.conj(raw[np.ix_(_negated(n), _negated(n))]))


def _oracle_product(a, b):
    """Truncated product via full complex FFTs on a 3N x 3N grid."""
    n = a.shape[0]
    m = 3 * n
    idx = _wavenumbers(n) % m
    values = []
    for c in (a, b):
        padded = np.zeros((m, m), dtype=np.complex128)
        padded[np.ix_(idx, idx)] = c
        values.append(np.fft.ifft2(padded) * (m * m))
    fine = np.fft.fft2(values[0] * values[1]) / (m * m)
    out = fine[np.ix_(idx, idx)]
    k = _wavenumbers(n)
    out[np.abs(k) == n // 2, :] = 0.0
    out[:, np.abs(k) == n // 2] = 0.0
    return out


def _direct_samples(coeffs, oversample):
    """sum_n c_n exp(i n.x) at the points x_j = -pi + 2 pi j / M."""
    n = coeffs.shape[0]
    m = n * oversample
    x = -np.pi + 2.0 * np.pi * np.arange(m) / m
    e = np.exp(1j * np.outer(x, _wavenumbers(n)))
    return e @ coeffs @ e.T


grids = st.sampled_from([8, 16, 32])


@st.composite
def real_pairs(draw):
    n = draw(grids)
    band = draw(st.integers(1, n // 2 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return n, _real_coeffs(n, band, rng), _real_coeffs(n, band, rng)


@given(real_pairs())
@SETTINGS
def test_pairwise_product_matches_the_padded_oracle(pair):
    """product(f, g) of real fields is the exact projection, exactly Hermitian."""
    n, a, b = pair
    grid = GridSpec(n)
    fg = product(SpectralField(grid, a, True), SpectralField(grid, b, True))
    expected = _oracle_product(a, b)
    assert fg.real
    assert np.linalg.norm(fg.coeffs - expected) <= 1e-12 * np.linalg.norm(expected)
    flip = _negated(n)
    assert np.array_equal(fg.coeffs, np.conj(fg.coeffs[np.ix_(flip, flip)]))


@given(real_pairs(), st.integers(-3, 3), st.integers(-3, 3))
@SETTINGS
def test_complex_product_matches_the_padded_oracle(pair, nx, ny):
    """A product with a complex factor matches the oracle as well."""
    n, a, b = pair
    grid = GridSpec(n)
    mode = SpectralField.from_mode(grid, (nx, ny), amplitude=0.5 - 2.0j)
    f = SpectralField(grid, a, True) + mode
    fg = product(f, SpectralField(grid, b, True))
    expected = _oracle_product(f.coeffs, b)
    assert not fg.real
    assert np.linalg.norm(fg.coeffs - expected) <= 1e-12 * np.linalg.norm(expected)


@given(real_pairs(), st.sampled_from([1, 2, 4]))
@SETTINGS
def test_to_physical_of_real_fields_matches_direct_evaluation(pair, oversample):
    """Real fields sample to real arrays equal to the Fourier sum."""
    n, a, _ = pair
    values = to_physical(SpectralField(GridSpec(n), a, True), oversample)
    expected = _direct_samples(a, oversample)
    assert values.dtype == np.float64
    assert values.shape == (n * oversample, n * oversample)
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.sum(np.abs(a))


@given(grids, st.integers(-3, 3), st.integers(-3, 3),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
       st.sampled_from([1, 2, 4]))
@SETTINGS
def test_to_physical_of_single_modes_matches_direct_evaluation(
        n, nx, ny, amplitude, oversample):
    """from_mode fields sample to amplitude * exp(i n.x) on every grid."""
    f = SpectralField.from_mode(GridSpec(n), (nx, ny), amplitude)
    m = n * oversample
    x = -np.pi + 2.0 * np.pi * np.arange(m) / m
    expected = amplitude * np.exp(1j * (nx * x[:, None] + ny * x[None, :]))
    values = to_physical(f, oversample)
    assert np.max(np.abs(values - expected)) <= 1e-12 * abs(amplitude)
