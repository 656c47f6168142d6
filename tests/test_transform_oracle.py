"""Tests of the transform layer against independent oracles.

The product and sampling oracles are built here from full complex
np.fft.fft2/ifft2 on a 3x-padded grid and from direct evaluation of the
Fourier sum, never from grid helpers, so they stay independent of the
half-spectrum transforms that products, the stepping engine and
to_physical share.  Fields are built from full coefficient arrays through
from_coeffs, and results are compared on the stored half spectra.  The
transform pair itself is checked against its earlier formulation: a full
(M, M/2 + 1) pad, numpy.fft only, scaling after the transform.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nematicflow import GridSpec, SpectralField, product, to_physical
from nematicflow.dyadic import _block_pair_samples, _block_subgrids
from nematicflow.grid import _irfft_padded, _rfft_truncated

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


def _real(grid, full):
    return SpectralField.from_coeffs(grid, full)


@given(real_pairs())
@SETTINGS
def test_pairwise_product_matches_the_padded_oracle(pair):
    """product(f, g) of real fields is the exact projection, exactly Hermitian."""
    n, a, b = pair
    grid = GridSpec(n)
    fg = product(_real(grid, a), _real(grid, b))
    expected = _oracle_product(a, b)[:, : n // 2 + 1]
    assert fg.coeffs.shape == expected.shape
    assert np.linalg.norm(fg.coeffs - expected) <= 1e-12 * np.linalg.norm(expected)
    column = fg.coeffs[:, 0]  # holds both n and -n
    assert np.array_equal(column, np.conj(column[_negated(n)]))


@given(real_pairs(), st.sampled_from([1, 2, 4]))
@SETTINGS
def test_to_physical_of_real_fields_matches_direct_evaluation(pair, oversample):
    """Real fields sample to real arrays equal to the Fourier sum."""
    n, a, _ = pair
    values = to_physical(_real(GridSpec(n), a), oversample)
    expected = _direct_samples(a, oversample)
    assert values.dtype == np.float64
    assert values.shape == (n * oversample, n * oversample)
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.sum(np.abs(a))


# -- the transform pair against its full-pad formulation ------------------------


def _full_pad_irfft(half, m):
    """Zero-pad half spectra to the full (M, M/2 + 1) layout, then irfft2."""
    h = half.shape[-2] // 2
    padded = np.zeros(half.shape[:-2] + (m, m // 2 + 1), dtype=np.complex128)
    padded[..., :h, :h] = half[..., :h, :h]
    padded[..., m - h + 1:, :h] = half[..., h + 1:, :h]
    return np.fft.irfft2(padded, s=(m, m), axes=(-2, -1)) * (m * m)


def _full_rfft_truncate(values, n):
    """numpy rfft2 of the samples, scaled by 1/M^2, then cut to N-grid halves
    whose ny = 0 column is averaged with its conjugate mirror."""
    m = values.shape[-1]
    h = n // 2
    c = np.fft.rfft2(values, axes=(-2, -1)) / (m * m)
    out = np.zeros(values.shape[:-2] + (n, h + 1), dtype=np.complex128)
    out[..., :h, :h] = c[..., :h, :h]
    out[..., h + 1:, :h] = c[..., m - h + 1:, :h]
    out[..., 0] = 0.5 * (out[..., 0] + np.conj(out[..., _negated(n), 0]))
    return out


def _random_halves(rng, lead, n):
    shape = lead + (n, n // 2 + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


PAIR_GRIDS = [(16, 32), (64, 128), (128, 256), (16, 24), (64, 96)]


@pytest.mark.parametrize("n, m", PAIR_GRIDS)
@pytest.mark.parametrize("lead", [(1,), (2, 3)])
def test_transform_pair_matches_the_full_pad_formulation(n, m, lead):
    """Bitwise equal for power-of-two M; within 1e-15 relative otherwise."""
    rng = np.random.default_rng(n * m + len(lead))
    half = _random_halves(rng, lead, n)
    values = rng.standard_normal(lead + (m, m))
    inverse, forward = _irfft_padded(half, m), _rfft_truncated(values, n)
    inverse_ref = _full_pad_irfft(half, m)
    forward_ref = _full_rfft_truncate(values, n)
    assert inverse.shape == lead + (m, m) and forward.shape == half.shape
    if m & (m - 1) == 0:
        assert np.array_equal(inverse, inverse_ref)
        assert np.array_equal(forward, forward_ref)
    else:
        assert _relative(inverse, inverse_ref) <= 1e-15
        assert _relative(forward, forward_ref) <= 1e-15


@pytest.mark.parametrize("n, m", [(16, 32), (16, 24), (16, 16)])
def test_transform_pair_results_ignore_earlier_calls(n, m):
    """Batch B after batch A gives B's own result; returned arrays stay put."""
    rng = np.random.default_rng(5)
    a, b = _random_halves(rng, (3,), n), _random_halves(rng, (3,), n)
    first = _irfft_padded(a, m)
    kept = first.copy()
    second = _irfft_padded(b, m)
    assert np.array_equal(second, _irfft_padded(b.copy(), m))
    assert _relative(second, _full_pad_irfft(b, m)) <= 1e-15
    assert np.array_equal(_irfft_padded(np.zeros_like(a), m), np.zeros((3, m, m)))
    assert np.array_equal(first, kept)
    values = rng.standard_normal((3, m, m))
    spectra = _rfft_truncated(values, n)
    kept = spectra.copy()
    _rfft_truncated(rng.standard_normal((3, m, m)), n)
    assert np.array_equal(spectra, kept)


KEPT_GRIDS = [(16, 32), (16, 24), (64, 128), (64, 96), (128, 256),
              (128, 192), (10, 20), (10, 15)]


@pytest.mark.parametrize("n, m", KEPT_GRIDS)
def test_kept_buffers_give_the_fresh_bits(n, m):
    """The inverse written into a kept (spectrum, samples) pair, as the
    stepping engine calls it (leading-axis slices of one pair, repeated
    calls with new inputs, the spectrum also taken by forwards in between),
    is bitwise the fresh path's, whether the spectrum holds NaNs or stale
    data on entry; N = 10 samples the odd 3N/2 = 15 grid."""
    rng = np.random.default_rng(n + m)
    wide = np.full((12, m, m // 2 + 1), np.nan, dtype=np.complex128)
    samples = np.empty((12, m, m))
    for lead in (12, 5, 8, 12, 8, 5, 7):
        half = _random_halves(rng, (lead,), n)
        got = _irfft_padded(half, m, out=(wide[:lead], samples[:lead]))
        assert np.shares_memory(got, samples)
        assert np.array_equal(got, _irfft_padded(half, m))
        _rfft_truncated(rng.standard_normal((lead - 1, m, m)), n,
                        spectrum=wide[:lead - 1])


@pytest.mark.parametrize("n", [16, 64])
def test_a_kept_band_inverse_gives_the_fresh_bits(n):
    """The block sampler's band inverse (its band h, a multiplier with
    leading axes) into a NaN-filled kept spectrum gives, on every block
    subgrid, the bits of cutting the band out, multiplying and sampling."""
    rng = np.random.default_rng(n)
    half = _random_halves(rng, (), n)
    for _, h, block, low, m in _block_subgrids(n):
        mult = np.stack([block, low])
        wide = np.full((2, m, m // 2 + 1), np.nan, dtype=np.complex128)
        got = _irfft_padded(half, m, out=(wide, np.empty((2, m, m))),
                            mult=mult, band=h)
        for plane, one in zip(got, mult):
            assert np.array_equal(plane, _cut_then_sample(half, one, h, m))


@pytest.mark.parametrize("n, m, lead", [(64, 128, 7), (64, 96, 12),
                                        (128, 256, 7), (128, 192, 12)])
def test_a_warm_kept_inverse_allocates_nothing(n, m, lead):
    """A warm inverse into kept arrays, at the engine's batch shapes at
    N = 64 and 128, allocates no array: the tracemalloc peak rises by less
    than 8 KiB, the few view objects of the call (an (..., M, N/2)
    intermediate of the batch would take at least 448 KiB here)."""
    rng = np.random.default_rng(n + lead)
    half = _random_halves(rng, (lead,), n)
    out = (np.empty((lead, m, m // 2 + 1), dtype=np.complex128),
           np.empty((lead, m, m)))
    _irfft_padded(half, m, out=out)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _irfft_padded(half, m, out=out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 8 * 1024


@pytest.mark.parametrize("m", [128, 96, 54, 108])
def test_a_kept_spectrum_gives_the_fresh_bits(m):
    """The forward at N = 64 (N = 54 on the 54 grid) with its last-axis
    spectrum written into a kept array, at M = 2N, 3N/2 and the block-pair
    grids 54 and 108, is bitwise the fresh forward, also when the array
    holds stale data from an earlier call or NaNs."""
    n = min(64, m)
    rng = np.random.default_rng(m)
    spectrum = np.full((5, m, m // 2 + 1), np.nan, dtype=np.complex128)
    for lead in (5, 3, 5):
        values = rng.standard_normal((lead, m, m))
        got = _rfft_truncated(values, n, spectrum=spectrum[:lead])
        assert np.array_equal(got, _rfft_truncated(values, n))
        assert not np.shares_memory(got, spectrum)


def _cut_then_sample(stack, mult, h, m):
    """The sampler's former route: cut the 2h-grid half spectrum out of the
    N-grid stack and its multiplier, multiply, then sample it."""
    n = stack.shape[-2]
    cut = np.ix_(np.r_[0:h + 1, n - h + 1:n], np.arange(h + 1))
    return _irfft_padded(stack[(...,) + cut] * mult[cut], m)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("blocks, lows", [(8, 3), (3, 8)])
def test_the_pad_row_sampler_is_bitwise_the_cut_route(n, blocks, lows):
    """_block_pair_samples, which multiplies the N-grid stacks straight
    into its kept pad rows, gives per q the bits of cutting the band out,
    multiplying and sampling, on random 3- and 8-plane stacks, on a first
    and on a warm call."""
    rng = np.random.default_rng(n + blocks)
    kept = {}
    for _ in range(2):
        b = _random_halves(rng, (blocks,), n)
        lo = _random_halves(rng, (lows,), n)
        seen = 0
        # one q's samples are overwritten by the next: compare as they come
        for (q, h, block, low, m), (got_q, got_b, got_l) in zip(
                _block_subgrids(n), _block_pair_samples(b, lo, kept)):
            assert got_q == q
            assert np.array_equal(got_b, _cut_then_sample(b, block, h, m))
            assert np.array_equal(got_l, _cut_then_sample(lo, low, h, m))
            seen += 1
        assert seen == len(_block_subgrids(n))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_pairwise_products_are_exact_on_the_three_halves_grid(n):
    """k band-N/2 factors truncate exactly on an M grid when
    M >= k(N/2 - 1) + N/2: a pairwise product sampled at M = 3N/2 gives the
    N-grid spectrum it gives at 2N, a cubic product at 3N/2 does not."""
    rng = np.random.default_rng(n)
    grid = GridSpec(n)
    half = np.stack([_real(grid, _real_coeffs(n, n // 2 - 1, rng)).coeffs
                     for _ in range(3)])

    def truncated_product(factors, m):
        values = _irfft_padded(half[:factors], m)
        return _rfft_truncated(np.prod(values, axis=0), n)

    pair = truncated_product(2, 2 * n)
    assert _relative(truncated_product(2, 3 * n // 2), pair) <= 1e-15
    cubic = truncated_product(3, 2 * n)
    assert _relative(truncated_product(3, 3 * n // 2), cubic) >= 1e-3
