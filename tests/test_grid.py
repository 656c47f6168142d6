"""Spectral grid layer: transforms, calculus, products, projections, norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nematicflow import (
    GridError,
    GridSpec,
    SpectralField,
    VectorField2,
    derivative,
    divergence,
    divergence_residual,
    gradient,
    inner,
    integral,
    invert_laplacian,
    jacobian,
    l2_norm,
    laplacian,
    leray_project,
    lp_norm,
    product,
    random_scalar,
    random_vector,
    tensor_divergence,
    to_physical,
)
from nematicflow.grid import _irfft_padded, _lp_norms, hs_norm_fourier

from _frozen import TORUS_AREA

TWO_PI = 2.0 * math.pi


def _smooth_samples(grid, oversample=1):
    """A fixed band-limited trigonometric test function on the grid points."""
    x, y = grid.points(oversample)
    return (
        np.sin(x) * np.cos(2 * y)
        + 0.3 * np.cos(3 * x + y)
        + 0.1 * np.sin(5 * y)
    )


class TestGridSpec:
    def test_rejects_odd_or_tiny_grids(self):
        """n_modes must be even and at least 8."""
        with pytest.raises(GridError):
            GridSpec(7)
        with pytest.raises(GridError):
            GridSpec(6)
        with pytest.raises(GridError):
            GridSpec(33)

    def test_rejects_a_mode_count_that_is_not_an_integer(self):
        """n_modes goes through operator.index: 16.0 and "16" are refused
        with GridError, np.int64(16) is a grid."""
        for bad in (16.0, "16", None):
            with pytest.raises(GridError, match="n_modes must be an integer"):
                GridSpec(bad)
        assert GridSpec(np.int64(16)).padded_size == 32

    @pytest.mark.parametrize("oversample", [0, -1, 1.5, 2.0])
    def test_points_and_to_physical_reject_a_bad_oversample(self, oversample):
        """points() and to_physical take only an integer oversample >= 1,
        np.int64 included: at 0 and -1 points() gave empty grids, at 1.5 a
        24 x 24 one, and to_physical raised numpy's untyped errors."""
        g = GridSpec(16)
        with pytest.raises(GridError, match="oversample"):
            g.points(oversample)
        with pytest.raises(GridError, match="oversample"):
            to_physical(SpectralField.zero(g), oversample)
        assert to_physical(SpectralField.zero(g), np.int64(2)).shape == (32, 32)

    def test_padded_size_and_max_radius(self):
        """Products are sampled on the 2N grid; Nyquist lines stay empty."""
        g = GridSpec(32)
        assert g.padded_size == 64
        assert g.max_radius == pytest.approx(math.sqrt(2.0) * 15, rel=1e-15)

    def test_points_cover_the_box(self):
        """Sample points start at -pi with spacing 2 pi / N."""
        g = GridSpec(16)
        x, y = g.points()
        assert x[0, 0] == pytest.approx(-math.pi)
        assert x[1, 0] - x[0, 0] == pytest.approx(TWO_PI / 16)
        assert x.shape == (16, 16)


class TestTransforms:
    def test_round_trip_is_exact(self, grid32):
        """from_samples then to_physical reproduces band-limited samples."""
        values = _smooth_samples(grid32)
        f = SpectralField.from_samples(grid32, values)
        back = to_physical(f)
        assert np.max(np.abs(back - values)) <= 1e-13

    def test_single_mode_phase_convention(self, grid32, real_mode):
        """The coefficients of cos 3x and sin 3x evaluate to those functions
        at the stored points."""
        x, _ = grid32.points()
        for kind, fn in (("cos", np.cos), ("sin", np.sin)):
            f = real_mode(grid32, (3, 0), kind)
            assert np.max(np.abs(to_physical(f) - fn(3 * x))) <= 1e-13

    def test_oversampled_evaluation_matches_fine_sampling(self, grid32, real_mode):
        """to_physical(oversample=2) agrees with analytic values between nodes."""
        x, y = grid32.points(oversample=2)
        for kind, fn in (("cos", np.cos), ("sin", np.sin)):
            f = real_mode(grid32, (2, -1), kind)
            expected = fn(2 * x - y)
            assert np.max(np.abs(to_physical(f, oversample=2) - expected)) <= 1e-13

    def test_real_fields_have_hermitian_coefficients(self, grid32, rng):
        """from_samples of real data stores the half spectrum, which samples
        back to real values.  Its ny = 0 column, and those of the random
        fields, are exactly Hermitian: all come through the one forward."""
        f = SpectralField.from_samples(grid32, rng.standard_normal((32, 32)))
        assert f.coeffs.shape == (32, 17)
        assert to_physical(f).dtype == np.float64
        for n in (16, 48):
            grid = GridSpec(n)
            v = random_vector(grid, rng, divergence_free=True)
            for field in (SpectralField.from_samples(
                              grid, rng.standard_normal((n, n))),
                          random_scalar(grid, rng, zero_mean=False), v.x, v.y):
                assert _is_exactly_hermitian(field), n

    def test_complex_samples_are_rejected(self, grid16):
        """Fields are real: complex samples raise instead of losing their
        imaginary part."""
        x, _ = grid16.points()
        with pytest.raises(GridError):
            SpectralField.from_samples(grid16, np.exp(1j * x))

    def test_non_hermitian_coefficients_are_rejected(self, grid16):
        """A lone exp(i n.x) coefficient is no real field."""
        coeffs = np.zeros((16, 16), dtype=np.complex128)
        coeffs[2, 3] = 1.0
        with pytest.raises(GridError):
            SpectralField.from_coeffs(grid16, coeffs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_coefficients_are_named_as_such(self, grid16, bad):
        """A NaN or infinite coefficient, even on a Hermitian pair, is
        refused as non-finite, not as non-Hermitian."""
        coeffs = np.zeros((16, 16), dtype=np.complex128)
        coeffs[2, 3] = coeffs[-2, -3] = bad
        with pytest.raises(GridError, match="non-finite"):
            SpectralField.from_coeffs(grid16, coeffs)

    @pytest.mark.parametrize("n", [8, 10, 16, 64])
    def test_the_mirror_table_indexes_minus_k(self, n):
        """The one mirror index: row -k of k = 0..N-1 in FFT order,
        read-only, and one array per N."""
        mirror = GridSpec(n).tables()["mirror"]
        assert np.array_equal(mirror, [(-k) % n for k in range(n)])
        assert not mirror.flags.writeable
        assert GridSpec(n).tables()["mirror"] is mirror

    def test_nyquist_lines_are_dropped(self, grid16):
        """Samples containing Nyquist content are projected off that line."""
        x, _ = grid16.points()
        f = SpectralField.from_samples(grid16, np.cos(8 * x))
        assert l2_norm(f) <= 1e-13

    def test_mean_reads_the_zero_mode(self, grid16):
        """The mean property is the n = 0 coefficient."""
        x, _ = grid16.points()
        f = SpectralField.from_samples(grid16, 2.5 + np.sin(x))
        assert f.mean == pytest.approx(2.5, abs=1e-14)


class TestCalculus:
    def test_derivative_of_sine(self, grid32):
        """d/dx sin(x) = cos(x) to machine precision."""
        x, _ = grid32.points()
        f = SpectralField.from_samples(grid32, np.sin(x))
        df = derivative(f, 0)
        assert np.max(np.abs(to_physical(df) - np.cos(x))) <= 1e-13

    def test_derivative_axis_1(self, grid32):
        """d/dy acts on the second axis."""
        _, y = grid32.points()
        f = SpectralField.from_samples(grid32, np.cos(4 * y))
        df = derivative(f, 1)
        assert np.max(np.abs(to_physical(df) + 4 * np.sin(4 * y))) <= 1e-12

    def test_laplacian_is_mode_multiplication(self, grid32, real_mode):
        """lap sin(n.x) = -|n|^2 sin(n.x)."""
        f = real_mode(grid32, (3, -2), "sin")
        lf = laplacian(f)
        assert np.max(np.abs(lf.coeffs + 13.0 * f.coeffs)) <= 1e-13

    def test_invert_laplacian_round_trip(self, grid32, rng):
        """invert_laplacian(laplacian(f)) = f on zero-mean fields."""
        values = rng.standard_normal((32, 32))
        f = SpectralField.from_samples(grid32, values - values.mean())
        g = invert_laplacian(laplacian(f))
        rel = l2_norm(g - f) / l2_norm(f)
        assert rel <= 1e-13
        assert abs(g.mean) == 0.0

    def test_gradient_and_divergence_compose_to_laplacian(self, grid32):
        """div grad f = lap f."""
        f = SpectralField.from_samples(grid32, _smooth_samples(grid32))
        lhs = divergence(gradient(f))
        rhs = laplacian(f)
        assert l2_norm(lhs - rhs) <= 1e-12 * max(1.0, l2_norm(rhs))


class TestProducts:
    def test_product_of_modes_adds_frequencies(self, grid32, real_mode):
        """cos a.x cos b.x = (cos (a+b).x + cos (a-b).x) / 2 and
        sin a.x cos b.x = (sin (a+b).x + sin (a-b).x) / 2, exactly."""
        a, b, plus, minus = (3, 1), (5, 2), (8, 3), (-2, -1)
        for kind in ("cos", "sin"):
            h = product(real_mode(grid32, a, kind), real_mode(grid32, b))
            expected = (real_mode(grid32, plus, kind, 0.5)
                        + real_mode(grid32, minus, kind, 0.5))
            assert np.max(np.abs(h.coeffs - expected.coeffs)) <= 1e-14

    def test_product_truncates_out_of_band_output(self, grid32, real_mode):
        """Frequencies above the resolved band are cut, not aliased.

        cos 12x cos 13x = (cos 25x + cos x) / 2, and 25 lies outside the
        N = 32 band, so the truncated product is cos(x) / 2; on the
        unpadded 32 grid, 25 would alias to |n| = 7.
        """
        h = product(real_mode(grid32, (12, 0)), real_mode(grid32, (13, 0)))
        assert l2_norm(h - real_mode(grid32, (1, 0), amplitude=0.5)) <= 1e-13
        assert np.max(np.abs(h.coeffs[[7, -7], 0])) <= 1e-13

    def test_pairwise_product_matches_pointwise_values(self, grid32, rng):
        """Dealiased product of band-limited fields equals the true product.

        Both factors live in |n| <= 7, so the product band |n| <= 14 fits
        strictly inside the resolved N = 32 spectrum and nothing is cut.
        """
        k = np.fft.fftfreq(32, 1.0 / 32)
        keep = np.hypot(k[:, None], k[None, :]) <= 7.0

        def band_limited():
            raw = np.fft.fft2(rng.standard_normal((32, 32))) / 1024.0
            raw[~keep] = 0.0
            raw[0, 0] = 0.0
            return SpectralField.from_samples(
                grid32, np.fft.ifft2(raw * 1024.0).real
            )

        f, g = band_limited(), band_limited()
        h = product(f, g)
        fine = to_physical(f, oversample=4) * to_physical(g, oversample=4)
        h_fine = to_physical(h, oversample=4)
        assert np.max(np.abs(h_fine - fine)) <= 1e-12

    def test_triple_product_single_stage(self, grid32, real_mode):
        """product(f, g, h) multiplies three factors in one padded pass:
        cos^3 2x = (3 cos 2x + cos 6x) / 4.  Four factors raise."""
        f = real_mode(grid32, (2, 0))
        h = product(f, f, f)
        expected = real_mode(grid32, (2, 0), amplitude=0.75) + real_mode(
            grid32, (6, 0), amplitude=0.25)
        assert np.max(np.abs(h.coeffs - expected.coeffs)) <= 1e-14
        # four factors would alias on the 2N grid
        with pytest.raises(GridError, match="at most 3 factors"):
            product(f, f, f, f)


class TestVectorOps:
    def test_jacobian_convention(self, grid32):
        """J_ij = d_j u_i: for u = (sin y, 0) the only entry is J_xy."""
        _, y = grid32.points()
        u = VectorField2(
            SpectralField.from_samples(grid32, np.sin(y)),
            SpectralField.zero(grid32),
        )
        j = jacobian(u)
        assert np.max(np.abs(to_physical(j.xy) - np.cos(y))) <= 1e-13
        assert l2_norm(j.xx) <= 1e-14
        assert l2_norm(j.yx) <= 1e-14
        assert l2_norm(j.yy) <= 1e-14

    def test_leray_projection_is_idempotent(self, grid32, rng):
        """P(P(u)) = P(u) and the projection is divergence free."""
        u = VectorField2(
            SpectralField.from_samples(grid32, rng.standard_normal((32, 32))),
            SpectralField.from_samples(grid32, rng.standard_normal((32, 32))),
        )
        pu = leray_project(u)
        ppu = leray_project(pu)
        num = math.hypot(l2_norm(ppu.x - pu.x), l2_norm(ppu.y - pu.y))
        assert num <= 1e-13 * math.hypot(l2_norm(pu.x), l2_norm(pu.y))
        assert divergence_residual(pu) <= 1e-13

    def test_leray_annihilates_gradients(self, grid32):
        """P(grad p) = 0 for any scalar p."""
        p = SpectralField.from_samples(grid32, _smooth_samples(grid32))
        g = gradient(p)
        pg = leray_project(VectorField2(g.x, g.y))
        assert math.hypot(l2_norm(pg.x), l2_norm(pg.y)) <= 1e-13

    def test_tensor_divergence_on_analytic_entries(self, grid32):
        """(div T)_i = d_j T_ij for T = [[sin x, 0], [0, cos y]]."""
        from nematicflow import TensorField22

        x, y = grid32.points()
        t = TensorField22(
            SpectralField.from_samples(grid32, np.sin(x)),
            SpectralField.zero(grid32),
            SpectralField.zero(grid32),
            SpectralField.from_samples(grid32, np.cos(y)),
        )
        d = tensor_divergence(t)
        assert np.max(np.abs(to_physical(d.x) - np.cos(x))) <= 1e-13
        assert np.max(np.abs(to_physical(d.y) + np.sin(y))) <= 1e-13


class TestIntegralsAndNorms:
    def test_integral_of_one_is_the_box_area(self, grid16):
        """integral(1) = (2 pi)^2."""
        f = SpectralField.from_samples(grid16, np.ones((16, 16)))
        assert integral(f) == pytest.approx(TORUS_AREA, rel=1e-15)

    def test_integral_of_oscillation_vanishes(self, grid16):
        """integral(cos 3x) = 0."""
        x, _ = grid16.points()
        f = SpectralField.from_samples(grid16, np.cos(3 * x))
        assert abs(integral(f)) <= 1e-13

    def test_parseval_l2_norm(self, grid32):
        """||cos 3x||_{L2}^2 = (2 pi)^2 / 2."""
        x, _ = grid32.points()
        f = SpectralField.from_samples(grid32, np.cos(3 * x))
        assert l2_norm(f) ** 2 == pytest.approx(TORUS_AREA / 2.0, rel=1e-13)

    def test_inner_product_matches_quadrature(self, grid32, rng):
        """<f, g> equals the physical-space integral of f g."""
        f = SpectralField.from_samples(grid32, rng.standard_normal((32, 32)))
        g = SpectralField.from_samples(grid32, rng.standard_normal((32, 32)))
        quad = integral(product(f, g))
        assert inner(f, g) == pytest.approx(quad, rel=1e-12)

    def test_lp_norm_special_cases(self, grid32):
        """p = 2 matches Parseval and p = inf is the sup of |f|; a
        nonpositive or NaN p, and a non-finite H^s index s, raise."""
        x, _ = grid32.points()
        f = SpectralField.from_samples(grid32, np.cos(3 * x))
        assert lp_norm(f, 2) == pytest.approx(l2_norm(f), rel=1e-12)
        assert lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-12)
        for p in (-1, math.nan):
            with pytest.raises(GridError):
                lp_norm(f, p)
        for s in (math.nan, math.inf):
            with pytest.raises(GridError, match="s must be finite"):
                hs_norm_fourier(f, s)

    def test_sobolev_weight_form(self, grid32, real_mode):
        """H^s norm of sqrt(2) cos(n.x) is (2 pi) (1+|n|)^s."""
        f = real_mode(grid32, (3, 4), amplitude=math.sqrt(2.0))
        for s in (-0.5, 0.0, 0.5, 2.0):
            expected = TWO_PI * 6.0 ** s
            assert hs_norm_fourier(f, s) == pytest.approx(expected, rel=1e-14)


def _negated(n):
    return (-np.arange(n)) % n


def _exactly_hermitian_field(n, seed, scale):
    """A real field whose coefficients satisfy f_{-n} = conj(f_n) bit for bit."""
    grid = GridSpec(n)
    rng = np.random.default_rng(seed)
    raw = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    neg = np.ix_(_negated(n), _negated(n))
    return SpectralField.from_coeffs(grid, 0.5 * (raw + np.conj(raw[neg])))


def _is_exactly_hermitian(field):
    """A real field's half spectrum has one constraint left, on its ny = 0
    column, which holds both n and -n: f_{-n} = conj(f_n) there."""
    n = field.grid.n_modes
    col = field.coeffs[..., 0]
    return (field.coeffs.shape == (n, n // 2 + 1)
            and np.array_equal(col, np.conj(col[_negated(n)])))


PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)
FIELDS = dict(n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2 ** 32 - 1),
              scale=st.sampled_from([1e-6, 1.0, 1e6]))


def _random_real_vector(n, seed, scale):
    return VectorField2(_exactly_hermitian_field(n, seed, scale),
                        _exactly_hermitian_field(n, seed + 1, scale))


def _max_abs(vec):
    return max(np.max(np.abs(vec.x.coeffs)), np.max(np.abs(vec.y.coeffs)))


class TestRealFieldProperties:
    @PROPERTY_SETTINGS
    @given(**FIELDS)
    def test_calculus_keeps_real_fields_exactly_hermitian(self, n, seed, scale):
        f = _exactly_hermitian_field(n, seed, scale)
        assert _is_exactly_hermitian(f)
        for out in (derivative(f, 0), derivative(f, 1), laplacian(f)):
            assert _is_exactly_hermitian(out)
        pu = leray_project(_random_real_vector(n, seed, scale))
        assert _is_exactly_hermitian(pu.x) and _is_exactly_hermitian(pu.y)

    @PROPERTY_SETTINGS
    @given(**FIELDS)
    def test_leray_projection_is_idempotent(self, n, seed, scale):
        u = _random_real_vector(n, seed, scale)
        pu = leray_project(u)
        ppu = leray_project(pu)
        assert _max_abs(ppu - pu) <= 1e-14 * _max_abs(u)

    @PROPERTY_SETTINGS
    @given(**FIELDS)
    def test_leray_projection_annihilates_gradients(self, n, seed, scale):
        g = gradient(_exactly_hermitian_field(n, seed, scale))
        assert _max_abs(leray_project(g)) <= 1e-14 * _max_abs(g)

    @PROPERTY_SETTINGS
    @given(**FIELDS)
    def test_leray_output_is_divergence_free(self, n, seed, scale):
        """sup_n |n . (P u)_n| against sup_n |n| |u_n|, the input's scale."""
        u = _random_real_vector(n, seed, scale)
        radius = u.grid.tables()["radius"]
        input_scale = np.max(radius * np.hypot(np.abs(u.x.coeffs),
                                               np.abs(u.y.coeffs)))
        assert divergence_residual(leray_project(u)) <= 1e-12 * input_scale

    @PROPERTY_SETTINGS
    @given(**FIELDS, planes=st.integers(1, 3))
    def test_stacked_lp_norms_match_lp_norm_plane_by_plane(self, n, seed,
                                                           scale, planes):
        """_lp_norms of one batched, unphased 2N-grid sample stack gives
        lp_norm of each field: the samples differ by a whole-point shift."""
        fs = [_exactly_hermitian_field(n, seed + i, scale) for i in range(planes)]
        samples = _irfft_padded(np.stack([f.coeffs for f in fs]), 2 * n)
        for p in (1, 4.0 / 3.0, 2, 4, np.inf):
            got = _lp_norms(samples, p)
            assert got.shape == (planes,)
            want = [lp_norm(f, p) for f in fs]
            assert got == pytest.approx(want, rel=1e-13)
