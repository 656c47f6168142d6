"""Dyadic frequency toolkit: partition, blocks, paraproducts, Besov norms."""

import math

import numpy as np
import pytest

from nematicflow import (
    DyadicError,
    DyadicPartition,
    GridError,
    GridSpec,
    SpectralField,
    besov_norm,
    bony_block_decompose,
    bony_split,
    commutator_block,
    commutator_lowpass,
    gradient,
    hs_inner,
    hs_norm,
    l2_norm,
    product,
    random_scalar,
)

from _frozen import (
    REVERSE_BERNSTEIN_RATIO,
    SINGLE_MODE_BLOCK,
    SINGLE_MODE_FREQ,
)

TWO_PI = 2.0 * math.pi
REL = 1e-12


def _rand(grid, rng, decay=1.5):
    return random_scalar(grid, rng, decay=decay, zero_mean=False)


class TestPartitionOfUnity:
    def test_multipliers_sum_to_one(self, grid64):
        """The block multipliers add to 1 on every populated mode."""
        part = DyadicPartition(grid64)
        total = sum(np.asarray(part.multiplier(q), dtype=np.float64)
                    for q in part.q_range)
        t = grid64.tables()
        populated = ~t["nyquist"]
        assert np.max(np.abs(total[populated] - 1.0)) <= REL

    def test_blocks_reassemble_the_field(self, grid64, rng):
        """sum_q Delta_q f = f in L2, relative residual below 1e-12."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        total = SpectralField.zero(grid64)
        for b in part.blocks(f):
            total = total + b
        assert l2_norm(total - f) <= REL * l2_norm(f)

    def test_low_pass_telescopes(self, grid64, rng):
        """S_q f equals the sum of blocks below q."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        acc = SpectralField.zero(grid64)
        for q in range(-1, 4):
            acc = acc + part.delta(f, q)
        diff = part.low_pass(f, 4) - acc
        assert l2_norm(diff) <= REL * l2_norm(f)

    def test_low_pass_multipliers_are_running_block_sums(self, grid64):
        """The cached S_q multipliers equal chi + phi_0 + ... + phi_{q-1}
        added in that order, bit for bit."""
        part = DyadicPartition(grid64)
        acc = part.multiplier(-1).copy()
        for q in range(part.q_max + 2):
            assert np.array_equal(part._low_mult(q), acc)
            if q <= part.q_max:
                acc += part.multiplier(q)

    def test_top_low_pass_is_the_identity(self, grid64, rng):
        """S_{q_max + 1} keeps every resolved mode."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        assert l2_norm(part.low_pass(f, part.q_max + 1) - f) <= REL * l2_norm(f)

    def test_index_validation(self, grid64, rng):
        """Out-of-range block and low-pass indices raise."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        with pytest.raises(DyadicError):
            part.delta(f, part.q_max + 1)
        with pytest.raises(DyadicError):
            part.delta(f, -2)
        with pytest.raises(DyadicError):
            part.low_pass(f, -1)

    def test_grid_mismatch_raises(self, grid64, grid32, rng):
        """A partition refuses fields from another grid."""
        part = DyadicPartition(grid64)
        f = _rand(grid32, rng)
        with pytest.raises(DyadicError):
            part.delta(f, 0)


class TestQuasiOrthogonality:
    def test_distant_blocks_compose_to_zero(self, grid64, rng):
        """Delta_q Delta_p = 0 whenever |q - p| >= 2."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        for q in part.q_range:
            bq = part.delta(f, q)
            for p in part.q_range:
                if abs(q - p) >= 2:
                    assert l2_norm(part.delta(bq, p)) == 0.0

    def test_adjacent_blocks_overlap(self, grid64, rng):
        """Neighbouring blocks share an annulus (the partition is not sharp)."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        overlap = l2_norm(part.delta(part.delta(f, 2), 3))
        assert overlap > 0.0

    def test_block_energies_are_equivalent_to_l2(self, grid64, rng):
        """sum_q ||Delta_q f||^2 lies in [||f||^2 / 2, ||f||^2].

        At most two multipliers overlap on any mode and they sum to 1 there,
        so the sum of squares per mode lies in [1/2, 1].
        """
        part = DyadicPartition(grid64)
        for _ in range(5):
            f = _rand(grid64, rng)
            total = sum(l2_norm(b) ** 2 for b in part.blocks(f))
            n2 = l2_norm(f) ** 2
            assert 0.5 * n2 - 1e-12 <= total <= n2 + 1e-12


class TestSingleModeBlock:
    def test_frequency_three_fills_block_one(self, grid64, real_mode):
        """The mode cos 3x lives entirely inside one dyadic block."""
        f = real_mode(grid64, (SINGLE_MODE_FREQ, 0))
        part = DyadicPartition(grid64)
        keeper = part.delta(f, SINGLE_MODE_BLOCK)
        assert l2_norm(keeper - f) == 0.0
        for q in part.q_range:
            if q != SINGLE_MODE_BLOCK:
                assert l2_norm(part.delta(f, q)) == 0.0

    def test_reverse_bernstein_ratio_is_exact(self, grid64, real_mode):
        """2^q ||Delta_q f|| / ||grad Delta_q f|| = 2/3 for |n| = 3, q = 1."""
        f = real_mode(grid64, (SINGLE_MODE_FREQ, 0))
        part = DyadicPartition(grid64)
        b = part.delta(f, SINGLE_MODE_BLOCK)
        g = gradient(b)
        grad_norm = math.hypot(l2_norm(g.x), l2_norm(g.y))
        ratio = 2.0 ** SINGLE_MODE_BLOCK * l2_norm(b) / grad_norm
        assert ratio == pytest.approx(REVERSE_BERNSTEIN_RATIO, rel=1e-14)


class TestBony:
    def test_paraproduct_split_reconstructs_the_product(self, grid64, rng):
        """T_f g + T_g f + R(f, g) equals the truncated product fg."""
        part = DyadicPartition(grid64)
        f, g = _rand(grid64, rng), _rand(grid64, rng)
        t_fg, t_gf, rem = bony_split(f, g, part)
        recon = t_fg + t_gf + rem
        target = product(f, g)
        assert l2_norm(recon - target) <= REL * l2_norm(target)

    def test_four_term_block_identity(self, grid64, rng):
        """The commutator/gap/paraproduct/remainder split matches Delta_q(fg)."""
        part = DyadicPartition(grid64)
        f, g = _rand(grid64, rng), _rand(grid64, rng)
        scale = l2_norm(product(f, g))
        for q in (0, 2, part.q_max - 1):
            parts = bony_block_decompose(f, g, q, part)
            resid = l2_norm(parts["sum"] - parts["target"])
            assert resid <= REL * scale

    def test_commutator_block_definition(self, grid64, rng):
        """[Delta_q, f] g matches its definition term by term."""
        part = DyadicPartition(grid64)
        f, g = _rand(grid64, rng), _rand(grid64, rng)
        q = 3
        direct = part.delta(product(f, g), q) - product(f, part.delta(g, q))
        assert l2_norm(commutator_block(f, g, q, part) - direct) == 0.0

    def test_commutator_lowpass_vanishes_at_the_top(self, grid64, rng):
        """[S_q, f] g: the cut-off commutator shrinks as S_q -> identity.

        At q = q_max + 1 the cut-off is the identity on resolved modes, so
        the commutator reduces to the aliasing difference of two truncated
        products, which vanishes for the exact truncated product rule.
        """
        part = DyadicPartition(grid64)
        f, g = _rand(grid64, rng), _rand(grid64, rng)
        top = commutator_lowpass(f, g, part.q_max + 1, part)
        assert l2_norm(top) <= REL * l2_norm(product(f, g))


class TestBesovAndSobolev:
    def test_besov_022_is_equivalent_to_l2(self, grid64, rng):
        """B^0_{2,2} and L2 agree within the overlap constants."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        b = besov_norm(f, 0.0, 2, 2, part)
        n = l2_norm(f)
        assert n / math.sqrt(2.0) - 1e-12 <= b <= n + 1e-12

    def test_besov_r_monotonicity(self, grid64, rng):
        """l^r norms over blocks decrease in r: r = 1 >= r = 2 >= r = inf."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        b1 = besov_norm(f, 0.5, 2, 1, part)
        b2 = besov_norm(f, 0.5, 2, 2, part)
        binf = besov_norm(f, 0.5, 2, np.inf, part)
        assert b1 >= b2 >= binf > 0.0

    @pytest.mark.parametrize("variant,s", [("blocks", 0.5), ("lowpass", -0.5)],
                             ids=["blocks", "lowpass"])
    @pytest.mark.parametrize("r", [0, -1])
    def test_besov_rejects_nonpositive_r(self, grid16, rng, variant, s, r):
        """Both variants take r > 0 or inf only, and a finite s only."""
        f = _rand(grid16, rng)
        part = DyadicPartition(grid16)
        with pytest.raises(DyadicError, match="r must be positive"):
            besov_norm(f, s, 2, r, part, variant=variant)
        for bad in (math.nan, -math.inf, math.inf):
            with pytest.raises(DyadicError, match="s must be finite"):
                besov_norm(f, bad, 2, 2, part, variant=variant)

    def test_sobolev_forms_are_equivalent(self, grid64, rng):
        """The Fourier-weight and block forms of H^s agree within constants."""
        part = DyadicPartition(grid64)
        f = _rand(grid64, rng)
        for s in (-0.5, 0.5, 1.0):
            a = hs_norm(f, s, form="fourier")
            b = hs_norm(f, s, form="lp", partition=part)
            assert 0.1 * a <= b <= 10.0 * a

    @pytest.mark.parametrize("n", [16, 64])
    def test_lp_form_is_the_block_sum(self, n, rng):
        """The closed-form weight gives sum_q 4^{qs} ||Delta_q f||^2."""
        grid = GridSpec(n)
        part = DyadicPartition(grid)
        f = _rand(grid, rng)
        for s in (-0.5, 0.25, 0.5, 1.0):
            blocks = sum(4.0 ** (q * s) * l2_norm(part.delta(f, q)) ** 2
                         for q in part.q_range)
            assert hs_norm(f, s, form="lp", partition=part) == pytest.approx(
                math.sqrt(blocks), rel=1e-13)

    def test_hs_inner_is_symmetric_and_consistent(self, grid64, rng):
        """<f, f>_{H^s} recovers the squared lp-form norm."""
        part = DyadicPartition(grid64)
        f, g = _rand(grid64, rng), _rand(grid64, rng)
        s = 0.5
        assert hs_inner(f, g, s, part) == pytest.approx(
            hs_inner(g, f, s, part), rel=1e-12
        )
        assert hs_inner(f, f, s, part) == pytest.approx(
            hs_norm(f, s, form="lp", partition=part) ** 2, rel=1e-12
        )

    def test_hs_zero_matches_l2_weighting(self, grid32, real_mode):
        """H^0 in weight form is the plain L2 norm; a non-finite s raises in
        both forms and in the block pairing."""
        f = real_mode(grid32, (4, 1), "sin")
        assert hs_norm(f, 0.0, form="fourier") == pytest.approx(
            l2_norm(f), rel=1e-14
        )
        part = DyadicPartition(grid32)
        for s in (math.nan, math.inf):
            with pytest.raises(GridError, match="s must be finite"):
                hs_norm(f, s, form="fourier")
            with pytest.raises(DyadicError, match="s must be finite"):
                hs_norm(f, s, form="lp", partition=part)
            with pytest.raises(DyadicError, match="s must be finite"):
                hs_inner(f, f, s, part)
