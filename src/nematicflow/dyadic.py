"""Dyadic frequency decomposition, Besov/Sobolev norms, and Bony splittings.

The low-frequency profile chi is smooth, radial, nonincreasing, identically 1
on [0, 3/4] and 0 on [4/3, inf), glued with the standard exp(-1/t) bump.  The
shell profile phi(xi) = chi(xi/2) - chi(xi) >= 0 is supported on
[3/4, 8/3], so the block Delta_q (multiplier phi(2^{-q}|n|), q >= 0) lives on
3 * 2^{q-2} <= |n| <= (8/3) * 2^q and Delta_{-1} (multiplier chi(|n|)) covers
|n| <= 4/3.  Because dyadic scaling is exact in floating point, the telescoping

    chi(2^{-Q-1} xi) = chi(xi) + sum_{q=0}^{Q} phi(2^{-q} xi)

holds bit-for-bit, the grid partition of unity sum_q Delta_q = Id is exact,
and blocks two or more apart are exactly orthogonal (disjoint supports).

Low-pass operators follow S_q = sum_{k=-1}^{q-1} Delta_k (so S_0 = Delta_{-1},
and S_q = 0 for q <= -1 wherever block sums reference it), with multiplier
chi(2^{-q}|n|).

besov_norm is the block characterization, the l^r norm over q of
2^{qs} ||Delta_q f||_{L^p}, and hs_norm has a Fourier-weight and a block
form.  An exponent p or r is a positive real or np.inf.

_block_pair_samples samples (Delta_q, S_{q-1}) block pairs on band-sized
grids for frakD and the harness identity checks.  It multiplies the N-grid
stacks by their multipliers straight into the band of its inverses'
spectra, and the inverses write into spectra and samples kept in a dict
its caller owns: a twin run or a harness check makes one dict and hands it
to all its records or trials, so the buffers live as long as that job.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    TWO_PI,
    SpectralField,
    _irfft_padded,
    _lp_norms,
    _shared,
    _tables,
    _weighted_power,
    hs_norm_fourier,
    inner,
    product,
    require_same_grid,
)


class DyadicError(ValueError):
    """Raised for out-of-range block indices or invalid norm parameters."""


def _glue(t):
    """Smooth ramp on [0, 1]: 0 at 0, 1 at 1, flat to all orders at both ends."""
    t = np.asarray(t, dtype=np.float64)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0.0
    a[pos] = np.exp(-1.0 / t[pos])
    neg = t < 1.0
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def chi(r):
    """Low-frequency profile: 1 on [0, 3/4], 0 on [4/3, inf), smooth between."""
    scalar = np.ndim(r) == 0
    arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    out = np.ones_like(arr)
    out[arr >= 4.0 / 3.0] = 0.0
    mid = (arr > 0.75) & (arr < 4.0 / 3.0)
    # decreasing ramp: argument 1 at r = 3/4, 0 at r = 4/3
    out[mid] = _glue((4.0 / 3.0 - arr[mid]) / (4.0 / 3.0 - 0.75))
    return float(out[0]) if scalar else out


def phi(r):
    """Shell profile phi(xi) = chi(xi/2) - chi(xi), nonnegative, support [3/4, 8/3]."""
    return chi(np.asarray(r, dtype=np.float64) / 2.0) - chi(r)


@lru_cache(maxsize=32)
def _partition_tables(n_modes):
    """q_max, the read-only multipliers of Delta_q (row q + 1) and of S_q
    (row q, q = 0..q_max + 1, the running sums of the blocks), on the half
    layout."""
    radius = _tables(n_modes)["radius"]
    half = n_modes // 2 - 1
    max_radius = math.sqrt(2.0) * half
    # smallest q with (3/4) 2^{q+1} strictly above the largest populated |n|
    q = 0
    while 0.75 * 2.0 ** (q + 1) <= max_radius:
        q += 1
    q_max = q
    mults = [np.asarray(chi(radius))]
    for k in range(q_max + 1):
        mults.append(np.asarray(phi(radius * 2.0 ** (-k))))
    mults = np.stack(mults)
    lows = np.cumsum(mults, axis=0)
    mults.setflags(write=False)
    lows.setflags(write=False)
    return q_max, mults, lows


@lru_cache(maxsize=32)
def _lp_weight(n_modes, s):
    """w_s(n) = sum_q 4^{qs} phi_q(n)^2 times the Parseval multiplicity, so
    that the lp-form H^s norm is ||f||^2 = (2 pi)^2 sum_n w_s(n) |f_n|^2
    over the half spectrum (Parseval on each block)."""
    if not math.isfinite(s):
        raise DyadicError(f"s must be finite, got {s}")
    q_max, mults, _ = _partition_tables(n_modes)
    w = np.zeros_like(mults[0])
    for q in range(-1, q_max + 1):
        w += 4.0 ** (q * s) * mults[q + 1] ** 2
    w *= _tables(n_modes)["weight"]
    w.setflags(write=False)
    return w


def _fast_even_size(k):
    """Smallest M = 2^i 3^j (i >= 1) above k."""
    return min(2 ** i * 3 ** j for i in range(1, k.bit_length() + 2)
               for j in range(k.bit_length()) if 2 ** i * 3 ** j > k)


@lru_cache(maxsize=32)
def _block_subgrids(n_modes):
    """(q, b + 1, block, low, M_q), q = 1..q_max, for _block_pair_samples:
    the band b + 1 of the inverses, the N-grid multipliers of Delta_q and
    S_{q-1}, and the sample grid size."""
    q_max, mults, lows = _partition_tables(n_modes)
    top = n_modes // 2 - 1
    out = []
    for q in range(1, q_max + 1):
        b = min(top, 2 ** (q + 3) // 3)
        s = min(top, 2 ** (q + 1) // 3)
        out.append((q, b + 1, mults[q + 1], lows[q - 1],
                    _fast_even_size(2 * (b + s))))
    return tuple(out)


def _block_pair_buffers(n, *stacks):
    """Per q of _block_subgrids(n), a (spectrum, samples) pair per stack
    shape.  All spectra share one buffer: each is done with when its inverse
    returns; per stack, the samples of every q share another: one q's are
    done with before the next q's are written."""
    ms = [m for *_, m in _block_subgrids(n)]
    spectra = iter(_shared(*(lead + (m, m // 2 + 1) for m in ms
                             for lead in stacks), dtype=np.complex128))
    samples = zip(*(_shared(*(lead + (m, m) for m in ms)) for lead in stacks))
    return [[(next(spectra), s) for s in per_q] for per_q in samples]


def _block_pair_samples(blocks, lows, kept=None):
    """(q, Delta_q blocks, S_{q-1} lows) for q = 1..q_max, each stack of N-grid
    half spectra sampled by one padded inverse on the M_q x M_q grid.

    Per axis Delta_q has the band b = floor((8/3) 2^q) and S_{q-1} the band
    s = floor((4/3) 2^{q-1}), capped at N/2 - 1, and M_q = 2^i 3^j > 2(b + s),
    so the grid mean of a product of at most two blocks and two lows is its
    exact integral.  M_q is even: the unphased samples sit on points().

    Each stack is multiplied by its q's multiplier straight into the band
    of an M_q-grid spectrum, and the inverses write into spectra and
    samples of _block_pair_buffers, kept in the dict kept (None: a fresh
    dict) by N and stack shapes, so a warm call allocates neither.  The
    samples of one q are overwritten by the next q (and by the next call).
    """
    n = blocks.shape[-2]
    key = (n, blocks.shape[:-2], lows.shape[:-2])
    kept = {} if kept is None else kept
    if key not in kept:
        kept[key] = _block_pair_buffers(*key)
    for (q, h, block, low, m), (out_b, out_l) in zip(_block_subgrids(n),
                                                     kept[key]):
        yield (q, _irfft_padded(blocks, m, out=out_b, mult=block, band=h),
               _irfft_padded(lows, m, out=out_l, mult=low, band=h))


@dataclass(frozen=True)
class DyadicPartition:
    """Dyadic partition of a mode grid: blocks q = -1, 0, ..., q_max.

    q_max is the smallest q with (3/4) * 2^{q+1} > max |n| over populated
    modes, so S_{q_max + 1} is the identity on the grid.
    """

    grid: "object"

    @property
    def q_max(self):
        return _partition_tables(self.grid.n_modes)[0]

    @property
    def q_range(self):
        return range(-1, self.q_max + 1)

    def multiplier(self, q):
        q_max, mults, _ = _partition_tables(self.grid.n_modes)
        if q < -1 or q > q_max:
            raise DyadicError(f"block index must lie in [-1, {q_max}], got {q}")
        return mults[q + 1]

    def delta(self, field, q):
        """Frequency block Delta_q f."""
        self._check_grid(field)
        return SpectralField(field.grid, field.coeffs * self.multiplier(q))

    def low_pass(self, field, q):
        """S_q f = sum_{k=-1}^{q-1} Delta_k f, for 0 <= q <= q_max + 1."""
        self._check_grid(field)
        if q < 0 or q > self.q_max + 1:
            raise DyadicError(
                f"low-pass index must lie in [0, {self.q_max + 1}], got {q}"
            )
        return SpectralField(field.grid, field.coeffs * self._low_mult(q))

    def _low_mult(self, q):
        """Multiplier of S_q for any integer q (zero for q <= -1)."""
        if q <= -1:
            return 0.0
        q_max, _, lows = _partition_tables(self.grid.n_modes)
        if q > q_max + 1:
            raise DyadicError(f"low-pass index must lie in [0, {q_max + 1}], got {q}")
        return lows[q]

    def blocks(self, field):
        """All blocks Delta_{-1} f, ..., Delta_{q_max} f as a list."""
        return [self.delta(field, q) for q in self.q_range]

    def _check_grid(self, field):
        if field.grid.n_modes != self.grid.n_modes:
            raise DyadicError("field and partition live on different grids")


# -- norms ---------------------------------------------------------------------


def besov_norm(field, s, p, r, partition):
    """Besov norm ||f||_{B^s_{p,r}}: the l^r norm over q = -1..q_max of
    2^{qs} ||Delta_q f||_{L^p}, for p and r positive reals or np.inf.  The
    L^p norms of all the blocks come from one padded inverse on the 2N grid.
    """
    if not math.isfinite(s):
        raise DyadicError(f"s must be finite, got {s}")
    if not (isinstance(r, numbers.Real) and r > 0):
        raise DyadicError(f"r must be positive or inf, got {r}")
    partition._check_grid(field)
    mults = _partition_tables(field.grid.n_modes)[1]
    norms = _lp_norms(_irfft_padded(field.coeffs * mults, field.grid.padded_size),
                      p).tolist()
    terms = [2.0 ** (q * s) * n for q, n in enumerate(norms, -1)]
    if r == np.inf:
        return float(max(terms))
    return float(sum(t ** r for t in terms) ** (1.0 / r))


def hs_norm(field, s, form="fourier", partition=None):
    """Sobolev H^s norm in either of two equivalent forms.

    form="fourier": (2 pi) (sum_n (1+|n|)^{2s} |f_n|^2)^{1/2}.
    form="lp":      (sum_q 2^{2qs} ||Delta_q f||_{L2}^2)^{1/2}, evaluated as
                    (2 pi) (sum_n w_s(n) |f_n|^2)^{1/2}, w_s = sum_q 4^{qs} phi_q^2.
    The lp form is continuous in s and equals hs_inner(f, f, s)^{1/2}; at
    s = 0 it is not the L2 norm, since sum_q phi_q^2 < 1 where blocks
    overlap.
    """
    if form == "fourier":
        return hs_norm_fourier(field, s)
    if form == "lp":
        if partition is not None:
            partition._check_grid(field)
        w = _lp_weight(field.grid.n_modes, s)
        return TWO_PI * math.sqrt(_weighted_power(w, field.coeffs))
    raise DyadicError(f"form must be 'fourier' or 'lp', got {form!r}")


def hs_norm_vector(vec, s, form="fourier", partition=None):
    return math.hypot(
        hs_norm(vec.x, s, form, partition), hs_norm(vec.y, s, form, partition)
    )


def hs_inner(f, g, s, partition):
    """Block Sobolev pairing sum_q 2^{2qs} int Delta_q f conj(Delta_q g) dx."""
    require_same_grid(f, g)
    if not math.isfinite(s):
        raise DyadicError(f"s must be finite, got {s}")
    total = 0.0
    for q in partition.q_range:
        total += 4.0 ** (q * s) * inner(partition.delta(f, q), partition.delta(g, q))
    return total


# -- Bony decompositions --------------------------------------------------------


def bony_split(f, g, partition):
    """Paraproduct split fg = T_f g + T_g f + R(f, g).

    T_f g = sum_q S_{q-1}f Delta_q g (nonzero from q = 1), and
    R(f, g) = sum_q Delta_q f (Delta_{q-1} + Delta_q + Delta_{q+1}) g with
    out-of-range blocks read as zero.  All products use the grid's truncated
    product, so the three parts sum to the truncated fg exactly (bilinearity).
    """
    require_same_grid(f, g)
    qm = partition.q_max
    fb = partition.blocks(f)
    gb = partition.blocks(g)

    def block(blocks, q):
        if q < -1 or q > qm:
            return None
        return blocks[q + 1]

    t_fg = SpectralField.zero(f.grid)
    t_gf = SpectralField.zero(f.grid)
    rem = SpectralField.zero(f.grid)
    for q in range(1, qm + 1):
        t_fg = t_fg + product(partition.low_pass(f, q - 1), block(gb, q))
        t_gf = t_gf + product(partition.low_pass(g, q - 1), block(fb, q))
    for q in range(-1, qm + 1):
        near = SpectralField.zero(f.grid)
        for j in (q - 1, q, q + 1):
            bj = block(gb, j)
            if bj is not None:
                near = near + bj
        rem = rem + product(block(fb, q), near)
    return t_fg, t_gf, rem


def bony_block_decompose(f, g, q, partition):
    """Four-term decomposition of Delta_q(fg).

    Delta_q(fg) = sum_{|j-q|<=5} [Delta_q, S_{j-1}f] Delta_j g
                + sum_{|j-q|<=5} (S_{j-1} - S_{q-1}) f  Delta_q Delta_j g
                + S_{q-1}f Delta_q g
                + sum_{j >= q-5} Delta_q (Delta_j f S_{j+2} g)

    Returns a dict with the four term fields, their sum, and Delta_q of the
    truncated product for comparison.  The identity is exact on the grid:
    every product is the truncated product and the index ranges already cover
    every block pair (terms beyond them vanish by support disjointness).
    """
    require_same_grid(f, g)
    qm = partition.q_max
    if q < -1 or q > qm:
        raise DyadicError(f"block index must lie in [-1, {qm}], got {q}")
    zero = SpectralField.zero(f.grid)

    def low_f(k):
        # S_k f for any k <= q_max + 1; the multiplier is zero for k <= -1
        return SpectralField(f.grid, f.coeffs * partition._low_mult(k))

    term1 = zero
    term2 = zero
    for j in range(max(-1, q - 5), min(qm, q + 5) + 1):
        s_low = low_f(j - 1)
        dg = partition.delta(g, j)
        # commutator [Delta_q, S_{j-1}f] Delta_j g
        term1 = term1 + partition.delta(product(s_low, dg), q) - product(
            s_low, partition.delta(dg, q)
        )
        if abs(j - q) <= 1:
            # farther pairs have Delta_q Delta_j = 0 exactly
            diff = s_low - low_f(q - 1)
            term2 = term2 + product(diff, partition.delta(dg, q))
    term3 = product(low_f(q - 1), partition.delta(g, q))
    term4 = zero
    for j in range(max(-1, q - 5), qm + 1):
        sg = partition.low_pass(g, j + 2) if j + 2 <= qm + 1 else g
        term4 = term4 + partition.delta(product(partition.delta(f, j), sg), q)
    total = term1 + term2 + term3 + term4
    return {
        "commutator": term1,
        "lowpass_gap": term2,
        "paraproduct": term3,
        "remainder": term4,
        "sum": total,
        "target": partition.delta(product(f, g), q),
    }


# -- commutators -----------------------------------------------------------------


def commutator_block(f, g, q, partition):
    """[Delta_q, f] g = Delta_q(fg) - f Delta_q g, truncated products."""
    require_same_grid(f, g)
    return partition.delta(product(f, g), q) - product(f, partition.delta(g, q))


def commutator_lowpass(f, g, q, partition):
    """[S_q, f] g = S_q(fg) - f S_q g, truncated products."""
    require_same_grid(f, g)
    return partition.low_pass(product(f, g), q) - product(f, partition.low_pass(g, q))
