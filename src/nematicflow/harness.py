"""Ensemble verification of the quantitative inequalities the analysis rests on.

Each verifier draws n_trials random fields (deterministic per (seed, trial)),
computes the ratio left-side / right-side of one inequality across its swept
parameter (block index q, cutoff N, Lebesgue exponent p, or exponent pair),
and reports uniformity: within every trial, the max ratio over the swept
parameter divided by the median must stay below a cap (default 10).  The
inequalities assert the existence of constants, so the checks target
uniformity in the parameter, not a particular value.

The ratio verifiers draw phase-coherent wave-packet fields (focused_scalar):
every dyadic block of such a field concentrates in physical space and nearly
saturates the Lebesgue-norm gains, so the measured ratios sit at a roughly
q-independent fraction of the sharp constant.  Independent-phase Gaussian
fields underfill inequalities like the L^1 -> L^2 Bernstein bound by a
factor that itself decays in q, which would make any cross-parameter
uniformity statistic fail for structural reasons unrelated to the constant
being tested.  The two exact-identity checks keep independent-phase fields,
since they hold for every field whatsoever.

Checked inequalities, with d = 2:

  bernstein    ||d^k Delta_q f||_{L^r} <= C 2^{q(k + 2(1/p - 1/r))}
               ||Delta_q f||_{L^p}, and the reverse form
               2^{qk} ||Delta_q f||_{L^p} <= C sup_{|a|=k} ||d^a Delta_q f||_{L^p}
  sn_linf      ||S_N f||_{L^inf} <= C sqrt(N) ||f||_{H^1}
  sobolev_sqrtp  ||f||_{L^p} <= C sqrt(p) ||f||_{H^s},  s = 1 - 2/p
  product_rule ||f g||_{H^{s+t-1}} <= C ||f||_{H^s} ||g||_{H^t},
               s + t > 0, s, t < 1
  commutator   ||[Delta_q, f] g||_{L^r} <= C 2^{-q} ||grad f||_{L^p} ||g||_{L^h}
               (and the same with S_N in place of Delta_q)
  tail_bounds  ||(Id - S_N) f||_{L^inf} <= C 2^{-N/2} ||f||_{H^1}^{1/2}
               ||f||_{H^2}^{1/2}, and
               ||(Id - S_N) f||_{H^{1/4}} <= C 2^{-3N/4} ||f||_{H^1}

plus two exact structural identities (tolerance set by roundoff, not by a
constant): the integration-by-parts cancellation I3 + J3 = 0 between the
paired gradient/transpose-gradient dyadic sums, and the vanishing of
symmetric-against-skew tensor contractions.

Every check samples each plane it needs once.  A ratio verifier batches a
trial's planes into padded inverses on the 2N grid, one per block index or
cut-off family, and reads all their L^p norms from those samples through
grid._lp_norms.  The samples are not phase-shifted to points(): on the even
2N grid that is a whole-point shift, which no L^p norm sees.  The norms
(L^1, L^{4/3}, L^inf among them) are not polynomial integrals, so they stay
on the 2N grid.  The identity checks sample each (Delta_q, S_{q-1}) block
pair on the band-sized grids of dyadic._block_pair_samples.

Every check keeps the arrays its transforms work in across its trials: the
N-grid half spectra of a batch, the samples of the padded inverses, the
M-grid half spectra that the inverses and forwards run in and the L^p
scratch.  The check makes one dict and hands it to every trial as the
core's kept argument; the core hands it on to _planes or
dyadic._block_pair_samples, which fill it on first use with arrays sized
for the largest batch they serve.  So a warm trial allocates no transform
buffer, and the arrays go when the check returns.  A core called without kept works in a fresh dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fields as field_gen
from .dyadic import _block_pair_samples, _partition_tables, hs_norm
from .dynamics import strain_and_vorticity
from .grid import (
    GridSpec,
    SpectralField,
    _irfft_padded,
    _lp_norms,
    _rfft_truncated,
    _sample_integral,
    _shared,
    hs_norm_fourier,
    jacobian,
    laplacian,
)

UNIFORMITY_CAP = 10.0
# Spectral decay exponents of the random fields: (1 + |n|)^(-decay).
FIELD_DECAY = 2.5
SN_LINF_DECAY = 2.0
TAIL_DECAY = 2.25


class HarnessError(ValueError):
    """Raised for invalid ensemble parameters."""


@dataclass(frozen=True)
class EnsembleSpec:
    """Random ensemble description: grid size, trial count, seed."""

    grid_n: int
    n_trials: int = 100
    seed: int = 7000

    def __post_init__(self):
        if self.n_trials < 30:
            raise HarnessError(
                f"ensembles need at least 30 trials, got {self.n_trials}")
        if self.grid_n < 16 or self.grid_n % 2:
            raise HarnessError(
                f"grid_n must be even and at least 16, got {self.grid_n}")
        if self.seed < 0:
            raise HarnessError(f"seed must be nonnegative, got {self.seed}")

    def grid(self):
        return GridSpec(self.grid_n)

    def rng(self, trial):
        return np.random.default_rng((self.seed, trial))


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one verifier over the ensemble.

    rows: (param label, max ratio over trials, median ratio over trials).
    verdict: every trial's max-over-parameter / median-over-parameter stayed
    at or below cap, with all ratios finite and nonnegative.
    """

    check: str
    rows: tuple
    verdict: bool
    cap: float
    worst_uniformity: float
    max_ratio: float
    n_trials: int


class _Planes(NamedTuple):
    """The arrays of a batch of planes: N-grid half spectra, the samples of
    their padded inverse on the M grid, the M-grid half spectrum that an
    inverse or a forward runs in, and an L^p scratch."""

    half: np.ndarray
    samples: np.ndarray
    spectrum: np.ndarray
    scratch: np.ndarray


def _planes(kept, n, m, *leads):
    """The _Planes of k planes for each lead k (None for one plane with no
    leading axis), made on first use and kept in the dict kept (None: a
    fresh dict).  Each array is a view of one sized for the largest lead,
    so the leads share memory and must not be in use at the same time; so
    do the spectrum and the scratch, since a transform is done with its
    spectrum when it returns."""
    kept = {} if kept is None else kept
    if (n, m, leads) in kept:
        return kept[n, m, leads]
    top = max(k or 1 for k in leads)
    full = (np.empty((top, n, n // 2 + 1), dtype=np.complex128),
            np.empty((top, m, m)),
            *_shared(((top, m, m // 2 + 1), np.complex128), (top, m, m)))
    planes = kept[n, m, leads] = [
        _Planes(*(a[0] if k is None else a[:k] for a in full)) for k in leads]
    return planes


def _ratio_report(spec, check, trial_ratios):
    """The RatioReport of trial_ratios(grid, rng, kept) -> {family: {param:
    ratio}} over the ensemble, one rng stream per trial and one row per
    (family, param).  The trials share one dict of kept arrays."""
    grid = spec.grid()
    kept = {}
    data = {}
    for trial in range(spec.n_trials):
        for family, ratios in trial_ratios(grid, spec.rng(trial), kept).items():
            if ratios:
                data.setdefault(family, []).append(ratios)
    rows = []
    worst = 0.0
    ok = True
    for family in sorted(data):
        trials = data[family]
        for p in sorted({p for tr in trials for p in tr}):
            vals = [tr[p] for tr in trials if p in tr]
            rows.append((f"{family}|{p}", float(max(vals)),
                         float(np.median(vals))))
        for tr in trials:
            vals = list(tr.values())
            if any(not math.isfinite(v) or v < 0 for v in vals):
                ok = False
            elif len(vals) >= 2:
                med = float(np.median(vals))
                if med > 0:
                    worst = max(worst, max(vals) / med)
    max_ratio = max((r[1] for r in rows), default=0.0)
    return RatioReport(check, tuple(rows), ok and worst <= UNIFORMITY_CAP,
                       UNIFORMITY_CAP, worst, max_ratio, spec.n_trials)


def _focused(ratios, decay=FIELD_DECAY, count=1):
    """trial_ratios for _ratio_report: ratios of count focused fields."""
    return lambda grid, rng, kept: ratios(*(
        field_gen.focused_scalar(grid, rng, decay=decay) for _ in range(count)),
        kept)


def _ratios(params, nums, dens):
    """{param: num / den}, leaving out the params whose den is negligible.
    A NaN den is kept, so that the report flags its trial."""
    return {k: float(n / d) for k, n, d in zip(params, nums, dens)
            if not d <= 1e-290}


# -- inequality verifiers ----------------------------------------------------------


BERNSTEIN_PAIRS = ((2, 2), (2, np.inf), (1, 2))


def _bernstein_ratios(f, kept=None):
    """One trial of verify_bernstein: per q, one 3-plane inverse of
    (Delta_q f, d_x Delta_q f, d_y Delta_q f) serves every exponent."""
    grid = f.grid
    q_max, mults, _ = _partition_tables(grid.n_modes)
    t = grid.tables()
    ikx, iky = 1j * t["nx"], 1j * t["ny"]
    [b] = _planes(kept, grid.n_modes, grid.padded_size, 3)
    qs = range(-1, q_max + 1)
    q_arr = np.arange(-1, q_max + 1)
    # norms[p][q + 1]: the L^p norms of the three planes of block q
    norms = {p: np.empty((len(qs), 3)) for p in (1, 2, np.inf)}
    for j, mult in enumerate(mults):
        np.multiply(f.coeffs, mult, out=b.half[0])
        np.multiply(b.half[0], ikx, out=b.half[1])
        np.multiply(b.half[0], iky, out=b.half[2])
        v = _irfft_padded(b.half, grid.padded_size,
                          out=(b.spectrum, b.samples))
        for p, n in norms.items():
            n[j] = _lp_norms(v, p, out=b.scratch)
    out = {}
    for p, r in BERNSTEIN_PAIRS:
        den = 2.0 ** (q_arr * 2.0 * (1.0 / p - 1.0 / r)) * norms[p][:, 0]
        if p != r:  # at p = r the k = 0 ratio is a norm over itself
            out[f"forward p={p} r={r} k=0"] = _ratios(qs, norms[r][:, 0], den)
        out[f"forward p={p} r={r} k=1"] = _ratios(
            qs, norms[r][:, 1:].max(axis=1), 2.0 ** q_arr * den)
    for p, n in norms.items():
        out[f"reverse p={p}"] = _ratios(qs[1:], 2.0 ** q_arr[1:] * n[1:, 0],
                                        n[1:, 1:].max(axis=1))
    return out


def verify_bernstein(spec):
    """Derivative/integrability gain on dyadic blocks, forward and reverse."""
    return _ratio_report(spec, "bernstein", _focused(_bernstein_ratios))


def _sn_linf_ratios(f, kept=None):
    """One trial of verify_sn_linf: one inverse of S_n f, n = 1..q_max."""
    m = f.grid.padded_size
    q_max, _, lows = _partition_tables(f.grid.n_modes)
    [b] = _planes(kept, f.grid.n_modes, m, q_max)
    ns = range(1, q_max + 1)
    sup = _lp_norms(_irfft_padded(f.coeffs, m, out=(b.spectrum, b.samples),
                                  mult=lows[1:q_max + 1]),
                    np.inf, out=b.scratch)
    h1 = hs_norm_fourier(f, 1.0)
    return {"low-pass sup": _ratios(ns, sup, [math.sqrt(n) * h1 for n in ns])}


def verify_sn_linf(spec):
    """Low-pass sup bound ||S_N f||_inf <= C sqrt(N) ||f||_{H^1}."""
    return _ratio_report(spec, "sn_linf",
                         _focused(_sn_linf_ratios, decay=SN_LINF_DECAY))


SOBOLEV_PS = (4, 8, 16, 32, 64)  # each p > 2, so that s = 1 - 2/p > 0


def _sobolev_sqrtp_ratios(f, kept=None):
    """One trial of verify_sobolev_sqrtp: one sample of f serves every p."""
    m = f.grid.padded_size
    [b] = _planes(kept, f.grid.n_modes, m, None)
    v = _irfft_padded(f.coeffs, m, out=(b.spectrum, b.samples))
    return {"sqrt-p growth": _ratios(
        SOBOLEV_PS, [_lp_norms(v, p, out=b.scratch) for p in SOBOLEV_PS],
        [math.sqrt(p) * hs_norm_fourier(f, 1.0 - 2.0 / p) for p in SOBOLEV_PS])}


def verify_sobolev_sqrtp(spec):
    """Sobolev growth ||f||_{L^p} <= C sqrt(p) ||f||_{H^{1-2/p}}."""
    return _ratio_report(spec, "sobolev_sqrtp", _focused(_sobolev_sqrtp_ratios))


# (s, t) with s + t > 0 and s, t < 1
PRODUCT_PAIRS = ((0.5, 0.0), (0.75, -0.25), (0.75, 0.75), (0.0, 0.5))


def _product_rule_ratios(f, g, kept=None):
    """One trial of verify_product_rule: fg is grid.product(f, g), formed
    in kept arrays."""
    n, m = f.grid.n_modes, f.grid.padded_size
    b, one = _planes(kept, n, m, 2, None)
    b.half[0], b.half[1] = f.coeffs, g.coeffs
    vf, vg = _irfft_padded(b.half, m, out=(b.spectrum, b.samples))
    fg = SpectralField(f.grid, _rfft_truncated(
        np.multiply(vf, vg, out=vf), n, spectrum=one.spectrum))
    return {"sobolev product": _ratios(
        PRODUCT_PAIRS,
        [hs_norm_fourier(fg, s + t - 1.0) for s, t in PRODUCT_PAIRS],
        [hs_norm_fourier(f, s) * hs_norm_fourier(g, t) for s, t in PRODUCT_PAIRS])}


def verify_product_rule(spec):
    """Product continuity ||fg||_{H^{s+t-1}} <= C ||f||_{H^s} ||g||_{H^t}."""
    return _ratio_report(spec, "product_rule",
                         _focused(_product_rule_ratios, count=2))


COMMUTATOR_TRIPLES = ((2.0, 4.0, 4.0), (2.0, 2.0, np.inf), (4.0 / 3.0, 2.0, 4.0))


def _commutator_ratios(f, g, kept=None):
    """One trial of verify_commutator: one 4-plane inverse of
    (f, g, d_x f, d_y f), fg formed from those samples; then per family one
    inverse of the cut g's, one forward of the f cut(g)'s and one inverse of
    the commutators cut(fg) - f cut(g).  The two families share one set of
    kept arrays, and each family's cut g samples are overwritten by the
    f cut(g)'s, then by the commutators."""
    grid = f.grid
    n, m = grid.n_modes, grid.padded_size
    q_max, mults, lows = _partition_tables(n)
    t = grid.tables()
    one, block, low = _planes(kept, n, m, None, q_max + 1, q_max)
    [fields] = _planes(kept, n, m, 4)
    fields.half[0], fields.half[1] = f.coeffs, g.coeffs
    np.multiply(f.coeffs, 1j * t["nx"], out=fields.half[2])
    np.multiply(f.coeffs, 1j * t["ny"], out=fields.half[3])
    vf, vg, fx, fy = _irfft_padded(fields.half, m,
                                   out=(fields.spectrum, fields.samples))
    fg = _rfft_truncated(np.multiply(vf, vg, out=one.samples), n,
                         spectrum=one.spectrum)
    grad_f = np.multiply(fx, fx, out=fx)  # |grad f|, formed in place
    grad_f += np.multiply(fy, fy, out=fy)
    np.sqrt(grad_f, out=grad_f)
    # each distinct exponent of each column is normed once
    rs, ps, hs = (set(column) for column in zip(*COMMUTATOR_TRIPLES))
    grad_lp = {p: _lp_norms(grad_f, p, out=one.scratch) for p in ps}
    g_lp = {h: _lp_norms(vg, h, out=one.scratch) for h in hs}
    out = {}
    # S_N stops at N = q_max: one step further it is the identity on the
    # resolved ball and the commutator vanishes identically.
    for family, ks, cuts, b in (
            ("block", range(0, q_max + 1), mults[1:], block),
            ("low-pass", range(1, q_max + 1), lows[1:q_max + 1], low)):
        cut_g = _irfft_padded(g.coeffs, m, out=(b.spectrum, b.samples),
                              mult=cuts)
        f_cut_g = _rfft_truncated(np.multiply(vf, cut_g, out=cut_g), n,
                                  spectrum=b.spectrum)
        comm = np.multiply(fg, cuts, out=b.half)
        comm -= f_cut_g
        comm = _irfft_padded(comm, m, out=(b.spectrum, b.samples))
        comm_lp = {r: _lp_norms(comm, r, out=b.scratch) for r in rs}
        for r, p, h in COMMUTATOR_TRIPLES:
            out[f"{family} r={r:g} p={p:g} h={h:g}"] = _ratios(
                ks, comm_lp[r], [grad_lp[p] * g_lp[h] * 2.0 ** (-k) for k in ks])
    return out


def verify_commutator(spec):
    """Commutator smoothing for [Delta_q, f]g and [S_N, f]g."""
    def trial(grid, rng, kept):
        # f coherent: the bound is driven by concentrated gradients of the
        # multiplier.  g independent-phase: feeds every block evenly, so the
        # swept ratios probe the constant rather than packet geometry.
        f = field_gen.focused_scalar(grid, rng, decay=FIELD_DECAY)
        g = field_gen.random_scalar(grid, rng, decay=FIELD_DECAY, zero_mean=False)
        return _commutator_ratios(f, g, kept)
    return _ratio_report(spec, "commutator", trial)


def _tail_bounds_ratios(f, kept=None):
    """One trial of verify_tail_bounds: one inverse of the tails f - S_n f,
    n = 1..q_max (one step further S_n is the identity on the resolved ball
    and the tail vanishes identically)."""
    grid = f.grid
    m = grid.padded_size
    q_max, _, lows = _partition_tables(grid.n_modes)
    [b] = _planes(kept, grid.n_modes, m, q_max)
    ns = range(1, q_max + 1)
    tails = np.multiply(f.coeffs, lows[1:q_max + 1], out=b.half)
    np.subtract(f.coeffs, tails, out=tails)
    h1 = hs_norm_fourier(f, 1.0)
    h2 = hs_norm_fourier(f, 2.0)
    return {
        "sup tail": _ratios(
            ns, _lp_norms(_irfft_padded(tails, m, out=(b.spectrum, b.samples)),
                          np.inf, out=b.scratch),
            [2.0 ** (-n / 2.0) * math.sqrt(h1 * h2) for n in ns]),
        "quarter-sobolev tail": _ratios(
            ns, [hs_norm(SpectralField(grid, c), 0.25, form="lp") for c in tails],
            [2.0 ** (-0.75 * n) * h1 for n in ns]),
    }


def verify_tail_bounds(spec):
    """High-frequency tail decay of (Id - S_N) f in L^inf and H^{1/4}."""
    return _ratio_report(spec, "tail_bounds",
                         _focused(_tail_bounds_ratios, decay=TAIL_DECAY))


# -- exact structural identities -----------------------------------------------------


def _identity_report(spec, check, label, cap, residual, draws):
    """Worst residual(*fields, kept) over the ensemble, each trial drawing
    one random vector per (decay shift, divergence_free) in draws; the
    trials share one dict of kept block-pair buffers."""
    grid = spec.grid()
    kept = {}
    worst = 0.0
    for trial in range(spec.n_trials):
        rng = spec.rng(trial)
        fields = [field_gen.random_vector(grid, rng, decay=FIELD_DECAY + shift,
                                          divergence_free=div_free)
                  for shift, div_free in draws]
        worst = max(worst, residual(*fields, kept))
    return RatioReport(check, ((label, worst, worst),), worst <= cap, cap,
                       1.0, worst, spec.n_trials)


def _cancellation_sums(du, dd, d1, kept=None):
    """(I3, J3) of verify_cancellation for one draw."""
    gdu = jacobian(du)
    blocks = np.stack([f.coeffs for f in (gdu.xx, gdu.xy, gdu.yx, gdu.yy,
                                          laplacian(dd.x), laplacian(dd.y))])
    lows = np.stack([d1.x.coeffs, d1.y.coeffs])
    i3 = 0.0
    j3 = 0.0
    for q, (a11, a12, a21, a22, w1, w2), (s1, s2) in _block_pair_samples(
            blocks, lows, kept):
        i3 -= 2.0 ** (-q) * _sample_integral(
            (a11 * s1 + a12 * s2) * w1 + (a21 * s1 + a22 * s2) * w2
        )
        # transpose route: (s x w) : grad^T du, entries (i,j) -> s_i w_j
        j3 += 2.0 ** (-q) * _sample_integral(
            s1 * w1 * a11 + s1 * w2 * a21 + s2 * w1 * a12 + s2 * w2 * a22
        )
    return i3, j3


def _cancellation_residual(du, dd, d1, kept=None):
    i3, j3 = _cancellation_sums(du, dd, d1, kept)
    return abs(i3 + j3) / max(abs(i3), abs(j3), 1e-290)


def verify_cancellation(spec):
    """Integration-by-parts cancellation of the paired dyadic sums.

    Assembles, for random divergence-free du and random dd, d1,

      I3 = -sum_q 2^{-q} int ((Delta_q grad du) S_{q-1} d1) . Delta_q lap dd
      J3 = +sum_q 2^{-q} int (S_{q-1} d1 x Delta_q lap dd) : Delta_q grad^T du

    by two independent evaluation routes and reports max |I3 + J3| relative
    to max(|I3|, |J3|) over the ensemble.  The identity is pointwise
    algebraic, so the residual is pure roundoff.  Both integrands are exact
    on the band-sized grids of dyadic._block_pair_samples.
    """
    return _identity_report(spec, "cancellation", "I3+J3 relative residual",
                            1e-11, _cancellation_residual,
                            ((0.0, True), (1.0, False), (0.0, False)))


def _skew_residual(du, d1, kept=None):
    """Worst int T : W_q / int |T| |W_q| over q for one draw.  Every tensor
    entry is sampled, the zero and repeated ones included: building W_q from
    its one free entry would make the check pass by construction."""
    a, w = strain_and_vorticity(du)
    blocks = np.stack([f.coeffs for f in (a.xx, a.xy, a.yx, a.yy,
                                          w.xx, w.xy, w.yx, w.yy)])
    lows = np.stack([d1.x.coeffs, d1.y.coeffs])
    worst = 0.0
    for _, (a11, a12, a21, a22, w11, w12, w21, w22), (v1, v2) in (
            _block_pair_samples(blocks, lows, kept)):
        m1 = a11 * v1 + a12 * v2
        m2 = a21 * v1 + a22 * v2
        t11 = 2.0 * v1 * m1
        t12 = v1 * m2 + m1 * v2
        t22 = 2.0 * v2 * m2
        contraction = t11 * w11 + t12 * w12 + t12 * w21 + t22 * w22
        num = abs(_sample_integral(contraction))
        den = _sample_integral(
            np.sqrt(t11 ** 2 + 2 * t12 ** 2 + t22 ** 2)
            * np.sqrt(w11 ** 2 + w12 ** 2 + w21 ** 2 + w22 ** 2)
        )
        if den > 1e-290:
            worst = max(worst, num / den)
    return worst


def verify_skew_symmetry(spec):
    """Symmetric-against-skew contractions integrate to zero, block by block.

    For random du, d1: with A_q = Delta_q of the strain, W_q = Delta_q of the
    vorticity tensor, v = S_{q-1} d1, the symmetric tensor
    T = v x (A_q v) + (A_q v) x v contracts against W_q to zero pointwise;
    the reported residual is the worst quadrature value of int T : W_q
    relative to int |T| |W_q|.  The numerator is exact on the band-sized
    grids of dyadic._block_pair_samples.
    """
    return _identity_report(spec, "skew_symmetry", "sym:skew relative residual",
                            1e-12, _skew_residual, ((0.0, True), (0.0, False)))


ALL_CHECKS = (
    ("bernstein", verify_bernstein),
    ("sn_linf", verify_sn_linf),
    ("sobolev_sqrtp", verify_sobolev_sqrtp),
    ("product_rule", verify_product_rule),
    ("commutator", verify_commutator),
    ("tail_bounds", verify_tail_bounds),
    ("cancellation", verify_cancellation),
    ("skew_symmetry", verify_skew_symmetry),
)


def run_all(spec):
    """Run every verifier on one ensemble; returns {name: RatioReport}."""
    return {name: fn(spec) for name, fn in ALL_CHECKS}
