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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fields as field_gen
from .dyadic import DyadicPartition, _block_pair_samples, hs_norm
from .dynamics import strain_and_vorticity
from .grid import (
    GridSpec,
    _sample_integral,
    derivative,
    hs_norm_fourier,
    jacobian,
    laplacian,
    lp_norm,
    product,
    to_physical,
)

UNIFORMITY_CAP = 10.0


class HarnessError(ValueError):
    """Raised for invalid verifier parameters."""


@dataclass(frozen=True)
class EnsembleSpec:
    """Random ensemble description: grid size, trial count, field law."""

    grid_n: int
    n_trials: int = 100
    seed: int = 7000
    decay: Optional[float] = None  # None -> per-verifier default
    amplitude: float = 1.0

    def __post_init__(self):
        if self.n_trials < 30:
            raise HarnessError("ensembles need at least 30 trials")
        if self.grid_n < 16 or self.grid_n % 2:
            raise HarnessError("grid_n must be even and at least 16")
        if self.seed < 0:
            raise HarnessError(f"seed must be nonnegative, got {self.seed}")

    def grid(self):
        return GridSpec(self.grid_n)

    def rng(self, trial):
        return np.random.default_rng((self.seed, trial))

    def field_decay(self, default):
        return self.decay if self.decay is not None else default


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


class _Collector:
    """Accumulates per-trial {param: ratio} maps per inequality family."""

    def __init__(self, check):
        self.check = check
        self.cap = UNIFORMITY_CAP
        self.data = {}

    def add(self, family, trial_ratios):
        if trial_ratios:
            self.data.setdefault(family, []).append(trial_ratios)

    def report(self, n_trials):
        rows = []
        worst = 0.0
        ok = True
        for family in sorted(self.data):
            trials = self.data[family]
            params = sorted({p for tr in trials for p in tr})
            for p in params:
                vals = [tr[p] for tr in trials if p in tr]
                rows.append((f"{family}|{p}", float(max(vals)),
                             float(np.median(vals))))
            for tr in trials:
                vals = list(tr.values())
                if any(not math.isfinite(v) or v < 0 for v in vals):
                    ok = False
                    continue
                if len(vals) >= 2:
                    med = float(np.median(vals))
                    if med > 0:
                        u = max(vals) / med
                        worst = max(worst, u)
                        if u > self.cap:
                            ok = False
        max_ratio = max((r[1] for r in rows), default=0.0)
        return RatioReport(self.check, tuple(rows), ok, self.cap, worst,
                           max_ratio, n_trials)


def _magnitude_lp(components, p, oversample=2):
    """L^p norm of the pointwise euclidean magnitude of a component tuple."""
    sq = None
    for c in components:
        v = to_physical(c, oversample)
        sq = v * v if sq is None else sq + v * v
    mag = np.sqrt(sq)
    if p == np.inf:
        return float(np.max(mag))
    return float(_sample_integral(mag ** p) ** (1.0 / p))


def _safe_ratio(num, den, skip_below=1e-290):
    if den <= skip_below:
        return None
    return num / den


# -- inequality verifiers ----------------------------------------------------------


def verify_bernstein(spec):
    """Derivative/integrability gain on dyadic blocks, forward and reverse."""
    grid = spec.grid()
    part = DyadicPartition(grid)
    decay = spec.field_decay(2.5)
    col = _Collector("bernstein")
    pr_pairs = ((2, 2), (2, np.inf), (1, 2))
    for trial in range(spec.n_trials):
        f = field_gen.focused_scalar(grid, spec.rng(trial), decay=decay,
                                     amplitude=spec.amplitude)
        blocks = {q: part.delta(f, q) for q in part.q_range}
        grads = {q: (derivative(b, 0), derivative(b, 1))
                 for q, b in blocks.items()}
        fwd = {}
        rev = {1: {}, 2: {}, np.inf: {}}
        for q, b in blocks.items():
            norm_cache = {}

            def block_norm(field, p, key):
                if key not in norm_cache:
                    norm_cache[key] = lp_norm(field, p)
                return norm_cache[key]

            gx, gy = grads[q]
            for (p, r) in pr_pairs:
                np_ = block_norm(b, p, ("b", p))
                nr = block_norm(b, r, ("b", r))
                gain = 2.0 ** (q * 2.0 * (1.0 / p - 1.0 / r))
                ratio0 = _safe_ratio(nr, gain * np_)
                if ratio0 is not None:
                    fwd.setdefault((p, r, 0), {})[q] = ratio0
                gr = max(block_norm(gx, r, ("gx", r)),
                         block_norm(gy, r, ("gy", r)))
                ratio1 = _safe_ratio(gr, 2.0 ** q * gain * np_)
                if ratio1 is not None:
                    fwd.setdefault((p, r, 1), {})[q] = ratio1
            if q >= 0:
                for p in (1, 2, np.inf):
                    gp = max(block_norm(gx, p, ("gx", p)),
                             block_norm(gy, p, ("gy", p)))
                    ratio = _safe_ratio(2.0 ** q * block_norm(b, p, ("b", p)), gp)
                    if ratio is not None:
                        rev[p][q] = ratio
        for (p, r, k), ratios in fwd.items():
            col.add(f"forward p={p} r={r} k={k}", ratios)
        for p, ratios in rev.items():
            col.add(f"reverse p={p}", ratios)
    return col.report(spec.n_trials)


def verify_sn_linf(spec):
    """Low-pass sup bound ||S_N f||_inf <= C sqrt(N) ||f||_{H^1}."""
    grid = spec.grid()
    part = DyadicPartition(grid)
    decay = spec.field_decay(2.0)
    col = _Collector("sn_linf")
    for trial in range(spec.n_trials):
        f = field_gen.focused_scalar(grid, spec.rng(trial), decay=decay,
                                     amplitude=spec.amplitude)
        h1 = hs_norm_fourier(f, 1.0)
        ratios = {}
        for n in range(1, part.q_max + 1):
            sn = lp_norm(part.low_pass(f, n), np.inf)
            r = _safe_ratio(sn, math.sqrt(n) * h1)
            if r is not None:
                ratios[n] = r
        col.add("low-pass sup", ratios)
    return col.report(spec.n_trials)


def verify_sobolev_sqrtp(spec, p_values=(4, 8, 16, 32, 64)):
    """Sobolev growth ||f||_{L^p} <= C sqrt(p) ||f||_{H^{1-2/p}}."""
    for p in p_values:
        if p <= 2:
            raise HarnessError(f"exponent p must exceed 2 (s < 1), got {p}")
    grid = spec.grid()
    decay = spec.field_decay(2.5)
    col = _Collector("sobolev_sqrtp")
    for trial in range(spec.n_trials):
        f = field_gen.focused_scalar(grid, spec.rng(trial), decay=decay,
                                     amplitude=spec.amplitude)
        ratios = {}
        for p in p_values:
            s = 1.0 - 2.0 / p
            r = _safe_ratio(lp_norm(f, p),
                            math.sqrt(p) * hs_norm_fourier(f, s))
            if r is not None:
                ratios[p] = r
        col.add("sqrt-p growth", ratios)
    return col.report(spec.n_trials)


PRODUCT_PAIRS = ((0.5, 0.0), (0.75, -0.25), (0.75, 0.75), (0.0, 0.5))


def verify_product_rule(spec, s=None, t=None):
    """Product continuity ||fg||_{H^{s+t-1}} <= C ||f||_{H^s} ||g||_{H^t}."""
    if (s is None) != (t is None):
        raise HarnessError("pass both s and t, or neither")
    pairs = PRODUCT_PAIRS if s is None else ((float(s), float(t)),)
    for ss, tt in pairs:
        if ss + tt <= 0 or ss >= 1 or tt >= 1:
            raise HarnessError(
                f"product rule needs s+t > 0 and s, t < 1, got ({ss}, {tt})"
            )
    grid = spec.grid()
    decay = spec.field_decay(2.5)
    col = _Collector("product_rule")
    for trial in range(spec.n_trials):
        rng = spec.rng(trial)
        f = field_gen.focused_scalar(grid, rng, decay=decay,
                                     amplitude=spec.amplitude)
        g = field_gen.focused_scalar(grid, rng, decay=decay,
                                     amplitude=spec.amplitude)
        fg = product(f, g)
        ratios = {}
        for ss, tt in pairs:
            den = hs_norm_fourier(f, ss) * hs_norm_fourier(g, tt)
            r = _safe_ratio(hs_norm_fourier(fg, ss + tt - 1.0), den)
            if r is not None:
                ratios[(ss, tt)] = r
        col.add("sobolev product", ratios)
    return col.report(spec.n_trials)


COMMUTATOR_TRIPLES = ((2.0, 4.0, 4.0), (2.0, 2.0, np.inf), (4.0 / 3.0, 2.0, 4.0))
# the distinct r, so that each ||[cut, f] g||_{L^r} is computed once
_COMMUTATOR_RS = tuple(sorted({r for r, _, _ in COMMUTATOR_TRIPLES}))


def verify_commutator(spec):
    """Commutator smoothing for [Delta_q, f]g and [S_N, f]g."""
    grid = spec.grid()
    part = DyadicPartition(grid)
    decay = spec.field_decay(2.5)
    col = _Collector("commutator")
    for trial in range(spec.n_trials):
        rng = spec.rng(trial)
        # f coherent: the bound is driven by concentrated gradients of the
        # multiplier.  g independent-phase: feeds every block evenly, so the
        # swept ratios probe the constant rather than packet geometry.
        f = field_gen.focused_scalar(grid, rng, decay=decay,
                                     amplitude=spec.amplitude)
        g = field_gen.random_scalar(grid, rng, decay=decay,
                                    amplitude=spec.amplitude, zero_mean=False)
        fg = product(f, g)
        gradf = (derivative(f, 0), derivative(f, 1))
        gradf_lp = {p: _magnitude_lp(gradf, p) for p in (2, 4)}
        g_lp = {h: lp_norm(g, h) for h in (4, np.inf)}
        # S_N stops at N = q_max: one step further it is the identity on
        # the resolved ball and the commutator vanishes identically.
        qm = part.q_max
        for family, ks, cut in (("block", range(0, qm + 1), part.delta),
                                ("low-pass", range(1, qm + 1), part.low_pass)):
            ratios = {trip: {} for trip in COMMUTATOR_TRIPLES}
            for k in ks:
                comm = cut(fg, k) - product(f, cut(g, k))
                comm_lp = {r: lp_norm(comm, r) for r in _COMMUTATOR_RS}
                for (r, p, h) in COMMUTATOR_TRIPLES:
                    den = gradf_lp[p] * g_lp[h] * 2.0 ** (-k)
                    ratio = _safe_ratio(comm_lp[r], den)
                    if ratio is not None:
                        ratios[(r, p, h)][k] = ratio
            for (r, p, h), trip_ratios in ratios.items():
                col.add(f"{family} r={r:g} p={p:g} h={h:g}", trip_ratios)
    return col.report(spec.n_trials)


def verify_tail_bounds(spec):
    """High-frequency tail decay of (Id - S_N) f in L^inf and H^{1/4}."""
    grid = spec.grid()
    part = DyadicPartition(grid)
    decay = spec.field_decay(2.25)
    col = _Collector("tail_bounds")
    for trial in range(spec.n_trials):
        f = field_gen.focused_scalar(grid, spec.rng(trial), decay=decay,
                                     amplitude=spec.amplitude)
        h1 = hs_norm_fourier(f, 1.0)
        h2 = hs_norm_fourier(f, 2.0)
        sup_ratios = {}
        quarter_ratios = {}
        for n in range(1, part.q_max + 2):
            tail = f - part.low_pass(f, n)
            r1 = _safe_ratio(lp_norm(tail, np.inf),
                             2.0 ** (-n / 2.0) * math.sqrt(h1 * h2))
            if r1 is not None:
                sup_ratios[n] = r1
            r2 = _safe_ratio(hs_norm(tail, 0.25, form="lp", partition=part),
                             2.0 ** (-0.75 * n) * h1)
            if r2 is not None:
                quarter_ratios[n] = r2
        col.add("sup tail", sup_ratios)
        col.add("quarter-sobolev tail", quarter_ratios)
    return col.report(spec.n_trials)


# -- exact structural identities -----------------------------------------------------


def _identity_report(spec, check, label, cap, residual, draws):
    """Worst residual(*fields) over the ensemble, each trial drawing one
    random vector per (decay shift, divergence_free) in draws."""
    grid = spec.grid()
    decay = spec.field_decay(2.5)
    worst = 0.0
    for trial in range(spec.n_trials):
        rng = spec.rng(trial)
        fields = [field_gen.random_vector(grid, rng, decay=decay + shift,
                                          amplitude=spec.amplitude,
                                          divergence_free=div_free)
                  for shift, div_free in draws]
        worst = max(worst, residual(*fields))
    return RatioReport(check, ((label, worst, worst),), worst <= cap, cap,
                       1.0, worst, spec.n_trials)


def _cancellation_sums(du, dd, d1):
    """(I3, J3) of verify_cancellation for one draw."""
    gdu = jacobian(du)
    blocks = np.stack([f.coeffs for f in (gdu.xx, gdu.xy, gdu.yx, gdu.yy,
                                          laplacian(dd.x), laplacian(dd.y))])
    lows = np.stack([d1.x.coeffs, d1.y.coeffs])
    i3 = 0.0
    j3 = 0.0
    for q, (a11, a12, a21, a22, w1, w2), (s1, s2) in _block_pair_samples(
            blocks, lows):
        i3 -= 2.0 ** (-q) * _sample_integral(
            (a11 * s1 + a12 * s2) * w1 + (a21 * s1 + a22 * s2) * w2
        )
        # transpose route: (s x w) : grad^T du, entries (i,j) -> s_i w_j
        j3 += 2.0 ** (-q) * _sample_integral(
            s1 * w1 * a11 + s1 * w2 * a21 + s2 * w1 * a12 + s2 * w2 * a22
        )
    return i3, j3


def _cancellation_residual(du, dd, d1):
    i3, j3 = _cancellation_sums(du, dd, d1)
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


def _skew_residual(du, d1):
    """Worst int T : W_q / int |T| |W_q| over q for one draw.  Every tensor
    entry is sampled, the zero and repeated ones included: building W_q from
    its one free entry would make the check pass by construction."""
    a, w = strain_and_vorticity(du)
    blocks = np.stack([f.coeffs for f in (a.xx, a.xy, a.yx, a.yy,
                                          w.xx, w.xy, w.yx, w.yy)])
    lows = np.stack([d1.x.coeffs, d1.y.coeffs])
    worst = 0.0
    for _, (a11, a12, a21, a22, w11, w12, w21, w22), (v1, v2) in (
            _block_pair_samples(blocks, lows)):
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
