"""Double-logarithmic modulus, its divergence certificate, and the
comparison machinery for the two-state stability inequality.

The modulus of continuity at the heart of the twin-state estimate is

    mu(r) = r (1 + ln(1 + 1/r)) (1 + ln(1 + ln(1 + 1/r))),   mu(0) = 0.

It satisfies the Osgood condition int_0^1 dr / mu(r) = infinity, which is
what upgrades the integral inequality

    Phi(t) + gamma int_0^t frakD <= C int_0^t F(s) mu(Phi(s)) ds  (+ Phi(0))

to Phi == 0 (uniqueness) via the comparison lemma.  The slightly stronger
modulus mu_control(r) = r (1 + ln(1 + 1/r))^2 fails the condition and is
kept as a negative control.

Numerics: naive quadrature of dr / mu(r) is hopeless because the divergence
is triple-logarithmic in 1/epsilon; substituting r = e^{-L} gives

    int_eps^1 dr / mu(r) = int_0^{ln(1/eps)} dL / ((1 + A)(1 + ln(1 + A))),
    A(L) = L + log1p(e^{-L}),

a smooth bounded integrand on a short interval, stable down to eps near the
smallest positive double.  It is integrated by a composite Gauss-Legendre
rule on the panels [0, 1], [1, 2], [2, 4], ... up to ln(1/eps): on each
panel the integrand varies on the scale of the panel itself, so 24 nodes
per panel reach double precision, and a 16-node rule on the same panels
gives the error estimate.

The comparison equation y' = C F(t) mu(y) separates: I(y(t)) = I(y0) -
C int_0^t F, I(y) = int_y^1 dr/mu.  comparison_ode solves it per step in
L = ln(1/y) by Newton's method on the same integrand and panels (mirrored
to -1, -2, -4, ... for y > 1), summing the piecewise-linear F exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


class OsgoodError(ValueError):
    """Raised for domain violations or quadrature failures."""


def _modulus(r, formula):
    """formula(r, ln(1 + 1/r)) at r > 0 and 0 at r = 0, for a scalar (a
    float back) or an array of nonnegative r."""
    arr = np.asarray(r, dtype=np.float64)
    if np.any(arr < 0):
        raise OsgoodError("the modulus is defined for nonnegative arguments only")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    pos = arr > 0
    rp = arr[pos]
    out[pos] = formula(rp, np.log1p(1.0 / rp))
    return float(out[0]) if scalar else out


def mu(r):
    """The double-log modulus r (1+ln(1+1/r)) (1+ln(1+ln(1+1/r))); mu(0) = 0.

    Accepts scalars or arrays; stable from 0 and ~1e-300 up to ~1e300.
    """
    return _modulus(r, lambda rp, a: rp * (1.0 + a) * (1.0 + np.log1p(a)))


def mu_control(r):
    """The non-Osgood control modulus r (1+ln(1+1/r))^2."""
    return _modulus(r, lambda rp, a: rp * (1.0 + a) ** 2)


def _substituted_integrand(modulus):
    """dL-integrand e^{-L} / modulus(e^{-L}) of int dr/modulus(r) under
    r = e^{-L}, on arrays; closed forms for mu and mu_control."""
    if modulus not in (mu, mu_control):
        return lambda big_l: np.exp(-big_l) / modulus(np.exp(-big_l))

    def g(big_l):  # A = ln(1 + e^L), formed without overflow at L < 0 too
        a = np.maximum(big_l, 0.0) + np.log1p(np.exp(-np.abs(big_l)))
        return 1.0 / ((1.0 + a) * (1.0 + (np.log1p(a) if modulus is mu else a)))
    return g


@lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.setflags(write=False)
    return rule


def _panel_sums(g, lo, hi, order):
    """The order-node Gauss-Legendre rule for int g on each panel [lo, hi]."""
    x, w = _gauss_legendre(order)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return (g(half[:, None] * x + mid[:, None]) * w).sum(axis=1) * half


_CUTS = np.r_[-np.exp2(np.arange(10, -1, -1)), 0.0, np.exp2(np.arange(11))]


def _panels(a, b):
    """Panels (lo, hi) from a to b, cut at the _CUTS 0, +-1, +-2, +-4, ...
    +-1024 strictly between them; one panel when a >= b."""
    edges = np.r_[a, _CUTS[(_CUTS > a) & (_CUTS < b)], b]
    return edges[:-1], edges[1:]


def osgood_integral(eps, modulus=mu):
    """I(eps) = int_eps^1 dr / modulus(r), by substituted composite
    Gauss-Legendre quadrature (see the module docstring)."""
    if not 0.0 < eps < 1.0:
        raise OsgoodError(f"eps must lie in (0, 1), got {eps}")
    if modulus not in (mu, mu_control):
        raise OsgoodError("the Osgood integral supports only mu and mu_control")
    g = _substituted_integrand(modulus)
    lo, hi = _panels(0.0, -math.log(eps))
    fine = _panel_sums(g, lo, hi, 24)
    value = float(fine.sum())
    err = float(np.abs(fine - _panel_sums(g, lo, hi, 16)).sum())
    if not math.isfinite(value) or err > 1e-6 * max(1.0, abs(value)):
        raise OsgoodError(f"quadrature failed for eps = {eps}: estimate {err}")
    return value


def osgood_divergence_certificate(eps_list, modulus=mu):
    """Tabulate I(eps) = int_eps^1 dr/modulus(r) along a decreasing eps sweep.

    Returns a dict with the integrals, their increments I(eps_{k+1})-I(eps_k),
    whether the integrals grow strictly, and the number of decades covered.
    A modulus with the Osgood property shows strictly increasing, unbounded
    I as eps drops; a non-Osgood modulus shows increments shrinking toward a
    finite limit.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 2:
        raise OsgoodError("need at least two eps values")
    if any(not 0.0 < e < 1.0 for e in eps):
        raise OsgoodError("eps values must lie in (0, 1)")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise OsgoodError("eps values must be strictly decreasing")
    integrals = [osgood_integral(e, modulus) for e in eps]
    increments = [b - a for a, b in zip(integrals, integrals[1:])]
    return {
        "eps": eps,
        "integrals": integrals,
        "increments": increments,
        "strictly_increasing": all(inc > 0 for inc in increments),
        "decades": math.log10(eps[0] / eps[-1]),
    }


def comparison_ode(times, f_values, y0, c_fit=1.0, modulus=mu):
    """Solve y' = c_fit * F(t) * modulus(y), y(times[0]) = y0, at the samples.

    F is the piecewise-linear interpolant of (times, f_values).  The solution
    is in closed form (see the module docstring).  y0 = 0 is the exact fixed
    point (modulus(0) = 0) and returns zeros.  Blow-up beyond the double
    range raises OsgoodError.
    """
    t = np.asarray(times, dtype=np.float64)
    f = np.asarray(f_values, dtype=np.float64)
    if t.ndim != 1 or t.shape != f.shape:
        raise OsgoodError("times and f_values must be 1d arrays of equal length")
    if not (np.isfinite(t).all() and np.isfinite(f).all() and math.isfinite(y0)):
        raise OsgoodError("times, f_values and y0 must be finite")
    if not 0.0 <= c_fit < math.inf:
        raise OsgoodError("c_fit must be finite and nonnegative")
    if np.any(np.diff(t) <= 0):
        raise OsgoodError("times must be strictly increasing")
    if np.any(f < 0):
        raise OsgoodError("F must be nonnegative")
    if y0 < 0:
        raise OsgoodError("y0 must be nonnegative")
    if y0 == 0.0:
        return np.zeros_like(t)
    g = _substituted_integrand(modulus)
    big_l = np.full_like(t, -math.log(y0))
    for k, target in enumerate(0.5 * c_fit * np.diff(t) * (f[:-1] + f[1:]), 1):
        prev = lk = big_l[k - 1]
        for _ in range(50):  # Newton's method for int_lk^prev g = target
            step = (_panel_sums(g, *_panels(lk, prev), 24).sum() - target) / g(lk)
            lk += step
            if abs(step) <= 1e-15 * max(1.0, abs(lk)):
                break
        else:
            raise OsgoodError(f"Newton's method did not converge at t = {t[k]}")
        if not lk >= -math.log(np.finfo(np.float64).max):
            raise OsgoodError(f"y leaves the double range by t = {t[k]}")
        big_l[k] = lk
    return np.where(big_l == big_l[0], y0, np.exp(-big_l))


@dataclass
class OsgoodTrace:
    """Sampled ingredients of the integral inequality along one experiment."""

    times: Sequence[float]
    phi: Sequence[float]
    f: Sequence[float]
    gamma: float = 1.0 / 6.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        p = np.asarray(self.phi, dtype=np.float64)
        f = np.asarray(self.f, dtype=np.float64)
        if not (t.ndim == 1 and t.shape == p.shape == f.shape):
            raise OsgoodError("trace arrays must be 1d and of equal length")
        if not np.all(np.isfinite(np.concatenate((t, p, f)))):
            raise OsgoodError("trace samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise OsgoodError("trace times must be strictly increasing")
        if np.any(p < 0):
            raise OsgoodError("Phi samples must be nonnegative")
        if np.any(f < 0):
            raise OsgoodError("F samples must be nonnegative")
        if not 0.0 < self.gamma < 1.0:
            raise OsgoodError("gamma must lie in (0, 1)")
        self.times = t
        self.phi = p
        self.f = f


_C_MAX = 1e12  # the largest constant C the master inequality may need


def check_master_inequality(trace, frakd, tol=None):
    """Discrete check of Phi(t_m) + gamma * int frakD <= C * int F mu(Phi) + tol.

    Integrals are left-rectangle sums over the trace's time samples.  The
    default tol is Phi(0) (plus a tiny floor), which makes the m = 0 sample
    self-consistent when the two trajectories start apart; a given tol
    must be finite and nonnegative.  Returns a report with the smallest
    sufficient constant c_fit (clamped below by 1), holds (c_fit <= _C_MAX), the largest violation at _C_MAX, and the first
    violating sample index (None when the inequality holds).  The twin
    command's osgood.csv has the report's keys, in order, as its columns.

    c_fit = 1 is the clamp floor, not a fit: when Phi is largest at t = 0,
    as in both committed twin goldens (c_required = 1, max Phi = Phi(0)),
    the default tol covers every sample and C int F mu(Phi) is never used.
    """
    t = trace.times
    p = trace.phi
    f = trace.f
    d = np.asarray(frakd, dtype=np.float64)
    if d.shape != t.shape:
        raise OsgoodError("frakD series must align with the trace samples")
    if not np.all(np.isfinite(d)):
        raise OsgoodError("frakD samples must be finite")
    if np.any(d < 0):
        raise OsgoodError("frakD samples must be nonnegative")
    if tol is None:
        tol = float(p[0]) * (1.0 + 1e-9) + 1e-300
    elif not (math.isfinite(tol) and tol >= 0):
        raise OsgoodError(f"tol must be finite and nonnegative, got {tol}")
    dt = np.diff(t)
    # left-rectangle cumulative integrals, aligned so entry m covers [t_0, t_m]
    int_d = np.concatenate(([0.0], np.cumsum(dt * d[:-1])))
    int_fmu = np.concatenate(([0.0], np.cumsum(dt * f[:-1] * mu(p[:-1]))))
    lhs = p + trace.gamma * int_d
    needed = np.ones_like(lhs)
    positive = int_fmu > 0
    needed[positive] = (lhs[positive] - tol) / int_fmu[positive]
    # samples with a zero right side must be covered by tol alone
    uncovered = (~positive) & (lhs > tol)
    c_required = math.inf if np.any(uncovered) else float(max(1.0, np.max(needed)))
    holds = bool(c_required <= _C_MAX)
    c_fit = c_required if holds else _C_MAX
    slack = lhs - (c_fit * int_fmu + tol)
    if holds:
        first = None
        max_violation = 0.0
    else:
        viol = lhs - (_C_MAX * int_fmu + tol)
        bad = np.where(viol > 0)[0]
        first = int(bad[0]) if bad.size else None
        max_violation = float(np.max(viol))
    return {
        "holds": holds,
        "c_fit": c_fit,
        "c_required": c_required,
        "max_violation": max_violation,
        "first_violation_index": first,
        "tol": float(tol),
        "gamma": float(trace.gamma),
        "max_slack": float(np.max(slack)),
    }
