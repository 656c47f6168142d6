"""Experiment drivers behind the command-line interface.

Each driver turns an ExperimentConfig into deterministic CSV files (headers
included, numbers at 17 significant digits, so reruns are byte-identical)
plus binary snapshots where a final state is worth keeping.
"""

from __future__ import annotations

import csv
import dataclasses
import os

from . import fields, snapshots
from .configio import ConfigError
from .diagnostics import _twin_record
from .dyadic import DyadicPartition
from .dynamics import State, _march, run
from .grid import l2_norm
from .harness import ALL_CHECKS
from .osgood import (
    OsgoodTrace,
    check_master_inequality,
    mu,
    mu_control,
    osgood_divergence_certificate,
)

OSGOOD_EPS_SWEEP = (1e-6, 1e-12, 1e-24, 1e-48)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows):
    """Write rows of mixed scalars with a header; 17 significant digits.

    Fields holding a comma (parameter labels) are quoted.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _ensure_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def make_initial_state(config, seed_override=None):
    """Build the configured initial state (requires a [grid] section)."""
    if config.grid is None:
        raise ConfigError("this command needs a [grid] section with n set")
    ini = config.initial
    if seed_override is not None:
        ini = dataclasses.replace(ini, seed=seed_override)
    u, d = fields.generate_initial(config.grid, **dataclasses.asdict(ini))
    return State(config.grid, u, d, 0.0)


def _require_solver(config):
    if config.solver is None:
        raise ConfigError("this command needs a [time] section with dt and t_end")


def run_experiment(config, out_dir, seed_override=None, quiet=False):
    """Single trajectory; writes trace.csv and final.lcsf; returns the records."""
    _require_solver(config)
    state = make_initial_state(config, seed_override)
    final, records = run(state, config.coeffs, config.solver)
    out = _ensure_dir(out_dir)
    rows = [
        (r.t, r.e_total, r.e_kin, r.e_elastic, r.d_total) + r.d_terms
        + (r.div_residual,)
        for r in records
    ]
    write_csv(
        os.path.join(out, "trace.csv"),
        ["t", "E_total", "E_kin", "E_elastic", "D_total",
         "D_term1", "D_term2", "D_term3", "D_term4", "D_term5",
         "div_residual"],
        rows,
    )
    snapshots.persist(final, os.path.join(out, "final.lcsf"))
    if not quiet:
        last = records[-1]
        print(f"run finished at t = {final.t:g}: E_total = {last.e_total:.6g}, "
              f"dissipation rate = {last.d_total:.6g}")
    return final, records


def twin_experiment(config, out_dir, seed_override=None, quiet=False):
    """Two trajectories (identical or perturbed data) compared in lockstep.

    Writes twin.csv (per-sample two-state functionals), osgood.csv and
    osgood_summary.txt (fitted-constant check of the integral inequality),
    and the two final snapshots.  Returns (records, report).
    """
    _require_solver(config)
    state1 = make_initial_state(config, seed_override)
    tw = config.twin
    if tw.delta > 0.0:  # TwinSpec allows it only with mode = perturb
        u2, d2 = fields.perturb(state1.u, state1.d, tw.seed, tw.delta,
                                decay=tw.decay, band=tw.band)
        state2 = State(config.grid, u2, d2, 0.0)
    else:
        state2 = state1.copy()
    coeffs = config.coeffs
    kept = {}  # the block-pair buffers of every record
    # One march steps both trajectories with one engine.  The step from each
    # sample hands out the products its first evaluations formed at the
    # sample's two states (dynamics._march); the sample's record, taken once
    # the step is done, reads trajectory 1's d x d and trajectory 2's d.Ad.
    # The entry goes from the list straight into the record, so that no
    # local keeps its spectra alive through the next step.  The last sample
    # takes no step, so its record forms its own.
    products = []
    records = []
    pending = None
    for _, states in _march((state1, state2), coeffs, config.solver,
                            products=products):
        if pending is not None:
            records.append(_twin_record(*pending, coeffs, kept, products.pop()))
        pending = states
    records.append(_twin_record(*pending, coeffs, kept))
    finals = pending
    nu = coeffs.nu
    rows = [
        (
            r.t, r.phi, r.frak_d,
            nu * r.grad_du_norm ** 2, r.grad_dd_norm ** 2,
            2.0 * r.lp_sum_vector, r.lp_sum_tensor,
            r.f_hat,
        )
        for r in records
    ]
    out = _ensure_dir(out_dir)
    write_csv(
        os.path.join(out, "twin.csv"),
        ["t", "Phi", "frakD", "frakD_grad_u", "frakD_grad_d",
         "frakD_lp_vector", "frakD_lp_tensor", "F_hat"],
        rows,
    )
    trace = OsgoodTrace(
        [r.t for r in records],
        [r.phi for r in records],
        [r.f_hat for r in records],
    )
    report = check_master_inequality(trace, [r.frak_d for r in records])
    write_csv(os.path.join(out, "osgood.csv"), list(report),
              [[-1 if v is None else v for v in report.values()]])
    with open(os.path.join(out, "osgood_summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(
            "master integral inequality check\n"
            f"  samples: {len(records)}  gamma = {report['gamma']:g}\n"
            f"  Phi(0) = {records[0].phi:.17g}\n"
            f"  max Phi = {max(r.phi for r in records):.17g}\n"
            f"  fitted constant C_fit = {report['c_fit']:.17g}\n"
            f"  holds: {report['holds']}\n"
        )
    snapshots.persist(finals[0], os.path.join(out, "final_a.lcsf"))
    snapshots.persist(finals[1], os.path.join(out, "final_b.lcsf"))
    if not quiet:
        print(f"twin finished: max Phi = {max(r.phi for r in records):.3e}, "
              f"C_fit = {report['c_fit']:.6g}, holds = {report['holds']}")
    return records, report


def decompose_experiment(config, out_dir, snapshot_path=None,
                         seed_override=None, quiet=False):
    """Per-component dyadic block spectrum of a state.

    Reads the state from snapshot_path when given, otherwise generates the
    configured initial state.  Writes one CSV per component with columns
    q, block L2 norm, 2^{-q/2}-weighted block L2 norm.
    """
    if snapshot_path is not None:
        state = snapshots.load(snapshot_path, config.grid)
    else:
        state = make_initial_state(config, seed_override)
    part = DyadicPartition(state.grid)
    out = _ensure_dir(out_dir)
    components = (
        ("u_x", state.u.x), ("u_y", state.u.y),
        ("d_x", state.d.x), ("d_y", state.d.y),
    )
    paths = []
    for name, comp in components:
        rows = []
        for q in part.q_range:
            norm = l2_norm(part.delta(comp, q))
            rows.append((q, norm, 2.0 ** (-q / 2.0) * norm))
        path = os.path.join(out, f"decompose_{name}.csv")
        write_csv(path, ["q", "block_l2", "weighted_block_l2"], rows)
        paths.append(path)
    if not quiet:
        print(f"wrote block spectra for 4 components to {out}")
    return paths


VERIFY_ALIASES = {
    "bernstein": ("bernstein",),
    "sn_linf": ("sn_linf",),
    "sobolev": ("sobolev_sqrtp",),
    "product": ("product_rule",),
    "commutator": ("commutator",),
    "tails": ("tail_bounds",),
    "cancel": ("cancellation",),
    "skew": ("skew_symmetry",),
    "osgood": ("osgood",),
    "all": tuple(name for name, _ in ALL_CHECKS) + ("osgood",),
}


def _verify_osgood(out_dir, quiet):
    """Divergence certificate for the modulus plus the converging control."""
    cert = osgood_divergence_certificate(OSGOOD_EPS_SWEEP, mu)
    control = osgood_divergence_certificate(OSGOOD_EPS_SWEEP, mu_control)
    rows = [(label, eps, c["integrals"][k], c["increments"][k - 1] if k else 0.0)
            for label, c in (("osgood", cert), ("control", control))
            for k, eps in enumerate(c["eps"])]
    write_csv(
        os.path.join(out_dir, "verify_osgood.csv"),
        ["modulus", "eps", "integral", "increment"],
        rows,
    )
    control_settling = all(
        b < a for a, b in zip(control["increments"], control["increments"][1:])
    )
    ok = bool(cert["strictly_increasing"] and control_settling)
    with open(os.path.join(out_dir, "verify_osgood_summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(
            "divergence certificate\n"
            f"  eps sweep: {', '.join('%g' % e for e in cert['eps'])}\n"
            f"  integrals: {', '.join('%.12g' % v for v in cert['integrals'])}\n"
            f"  strictly increasing: {cert['strictly_increasing']}\n"
            "control modulus (integrable)\n"
            f"  integrals: {', '.join('%.12g' % v for v in control['integrals'])}\n"
            f"  increments shrinking: {control_settling}\n"
            f"verdict: {ok}\n"
        )
    if not quiet:
        print(f"osgood certificate: increasing = {cert['strictly_increasing']}, "
              f"control settling = {control_settling}")
    return ok


def verify_experiment(config, out_dir, checks=("all",), quiet=False):
    """Run the selected verifiers on the configured ensembles.

    Writes verify_<grid>.csv per grid size (columns lemma, param, ratio_max,
    ratio_median, verdict) plus the osgood certificate files when selected.
    Returns True when every selected verdict holds.
    """
    choices = "choose from " + ", ".join(sorted(VERIFY_ALIASES))
    names = []
    for c in checks:
        if c not in VERIFY_ALIASES:
            raise ConfigError(f"unknown verify target {c!r}; {choices}")
        for name in VERIFY_ALIASES[c]:
            if name not in names:
                names.append(name)
    if not names:
        raise ConfigError(f"no verify target selected; {choices}")
    lemma_checks = dict(ALL_CHECKS)
    selected = [n for n in names if n in lemma_checks]
    specs = config.verify.ensembles() if selected else []
    out = _ensure_dir(out_dir)
    all_ok = True
    for spec in specs:
        grid_n = spec.grid_n
        rows = []
        for name in selected:
            report = lemma_checks[name](spec)
            all_ok = all_ok and report.verdict
            for param, rmax, rmed in report.rows:
                rows.append((report.check, param, rmax, rmed, report.verdict))
            if not quiet:
                print(f"N={grid_n} {report.check}: verdict = {report.verdict} "
                      f"(max ratio {report.max_ratio:.4g}, "
                      f"worst uniformity {report.worst_uniformity:.3g})")
        write_csv(
            os.path.join(out, f"verify_{grid_n}.csv"),
            ["lemma", "param", "ratio_max", "ratio_median", "verdict"],
            rows,
        )
    if "osgood" in names:
        all_ok = _verify_osgood(out, quiet) and all_ok
    return all_ok
