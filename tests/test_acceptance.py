"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance in the docstring, prints the measured
numbers, and asserts the guarantee exactly as advertised, so a verbose
run reads as a one-line-per-guarantee pass/fail report.  The dynamics
checks are the expensive ones; stated wall-clock budgets are asserted
alongside the numerics.
"""

import time

import numpy as np
import pytest

from nematicflow import (
    DyadicPartition,
    EnsembleSpec,
    ExperimentConfig,
    GridSpec,
    InitialSpec,
    LeslieCoefficients,
    SolverConfig,
    SpectralField,
    State,
    TwinSpec,
    bony_block_decompose,
    bony_split,
    constant_vector,
    generate_initial,
    l2_norm,
    mu_control,
    osgood_divergence_certificate,
    product,
    random_scalar,
    run,
    run_all,
    twin_experiment,
)

from _frozen import (
    CONTROL_INTEGRALS,
    ODE_Y0,
    ODE_Y_AT_1,
    OSGOOD_EPS,
    OSGOOD_INTEGRALS,
)

ANSATZ = LeslieCoefficients.ansatz(1.0)


def test_criterion_1_dyadic_identities_on_100_random_fields(grid64):
    """Partition-of-unity reconstruction, quasi-orthogonality, the
    paraproduct split, and the four-term block decomposition each hold to
    relative 1e-12 on 100 random fields at N=64, in under 30 seconds."""
    start = time.perf_counter()
    rel = 1e-12
    part = DyadicPartition(grid64)
    rng = np.random.default_rng(42)
    draws = [random_scalar(grid64, rng, decay=1.5, zero_mean=False)
             for _ in range(100)]
    q_values = list(range(-1, part.q_max + 1))
    worst = {"reconstruction": 0.0, "orthogonality": 0.0,
             "bony": 0.0, "four_term": 0.0}
    for i, f in enumerate(draws):
        norm = l2_norm(f)
        blocks = part.blocks(f)
        recon = SpectralField.zero(grid64)
        for b in blocks:
            recon = recon + b
        worst["reconstruction"] = max(
            worst["reconstruction"], l2_norm(recon - f) / norm)
        # distant blocks compose to zero; near-diagonal energy reassembles
        for a, qa in enumerate(part.q_range):
            for qb in part.q_range:
                if qb > qa + 1:
                    worst["orthogonality"] = max(
                        worst["orthogonality"],
                        l2_norm(part.delta(blocks[a], qb)) / norm)
        sumsq = sum(l2_norm(b) ** 2 for b in blocks)
        assert 0.5 * norm ** 2 <= sumsq <= norm ** 2 * (1.0 + 1e-12)
        g = draws[(i + 1) % len(draws)]
        fg = product(f, g)
        scale = l2_norm(fg)
        t_fg, t_gf, remainder = bony_split(f, g, part)
        worst["bony"] = max(
            worst["bony"],
            l2_norm(t_fg + t_gf + remainder - fg) / scale)
        q = q_values[i % len(q_values)]
        dec = bony_block_decompose(f, g, q, part)
        worst["four_term"] = max(
            worst["four_term"],
            l2_norm(dec["sum"] - dec["target"]) / scale)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst relative residuals {worst} "
          f"(tol {rel:g}), elapsed {elapsed:.1f}s (budget 30s)")
    for name, value in worst.items():
        assert value <= rel, f"{name} residual {value:.3e} exceeds {rel:g}"
    assert elapsed < 30.0


def _max_energy_residual(grid, seed, dt):
    """Worst |E(t) + int_0^t D ds - E(0)| along a cadence-1 run to t=1."""
    u, d = generate_initial(grid, profile="random", seed=seed)
    state = State(grid, u, d, 0.0)
    config = SolverConfig(dt=dt, t_end=1.0, scheme="imex1", record_cadence=1)
    _, records = run(state, ANSATZ, config)
    t = np.array([r.t for r in records])
    e = np.array([r.e_total for r in records])
    diss = np.array([r.d_total for r in records])
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(t) * (diss[1:] + diss[:-1]))])
    return float(np.abs(e + integral - e[0]).max()), float(e[0])


def test_criterion_2_energy_balance_and_first_order_convergence(grid64):
    """Ten random starts at N=64, nu=1, dt=1e-3, t_end=1: the discrete
    energy balance residual |E(t) + int_0^t D - E(0)| stays below
    5*dt*E(0) at every sample, and halving dt shrinks the worst residual
    by a factor in [1.7, 2.3] (first-order scheme).  Budget: 5 minutes."""
    start = time.perf_counter()
    dt = 1e-3
    ratios = []
    worst_fraction = 0.0
    for seed in range(10):
        resid, e0 = _max_energy_residual(grid64, seed, dt)
        bound = 5.0 * dt * e0
        worst_fraction = max(worst_fraction, resid / bound)
        assert resid <= bound, (
            f"seed {seed}: residual {resid:.3e} exceeds 5*dt*E(0) = {bound:.3e}")
        if seed < 3:
            resid_half, _ = _max_energy_residual(grid64, seed, dt / 2.0)
            ratios.append(resid / resid_half)
    elapsed = time.perf_counter() - start
    print(f"criterion 2: worst residual/bound {worst_fraction:.3f}, "
          f"halving ratios {[f'{r:.2f}' for r in ratios]}, "
          f"elapsed {elapsed:.0f}s (budget 300s)")
    for ratio in ratios:
        assert 1.7 <= ratio <= 2.3, f"halving ratio {ratio:.3f} outside [1.7, 2.3]"
    assert elapsed < 300.0


def test_criterion_3_identical_twins_stay_identical(tmp_path):
    """Two trajectories started from identical data at N=64 over [0, 1]:
    the distance functional Phi never exceeds 1e-20."""
    config = ExperimentConfig(
        grid=GridSpec(64),
        solver=SolverConfig(dt=1e-3, t_end=1.0, scheme="imex1",
                            record_cadence=50),
        coeffs=ANSATZ,
        initial=InitialSpec(seed=3),
        twin=TwinSpec(mode="identical"),
    )
    records, _ = twin_experiment(config, str(tmp_path), quiet=True)
    max_phi = max(r.phi for r in records)
    print(f"criterion 3: max Phi over [0,1] = {max_phi:.3e} (tol 1e-20)")
    assert max_phi <= 1e-20


def test_criterion_4_perturbed_twins_satisfy_master_inequality(tmp_path):
    """Perturbed twins at delta in {1e-8, 1e-6, 1e-4} (N=64, [0, 1]):
    the integral-inequality check returns holds=True with a finite fitted
    constant, and Phi for a smaller delta stays pointwise below Phi for a
    larger delta up to 5 percent."""
    start = time.perf_counter()
    deltas = (1e-8, 1e-6, 1e-4)
    phis = {}
    fits = {}
    for k, delta in enumerate(deltas):
        config = ExperimentConfig(
            grid=GridSpec(64),
            solver=SolverConfig(dt=1e-3, t_end=1.0, scheme="imex1",
                                record_cadence=50),
            coeffs=ANSATZ,
            initial=InitialSpec(seed=3),
            twin=TwinSpec(mode="perturb", seed=1, delta=delta),
        )
        records, report = twin_experiment(
            config, str(tmp_path / f"delta_{k}"), quiet=True)
        assert report["holds"], f"delta={delta:g}: inequality check failed"
        assert np.isfinite(report["c_fit"]), f"delta={delta:g}: C_fit not finite"
        phis[delta] = np.array([r.phi for r in records])
        fits[delta] = report["c_fit"]
    elapsed = time.perf_counter() - start
    print(f"criterion 4: C_fit by delta "
          f"{ {f'{d:g}': f'{c:.3g}' for d, c in fits.items()} }, "
          f"elapsed {elapsed:.0f}s")
    for small, large in zip(deltas, deltas[1:]):
        margin = phis[small] <= 1.05 * phis[large]
        assert np.all(margin), (
            f"Phi at delta={small:g} exceeds 1.05 * Phi at delta={large:g}")


def test_criterion_5_osgood_divergence_and_control_saturation():
    """The borderline modulus has a diverging small-eps integral: over
    eps = 1e-6, 1e-12, 1e-24, 1e-48 the integrals strictly increase and
    match the frozen references to 1e-6.  The stronger control modulus's
    integrals stabilize over the same sweep: quadrature matches the frozen
    references to 1e-6 with strictly shrinking increments."""
    cert = osgood_divergence_certificate(OSGOOD_EPS)
    assert cert["strictly_increasing"]
    for eps, value in zip(cert["eps"], cert["integrals"]):
        assert abs(value - OSGOOD_INTEGRALS[eps]) <= 1e-6
    control = osgood_divergence_certificate(OSGOOD_EPS, modulus=mu_control)
    for eps, value in zip(control["eps"], control["integrals"]):
        assert abs(value - CONTROL_INTEGRALS[eps]) <= 1e-6
    increments = control["increments"]
    assert all(b < a for a, b in zip(increments, increments[1:]))
    print(f"criterion 5: borderline integrals {cert['integrals']} increase; "
          f"control increments {increments} shrink")


def test_criterion_6_lemma_verifier_ensembles_pass_at_both_grids():
    """The six ratio verifiers (bernstein, sn_linf, sobolev_sqrtp,
    product_rule, commutator, tail_bounds) return verdict True at
    N in {64, 128} with 100 trials each; the cancellation and
    antisymmetry residual checks stay below 1e-11 relative.
    Budget: ten minutes."""
    start = time.perf_counter()
    ratio_checks = ("bernstein", "sn_linf", "sobolev_sqrtp",
                    "product_rule", "commutator", "tail_bounds")
    residual_checks = ("cancellation", "skew_symmetry")
    summary = {}
    for n in (64, 128):
        reports = run_all(EnsembleSpec(grid_n=n, n_trials=100, seed=7000))
        for name in ratio_checks:
            assert reports[name].verdict, f"{name} verdict False at N={n}"
        for name in residual_checks:
            ratio = reports[name].max_ratio
            summary[f"{name}@{n}"] = ratio
            assert ratio <= 1e-11, (
                f"{name} residual {ratio:.3e} exceeds 1e-11 at N={n}")
    elapsed = time.perf_counter() - start
    print(f"criterion 6: residuals {summary}, "
          f"elapsed {elapsed:.0f}s (budget 600s)")
    assert elapsed < 600.0


def test_criterion_7_uniform_director_matches_the_ode_solution():
    """With u=0 and a spatially constant director d0=(2,0), the dynamics
    reduce to d' = -(|d|^2 - 1)d; the two-stage scheme at dt=1e-3
    reproduces the closed-form solution at t=1 to relative 1e-6."""
    grid = GridSpec(16)
    state = State(grid,
                  constant_vector(grid, (0.0, 0.0)),
                  constant_vector(grid, (ODE_Y0, 0.0)),
                  0.0)
    config = SolverConfig(dt=1e-3, t_end=1.0, scheme="imex2",
                          record_cadence=1000)
    final, _ = run(state, ANSATZ, config)
    value = float(final.d.x.coeffs[0, 0].real)
    rel = abs(value - ODE_Y_AT_1) / ODE_Y_AT_1
    print(f"criterion 7: d_x(1) = {value:.12f} vs {ODE_Y_AT_1:.12f}, "
          f"rel err {rel:.3e} (tol 1e-6)")
    assert rel <= 1e-6


def test_criterion_8_rest_state_is_preserved_over_1000_steps(grid64):
    """u=0 with a constant unit director is a steady state: 1000 steps of
    either scheme leave every spectral coefficient within 1e-14 of its
    initial value."""
    initial = State(grid64,
                    constant_vector(grid64, (0.0, 0.0)),
                    constant_vector(grid64, (1.0, 0.0)),
                    0.0)
    worst = 0.0
    for scheme in ("imex1", "imex2"):
        config = SolverConfig(dt=1e-3, t_end=1.0, scheme=scheme,
                              record_cadence=1000)
        final, _ = run(initial.copy(), ANSATZ, config)
        for before, after in ((initial.u.x, final.u.x),
                              (initial.u.y, final.u.y),
                              (initial.d.x, final.d.x),
                              (initial.d.y, final.d.y)):
            worst = max(worst, float(
                np.max(np.abs(after.coeffs - before.coeffs))))
    print(f"criterion 8: max coefficient drift {worst:.3e} (tol 1e-14)")
    assert worst <= 1e-14
