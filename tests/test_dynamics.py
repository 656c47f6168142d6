"""Coupled velocity/director dynamics: coefficients, operators, stepping."""

import math
import tracemalloc

import numpy as np
import pytest

from nematicflow import (
    CoefficientError,
    DivergenceError,
    ExperimentConfig,
    GridSpec,
    InitialSpec,
    LeslieCoefficients,
    SolverConfig,
    SpectralField,
    State,
    TwinSpec,
    VectorField2,
    constant_vector,
    divergence_residual,
    energy_record,
    ericksen_stress,
    generate_initial,
    gl_force,
    gl_gradient,
    iterate,
    l2_norm,
    laplacian,
    leray_project,
    leslie_stress,
    rhs,
    run,
    step,
    strain_and_vorticity,
    to_physical,
    twin_experiment,
    vector_l2_norm,
)
from nematicflow import dynamics
from nematicflow.dynamics import _Engine, _march

from _frozen import GL_FORCE_AT_2, ODE_Y0


class _GeneralView(LeslieCoefficients):
    """Identical coefficient values routed through the general-form code path."""

    @property
    def is_ansatz(self):
        return False


GENERAL_COEFFS = LeslieCoefficients(0.5, -2.0, 0.0, 1.0, 1.5, 0.75)


def _random_state(grid, seed=0):
    u, d = generate_initial(grid, profile="random", seed=seed)
    return State(grid, u, d, 0.0)


def _max_energy_residual(state, coeffs, dt, t_end):
    """Worst |E(t) + int_0^t D ds - E(0)| along a cadence-1 imex1 run, and E(0)."""
    cfg = SolverConfig(dt=dt, t_end=t_end, scheme="imex1", record_cadence=1)
    _, records = run(state, coeffs, cfg)
    t = np.array([r.t for r in records])
    e = np.array([r.e_total for r in records])
    d = np.array([r.d_total for r in records])
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * np.diff(t) * (d[1:] + d[:-1]))))
    return float(np.max(np.abs(e + cum - e[0]))), float(e[0])


def _vector_diff(a, b):
    return math.hypot(l2_norm(a.x - b.x), l2_norm(a.y - b.y))


def _count_engines(monkeypatch):
    """A one-item list counting the _Engine objects built from now on."""
    built = [0]
    init = _Engine.__init__

    def spy(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Engine, "__init__", spy)
    return built


def _exp_factor(grid, rate, dt):
    k2 = grid.tables()["radius"] ** 2
    return np.exp(-rate * k2 * dt)


def _explicit_sides(state, coeffs):
    """The explicit parts of the right sides: rhs without the diffusion that
    the integrating factor carries, momentum Leray-projected."""
    mom, direc = rhs(state, coeffs)
    visc = VectorField2(laplacian(state.u.x), laplacian(state.u.y)) * coeffs.nu
    diff = VectorField2(laplacian(state.d.x), laplacian(state.d.y)) * coeffs.kappa
    return leray_project(mom - visc), direc - diff


def _reference_imex1(state, coeffs, dt):
    """Integrating-factor Euler assembled from the full-spectrum operators.

    The implicit part is the exact per-mode exponential of the viscous and
    director-diffusion terms; everything else in the right side is explicit.
    """
    grid = state.grid
    xu, xd = _explicit_sides(state, coeffs)
    eu = _exp_factor(grid, coeffs.nu, dt)
    ed = _exp_factor(grid, coeffs.kappa, dt)

    def advance(comp, x, e):
        return SpectralField(grid, e * (comp.coeffs + dt * x.coeffs))

    u_new = VectorField2(advance(state.u.x, xu.x, eu), advance(state.u.y, xu.y, eu))
    d_new = VectorField2(advance(state.d.x, xd.x, ed), advance(state.d.y, xd.y, ed))
    return State(grid, u_new, d_new, state.t + dt)


def _reference_imex2(state, coeffs, dt):
    """Integrating-factor Heun step from two full-spectrum evaluations:
    exp(-k^2 dt) x + dt/2 (exp(-k^2 dt) X(x) + X(x*)), x* the imex1 step."""
    grid = state.grid
    xu1, xd1 = _explicit_sides(state, coeffs)
    xu2, xd2 = _explicit_sides(_reference_imex1(state, coeffs, dt), coeffs)
    eu = _exp_factor(grid, coeffs.nu, dt)
    ed = _exp_factor(grid, coeffs.kappa, dt)

    def heun(comp, x1, x2, e):
        c = e * comp.coeffs + 0.5 * dt * (e * x1.coeffs + x2.coeffs)
        return SpectralField(grid, c)

    u_new = VectorField2(heun(state.u.x, xu1.x, xu2.x, eu),
                         heun(state.u.y, xu1.y, xu2.y, eu))
    d_new = VectorField2(heun(state.d.x, xd1.x, xd2.x, ed),
                         heun(state.d.y, xd1.y, xd2.y, ed))
    return State(grid, u_new, d_new, state.t + dt)


def _stage_counts(engine, counts, halves, want_diag):
    """Per-size transform counts of each _Engine stage method in one
    nonlinear() call, and of the cubic forward, which runs between cubic
    and stage1, from snapshots of counts.per_size at each method's entry
    and exit."""
    marks = {}

    def snapshot():
        return {m: list(c) for m, c in counts.per_size.items()}

    def spied(name, method):
        def call(*args, **kwargs):
            before = snapshot()
            out = method(*args, **kwargs)
            marks[name] = (before, snapshot())
            return out
        return call

    names = ("cubic", "stage1", "stage2", "assemble")
    for name in names:  # instance attributes shadow the methods
        setattr(engine, name, spied(name, getattr(engine, name)))
    try:
        engine.nonlinear(*halves, want_diag)
    finally:
        for name in names:
            delattr(engine, name)

    def spent(before, after):
        return {m: [a - b for a, b in zip(c, before.get(m, [0, 0]))]
                for m, c in after.items() if c != before.get(m, [0, 0])}

    spans = {name: spent(*marks[name]) for name in names}
    spans["cubic forward"] = spent(marks["cubic"][1], marks["stage1"][0])
    return spans


class TestCoefficients:
    def test_default_set_and_derived_quantities(self):
        """The default set gives lambda1 = -1, lambda2 = 2, kappa = 1."""
        c = LeslieCoefficients.ansatz(nu=1.5)
        assert (c.mu1, c.mu2, c.mu3, c.mu4, c.mu5, c.mu6) == (
            1.0, -1.0, 0.0, 3.0, 3.0, 1.0)
        assert c.lambda1 == -1.0
        assert c.lambda2 == 2.0
        assert c.nu == 1.5
        assert c.kappa == 1.0
        assert c.is_ansatz

    def test_rejects_nonpositive_mu4(self):
        """mu4 = 2 nu must be positive."""
        with pytest.raises(CoefficientError):
            LeslieCoefficients(1.0, -1.0, 0.0, 0.0, 3.0, 1.0)

    def test_rejects_nonnegative_lambda1(self):
        """lambda1 = mu2 - mu3 must be negative."""
        with pytest.raises(CoefficientError):
            LeslieCoefficients(1.0, 1.0, 0.0, 2.0, 3.0, 1.0)

    def test_rejects_negative_mu1(self):
        with pytest.raises(CoefficientError):
            LeslieCoefficients(-0.5, -1.0, 0.0, 2.0, 3.0, 1.0)

    @pytest.mark.parametrize("mu", [(float("nan"), -1.0, 0.0, 2.0, 3.0, 1.0),
                                    (1.0, -1.0, 0.0, float("inf"), 3.0, 1.0),
                                    ("1", -1, 0, 2, 3, 1),
                                    (None, -1, 0, 2, 3, 1)],
                             ids=["nan_mu1", "inf_mu4", "str_mu1", "none_mu1"])
    def test_rejects_non_finite_coefficients(self, mu):
        """NaN compares false and an infinite mu4 is positive, so only the
        finiteness check catches these sets; a string or None is no real
        number and fails it as a CoefficientError, not math.isfinite's
        TypeError.  np.float64 coefficients still pass."""
        with pytest.raises(CoefficientError):
            LeslieCoefficients(*mu)
        assert LeslieCoefficients(*map(np.float64, (1, -1, 0, 2, 3, 1))).is_ansatz

    def test_rejects_dissipativity_violation(self):
        """Large |lambda2| with small mu5 + mu6 fails both admissible branches."""
        with pytest.raises(CoefficientError):
            LeslieCoefficients(1.0, -1.0, 0.0, 2.0, 5.0, -4.9)

    def test_accepts_non_default_admissible_set(self):
        """A coefficient set off the default ansatz can still be valid."""
        c = LeslieCoefficients(0.5, -2.0, 0.0, 1.0, 1.5, 0.75)
        assert not c.is_ansatz
        assert c.lambda1 == -2.0


class TestOperators:
    def test_strain_and_vorticity_of_shear(self, grid32):
        """u = (sin y, 0): A = [[0, cos y / 2], [cos y / 2, 0]], w_12 = cos y / 2."""
        _, y = grid32.points()
        u = VectorField2(
            SpectralField.from_samples(grid32, np.sin(y)),
            SpectralField.zero(grid32),
        )
        a, w = strain_and_vorticity(u)
        half_cos = 0.5 * np.cos(y)
        assert np.max(np.abs(to_physical(a.xy) - half_cos)) <= 1e-13
        assert np.max(np.abs(to_physical(w.xy) - half_cos)) <= 1e-13
        assert np.max(np.abs(to_physical(w.yx) + half_cos)) <= 1e-13
        assert l2_norm(a.xx) <= 1e-14
        assert l2_norm(a.yy) <= 1e-14

    def test_gl_gradient_on_constant_director(self, grid16):
        """grad_d W at d = (2, 0) is ((|d|^2 - 1) d_x, 0) = (6, 0)."""
        d = constant_vector(grid16, (2.0, 0.0))
        g = gl_gradient(d)
        assert g.x.mean == pytest.approx(GL_FORCE_AT_2, rel=1e-14)
        assert abs(g.y.mean) <= 1e-14
        assert l2_norm(g.x) == pytest.approx(
            2.0 * math.pi * GL_FORCE_AT_2, rel=1e-13)

    def test_gl_force_balances_at_unit_director(self, grid16):
        """lap d - grad_d W vanishes at the uniform unit director."""
        d = constant_vector(grid16, (1.0, 0.0))
        g = gl_force(d)
        assert vector_l2_norm(g) <= 1e-14

    def test_ericksen_stress_of_constant_director_vanishes(self, grid16):
        d = constant_vector(grid16, (2.0, 0.0))
        e = ericksen_stress(d)
        assert max(l2_norm(f) for f in (e.xx, e.xy, e.yx, e.yy)) <= 1e-14

    def test_leslie_stress_at_rest(self, grid16):
        """u = 0, d = (2, 0): the stress reduces to -(G x d) with G = (-6, 0).

        With the default coefficients the only surviving term is
        mu_2 N (x) d = [[12, 0], [0, 0]].
        """
        u = VectorField2.zero(grid16)
        d = constant_vector(grid16, (2.0, 0.0))
        sigma = leslie_stress(u, d, LeslieCoefficients.ansatz())
        assert sigma.xx.mean == pytest.approx(12.0, rel=1e-13)
        assert abs(sigma.xy.mean) <= 1e-13
        assert abs(sigma.yx.mean) <= 1e-13
        assert abs(sigma.yy.mean) <= 1e-13

    def test_rhs_vanishes_at_the_uniform_unit_state(self, grid32):
        """u = 0, d = (1, 0) is an equilibrium of both equations."""
        u, d = generate_initial(grid32, profile="rest-unit")
        mom, direc = rhs(State(grid32, u, d, 0.0), LeslieCoefficients.ansatz())
        assert vector_l2_norm(mom) <= 1e-13
        assert vector_l2_norm(direc) <= 1e-13

    def test_rhs_of_uniform_director_is_the_relaxation_ode(self, grid16):
        """At u = 0, d = (r, 0): dd/dt = -(r^2 - 1) r, no flow is generated."""
        u, d = generate_initial(grid16, profile="rest-uniform",
                                director=(ODE_Y0, 0.0))
        mom, direc = rhs(State(grid16, u, d, 0.0), LeslieCoefficients.ansatz())
        assert vector_l2_norm(mom) <= 1e-12
        assert direc.x.mean == pytest.approx(-GL_FORCE_AT_2, rel=1e-13)
        assert abs(direc.y.mean) <= 1e-13

    def test_general_path_reduces_to_the_default_path(self, grid32):
        """Forcing the general-coefficient branch reproduces the default rhs.

        The identity (3/2) J d + (1/2) J^T d = w d - (lambda_2/lambda_1) A d
        holds exactly for the default values, so both code paths must agree
        to roundoff.
        """
        state = _random_state(grid32, seed=3)
        fast = LeslieCoefficients.ansatz()
        slow = _GeneralView(1.0, -1.0, 0.0, 2.0, 3.0, 1.0)
        assert not slow.is_ansatz
        mom_f, dir_f = rhs(state, fast)
        mom_s, dir_s = rhs(state, slow)
        scale = vector_l2_norm(mom_f) + vector_l2_norm(dir_f)
        assert _vector_diff(mom_f, mom_s) <= 1e-12 * scale
        assert _vector_diff(dir_f, dir_s) <= 1e-12 * scale


class TestStepping:
    def test_engine_matches_the_reference_integrating_factor_step(self, grid32):
        """One solver step equals the full-spectrum reference assembly.

        Dual route: the production half-spectrum engine against an
        independently assembled exp(-nu k^2 dt) (u_hat + dt P N(u))_hat step
        built from the documented operators, for the default coefficients
        (whose reference director equation is written in its own form) and
        for a general set.
        """
        state = _random_state(grid32, seed=1)
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_end=dt, scheme="imex1")
        scale = vector_l2_norm(state.u) + vector_l2_norm(state.d)
        for coeffs in (LeslieCoefficients.ansatz(), GENERAL_COEFFS):
            engine_state = step(state, coeffs, cfg)
            ref_state = _reference_imex1(state, coeffs, dt)
            assert _vector_diff(engine_state.u, ref_state.u) <= 1e-13 * scale
            assert _vector_diff(engine_state.d, ref_state.d) <= 1e-13 * scale
            assert engine_state.t == pytest.approx(dt)

    def test_run_records_match_energy_record(self, grid32):
        """The engine's first record equals energy_record of the initial state.

        The engine evaluates energies and the five dissipation terms from its
        own padded samples; energy_record goes through Parseval and
        to_physical.  Both coefficient branches are checked.
        """
        state = _random_state(grid32, seed=9)
        cfg = SolverConfig(dt=1e-3, t_end=2e-3)
        for coeffs in (LeslieCoefficients.ansatz(), GENERAL_COEFFS):
            _, records = run(state, coeffs, cfg)
            rec, ref = records[0], energy_record(state, coeffs)
            assert rec.t == ref.t
            for name in ("e_total", "e_kin", "e_elastic", "d_total"):
                assert getattr(rec, name) == pytest.approx(
                    getattr(ref, name), rel=1e-13, abs=0.0)
            assert rec.d_terms == pytest.approx(ref.d_terms, rel=1e-13, abs=0.0)
            assert max(rec.div_residual, ref.div_residual) <= 1e-14

    def test_energy_law_for_the_general_coefficient_set(self, grid32):
        """|E(t) + int D - E(0)| <= 5 dt E(0) for mu = (0.5, -2, 0, 1, 1.5,
        0.75), and halving dt halves it (ratio in [1.7, 2.3]), as for the
        default set in acceptance criterion 2."""
        dt = 1e-3
        for seed in (0, 1):
            state = _random_state(grid32, seed=seed)
            resid, e0 = _max_energy_residual(state, GENERAL_COEFFS, dt, 0.2)
            resid_half, _ = _max_energy_residual(state, GENERAL_COEFFS,
                                                 dt / 2.0, 0.2)
            assert resid <= 5.0 * dt * e0
            assert 1.7 <= resid / resid_half <= 2.3

    def test_step_runs_the_counted_transforms(self, grid16, fft_counts):
        """One imex1 step runs 25 inverse and 16 forward 2-D transforms,
        one imex2 step 50 and 32, and an evaluation with diagnostics 27 and
        16, as tests/conftest.py::fft_counts counts them (one forward per
        M x M plane of a truncated forward).  Per evaluation, the cubic terms
        take 5 + 3 of them (7 + 3 with diagnostics) on the 2N grid and the
        pairwise products 20 + 13 on the 3N/2 grid: 12 + 9 in stage1 and
        8 + 4 in stage2."""
        counts = fft_counts
        state = _random_state(grid16, seed=3)
        for scheme, evals in (("imex1", 1), ("imex2", 2)):
            counts[:] = [0, 0]
            step(state, LeslieCoefficients.ansatz(),
                 SolverConfig(dt=1e-3, t_end=1e-3, scheme=scheme))
            assert counts == [25 * evals, 16 * evals], scheme
            assert counts.per_size == {32: [5 * evals, 3 * evals],
                                       24: [20 * evals, 13 * evals]}, scheme
        engine = _Engine(grid16, LeslieCoefficients.ansatz(),
                         SolverConfig(dt=1e-3, t_end=1e-3))
        halves = engine.start(state)
        counts[:] = [0, 0]
        engine.nonlinear(*halves, want_diag=True)
        assert counts == [27, 16]
        assert counts.per_size == {32: [7, 3], 24: [20, 13]}
        # per stage: each method runs its own batches, the cubic forward
        # runs in nonlinear between cubic and stage1, and assemble runs none
        for want_diag, total, cubic in ((False, [25, 16], 5),
                                        (True, [27, 16], 7)):
            counts[:] = [0, 0]
            spans = _stage_counts(engine, counts, halves, want_diag)
            assert counts == total, want_diag
            assert spans == {"cubic": {32: [cubic, 0]},
                             "cubic forward": {32: [0, 3]},
                             "stage1": {24: [12, 9]}, "stage2": {24: [8, 4]},
                             "assemble": {}}, want_diag

    def test_a_recorded_run_takes_its_last_record_from_one_sample(
            self, grid16, fft_counts):
        """A one-step recorded run runs its step with diagnostics (27 + 16
        per recorded evaluation, 25 + 16 per plain one) and then 7 + 0 for
        the last record, which takes no step: 34 + 16 (imex1) and 59 + 32
        (imex2).  That record is energy_record of the final state, bitwise."""
        state = _random_state(grid16, seed=3)
        for scheme, coeffs, counts in (("imex1", GENERAL_COEFFS, [34, 16]),
                                       ("imex2", LeslieCoefficients.ansatz(),
                                        [59, 32])):
            fft_counts[:] = [0, 0]
            final, records = run(state, coeffs, SolverConfig(
                dt=1e-3, t_end=1e-3, scheme=scheme))
            assert fft_counts == counts, scheme
            assert records[-1] == energy_record(final, coeffs), scheme

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_every_record_of_a_run_comes_from_the_cubic_stage(
            self, grid16, scheme, monkeypatch):
        """Each record of run, the last sample's included, is the
        EnergyRecord of the terms of one _Engine.cubic call with want_diag,
        in order: one such call per record and no other."""
        terms = []
        cubic = _Engine.cubic

        def spy(self, uh, dh, want_diag=False):
            oc, diag = cubic(self, uh, dh, want_diag)
            if want_diag:
                terms.append(diag)
            return oc, diag

        monkeypatch.setattr(_Engine, "cubic", spy)
        _, records = run(_random_state(grid16, seed=8),
                         LeslieCoefficients.ansatz(),
                         SolverConfig(dt=1e-3, t_end=5e-3, scheme=scheme,
                                      record_cadence=2))
        assert [r.t for r in records] == pytest.approx([0.0, 2e-3, 4e-3, 5e-3])
        assert len(terms) == len(records)
        assert records == [dynamics._energy_record(r.t, *x)
                           for r, x in zip(records, terms)]

    def test_diagnostics_do_not_change_the_right_sides(self, grid32):
        """Asking for diagnostics leaves mom and direc bitwise unchanged."""
        state = _random_state(grid32, seed=10)
        for coeffs in (LeslieCoefficients.ansatz(), GENERAL_COEFFS):
            engine = _Engine(grid32, coeffs, SolverConfig(dt=1e-3, t_end=1e-3))
            halves = engine.start(state)
            mom, direc, diag = engine.nonlinear(*halves, want_diag=True)
            mom_plain, direc_plain, no_diag = engine.nonlinear(*halves)
            assert diag is not None and no_diag is None
            assert np.array_equal(mom, mom_plain)
            assert np.array_equal(direc, direc_plain)

    def test_engine_results_do_not_alias_its_batches(self, grid16):
        """Right sides from one evaluation survive the next evaluation."""
        engine = _Engine(grid16, GENERAL_COEFFS, SolverConfig(dt=1e-3, t_end=1e-3))
        mom, direc, _ = engine.nonlinear(*engine.start(_random_state(grid16, 1)))
        kept = (mom.copy(), direc.copy())
        engine.nonlinear(*engine.start(_random_state(grid16, 2)))
        assert np.array_equal(mom, kept[0])
        assert np.array_equal(direc, kept[1])

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    @pytest.mark.parametrize("coeffs", [LeslieCoefficients.ansatz(), GENERAL_COEFFS],
                             ids=["ansatz", "general"])
    def test_engines_of_one_size_share_a_workspace(self, grid32, coeffs, scheme,
                                                   monkeypatch):
        """Two trajectories of one size share a workspace: one march of two
        states builds one engine, which steps both in turn, and each ends
        bitwise where it ends when run alone."""
        cfg = SolverConfig(dt=1e-3, t_end=5e-3, scheme=scheme)
        alone = []
        for seed in (11, 12):
            for _, last in iterate(_random_state(grid32, seed), coeffs, cfg):
                pass
            alone.append(last)
        built = _count_engines(monkeypatch)
        for _, (a, b) in _march(tuple(_random_state(grid32, seed)
                                      for seed in (11, 12)), coeffs, cfg):
            pass
        assert built == [1]
        for got, want in zip((a, b), alone):
            for x, y in ((got.u, want.u), (got.d, want.d)):
                assert np.array_equal(x.x.coeffs, y.x.coeffs)
                assert np.array_equal(x.y.coeffs, y.y.coeffs)

    def test_runs_in_two_threads_match_runs_one_after_the_other(
            self, grid32, in_two_threads):
        """Each thread steps with its own workspace: two runs at the same N
        in two threads at once give the bits of two sequential runs."""
        cfg = SolverConfig(dt=1e-3, t_end=0.01, scheme="imex2")
        states = [_random_state(grid32, seed) for seed in (13, 14)]
        serial = [run(s, GENERAL_COEFFS, cfg) for s in states]
        threaded = in_two_threads(lambda i: run(states[i], GENERAL_COEFFS, cfg))
        for (got, got_records), (want, want_records) in zip(threaded, serial):
            assert got_records == want_records
            for x, y in ((got.u, want.u), (got.d, want.d)):
                assert np.array_equal(x.x.coeffs, y.x.coeffs)
                assert np.array_equal(x.y.coeffs, y.y.coeffs)

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_a_warm_step_writes_its_inverses_into_the_workspace(self, grid32,
                                                                scheme):
        """The tracemalloc peak of one warm step at N = 32 stays below two
        12-plane batches of 3N/2 samples, 2 * 12 * 48^2 * 8 B = 432 KiB.

        With every transform written into the kept workspace a step
        allocates its pointwise temporaries and N-grid results: 150 KiB
        (imex1) and 219 KiB (imex2) measured, 296 and 366 KiB while the
        inverses' intermediates and the forward spectra were fresh.  Any
        one inverse made fresh again adds its sample batch (216 KiB for
        stage 1, 144 KiB for stage 2, 160 KiB for the 5 cubic planes at 2N)
        and crosses the per-scheme bound of the next test; with every
        inverse fresh the peak was 821 and 890 KiB.
        """
        engine = _Engine(grid32, GENERAL_COEFFS,
                         SolverConfig(dt=1e-3, t_end=1e-3, scheme=scheme))
        uh, dh, _ = engine.step(*engine.start(_random_state(grid32, 15)))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            engine.step(uh, dh)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2 * 12 * 48 ** 2 * 8

    @pytest.mark.parametrize("scheme, bound_kib", [("imex1", 200),
                                                   ("imex2", 270)])
    def test_a_warm_step_allocates_no_transform_batch(self, grid32, scheme,
                                                      bound_kib):
        """The tracemalloc peak of one warm step at N = 32, per scheme.

        Its pointwise temporaries, right sides and stepped states peak at
        150 KiB (imex1) and 219 KiB (imex2).  With one inverse made fresh
        again the peak was 299-444 KiB (imex1) and 368-512 KiB (imex2), and
        with the forwards' N-grid results fresh and stage 2 sampled into a
        buffer of its own, 264 and 333 KiB.
        """
        engine = _Engine(grid32, GENERAL_COEFFS,
                         SolverConfig(dt=1e-3, t_end=1e-3, scheme=scheme))
        uh, dh, _ = engine.step(*engine.start(_random_state(grid32, 15)))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            engine.step(uh, dh)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < bound_kib * 1024

    @pytest.mark.parametrize("n", [10, 16, 32, 64])
    def test_the_workspace_holds_three_sample_sized_buffers(self, n):
        """The distinct buffers under a workspace's arrays take no more than
        three of its largest plus the N-grid input batches (7 + 12 + 8
        planes): arrays whose lives never overlap share a buffer."""
        ws = _Engine(GridSpec(n), GENERAL_COEFFS,
                     SolverConfig(dt=1e-3, t_end=1e-3)).ws
        owners = {}
        for array in vars(ws).values():
            while array.base is not None:
                array = array.base
            owners[id(array)] = array.nbytes
        batches = 27 * n * (n // 2 + 1) * 16
        assert len(owners) == 6
        assert sum(owners.values()) <= 3 * max(owners.values()) + batches

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_a_warm_step_hands_every_transform_a_kept_out(self, grid32,
                                                          scheme, monkeypatch):
        """Every numpy.fft call of a warm step writes into an array of the
        workspace: each gets an out whose memory is owned by an array that
        tracemalloc, started after the first step, has no allocation
        traceback for, and every truncated forward returns a view of the
        workspace.  So the step's transforms allocate nothing."""
        engine = _Engine(grid32, GENERAL_COEFFS,
                         SolverConfig(dt=1e-3, t_end=1e-3, scheme=scheme))
        uh, dh, _ = engine.step(*engine.start(_random_state(grid32, 15)))
        seen = []
        cuts = []
        forward = dynamics._rfft_truncated

        def cut(*args, **kwargs):
            cuts.append(forward(*args, **kwargs))
            return cuts[-1]

        monkeypatch.setattr(dynamics, "_rfft_truncated", cut)

        def spy(name, fn):
            def wrapper(*args, out=None, **kwargs):
                owner = None if out is None else (
                    out if out.base is None else out.base)
                seen.append((name, owner is not None and
                             tracemalloc.get_object_traceback(owner) is None))
                return fn(*args, out=out, **kwargs)
            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
                     "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, spy(name, getattr(np.fft, name)))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            engine.step(uh, dh)
        finally:
            if not tracing:
                tracemalloc.stop()
            monkeypatch.undo()
        assert all(kept for _, kept in seen), seen
        evals = 1 if scheme == "imex1" else 2
        assert sorted({name for name, _ in seen}) == [
            "fft", "ifft", "irfft", "rfft"]
        assert len(seen) == 12 * evals  # 3 inverses and 3 forwards of 2 calls
        buffers = list(vars(engine.ws).values())
        assert len(cuts) == 3 * evals
        assert all(any(np.shares_memory(c, b) for b in buffers) for c in cuts)

    def test_two_stage_scheme_matches_its_reference(self, grid32):
        """The Heun-type variant equals its two-evaluation reference, for the
        default coefficients and for a general set."""
        state = _random_state(grid32, seed=2)
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_end=dt, scheme="imex2")
        scale = vector_l2_norm(state.u) + vector_l2_norm(state.d)
        for coeffs in (LeslieCoefficients.ansatz(), GENERAL_COEFFS):
            engine_state = step(state, coeffs, cfg)
            ref_state = _reference_imex2(state, coeffs, dt)
            assert _vector_diff(engine_state.u, ref_state.u) <= 1e-12 * scale
            assert _vector_diff(engine_state.d, ref_state.d) <= 1e-12 * scale

    def test_velocity_invariants_along_a_run(self, grid32):
        """Divergence residual and the velocity mean stay at machine zero."""
        state = _random_state(grid32, seed=4)
        cfg = SolverConfig(dt=1e-3, t_end=0.05, scheme="imex1")
        final, records = run(state, LeslieCoefficients.ansatz(), cfg)
        assert divergence_residual(final.u) <= 1e-12
        assert abs(final.u.x.mean) <= 1e-15
        assert abs(final.u.y.mean) <= 1e-15
        assert max(r.div_residual for r in records) <= 1e-12

    def test_energy_decreases_along_the_flow(self, grid32):
        """Total energy is nonincreasing along a resolved relaxation run."""
        state = _random_state(grid32, seed=5)
        cfg = SolverConfig(dt=1e-3, t_end=0.1, scheme="imex1")
        _, records = run(state, LeslieCoefficients.ansatz(), cfg)
        energies = [r.e_total for r in records]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12)

    def test_run_is_deterministic(self, grid32):
        """Two runs from the same state produce bit-identical results."""
        coeffs = LeslieCoefficients.ansatz()
        cfg = SolverConfig(dt=1e-3, t_end=0.02)
        f1, _ = run(_random_state(grid32, seed=6), coeffs, cfg)
        f2, _ = run(_random_state(grid32, seed=6), coeffs, cfg)
        assert np.array_equal(f1.u.x.coeffs, f2.u.x.coeffs)
        assert np.array_equal(f1.d.y.coeffs, f2.d.y.coeffs)

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    @pytest.mark.parametrize("coeffs", [LeslieCoefficients.ansatz(), GENERAL_COEFFS],
                             ids=["ansatz", "general"])
    def test_iterate_agrees_with_run(self, grid32, coeffs, scheme):
        """The record-free lockstep generator yields the samples run records
        (m = 0, every multiple of the cadence and the last step) and ends in
        the same bits: recording does not change the trajectory."""
        cfg = SolverConfig(dt=1e-3, t_end=0.012, scheme=scheme, record_cadence=5)
        final_run, records = run(_random_state(grid32, seed=7), coeffs, cfg)
        snaps = []
        for m, last in iterate(_random_state(grid32, seed=7), coeffs, cfg):
            snaps.append((m, last.t))
        assert [m for m, _ in snaps] == [0, 5, 10, 12]
        assert [t for _, t in snaps] == [r.t for r in records]
        for a, b in ((last.u, final_run.u), (last.d, final_run.d)):
            assert np.array_equal(a.x.coeffs, b.x.coeffs)
            assert np.array_equal(a.y.coeffs, b.y.coeffs)

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_only_a_march_given_a_list_keeps_products(self, grid16, monkeypatch,
                                                      scheme):
        """A recorded run and iterate ask no evaluation for its products.  A
        march of two states given a list gets one entry per sample but the
        last, holding a (d x d, d.Ad) pair per trajectory, the bits an
        evaluation at the yielded state gives: imex2 hands out its first
        evaluation's, not its predictor's."""
        cfg = SolverConfig(dt=1e-3, t_end=7e-3, scheme=scheme, record_cadence=3)
        asked = []
        nonlinear = _Engine.nonlinear

        def spy(self, uh, dh, want_diag=False, products=None):
            asked.append(products)
            return nonlinear(self, uh, dh, want_diag, products)

        monkeypatch.setattr(_Engine, "nonlinear", spy)
        run(_random_state(grid16, 4), GENERAL_COEFFS, cfg)
        for _ in iterate(_random_state(grid16, 4), GENERAL_COEFFS, cfg):
            pass
        monkeypatch.undo()
        assert len(asked) == 2 * 7 * (1 if scheme == "imex1" else 2)
        assert all(p is None for p in asked)

        products = []
        samples = [s for _, s in _march(tuple(_random_state(grid16, seed)
                                              for seed in (4, 5)),
                                        GENERAL_COEFFS, cfg, products=products)]
        assert len(samples) == 4 and len(products) == 3
        engine = _Engine(grid16, GENERAL_COEFFS, cfg)
        for states, entry in zip(samples, products):
            assert len(entry) == 2
            for s, (ddt, dad) in zip(states, entry):
                want = []
                engine.nonlinear(*(np.stack([v.x.coeffs, v.y.coeffs])
                                   for v in (s.u, s.d)), products=want)
                assert np.array_equal(ddt, want[0][0])
                assert np.array_equal(dad, want[0][1])

    def test_record_cadence_and_endpoints(self, grid32):
        """Records start at t = 0 and end exactly at t_end."""
        state = _random_state(grid32, seed=8)
        cfg = SolverConfig(dt=1e-3, t_end=0.01, record_cadence=2)
        _, records = run(state, LeslieCoefficients.ansatz(), cfg)
        assert records[0].t == 0.0
        assert records[-1].t == pytest.approx(0.01, rel=1e-12)
        assert all(len(r.d_terms) == 5 for r in records)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises_divergence_error(self, grid16):
        """step, iterate and run driven past stability report the failing step.

        From t = 0, the step from m = 5 leaves the finite range (t = 3); a
        single step from t = 2.5 reports index 0 at the same t.  Overflow
        warnings on the way to the non-finite state are expected; the
        contract is the typed error, raised before results are returned.
        """
        u, d = generate_initial(grid16, profile="random", seed=9,
                                amplitude_u=20.0, amplitude_d=20.0)
        state = State(grid16, u, d, 0.0)
        coeffs = LeslieCoefficients.ansatz()
        cfg = SolverConfig(dt=0.5, t_end=50.0)
        for drive in (run, lambda *a: list(iterate(*a))):
            with pytest.raises(DivergenceError) as err:
                drive(state, coeffs, cfg)
            assert (err.value.step_index, err.value.t) == (5, 3.0)
        with pytest.raises(DivergenceError) as err:
            for _ in range(cfg.n_steps):
                state = step(state, coeffs, cfg)
        assert (state.t, err.value.step_index, err.value.t) == (2.5, 0, 3.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_lockstep_march_names_the_trajectory_that_diverged(self, grid16):
        """Marched beside a stable state, the blow-up data above fail at the
        same step and time, and the error names trajectory 1; a march of
        one state names none, in the message run's error has always had."""
        u, d = generate_initial(grid16, profile="random", seed=9,
                                amplitude_u=20.0, amplitude_d=20.0)
        unstable = State(grid16, u, d, 0.0)
        stable = State(grid16, *generate_initial(grid16, profile="rest-unit"))
        coeffs = LeslieCoefficients.ansatz()
        cfg = SolverConfig(dt=0.5, t_end=50.0)
        with pytest.raises(DivergenceError) as err:
            list(_march((stable, unstable), coeffs, cfg))
        got = err.value
        assert (got.step_index, got.t, got.trajectory) == (5, 3.0, 1)
        assert str(got) == "non-finite state of trajectory 1 after step 5 (t = 3)"
        with pytest.raises(DivergenceError) as err:
            list(_march((unstable,), coeffs, cfg))
        assert err.value.trajectory is None
        assert str(err.value) == "non-finite state after step 5 (t = 3)"

    def test_a_twin_run_builds_one_engine(self, grid16, tmp_path, monkeypatch):
        """twin_experiment marches both trajectories with one engine."""
        config = ExperimentConfig(
            grid=grid16, solver=SolverConfig(dt=1e-3, t_end=3e-3),
            coeffs=LeslieCoefficients.ansatz(), initial=InitialSpec(seed=3),
            twin=TwinSpec(mode="perturb", delta=1e-4))
        built = _count_engines(monkeypatch)
        records, _ = twin_experiment(config, str(tmp_path), quiet=True)
        assert built == [1] and len(records) == 4

    def test_solver_config_validation(self):
        """Bad dt, t_end, scheme, cadence, or incompatible t_end/dt raise.

        Non-finite times and a step count that overflows are bad too, and
        so are times that are no real numbers (a ValueError, not the
        comparison's TypeError); np.float64 times still work.
        """
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_end=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_end=1.0, scheme="rk4")
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_end=1.0, record_cadence=0)
        with pytest.raises(ValueError):
            SolverConfig(dt=3e-3, t_end=1.0)
        for dt, t_end in ((1e-3, math.inf), (math.nan, 1.0), (1e-308, 1e308),
                          ("1e-3", 1.0), (1e-3, None)):
            with pytest.raises(ValueError):
                SolverConfig(dt=dt, t_end=t_end)
        assert SolverConfig(dt=1e-3, t_end=1.0).n_steps == 1000
        assert SolverConfig(np.float64(1e-3), np.float64(1.0)).n_steps == 1000

    def test_solver_config_rejects_a_cadence_that_is_not_an_integer(self):
        """record_cadence goes through operator.index: 1.5 made a run record
        at t = 0, 0.003 and 0.004 without a word; np.int64 still works."""
        for bad in (1.5, 2.0, "2"):
            with pytest.raises(ValueError, match="record_cadence"):
                SolverConfig(1e-3, 4e-3, "imex1", bad)
        assert SolverConfig(1e-3, 4e-3, "imex1", np.int64(2)).record_cadence == 2

    def test_state_rejects_a_time_that_is_not_finite(self, grid16):
        """A State's time must be finite, as snapshots.load already asks."""
        u, d = generate_initial(grid16, profile="random", seed=1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                State(grid16, u, d, bad)
        assert State(grid16, u, d, np.float64(0.5)).t == 0.5


class TestSchemeAccuracy:
    def test_uniform_director_ode_short_horizon(self, grid16):
        """Both schemes track y' = -(y^2 - 1) y; the two-stage one is sharper.

        Closed form y(t) = (1 - (3/4) exp(-2 t))^(-1/2) from y(0) = 2.  The
        check sits at t = 0.25, inside the fast initial transient where the
        discretization error peaks; the tolerance reflects that peak.
        """
        exact = (1.0 - 0.75 * math.exp(-0.5)) ** -0.5
        errors = {}
        for scheme in ("imex1", "imex2"):
            u, d = generate_initial(grid16, profile="rest-uniform",
                                    director=(ODE_Y0, 0.0))
            cfg = SolverConfig(dt=1e-3, t_end=0.25, scheme=scheme,
                               record_cadence=250)
            final, _ = run(State(grid16, u, d, 0.0),
                           LeslieCoefficients.ansatz(), cfg)
            errors[scheme] = abs(final.d.x.mean - exact) / exact
        assert errors["imex2"] <= 5e-6
        assert errors["imex1"] > 10.0 * errors["imex2"]

    def test_convergence_orders(self, grid16):
        """Halving dt cuts the error by ~2 (one-stage) and ~4 (two-stage).

        Errors are measured against a dt/8 run of the same scheme, which is
        accurate enough to expose the leading-order ratio.
        """
        coeffs = LeslieCoefficients.ansatz()
        t_end = 0.2

        def final_state(scheme, dt):
            cfg = SolverConfig(dt=dt, t_end=t_end, scheme=scheme,
                               record_cadence=10 ** 9)
            final, _ = run(_random_state(grid16, seed=10), coeffs, cfg)
            return final

        for scheme, low, high in (("imex1", 1.6, 2.4), ("imex2", 3.3, 4.7)):
            ref = final_state(scheme, 5e-4)
            errs = []
            for dt in (4e-3, 2e-3):
                sol = final_state(scheme, dt)
                errs.append(_vector_diff(sol.u, ref.u)
                            + _vector_diff(sol.d, ref.d))
            ratio = errs[0] / errs[1]
            assert low <= ratio <= high, (scheme, ratio)
