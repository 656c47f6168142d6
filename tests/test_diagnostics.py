"""Energy, dissipation, twin-state functionals, and pressure recovery."""

import math
import tracemalloc

import numpy as np
import pytest

from nematicflow import (
    DyadicPartition,
    GridSpec,
    LeslieCoefficients,
    SolverConfig,
    SpectralField,
    State,
    VectorField2,
    constant_vector,
    divergence,
    energy_record,
    f_bound,
    frak_d_components,
    generate_initial,
    gradient,
    iterate,
    jacobian,
    l2_norm,
    perturb,
    phi,
    product,
    recover_pressure,
    rhs,
    run,
    strain_and_vorticity,
    to_physical,
    uniqueness_record,
    vector_l2_norm,
)

from nematicflow import diagnostics
from nematicflow.configio import ExperimentConfig, TwinSpec
from nematicflow.diagnostics import (UniquenessRecord, _dad_half, _outer_half,
                                     _twin_record)
from nematicflow.dynamics import _Engine, _energy_record, _velocity_strain
from nematicflow.experiments import make_initial_state, twin_experiment

from _frozen import TORUS_AREA, W_AT_2


class _GeneralView(LeslieCoefficients):
    """Identical coefficient values routed through the general-form code path."""

    @property
    def is_ansatz(self):
        return False


def _random_state(grid, seed=0):
    u, d = generate_initial(grid, profile="random", seed=seed)
    return State(grid, u, d, 0.0)


def _rest_state(grid, director=(1.0, 0.0)):
    u, d = generate_initial(grid, profile="rest-uniform", director=director)
    return State(grid, u, d, 0.0)


class TestEnergies:
    def test_kinetic_energy_of_a_shear_mode(self, grid32):
        """E_kin = |u|_{L2}^2 / 2 = pi^2 for u = (cos y, 0)."""
        _, y = grid32.points()
        u = VectorField2(
            SpectralField.from_samples(grid32, np.cos(y)),
            SpectralField.zero(grid32),
        )
        d = constant_vector(grid32, (1.0, 0.0))
        state = State(grid32, u, d, 0.0)
        assert energy_record(state).e_kin == pytest.approx(math.pi ** 2, rel=1e-13)

    def test_elastic_energy_of_a_stretched_director(self, grid32):
        """Constant d = (2, 0): no gradient part, W = 9/4 over the box."""
        state = _rest_state(grid32, director=(2.0, 0.0))
        assert energy_record(state).e_elastic == pytest.approx(
            W_AT_2 * TORUS_AREA, rel=1e-13)

    def test_elastic_energy_gradient_part(self, grid32):
        """d = (1 + eps cos x, 0): the |grad d|^2 / 2 part adds eps^2 pi^2."""
        eps = 1e-3
        x, _ = grid32.points()
        d = VectorField2(
            SpectralField.from_samples(grid32, 1.0 + eps * np.cos(x)),
            SpectralField.zero(grid32),
        )
        state = State(grid32, VectorField2.zero(grid32), d, 0.0)
        grad_part = 0.5 * (eps ** 2) * TORUS_AREA / 2.0
        # W = (2 eps cos x + eps^2 cos^2 x)^2 / 4 integrates to
        # eps^2 pi^2 (1 + ...); keep only the leading term and use a loose
        # relative tolerance for the eps^4 remainder.
        w_part = (eps ** 2) * TORUS_AREA / 4.0 * 2.0
        expected = grad_part + w_part
        assert energy_record(state).e_elastic == pytest.approx(expected, rel=1e-5)

    def test_total_energy_is_the_sum(self, grid32):
        rec = energy_record(_random_state(grid32, seed=1))
        assert rec.e_total == pytest.approx(rec.e_kin + rec.e_elastic, rel=1e-14)

    def test_energy_vanishes_only_at_the_ground_state(self, grid32):
        """The uniform unit director has zero energy; random states do not."""
        assert energy_record(_rest_state(grid32)).e_total <= 1e-26
        assert energy_record(_random_state(grid32, seed=2)).e_total > 1e-3


def _shear_state(grid, director):
    """u = (sin y, 0) with a constant director: A12 = cos(y) / 2 is the only
    strain entry and G = lap d - grad W vanishes."""
    _, y = grid.points()
    u = VectorField2(SpectralField.from_samples(grid, np.sin(y)),
                     SpectralField.zero(grid))
    return State(grid, u, constant_vector(grid, director), 0.0)


SHEAR_GENERAL = LeslieCoefficients(0.5, -2.0, 0.0, 1.0, 1.5, 0.75)
DIAGONAL = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


class TestDissipation:
    def test_equilibrium_has_zero_dissipation(self, grid32):
        rec = energy_record(_rest_state(grid32))
        assert rec.d_total <= 1e-26
        assert len(rec.d_terms) == 5

    def test_terms_are_nonnegative_for_default_coefficients(self, grid32):
        """The default split is a sum of five squares."""
        rec = energy_record(_random_state(grid32, seed=3))
        assert all(t >= 0.0 for t in rec.d_terms)
        assert rec.d_total == pytest.approx(sum(rec.d_terms), rel=1e-14)

    def test_general_form_matches_the_five_square_split(self, grid32):
        """Dual route: the general quadratic form at the default values.

        mu_1 |d.Ad|^2 + (mu_4/2)|grad u|^2 + (mu_5+mu_6)|Ad|^2
        - lambda_1 |N|^2 - (lambda_2 - mu_2 - mu_3) N.Ad  collapses to the
        five-square split when the default values are inserted.
        """
        state = _random_state(grid32, seed=4)
        fast = energy_record(state, LeslieCoefficients.ansatz()).d_total
        slow = energy_record(state, _GeneralView(1.0, -1.0, 0.0, 2.0, 3.0, 1.0))
        assert slow.d_total == pytest.approx(fast, rel=1e-12)
        assert len(slow.d_terms) == 5

    @pytest.mark.parametrize("nu", [1.0, 0.25])
    @pytest.mark.parametrize("director, dad_part", [((1.0, 0.0), 0.0),
                                                    (DIAGONAL, 0.5)],
                             ids=["aligned", "diagonal"])
    def test_shear_flow_default_terms_in_closed_form(self, grid16, nu, director,
                                                     dad_part):
        """u = (sin y, 0), constant unit d: in units of pi^2 the five squares
        are (2 nu, d.Ad part, 3/4, 0, 1/4), with |d.Ad|^2 integrating to 0
        for d = (1, 0) and to 1/2 for d = (1, 1)/sqrt 2."""
        rec = energy_record(_shear_state(grid16, director),
                            LeslieCoefficients.ansatz(nu))
        pi2 = math.pi ** 2
        want = (2.0 * nu, dad_part, 0.75, 0.0, 0.25)
        for got, w in zip(rec.d_terms, want):
            assert got / pi2 == pytest.approx(w, rel=1e-14, abs=1e-14)
        assert rec.d_total / pi2 == pytest.approx(2.0 * nu + 1.0 + dad_part,
                                                  rel=1e-14)
        assert rec.e_kin == pytest.approx(pi2, rel=1e-14)

    @pytest.mark.parametrize("director, mu1_part, total", [((1.0, 0.0), 0.0, 1.75),
                                                           (DIAGONAL, 0.25, 2.0)],
                             ids=["aligned", "diagonal"])
    def test_shear_flow_general_terms_in_closed_form(self, grid16, director,
                                                     mu1_part, total):
        """mu = (0.5, -2, 0, 1, 1.5, 0.75) on the same shear flow: N =
        (3/8) Ad, so in units of pi^2 the terms are (mu_1 |d.Ad|^2, 1,
        9/8, 9/64, -33/64)."""
        rec = energy_record(_shear_state(grid16, director), SHEAR_GENERAL)
        pi2 = math.pi ** 2
        want = (mu1_part, 1.0, 1.125, 0.140625, -0.515625)
        for got, w in zip(rec.d_terms, want):
            assert got / pi2 == pytest.approx(w, rel=1e-14, abs=1e-14)
        assert rec.d_total / pi2 == pytest.approx(total, rel=1e-14)
        assert rec.e_kin == pytest.approx(pi2, rel=1e-14)

    def test_energy_record_is_consistent(self, grid32):
        """energy_record and the engine's recorded evaluation share one
        kernel: the same bits from the same spectra, at the state's time."""
        state = _random_state(grid32, seed=5)
        state.t = 0.25
        halves = [np.stack([v.x.coeffs, v.y.coeffs]) for v in (state.u, state.d)]
        for coeffs in (LeslieCoefficients.ansatz(), SHEAR_GENERAL):
            engine = _Engine(grid32, coeffs, SolverConfig(dt=1e-3, t_end=1e-3))
            terms = engine.nonlinear(*halves, want_diag=True)[2]
            rec = energy_record(state, coeffs)
            assert rec == _energy_record(0.25, *terms)
            assert rec.d_total == pytest.approx(sum(rec.d_terms), rel=1e-14)

    def test_energy_record_samples_once(self, grid16, fft_counts):
        """One 7-plane padded inverse (A, d, lap d) serves the energy split
        and the dissipation terms; no forward transform."""
        state = _random_state(grid16, seed=5)
        fft_counts[:] = [0, 0]
        energy_record(state)
        assert fft_counts == [7, 0]

    def test_short_run_balances_energy_and_dissipation(self, grid32):
        """|E(t) + int D - E(0)| stays within 5 dt E(0) on a short run."""
        state = _random_state(grid32, seed=6)
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_end=0.05, scheme="imex1", record_cadence=1)
        _, records = run(state, LeslieCoefficients.ansatz(), cfg)
        t = np.array([r.t for r in records])
        e = np.array([r.e_total for r in records])
        d = np.array([r.d_total for r in records])
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(t) * (d[1:] + d[:-1]))))
        resid = np.max(np.abs(e + cum - e[0]))
        assert resid <= 5.0 * dt * e[0]


class TestTwinFunctionals:
    def test_phi_vanishes_for_identical_states(self, grid32):
        state = _random_state(grid32, seed=7)
        assert phi(state, state.copy()) == 0.0

    def test_phi_is_symmetric(self, grid32):
        s1 = _random_state(grid32, seed=8)
        s2 = _random_state(grid32, seed=9)
        assert phi(s1, s2) == pytest.approx(phi(s2, s1), rel=1e-13)

    def test_phi_scales_quadratically_in_the_perturbation(self, grid32):
        """Phi(delta) / Phi(delta/10) = 100 for scalar-multiple perturbations."""
        s1 = _random_state(grid32, seed=10)
        u_a, d_a = perturb(s1.u, s1.d, seed=77, delta=1e-3)
        u_b, d_b = perturb(s1.u, s1.d, seed=77, delta=1e-4)
        big = phi(s1, State(grid32, u_a, d_a, 0.0))
        small = phi(s1, State(grid32, u_b, d_b, 0.0))
        assert big / small == pytest.approx(100.0, rel=1e-8)

    def test_frak_d_components_are_nonnegative_and_sum(self, grid32):
        s1 = _random_state(grid32, seed=11)
        u2, d2 = perturb(s1.u, s1.d, seed=5, delta=1e-2)
        s2 = State(grid32, u2, d2, 0.0)
        gdu, gdd, lpv, lpt = frak_d_components(s1, s2)
        addends = (LeslieCoefficients.ansatz().nu * gdu, gdd, 2.0 * lpv, lpt)
        assert all(a >= 0.0 for a in addends)
        assert sum(addends) > 0.0

    def test_frak_d_vanishes_for_identical_states(self, grid32):
        s = _random_state(grid32, seed=12)
        assert frak_d_components(s, s.copy()) == (0.0, 0.0, 0.0, 0.0)

    def test_uniqueness_record_recomputes_its_parts(self, grid32):
        """phi and frakD in the record match the assembly formulas."""
        s1 = _random_state(grid32, seed=13)
        u2, d2 = perturb(s1.u, s1.d, seed=6, delta=1e-3)
        s2 = State(grid32, u2, d2, 0.0)
        coeffs = LeslieCoefficients.ansatz()
        rec = uniqueness_record(s1, s2, coeffs)
        part = DyadicPartition(grid32)
        assert rec.phi == pytest.approx(phi(s1, s2, part), rel=1e-13)
        gdu, gdd, lpv, lpt = frak_d_components(s1, s2, coeffs, part)
        expected_frakd = coeffs.nu * gdu + gdd + 2.0 * lpv + lpt
        assert rec.frak_d == pytest.approx(expected_frakd, rel=1e-13)
        assert rec.frak_d == pytest.approx(
            coeffs.nu * rec.grad_du_norm ** 2 + rec.grad_dd_norm ** 2
            + 2.0 * rec.lp_sum_vector + rec.lp_sum_tensor, rel=1e-13)
        assert rec.f_hat == pytest.approx(f_bound(s1, s2), rel=1e-13)

    def test_f_bound_baseline_and_monotonicity(self, grid32):
        """F_hat equals 4 for two zero states and grows with the states."""
        zero = State(grid32, VectorField2.zero(grid32),
                     VectorField2.zero(grid32), 0.0)
        assert f_bound(zero, zero.copy()) == pytest.approx(4.0, rel=1e-14)
        small = _rest_state(grid32)
        big = _random_state(grid32, seed=14)
        assert f_bound(small, small.copy()) < f_bound(big, big.copy())


def _block_sum_sq(f, s, part):
    """sum_q 4^{qs} ||Delta_q f||^2, block by block."""
    return sum(4.0 ** (q * s) * l2_norm(part.delta(f, q)) ** 2
               for q in part.q_range)


def _oracle_frak_d_components(state1, state2, part):
    """frakD's addends block by block: jacobian entries in the explicit
    block sum, d x d by truncated products, every block and low-pass
    sampled on the 2N grid."""
    gdu = jacobian(state1.u - state2.u)
    gdd = jacobian(state1.d - state2.d)
    grad_du_sq = sum(_block_sum_sq(f, -0.5, part)
                     for f in (gdu.xx, gdu.xy, gdu.yx, gdu.yy))
    grad_dd_sq = sum(_block_sum_sq(f, 0.5, part)
                     for f in (gdd.xx, gdd.xy, gdd.yx, gdd.yy))
    da = strain_and_vorticity(state1.u)[0] - strain_and_vorticity(state2.u)[0]
    d = state1.d
    dd11, dd12, dd22 = product(d.x, d.x), product(d.x, d.y), product(d.y, d.y)

    def integral(samples):
        return TORUS_AREA * float(np.mean(samples))

    lp_vec = lp_ten = 0.0
    for q in range(1, part.q_max + 1):
        b11, b12, b22 = (to_physical(part.delta(f, q), 2)
                         for f in (da.xx, da.xy, da.yy))
        s1, s2, t11, t12, t22 = (to_physical(part.low_pass(f, q - 1), 2)
                                 for f in (d.x, d.y, dd11, dd12, dd22))
        v1 = b11 * s1 + b12 * s2
        v2 = b12 * s1 + b22 * s2
        lp_vec += 2.0 ** (-q) * integral(v1 * v1 + v2 * v2)
        contraction = b11 * t11 + 2.0 * b12 * t12 + b22 * t22
        lp_ten += 2.0 ** (-q) * integral(contraction * contraction)
    return grad_du_sq, grad_dd_sq, lp_vec, lp_ten


def _twins(grid, near):
    s1 = _random_state(grid, seed=21)
    if near:
        u2, d2 = perturb(s1.u, s1.d, seed=22, delta=1e-6)
    else:  # full-band difference, so every block is populated
        u2, d2 = perturb(s1.u, s1.d, seed=23, delta=0.3, decay=0.5,
                         band=grid.n_modes / 2)
    return s1, State(grid, u2, d2, 0.0)


def _grid_id(grid):
    """N and the padding ratio of the product grid, e.g. N48p2.0."""
    return f"N{grid.n_modes}p{grid.padded_size / grid.n_modes}"


class TestTwinRecordOracle:
    @pytest.mark.parametrize("grid", [GridSpec(16), GridSpec(32), GridSpec(64),
                                      GridSpec(48)],
                             ids=_grid_id)
    @pytest.mark.parametrize("near", [True, False], ids=["near", "far"])
    def test_frak_d_components_match_the_block_formula(self, grid, near):
        """Band-sized block grids and closed-form norms give the 2N-grid
        block-by-block values."""
        s1, s2 = _twins(grid, near)
        part = DyadicPartition(grid)
        got = frak_d_components(s1, s2, partition=part)
        want = _oracle_frak_d_components(s1, s2, part)
        for g, w in zip(got, want):
            assert w > 0.0
            assert g == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("grid", [GridSpec(32),
                                      GridSpec(48)],
                             ids=_grid_id)
    def test_dad_l2_matches_the_cubic_products(self, grid):
        """F_hat's d.Ad spectrum is the truncated cubic product, to 1e-12 of
        its L2 norm."""
        state = _twins(grid, near=False)[1]
        a, _ = strain_and_vorticity(state.u)
        d = state.d
        want = (product(a.xx, d.x, d.x) + 2.0 * product(a.xy, d.x, d.y)
                + product(a.yy, d.y, d.y))
        got = SpectralField(grid, _dad_half(
            np.stack([a.xx.coeffs, a.xy.coeffs, a.yy.coeffs]),
            np.stack([d.x.coeffs, d.y.coeffs])))
        assert l2_norm(got - want) <= 1e-12 * l2_norm(want)

    @pytest.mark.parametrize("coeffs", [LeslieCoefficients.ansatz(), SHEAR_GENERAL],
                             ids=["ansatz", "general"])
    @pytest.mark.parametrize("grid", [GridSpec(16), GridSpec(48)], ids=_grid_id)
    def test_record_products_are_the_engines_bitwise(self, grid, coeffs):
        """_outer_half and _dad_half form d x d and d.Ad with the engine's
        kernels on the engine's grids, so they equal the products an engine
        evaluation hands out at the same state bit for bit."""
        engine = _Engine(grid, coeffs, SolverConfig(dt=1e-3, t_end=1e-3))
        uh, dh = engine.start(_twins(grid, near=False)[1])
        products = []
        engine.nonlinear(uh, dh, products=products)
        ((outer, dad),) = products
        assert np.array_equal(_outer_half(dh), outer)
        assert np.array_equal(_dad_half(_velocity_strain(uh), dh), dad)

    def test_record_runs_the_counted_transforms(self, grid16, fft_counts):
        """At N = 16 (q = 1..3, on grids M_q = 16, 24, 32): 3 x 8 block
        planes, 2 + 3 for d x d on the engine's 3N/2 = 24 grid and 5 + 1
        for d.Ad on the 2N = 32 grid; Phi and the gradient norms need
        none."""
        s1, s2 = _twins(grid16, near=True)
        part = DyadicPartition(grid16)
        fft_counts[:] = [0, 0]
        uniqueness_record(s1, s2, partition=part)
        assert fft_counts == [31, 4]
        assert fft_counts.per_size == {16: [8, 0], 24: [8 + 2, 3],
                                       32: [8 + 5, 1]}


class TestFusedTwinRecord:
    """The twin driver records each sample from the d x d and d.Ad that the
    engines form at it; only the last sample, which takes no step, forms
    its own."""

    @pytest.mark.parametrize("coeffs", [LeslieCoefficients.ansatz(), SHEAR_GENERAL],
                             ids=["ansatz", "general"])
    @pytest.mark.parametrize("cadence", [1, 3])
    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_driver_records_match_the_standalone_record(
            self, tmp_path, monkeypatch, scheme, cadence, coeffs):
        """Every record of twin_experiment equals uniqueness_record of the
        states iterate yields exactly, and the driver forms d x d and d.Ad
        itself only once, for the last sample."""
        config = ExperimentConfig(
            grid=GridSpec(32), coeffs=coeffs,
            solver=SolverConfig(1e-3, 7e-3, scheme, cadence),
            twin=TwinSpec(mode="perturb", delta=1e-4, seed=5))
        formed = []
        for name in ("_outer_half", "_dad_half"):
            def counted(*args, _name=name, _fn=getattr(diagnostics, name)):
                formed.append(_name)
                return _fn(*args)
            monkeypatch.setattr(diagnostics, name, counted)
        records, _ = twin_experiment(config, tmp_path, quiet=True)
        monkeypatch.undo()
        assert sorted(formed) == ["_dad_half", "_outer_half"]

        state1 = make_initial_state(config)
        u2, d2 = perturb(state1.u, state1.d, 5, 1e-4, decay=config.twin.decay)
        part = DyadicPartition(config.grid)
        want = [uniqueness_record(s1, s2, coeffs, part)
                for (_, s1), (_, s2) in zip(
                    iterate(state1, coeffs, config.solver),
                    iterate(State(config.grid, u2, d2), coeffs, config.solver))]
        assert len(records) == len(want) == (8 if cadence == 1 else 4)
        for got, expected in zip(records, want):
            for name, g, w in zip(UniquenessRecord._fields, got, expected):
                assert g == w, name

    @staticmethod
    def _fused_sample(grid, coeffs):
        """Two engine states at t = 0 and the products one engine forms at
        them, as the twin driver hands them to _twin_record."""
        engine = _Engine(grid, coeffs, SolverConfig(dt=1e-3, t_end=1e-3))
        states, products = [], []
        for s in _twins(grid, near=True):
            halves = engine.start(s)
            engine.nonlinear(*halves, products=products)
            states.append(engine.state(*halves, s.t))
        return states, products

    def test_a_fused_record_runs_only_the_block_inverses(self, grid16,
                                                         fft_counts):
        """Given the engines' products, a record at N = 16 runs the 3 x 8
        block planes (q = 1..3) and nothing else: no d x d, no d.Ad and no
        forward transform."""
        coeffs = LeslieCoefficients.ansatz()
        states, products = self._fused_sample(grid16, coeffs)
        fft_counts[:] = [0, 0]
        _twin_record(*states, coeffs, {}, products)
        assert fft_counts == [24, 0]

    def test_a_warm_record_allocates_no_block_pair_buffers(self, grid32,
                                                           monkeypatch):
        """Every spectrum and sample array a warm fused record transforms
        was made by the first record and kept in the dict both records were
        handed (as the twin driver hands it to each record): tracemalloc,
        started after the first record, has no allocation traceback for the
        array that owns the memory of any array the inverses' ifft and
        irfft read or write (a fresh array would carry the one of its
        allocation)."""
        coeffs = LeslieCoefficients.ansatz()
        states, products = self._fused_sample(grid32, coeffs)
        kept = {}
        _twin_record(*states, coeffs, kept, products)
        seen = {"ifft": [], "irfft": []}

        def owner_trace(x):
            return tracemalloc.get_object_traceback(
                x if x.base is None else x.base)

        def spy(name, fn):
            def wrapper(a, *args, out=None, **kwargs):
                seen[name].append((out, owner_trace(a),
                                   out is not None and owner_trace(out)))
                return fn(a, *args, out=out, **kwargs)
            return wrapper

        for name in seen:
            monkeypatch.setattr(np.fft, name, spy(name, getattr(np.fft, name)))
        traced = tracemalloc.is_tracing()
        if not traced:
            tracemalloc.start()
        try:
            _twin_record(*states, coeffs, kept, products)
            fresh = np.zeros(3)
            assert tracemalloc.get_object_traceback(fresh) is not None
        finally:
            if not traced:
                tracemalloc.stop()
        # blocks and lows at q = 1..4
        assert len(seen["ifft"]) == len(seen["irfft"]) == 2 * 4
        for out, in_trace, out_trace in seen["ifft"] + seen["irfft"]:
            assert out is not None
            assert in_trace is None and out_trace is None

    def test_records_in_two_threads_match_records_one_after_the_other(
            self, grid32, in_two_threads):
        """uniqueness_record calls that share one partition, eight in each
        of two threads at once, give the records they give one after the
        other: the partition holds no buffers."""
        part = DyadicPartition(grid32)
        pairs = [_twins(grid32, near) for near in (True, False)]
        serial = [[uniqueness_record(*pair, partition=part)] * 8
                  for pair in pairs]
        assert in_two_threads(lambda i: [
            uniqueness_record(*pairs[i], partition=part)
            for _ in range(8)]) == serial


class TestPressureRecovery:
    def test_recovered_pressure_closes_the_momentum_balance(self, grid32):
        """div(momentum rhs - grad p) = 0 once p solves the Poisson problem."""
        state = _random_state(grid32, seed=15)
        coeffs = LeslieCoefficients.ansatz()
        p = recover_pressure(state, coeffs)
        mom, _ = rhs(state, coeffs)
        g = gradient(p)
        resid = divergence(mom - VectorField2(g.x, g.y))
        assert l2_norm(resid) <= 1e-12 * max(1.0, vector_l2_norm(mom))

    def test_pressure_is_mean_free(self, grid32):
        state = _random_state(grid32, seed=16)
        p = recover_pressure(state)
        assert abs(p.mean) == 0.0
