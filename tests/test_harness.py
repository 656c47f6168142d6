"""Statistical verifiers for the supporting functional inequalities."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from nematicflow import (
    ALL_CHECKS,
    DyadicPartition,
    EnsembleSpec,
    GridSpec,
    HarnessError,
    RatioReport,
    derivative,
    dyadic,
    focused_scalar,
    harness,
    jacobian,
    laplacian,
    lp_norm,
    product,
    random_scalar,
    random_vector,
    run_all,
    to_physical,
    verify_bernstein,
    verify_cancellation,
    verify_commutator,
    verify_skew_symmetry,
)
from nematicflow.harness import (
    COMMUTATOR_TRIPLES,
    _bernstein_ratios,
    _cancellation_residual,
    _cancellation_sums,
    _commutator_ratios,
    _product_rule_ratios,
    _skew_residual,
    _sn_linf_ratios,
    _sobolev_sqrtp_ratios,
    _tail_bounds_ratios,
)


@pytest.fixture(scope="module")
def small_spec():
    """The smallest admissible ensemble: quick but statistically meaningful."""
    return EnsembleSpec(grid_n=32, n_trials=30, seed=1234)


class TestEnsembleSpec:
    def test_validation(self):
        """Trial floor and grid parity are enforced."""
        with pytest.raises(HarnessError):
            EnsembleSpec(grid_n=32, n_trials=5)
        with pytest.raises(HarnessError):
            EnsembleSpec(grid_n=15, n_trials=30)
        with pytest.raises(HarnessError):
            EnsembleSpec(grid_n=8, n_trials=30)
        with pytest.raises(HarnessError):
            EnsembleSpec(grid_n=32, n_trials=30, seed=-1)

    def test_rng_streams_are_per_trial(self):
        """Different trials draw independent, reproducible streams."""
        spec = EnsembleSpec(grid_n=32, n_trials=30, seed=7)
        a1 = spec.rng(0).standard_normal(4)
        a2 = spec.rng(0).standard_normal(4)
        b = spec.rng(1).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestVerifierReports:
    def test_all_checks_pass_on_a_small_ensemble(self, small_spec):
        """Every registered verifier returns verdict True at N = 32."""
        reports = run_all(small_spec)
        assert set(reports) == {name for name, _ in ALL_CHECKS}
        for name, rep in reports.items():
            assert isinstance(rep, RatioReport)
            assert rep.verdict, (name, rep.worst_uniformity, rep.max_ratio)
            assert rep.n_trials == 30

    def test_reports_are_reproducible(self, small_spec):
        """The same spec produces identical rows on a second run."""
        r1 = verify_bernstein(small_spec)
        r2 = verify_bernstein(small_spec)
        assert r1.rows == r2.rows
        assert r1.worst_uniformity == r2.worst_uniformity

    def test_rows_carry_parameter_labels_and_finite_ratios(self, small_spec):
        """Each row is (family|parameter, max, median) with sane values."""
        rep = verify_bernstein(small_spec)
        assert len(rep.rows) > 0
        for label, rmax, rmed in rep.rows:
            assert "|" in label
            assert np.isfinite(rmax) and np.isfinite(rmed)
            assert 0.0 <= rmed <= rmax

    def test_uniformity_statistic_is_bounded_by_the_cap(self, small_spec):
        """verdict True implies max/median within the cap for every trial."""
        for verifier in (verify_bernstein, verify_commutator):
            rep = verifier(small_spec)
            assert rep.worst_uniformity <= rep.cap

    def test_no_swept_ratio_is_degenerate(self, grid16):
        """No family carries a ratio that reads exactly 0 or 1 whatever the
        field, such as a norm over itself or a tail past the resolved ball:
        such a row tests nothing and dilutes the uniformity statistic."""
        rng = np.random.default_rng(3)
        f = focused_scalar(grid16, rng)
        g = random_scalar(grid16, rng, zero_mean=False)
        for core, fields in ((_bernstein_ratios, (f,)), (_sn_linf_ratios, (f,)),
                             (_sobolev_sqrtp_ratios, (f,)),
                             (_commutator_ratios, (f, g)),
                             (_tail_bounds_ratios, (f,))):
            for family, ratios in core(*fields).items():
                assert all(r > 0.0 and r != 1.0 for r in ratios.values()), family

    def test_cancellation_residuals_are_tiny(self, small_spec):
        """The advection identity residual sits at roundoff level."""
        rep = verify_cancellation(small_spec)
        assert rep.verdict
        assert rep.max_ratio <= 1e-11

    def test_skew_symmetry_residuals_are_tiny(self, small_spec):
        """The projected-gradient pairing residual sits at roundoff level."""
        rep = verify_skew_symmetry(small_spec)
        assert rep.verdict
        assert rep.max_ratio <= 1e-12


def _identity_draws(grid, seed):
    """One trial's (du, dd, d1) as verify_cancellation draws them."""
    rng = np.random.default_rng((seed, 0))
    du = random_vector(grid, rng, decay=2.5, divergence_free=True)
    dd = random_vector(grid, rng, decay=3.5)
    d1 = random_vector(grid, rng, decay=2.5)
    return du, dd, d1


def _oracle_cancellation_sums(du, dd, d1):
    """I3 and J3 plane by plane: every block and low-pass sampled on the
    2N grid by its own to_physical call."""
    part = DyadicPartition(du.grid)
    gdu = jacobian(du)
    lap = (laplacian(dd.x), laplacian(dd.y))
    area = (2.0 * math.pi) ** 2
    i3 = j3 = 0.0
    for q in range(1, part.q_max + 1):
        a11, a12, a21, a22 = (to_physical(part.delta(f, q), 2)
                              for f in (gdu.xx, gdu.xy, gdu.yx, gdu.yy))
        s1, s2 = (to_physical(part.low_pass(f, q - 1), 2) for f in (d1.x, d1.y))
        w1, w2 = (to_physical(part.delta(f, q), 2) for f in lap)
        i3 -= 2.0 ** (-q) * area * float(np.mean(
            (a11 * s1 + a12 * s2) * w1 + (a21 * s1 + a22 * s2) * w2))
        j3 += 2.0 ** (-q) * area * float(np.mean(
            s1 * w1 * a11 + s1 * w2 * a21 + s2 * w1 * a12 + s2 * w2 * a22))
    return i3, j3


class TestIdentityCores:
    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_cancellation_sums_match_the_plane_by_plane_formula(self, n):
        """The band-sized block-pair grids give the 2N-grid I3 and J3."""
        du, dd, d1 = _identity_draws(GridSpec(n), 3)
        got = _cancellation_sums(du, dd, d1)
        want = _oracle_cancellation_sums(du, dd, d1)
        for g, w in zip(got, want):
            assert abs(w) > 0.0
            assert g == pytest.approx(w, rel=1e-12)

    def test_cores_run_the_counted_transforms(self, grid16, fft_counts):
        """At N = 16 (q = 1..3), per q: 6 block + 2 low planes for the
        cancellation, 8 + 2 for the skew check; no forward transform."""
        du, dd, d1 = _identity_draws(grid16, 5)
        fft_counts[:] = [0, 0]
        _cancellation_sums(du, dd, d1)
        assert fft_counts == [24, 0]
        fft_counts[:] = [0, 0]
        _skew_residual(du, d1)
        assert fft_counts == [30, 0]


def _oracle_bernstein_ratios(f):
    """One bernstein trial plane by plane: every block and derivative normed
    by its own lp_norm call."""
    part = DyadicPartition(f.grid)
    out = {}
    for q in part.q_range:
        b = part.delta(f, q)
        gx, gy = derivative(b, 0), derivative(b, 1)
        for p, r in ((2, 2), (2, np.inf), (1, 2)):
            gain = 2.0 ** (q * 2.0 * (1.0 / p - 1.0 / r))
            if p != r:
                out.setdefault(f"forward p={p} r={r} k=0", {})[q] = (
                    lp_norm(b, r) / (gain * lp_norm(b, p)))
            out.setdefault(f"forward p={p} r={r} k=1", {})[q] = (
                max(lp_norm(gx, r), lp_norm(gy, r))
                / (2.0 ** q * gain * lp_norm(b, p)))
        if q >= 0:
            for p in (1, 2, np.inf):
                out.setdefault(f"reverse p={p}", {})[q] = (
                    2.0 ** q * lp_norm(b, p) / max(lp_norm(gx, p), lp_norm(gy, p)))
    return out


def _oracle_commutator_ratios(f, g):
    """One commutator trial plane by plane: one truncated product per cut
    and one lp_norm call per norm."""
    part = DyadicPartition(f.grid)
    fg = product(f, g)
    grad = np.hypot(to_physical(derivative(f, 0), 2),
                    to_physical(derivative(f, 1), 2))
    area = (2.0 * math.pi) ** 2
    grad_lp = {p: (area * float(np.mean(grad ** p))) ** (1.0 / p)
               for p in (2.0, 4.0)}
    out = {}
    for family, ks, cut in (("block", range(0, part.q_max + 1), part.delta),
                            ("low-pass", range(1, part.q_max + 1),
                             part.low_pass)):
        for k in ks:
            comm = cut(fg, k) - product(f, cut(g, k))
            for r, p, h in COMMUTATOR_TRIPLES:
                out.setdefault(f"{family} r={r:g} p={p:g} h={h:g}", {})[k] = (
                    lp_norm(comm, r) / (grad_lp[p] * lp_norm(g, h) * 2.0 ** (-k)))
    return out


class TestRatioOracle:
    @pytest.mark.parametrize("n", [16, 32, 48])
    @pytest.mark.parametrize("verifier, core, oracle", [
        (verify_bernstein, "_bernstein_ratios", _oracle_bernstein_ratios),
        (verify_commutator, "_commutator_ratios", _oracle_commutator_ratios),
    ], ids=["bernstein", "commutator"])
    def test_batched_rows_match_the_plane_by_plane_formulas(
            self, monkeypatch, n, verifier, core, oracle):
        """The same ensemble with the per-trial core swapped for the
        plane-by-plane oracle gives the same rows to 1e-12 relative."""
        spec = EnsembleSpec(grid_n=n, n_trials=30, seed=11)
        got = verifier(spec)
        monkeypatch.setattr(harness, core, _ignoring_kept(oracle))
        want = verifier(spec)
        assert [row[0] for row in got.rows] == [row[0] for row in want.rows]
        for g, w in zip(got.rows, want.rows):
            assert g[1:] == pytest.approx(w[1:], rel=1e-12)
        assert got.verdict == want.verdict
        assert got.worst_uniformity == pytest.approx(want.worst_uniformity,
                                                     rel=1e-12)

    def test_ratio_cores_run_the_counted_transforms(self, grid16, monkeypatch,
                                                    fft_counts):
        """At N = 16 (q_max = 3), per trial: bernstein one 3-plane inverse
        per block q = -1..3; commutator one 4-plane inverse, then per family
        (4 blocks, 3 low-passes) one inverse of the cut g's, one forward of
        the f cut(g)'s and one inverse of the commutators, plus the forward
        of fg; the others one inverse each."""
        calls = [0, 0]
        for kind, name in enumerate(("_irfft_padded", "_rfft_truncated")):
            monkeypatch.setattr(harness, name,
                                _counting(getattr(harness, name), calls, kind))
        rng = np.random.default_rng(5)
        f = focused_scalar(grid16, rng)
        g = random_scalar(grid16, rng, zero_mean=False)
        for core, fields, want_calls, want_planes in [
                (_bernstein_ratios, (f,), [5, 0], [15, 0]),
                (_sn_linf_ratios, (f,), [1, 0], [3, 0]),
                (_sobolev_sqrtp_ratios, (f,), [1, 0], [1, 0]),
                (_commutator_ratios, (f, g), [5, 3], [18, 8]),
                (_tail_bounds_ratios, (f,), [1, 0], [3, 0])]:
            calls[:] = [0, 0]
            fft_counts[:] = [0, 0]
            core(*fields)
            assert (calls, fft_counts) == (want_calls, want_planes), core


class TestKeptBuffers:
    def test_a_warm_trial_allocates_no_transform_buffer(self, grid32,
                                                         monkeypatch):
        """Within one check, every array a warm trial hands to numpy.fft
        (the spectrum ifft runs in and that irfft reads, the samples irfft
        writes, the spectrum rfft writes) was made by the first trial and
        kept: tracemalloc, started after the first trial, has no allocation
        traceback for the array that owns its memory (a fresh array would
        carry the one of its allocation).  This holds for each ratio core
        and for both identity residuals."""
        rng = np.random.default_rng(9)
        f = focused_scalar(grid32, rng)
        g = random_scalar(grid32, rng, zero_mean=False)
        du, dd, d1 = _identity_draws(grid32, 9)
        trials = [(_bernstein_ratios, (f,)), (_sn_linf_ratios, (f,)),
                  (_sobolev_sqrtp_ratios, (f,)),
                  (_product_rule_ratios, (f, g)),
                  (_commutator_ratios, (f, g)), (_tail_bounds_ratios, (f,)),
                  (_cancellation_residual, (du, dd, d1)),
                  (_skew_residual, (du, d1))]
        seen = []
        ifft, irfft, rfft = np.fft.ifft, np.fft.irfft, np.fft.rfft

        def spy(fn, *names):
            def wrapper(a, *args, out=None, **kwargs):
                arrays = (a, out)[-len(names):]
                seen.append([(name, x, None if x is None else
                              tracemalloc.get_object_traceback(
                                  x if x.base is None else x.base))
                             for name, x in zip(names, arrays)])
                return fn(a, *args, out=out, **kwargs)
            return wrapper

        for core, fields in trials:
            kept = {}  # as one check hands it to each of its trials
            core(*fields, kept)
            seen.clear()
            monkeypatch.setattr(np.fft, "ifft", spy(ifft, "columns"))
            monkeypatch.setattr(np.fft, "irfft",
                                spy(irfft, "spectrum", "samples"))
            monkeypatch.setattr(np.fft, "rfft", spy(rfft, "spectrum"))
            traced = tracemalloc.is_tracing()
            if not traced:
                tracemalloc.start()
            try:
                core(*fields, kept)
                fresh = np.zeros(3)
                assert tracemalloc.get_object_traceback(fresh) is not None
            finally:
                if not traced:
                    tracemalloc.stop()
                monkeypatch.undo()
            assert seen, core
            for name, x, trace in (item for call in seen for item in call):
                assert x is not None and trace is None, (core, name)

    def test_a_check_drops_its_kept_arrays(self, small_spec, monkeypatch):
        """The kept arrays live only while their check runs: weak
        references to every spectrum a ratio check and an identity check
        transformed from are dead once the check returns."""
        for module, check in ((harness, verify_commutator),
                              (dyadic, verify_skew_symmetry)):
            spectra = []
            irfft_padded = module._irfft_padded

            def spy(half, m, out=None, mult=None, band=None):
                if out is not None:
                    wide = out[0]
                    spectra.append(weakref.ref(wide if wide.base is None
                                               else wide.base))
                return irfft_padded(half, m, out=out, mult=mult, band=band)

            monkeypatch.setattr(module, "_irfft_padded", spy)
            check(small_spec)
            monkeypatch.undo()
            assert spectra, check
            assert all(ref() is None for ref in spectra), check


class TestThreads:
    def test_checks_in_two_threads_match_checks_one_after_the_other(
            self, in_two_threads):
        """Each check keeps its own arrays: two threads that each run a
        ratio check and an identity check on their own ensemble, at once,
        give the reports of running them one after the other."""
        specs = [EnsembleSpec(grid_n=32, n_trials=30, seed=seed)
                 for seed in (21, 22)]
        checks = (verify_cancellation, verify_commutator)
        serial = [[check(spec) for check in checks] for spec in specs]
        assert in_two_threads(
            lambda i: [check(specs[i]) for check in checks]) == serial


def _ignoring_kept(oracle):
    """oracle in the place of a ratio core: the trailing kept argument that
    the check hands the core is dropped."""
    return lambda *fields_and_kept: oracle(*fields_and_kept[:-1])


def _counting(fn, calls, kind):
    """fn, counting its calls in calls[kind]."""
    def wrapper(*args, **kwargs):
        calls[kind] += 1
        return fn(*args, **kwargs)
    return wrapper
