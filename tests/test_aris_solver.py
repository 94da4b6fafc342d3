import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheardisp import aris_solver
from sheardisp.ou_process import OUParams, OUPath, sample_ou, time_grid
from sheardisp.spectral_core import GridFunction, cosine_eigenvalue, cosine_project
from sheardisp.eff_diffusivity import (
    EigenData, lambda_multiplicative, linear_profile, cosine_profile,
)
from sheardisp.aris_solver import (
    ArisRecord,
    EstimatorDomainError,
    estimate_gamma,
    exp_weighted_integral,
    kappa_from_realization,
    ou_integral_identity,
    solve_aris,
)
from sheardisp.invariant_measure import (
    lambda_from_moments,
    moment_function,
    nth_moment_prediction,
    npoint_correlator,
)


def _zero_path(t_end=10.0, dt=0.01):
    grid = time_grid(t_end, dt)
    return OUPath(times=grid, values=np.zeros_like(grid))


class TestSolveAris:
    def test_pure_diffusion(self):
        rec = solve_aris(linear_profile(), 1.0, _zero_path(), n_max=4)
        assert np.all(rec.t1bar == 0.0)
        assert np.max(np.abs(rec.t2bar - 2.0 * rec.times)) < 1e-12
        assert rec.kappa_estimate[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.isnan(rec.kappa_estimate[0])

    def test_zero_mean_flow_kills_first_moment(self):
        path = sample_ou(OUParams(1.0), time_grid(5.0, 0.01), seed=1)
        rec = solve_aris(cosine_profile(1), 1.2, path, n_max=6)
        assert np.max(np.abs(rec.t1bar)) < 1e-12

    def test_single_realization_converges(self):
        # u = cos(pi y), gamma = pi^2, Pe = 1: kappa_eff = 1 + 1/8
        gamma = math.pi**2
        path = sample_ou(OUParams(gamma), time_grid(100.0, 0.005), seed=42)
        rec = solve_aris(cosine_profile(1), 1.0, path, n_max=6)
        assert abs(rec.kappa_estimate[-1] / 1.125 - 1.0) < 0.05

    def test_centered_second_moment_positive(self):
        path = sample_ou(OUParams(0.5), time_grid(20.0, 0.01), seed=7)
        rec = solve_aris(linear_profile(), 2.0, path, n_max=8)
        assert np.all(rec.centered_second() >= 0.0)

    def test_equals_the_sum_of_mode_integrals(self):
        # the solve sums the weighted amplitudes before one trapezoid; it is
        # the mode-by-mode sum of 2 Pe^2 c_n^2 J_n up to roundoff (2.6e-14
        # of the shear part measured on 400-long paths)
        u, pe = linear_profile(), 10.0
        path = sample_ou(OUParams(1.0), time_grid(40.0, 0.005), seed=3, realization=1)
        rec = solve_aris(u, pe, path, n_max=9)
        coeffs = cosine_project(u, 9)
        shear = sum(2.0 * pe**2 * coeffs[n] ** 2 * exp_weighted_integral(path, cosine_eigenvalue(n))
                    for n in range(1, 10))
        gap = rec.centered_second() - (2.0 * path.times + shear)
        assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(shear))

    def test_constant_profile_has_no_shear_modes(self):
        # every c_n, n >= 1, of a constant is projection roundoff (<= 5e-17)
        u = GridFunction(linear_profile().nodes, np.full(513, 0.7))
        path = sample_ou(OUParams(1.0), time_grid(5.0, 0.01), seed=2)
        rec = solve_aris(u, 10.0, path, n_max=6)
        assert np.array_equal(rec.t2bar, 2.0 * rec.times + rec.t1bar**2)

    def test_roundoff_modes_skipped_and_small_genuine_mode_kept(self, monkeypatch):
        # u = y has only odd modes (its even c_n are ~5e-17); adding
        # 1e-10 cos(2 pi y) gives a genuine c_2 = 7e-11, which is kept
        lams = []
        real = aris_solver._mode_integrals
        monkeypatch.setattr(aris_solver, "_mode_integrals",
                            lambda path, lam, w: lams.append(list(lam)) or real(path, lam, w))
        y = linear_profile().nodes
        path = _zero_path(1.0)
        solve_aris(linear_profile(), 1.0, path, n_max=4)
        solve_aris(GridFunction(y, y + 1e-10 * np.cos(2.0 * np.pi * y)), 1.0, path, n_max=4)
        assert lams == [[cosine_eigenvalue(1), cosine_eigenvalue(3)],
                        [cosine_eigenvalue(n) for n in (1, 2, 3)]]

    def test_input_validation(self):
        path = _zero_path(1.0)
        with pytest.raises(ValueError):
            solve_aris(linear_profile(), 1.0, path, n_max=0)


class TestKappaFromRealization:
    def test_pure_diffusion_exact(self):
        rec = solve_aris(linear_profile(), 1.0, _zero_path(30.0), n_max=3)
        assert kappa_from_realization(rec) == pytest.approx(1.0, abs=1e-12)

    def test_single_realization_linear_flow(self):
        path = sample_ou(OUParams(1.0), time_grid(100.0, 0.01), seed=5)
        rec = solve_aris(linear_profile(), 1.0, path, n_max=9)
        closed = lambda_multiplicative(linear_profile(), 1.0, 1.0).kappa_eff
        est = kappa_from_realization(rec)
        assert abs(est / closed - 1.0) < 0.05

    def test_ensemble_mean_tightens(self):
        closed = lambda_multiplicative(linear_profile(), 1.0, 1.0).kappa_eff
        grid = time_grid(60.0, 0.01)
        ests = []
        for i in range(60):
            path = sample_ou(OUParams(1.0), grid, seed=88, realization=i)
            rec = solve_aris(linear_profile(), 1.0, path, n_max=9)
            ests.append(kappa_from_realization(rec))
        assert abs(np.mean(ests) / closed - 1.0) < 0.01

    def test_slope_matches_polyfit(self):
        path = sample_ou(OUParams(1.0), time_grid(100.0, 0.01), seed=5)
        rec = solve_aris(linear_profile(), 3.0, path, n_max=9)
        sel = rec.times >= rec.times[-1] / 2.0
        ref = np.polyfit(rec.times[sel], 0.5 * rec.centered_second()[sel], 1)[0]
        assert kappa_from_realization(rec) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_window_guard(self):
        # the trailing half of a 15-long record is shorter than MIN_WINDOW
        rec = solve_aris(linear_profile(), 1.0, _zero_path(15.0), n_max=3)
        with pytest.raises(ValueError):
            kappa_from_realization(rec)


class TestEnhancementGate:
    def test_ensemble_enhancement_matches_closed_form(self):
        # Pe = 10 makes the shear enhancement kappa - 1 = 0.38 rather than
        # 0.004 at Pe = 1: pure diffusion reads ratio 0 and a factor-2 error
        # 0.5 or 2, each tens of SE from 1.  Seeds 0-10 and 2020 read ensemble
        # means 0.978-1.007 (mean 0.995), SE 0.0088-0.013, worst |z| = 2.5
        u = linear_profile()
        enh = lambda_multiplicative(u, 1.0, 10.0).kappa_eff - 1.0
        grid = time_grid(400.0, 0.005)
        ratios = []
        for i in range(60):
            path = sample_ou(OUParams(1.0), grid, seed=1, realization=i)
            rec = solve_aris(u, 10.0, path, n_max=9)
            ratios.append((rec.kappa_estimate[-1] - 1.0) / enh)
        se = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
        assert abs(np.mean(ratios) - 1.0) < 5.0 * se


class TestOUIntegralIdentity:
    def test_reference_value(self):
        # n = 1, gamma = pi^2: rhs = 1/4; ensemble mean of lhs approaches it
        gamma = math.pi**2
        grid = time_grid(200.0, 0.005)
        lhs_vals = []
        for i in range(30):
            path = sample_ou(OUParams(gamma), grid, seed=1000, realization=i)
            lhs, rhs = ou_integral_identity(1, gamma, path)
            lhs_vals.append(lhs)
        assert rhs == pytest.approx(0.25, abs=1e-14)
        assert abs(np.mean(lhs_vals) / 0.25 - 1.0) < 0.05

    def test_prefix_reads_the_full_path(self):
        # the statistic is causal: the identity on the prefix ending at t_k
        # reads J(t_k) / t_k of the full path, which criterion 4 relies on
        gamma = math.pi**2
        path = sample_ou(OUParams(gamma), time_grid(200.0, 0.005), seed=1000, realization=3)
        j = exp_weighted_integral(path, cosine_eigenvalue(1))
        for k in (10_000, 20_000, 40_000):
            lhs, rhs = ou_integral_identity(1, gamma, OUPath(path.times[:k + 1],
                                                             path.values[:k + 1]))
            assert lhs == pytest.approx(j[k] / path.times[k], rel=1e-14, abs=0.0)
            assert rhs == 0.25

    def test_rhs_limits(self):
        path = sample_ou(OUParams(1e6), time_grid(6.0, 0.01), seed=0)
        _, rhs_big = ou_integral_identity(1, 1e6, path)
        assert rhs_big == pytest.approx(0.5, abs=1e-4)
        # gamma -> 0: rhs -> 0 (formula limit; no path needed)
        lam = math.pi**2
        rhs_small = 0.5 - lam / (2 * (1e-9 + lam))
        assert rhs_small == pytest.approx(0.0, abs=1e-9)

    def test_short_path_guard(self):
        path = sample_ou(OUParams(0.1), time_grid(10.0, 0.01), seed=0)
        with pytest.raises(ValueError):
            ou_integral_identity(1, 0.1, path)   # needs t >= 50/gamma = 500
        for gamma in (0.0, math.nan, -5.0):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                ou_integral_identity(1, gamma, path)


class TestGammaEstimator:
    def test_exact_inversion(self):
        # I = 1/4 with n = 1 gives gamma-hat = pi^2 by pure algebra
        stat = 0.25
        assert 2 * math.pi**2 * stat / (1 - 2 * stat) == pytest.approx(math.pi**2)

    def test_self_consistency(self):
        grid = time_grid(500.0, 0.005)
        ghats = [estimate_gamma(sample_ou(OUParams(5.0), grid, seed=77, realization=i), 1)
                 for i in range(20)]
        assert abs(np.mean(ghats) / 5.0 - 1.0) < 0.10

    def test_monotone_blowup_near_half(self):
        lam = math.pi**2
        vals = [2 * lam * s / (1 - 2 * s) for s in (0.4, 0.45, 0.49, 0.499)]
        assert np.all(np.diff(vals) > 0)

    def test_mode_zero_is_rejected(self):
        # lambda_0 = 0: no identity, and the estimator would divide by zero
        path = sample_ou(OUParams(1.0), time_grid(60.0, 0.01), seed=0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            estimate_gamma(path, 0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            ou_integral_identity(0, 1.0, path)
        # a fractional or bool mode once read the mode-1.5 or mode-1 statistic
        for n in (1.5, True):
            with pytest.raises(ValueError, match="n must be >= 1"):
                estimate_gamma(path, n)
            with pytest.raises(ValueError, match="n must be >= 1"):
                ou_integral_identity(n, 1.0, path)
        assert estimate_gamma(path, np.int64(1)) == estimate_gamma(path, 1)

    def test_out_of_domain(self):
        # a large constant path drives the statistic past 1/2
        grid = time_grid(60.0, 0.01)
        path = OUPath(times=grid, values=4.0 * np.ones_like(grid))
        with pytest.raises(EstimatorDomainError):
            estimate_gamma(path, 1)


EIG = EigenData(3.0, 1.0, 1.0)


class TestMomentPredictions:
    def test_single_point_reduction(self):
        # N = 1 is a Gaussian with variance lambda2 t
        t = 4.0
        target = math.exp(-0.7**2 / (2 * EIG.lambda2 * t)) / math.sqrt(2 * math.pi * t * EIG.lambda2)
        assert npoint_correlator([0.7], 1.0, EIG, t) == pytest.approx(target, rel=1e-12)

    def test_independent_when_lambda11_zero(self):
        eig = EigenData(3.0, 0.0, 1.0)
        x = np.array([0.3, -0.2, 1.0])
        product = np.prod([npoint_correlator([xi], 1.0, eig, 5.0) for xi in x])
        assert npoint_correlator(x, 1.0, eig, 5.0) == pytest.approx(product, rel=1e-12)

    def test_equal_points_match_moment(self):
        # N coincident points give mass^N (4 pi t kappa_eff)^{-N/2} mu(N)
        for n in range(1, 7):
            scale = (4 * math.pi * 9.0 * EIG.kappa_eff) ** (-n / 2)
            moment = 1.2**n * scale * moment_function(n, EIG.beta)
            assert nth_moment_prediction(n, 1.2, EIG, 9.0) == pytest.approx(moment, rel=1e-12)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_sherman_morrison_matches_dense(self, n, draw):
        rng = np.random.default_rng(draw)
        x = rng.normal(size=n)
        lam1 = (EIG.lambda2 - EIG.lambda11) * np.eye(n) + EIG.lambda11 * np.ones((n, n))
        dense = (1.3**n * math.exp(-0.5 * float(x @ np.linalg.solve(lam1, x)) / 7.0)
                 / ((2 * math.pi * 7.0) ** (n / 2) * math.sqrt(np.linalg.det(lam1))))
        assert npoint_correlator(x, 1.3, EIG, 7.0) == pytest.approx(dense, rel=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            npoint_correlator([], 1.0, EIG, 1.0)
        for n in (0, -1, 2.5, 2.0, math.nan, True, False):
            with pytest.raises(ValueError, match=r"order n must be an integer >= 1"):
                nth_moment_prediction(n, 1.0, EIG, 1.0)
        with pytest.raises(ValueError):
            npoint_correlator([0.0], 1.0, EIG, 0.0)     # t must be positive
        with pytest.raises(ValueError):
            nth_moment_prediction(1, 1.0, EIG, 0.0)


_NONFINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                     ids=["nan", "inf", "-inf"])


class TestNonFiniteInput:
    # the N-point layer names a non-finite moment, mass, t or x
    @_NONFINITE
    @pytest.mark.parametrize("name", ["m1", "m2", "mass", "t"])
    def test_lambda_from_moments(self, name, bad):
        args = dict(m1=nth_moment_prediction(1, 1.0, EIG, 10.0),
                    m2=nth_moment_prediction(2, 1.0, EIG, 10.0), mass=1.0, t=10.0)
        args[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            lambda_from_moments(**args)

    @_NONFINITE
    @pytest.mark.parametrize("name", ["mass", "t"])
    def test_nth_moment_prediction(self, name, bad):
        args = dict(n=2, mass=1.0, eig=EIG, t=1.0)
        args[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            nth_moment_prediction(**args)

    @_NONFINITE
    @pytest.mark.parametrize("name", ["x", "mass", "t"])
    def test_npoint_correlator(self, name, bad):
        args = dict(x=[0.0, 0.5], mass=1.0, eig=EIG, t=1.0)
        args[name] = [0.0, bad] if name == "x" else bad
        label = r"x\[1\]" if name == "x" else name
        with pytest.raises(ValueError, match=f"{label} must be finite"):
            npoint_correlator(**args)


class TestLambdaFromMoments:
    def test_round_trip(self):
        m1 = nth_moment_prediction(1, 1.0, EIG, 10.0)
        m2 = nth_moment_prediction(2, 1.0, EIG, 10.0)
        inv = lambda_from_moments(m1, m2, 1.0, 10.0)
        assert abs(inv.lambda2 - 3.0) < 1e-10
        assert abs(inv.lambda11 - 1.0) < 1e-10

    def test_degenerate_lambda11(self):
        eig = EigenData(2.6, 0.0, 1.0)
        m1 = nth_moment_prediction(1, 1.0, eig, 4.0)
        m2 = nth_moment_prediction(2, 1.0, eig, 4.0)
        inv = lambda_from_moments(m1, m2, 1.0, 4.0)
        assert inv.lambda11 == 0.0
        assert abs(inv.lambda2 - 2.6) < 1e-10

    def test_inconsistent_moments(self):
        with pytest.raises(ValueError):
            lambda_from_moments(0.5, 0.01, 1.0, 1.0)   # implies lambda11^2 < 0
        with pytest.raises(ValueError):
            lambda_from_moments(-0.1, 0.1, 1.0, 1.0)

    def test_recovery_from_wind_model_mc(self):
        # estimate the first two one-point moments from wind-model fields on
        # gamma = 1 OU paths and invert back to the exact finite-time pair:
        # the drift Pe ubar I(t) has variance lambda11 v_t, v_t = Var I(t),
        # so the law is the N-point law of (lambda2 - lambda11 (1 - v_t/t),
        # lambda11 v_t/t); the long-time pair misses lambda11 by about 20 %
        from sheardisp.ou_process import integral_variance
        from sheardisp.monte_carlo import wind_model_solution

        u = GridFunction.from_callable(lambda y: y + 0.5, 512)
        eig = lambda_multiplicative(u, 1.0, 1.0)
        t_end, grid = 5.0, time_grid(5.0, 0.02)
        vals = np.array([
            float(wind_model_solution(0.0, t_end,
                                      sample_ou(OUParams(1.0), grid, seed=17, realization=i),
                                      eig, u.mean()))
            for i in range(40_000)])
        share = float(integral_variance(1.0, t_end)) / t_end
        exact = EigenData(eig.lambda2 - eig.lambda11 * (1.0 - share), eig.lambda11 * share, 1.0)
        inv = lambda_from_moments(float(vals.mean()), float(np.mean(vals**2)),
                                  1.0, t_end)
        assert abs(inv.lambda2 / exact.lambda2 - 1.0) < 0.05
        assert abs(inv.lambda11 / exact.lambda11 - 1.0) < 0.05


class TestRecordExport:
    def test_csv(self, tmp_path):
        # a sampled path, whose values need all 17 significant digits to read back
        path = sample_ou(OUParams(1.0), time_grid(2.0, 0.01), seed=8)
        rec = solve_aris(linear_profile(), 1.0, path, n_max=2)
        out = tmp_path / "rec.csv"
        rec.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,t1bar,t2bar,kappa_estimate"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        expected = np.column_stack([rec.times, rec.t1bar, rec.t2bar, rec.kappa_estimate])
        assert np.isnan(expected[0, 3])   # kappa_estimate at t = 0
        assert np.array_equal(data, expected, equal_nan=True)
