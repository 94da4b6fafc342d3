import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheardisp.ou_process import OUParams, OUPath, integrate_path, sample_ou, time_grid
from sheardisp.spectral_core import GridFunction
from sheardisp.eff_diffusivity import (
    EigenData, lambda_multiplicative, linear_profile, cosine_profile,
)
from sheardisp.aris_solver import (
    ArisRecord,
    CorrelatorSpec,
    EstimatorDomainError,
    estimate_gamma,
    exp_weighted_integral,
    kappa_from_realization,
    lambda_from_moments,
    nth_moment_prediction,
    npoint_correlator,
    ou_integral_identity,
    solve_aris,
)


def _zero_path(t_end=10.0, dt=0.01):
    grid = time_grid(t_end, dt)
    return integrate_path(OUPath(times=grid, values=np.zeros_like(grid)))


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

    def test_mode_amplitudes_tracked(self):
        path = sample_ou(OUParams(1.0), time_grid(2.0, 0.01), seed=3)
        rec = solve_aris(linear_profile(), 1.0, path, n_max=5)
        assert rec.modes.shape == (5, path.times.size)
        # even cosine modes of u(y) = y vanish
        assert np.max(np.abs(rec.modes[1])) < 1e-14
        assert np.max(np.abs(rec.modes[0])) > 0.0

    def test_input_validation(self):
        path = _zero_path(1.0)
        with pytest.raises(ValueError):
            solve_aris(linear_profile(), 1.0, path, n_max=0)
        bare = OUPath(times=path.times, values=None, integral=path.integral)
        with pytest.raises(ValueError):
            solve_aris(linear_profile(), 1.0, bare, n_max=2)


class TestKappaFromRealization:
    def test_pure_diffusion_exact(self):
        rec = solve_aris(linear_profile(), 1.0, _zero_path(30.0), n_max=3)
        assert kappa_from_realization(rec) == pytest.approx(1.0, abs=1e-12)

    def test_single_realization_linear_flow(self):
        path = sample_ou(OUParams(1.0), time_grid(100.0, 0.01), seed=5)
        rec = solve_aris(linear_profile(), 1.0, path, n_max=9)
        closed = lambda_multiplicative(linear_profile(), 1.0, 1.0).kappa_eff
        est = kappa_from_realization(rec, (50.0, 100.0))
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

    def test_window_guard(self):
        rec = solve_aris(linear_profile(), 1.0, _zero_path(30.0), n_max=3)
        with pytest.raises(ValueError):
            kappa_from_realization(rec, (20.0, 25.0))


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

    def test_out_of_domain(self):
        # a large constant path drives the statistic past 1/2
        grid = time_grid(60.0, 0.01)
        path = integrate_path(OUPath(times=grid, values=4.0 * np.ones_like(grid)))
        with pytest.raises(EstimatorDomainError):
            estimate_gamma(path, 1)


EIG = EigenData.from_lambdas(3.0, 1.0, 1.0, 1.0)


class TestMomentPredictions:
    def test_single_point_reduction(self):
        # N = 1 is a Gaussian with variance lambda2 t
        t = 4.0
        spec = CorrelatorSpec(1, [0.7], mass=1.0, eigen=EIG, t=t)
        target = math.exp(-0.7**2 / (2 * EIG.lambda2 * t)) / math.sqrt(2 * math.pi * t * EIG.lambda2)
        assert npoint_correlator(spec) == pytest.approx(target, rel=1e-12)

    def test_independent_when_lambda11_zero(self):
        eig = EigenData.from_lambdas(3.0, 0.0, 1.0, 1.0)
        x = np.array([0.3, -0.2, 1.0])
        spec = CorrelatorSpec(3, x, mass=1.0, eigen=eig, t=5.0)
        product = np.prod([npoint_correlator(CorrelatorSpec(1, [xi], 1.0, eig, 5.0))
                           for xi in x])
        assert npoint_correlator(spec) == pytest.approx(product, rel=1e-12)

    def test_equal_points_match_moment(self):
        spec0 = CorrelatorSpec(3, np.zeros(3), mass=1.2, eigen=EIG, t=9.0)
        assert npoint_correlator(spec0) == pytest.approx(nth_moment_prediction(spec0), rel=1e-12)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_sherman_morrison_matches_dense(self, n, draw):
        rng = np.random.default_rng(draw)
        x = rng.normal(size=n)
        spec = CorrelatorSpec(n, x, mass=1.3, eigen=EIG, t=7.0)
        lam1 = (EIG.lambda2 - EIG.lambda11) * np.eye(n) + EIG.lambda11 * np.ones((n, n))
        dense = (1.3**n * math.exp(-0.5 * float(x @ np.linalg.solve(lam1, x)) / 7.0)
                 / ((2 * math.pi * 7.0) ** (n / 2) * math.sqrt(np.linalg.det(lam1))))
        assert npoint_correlator(spec) == pytest.approx(dense, rel=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorrelatorSpec(0, [], 1.0, EIG, 1.0)
        with pytest.raises(ValueError):
            CorrelatorSpec(2, [0.0], 1.0, EIG, 1.0)     # wrong point count
        with pytest.raises(ValueError):
            CorrelatorSpec(1, [0.0], 1.0, EIG, 0.0)     # t must be positive


class TestLambdaFromMoments:
    def test_round_trip(self):
        m1 = nth_moment_prediction(CorrelatorSpec(1, [0.0], 1.0, EIG, 10.0))
        m2 = nth_moment_prediction(CorrelatorSpec(2, [0.0, 0.0], 1.0, EIG, 10.0))
        inv = lambda_from_moments(m1, m2, 1.0, 10.0)
        assert abs(inv.lambda2 - 3.0) < 1e-10
        assert abs(inv.lambda11 - 1.0) < 1e-10

    def test_degenerate_lambda11(self):
        eig = EigenData.from_lambdas(2.6, 0.0, 1.0, 1.0)
        m1 = nth_moment_prediction(CorrelatorSpec(1, [0.0], 1.0, eig, 4.0))
        m2 = nth_moment_prediction(CorrelatorSpec(2, [0.0, 0.0], 1.0, eig, 4.0))
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
        # white-noise-limit paths (where the Gaussian moment formulas are
        # exact in law) and invert back to the eigenvalue pair
        from sheardisp.ou_process import sample_brownian_scaled, time_grid
        from sheardisp.monte_carlo import wind_model_solution
        from sheardisp.spectral_core import GridFunction
        from sheardisp.eff_diffusivity import lambda_white

        u = GridFunction.from_callable(lambda y: y + 0.5, 512)
        eig = lambda_white(u, 1.0)
        t_end, grid = 5.0, time_grid(5.0, 0.02)
        vals = np.array([
            float(wind_model_solution(0.0, t_end,
                                      sample_brownian_scaled(grid, 1.0, seed=17, realization=i),
                                      eig, u.mean()))
            for i in range(40_000)])
        inv = lambda_from_moments(float(vals.mean()), float(np.mean(vals**2)),
                                  1.0, t_end)
        assert abs(inv.lambda2 / eig.lambda2 - 1.0) < 0.05
        assert abs(inv.lambda11 / eig.lambda11 - 1.0) < 0.05


class TestRecordExport:
    def test_csv(self, tmp_path):
        rec = solve_aris(linear_profile(), 1.0, _zero_path(2.0, 0.5), n_max=2)
        out = tmp_path / "rec.csv"
        rec.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,t1bar,t2bar,kappa_estimate"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (5, 4)
