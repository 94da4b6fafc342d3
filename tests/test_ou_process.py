import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sheardisp.ou_process import (
    OUParams,
    OUPath,
    integral_variance,
    sample_brownian_scaled,
    sample_ensemble,
    sample_ou,
    time_grid,
    transition_moments,
)


class TestParamsAndPathValidation:
    def test_params(self):
        with pytest.raises(ValueError):
            OUParams(gamma=-1.0)
        with pytest.raises(ValueError):
            OUParams(gamma=0.0)

    def test_path_grid(self):
        with pytest.raises(ValueError):
            OUPath(times=np.array([0.5, 1.0]), values=np.zeros(2))
        with pytest.raises(ValueError):
            OUPath(times=np.array([0.0, 1.0, 1.0]), values=np.zeros(3))
        with pytest.raises(ValueError):
            sample_ou(OUParams(1.0), np.array([]), seed=0)
        with pytest.raises(ValueError, match="uniform"):
            OUPath(times=np.array([0.0, 0.1, 0.3]), values=np.zeros(3))
        grid = time_grid(1.0, 0.5)
        with pytest.raises(ValueError, match="exactly one"):
            OUPath(times=grid, values=np.zeros(3), integral=np.zeros(3))
        with pytest.raises(ValueError, match="exactly one"):
            OUPath(times=grid)
        p = OUPath(times=grid, integral=np.array([0.0, 0.3, -0.1]))
        assert p.dt == 0.5
        assert p.integral_at(0.75) == pytest.approx(0.1, abs=1e-15)

    def test_integral_at_outside_span(self):
        p = OUPath(times=time_grid(1.0, 0.5), integral=np.array([0.0, 0.3, -0.1]))
        assert p.integral_at(1.0 + 1e-12) == -0.1      # roundoff slack
        assert p.integral_at(-1e-12) == 0.0
        for t in (-1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="span"):
                p.integral_at(t)

    @pytest.mark.parametrize("t_end, dt, field", [
        (math.inf, 0.1, "t_end"), (math.nan, 0.1, "t_end"), (-1.0, 0.1, "t_end"),
        (0.5, 0.0, "dt"), (1.0, -0.1, "dt"), (1.0, math.nan, "dt"),
    ])
    def test_time_grid_rejects(self, t_end, dt, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            time_grid(t_end, dt)

    def test_non_uniform_grid_raises(self):
        # the exact transition runs as one fixed-step recurrence
        with pytest.raises(ValueError, match="uniform"):
            sample_ou(OUParams(1.0), np.array([0.0, 0.1, 0.3]), seed=0)
        with pytest.raises(ValueError, match="uniform"):
            sample_brownian_scaled(np.array([0.0, 0.1, 0.3]), 1.0, seed=0)

    def test_mode_errors(self):
        wp = sample_brownian_scaled(time_grid(1.0, 0.5), 1.0, seed=0)
        with pytest.raises(ValueError):
            _ = wp.xi          # pointwise values undefined in the limit


class TestExactTransition:
    def test_zero_step_is_identity(self):
        # a degenerate step propagates the state unchanged: mean factor 1,
        # conditional variance 0
        for gamma in (0.3, 1.0, 12.0):
            decay, var = transition_moments(gamma, 0.0)
            assert decay == 1.0
            assert var == 0.0

    def test_half_step_composition(self):
        # composing two exact half-steps equals one full step in law
        for gamma in (0.2, 1.0, 7.5, 40.0):
            for dt in (1e-4, 0.05, 1.0, 10.0):
                d_full, v_full = transition_moments(gamma, dt)
                d_half, v_half = transition_moments(gamma, dt / 2)
                assert abs(d_half**2 - d_full) < 1e-12
                assert abs(v_half * (1 + d_half**2) - v_full) < 1e-12 * max(1.0, v_full)


class TestReproducibility:
    def test_bit_for_bit(self):
        grid = time_grid(2.0, 0.01)
        a = sample_ou(OUParams(1.5), grid, seed=42)
        b = sample_ou(OUParams(1.5), grid, seed=42)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.integral, b.integral)
        c = sample_ou(OUParams(1.5), grid, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_realizations_independent_of_order(self):
        grid = time_grid(1.0, 0.05)
        params = OUParams(2.0)
        forward = [sample_ou(params, grid, seed=7, realization=i) for i in range(8)]
        backward = [sample_ou(params, grid, seed=7, realization=i)
                    for i in reversed(range(8))][::-1]
        for f, b in zip(forward, backward):
            assert np.array_equal(f.values, b.values)

    def test_thread_pool_matches_sequential(self):
        grid = time_grid(1.0, 0.05)
        params = OUParams(1.0)
        sequential = sample_ensemble(params, grid, seed=11, n_paths=16)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda i: sample_ou(params, grid, seed=11, realization=i), range(16)))
        for s, t in zip(sequential, threaded):
            assert np.array_equal(s.values, t.values)


class TestStationaryStatistics:
    def test_marginal_variance(self):
        # marginal variance gamma/2 at an interior time, within 3 SE
        gamma = 3.0
        grid = time_grid(1.0, 0.25)
        vals = np.array([sample_ou(OUParams(gamma), grid, seed=5, realization=i).xi[2]
                         for i in range(12_000)])
        target = gamma / 2
        se = target * np.sqrt(2 / 12_000)
        assert abs(vals.var() - target) < 3 * se

    def test_autocovariance_lag_one(self):
        # (gamma/2) e^{-gamma tau} at tau = 1, gamma = 1
        grid = np.array([0.0, 1.0])
        prods = np.empty(20_000)
        for i in range(20_000):
            p = sample_ou(OUParams(1.0), grid, seed=123, realization=i)
            prods[i] = p.xi[0] * p.xi[1]
        target = 0.5 * np.exp(-1.0)
        se = prods.std() / np.sqrt(prods.size)
        assert abs(prods.mean() - target) < 3.5 * se


class TestIntegration:
    def test_zero_integrand(self):
        grid = time_grid(3.0, 0.5)
        p = OUPath(times=grid, values=np.zeros_like(grid))
        assert np.all(p.integral == 0.0)

    def test_constant_integrand(self):
        grid = time_grid(3.0, 0.25)
        p = OUPath(times=grid, values=np.full_like(grid, 1.7))
        assert np.max(np.abs(p.integral - 1.7 * grid)) < 1e-12

    def test_integral_variance_formula(self):
        # Var I(5) = 5 + (e^{-10} - 1)/2 for gamma = 2
        gamma = 2.0
        assert float(integral_variance(gamma, 5.0)) == pytest.approx(
            5.0 + (np.exp(-10.0) - 1.0) / 2.0, rel=1e-14)
        grid = time_grid(5.0, 0.01)
        I = np.array([sample_ou(OUParams(gamma), grid, seed=321, realization=i).integral[-1]
                      for i in range(8_000)])
        target = float(integral_variance(gamma, 5.0))
        se = target * np.sqrt(2 / I.size)
        assert abs(I.var() - target) < 3.5 * se

    def test_variance_growth_rate(self):
        # E[I(t)^2]/t -> 1 as t grows (gamma = 1): brute-force MC at t = 100
        grid = time_grid(100.0, 0.1)
        I = np.array([sample_ou(OUParams(1.0), grid, seed=99, realization=i).integral[-1]
                      for i in range(10_000)])
        assert abs(np.mean(I**2) / 100.0 - 1.0) < 0.05


class TestBrownianLimit:
    def test_unit_variance(self):
        grid = time_grid(1.0, 0.05)
        ends = np.array([sample_brownian_scaled(grid, 1.0, seed=8, realization=i).integral[-1]
                         for i in range(20_000)])
        se = np.sqrt(2 / ends.size)
        assert abs(ends.var() - 1.0) < 3 * se
        # E[B(1)^2/2] = 1/2, the zero-diffusivity ensemble factor
        assert abs(np.mean(ends**2) / 2 - 0.5) < 3 * se

    def test_zero_scale(self):
        p = sample_brownian_scaled(time_grid(1.0, 0.25), 0.0, seed=1)
        assert np.all(p.integral == 0.0)


def test_csv_export(tmp_path):
    p = sample_ou(OUParams(1.0), time_grid(1.0, 0.25), seed=3)
    out = tmp_path / "path.csv"
    p.to_csv(out)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (5, 3)
    assert np.allclose(data[:, 0], p.times)
    assert np.allclose(data[:, 1], p.values)
