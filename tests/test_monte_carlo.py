import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from sheardisp.ou_process import (
    OUParams, OUPath, integral_variance, realization_seed, sample_brownian_scaled, sample_ou,
    time_grid,
)
from sheardisp.spectral_core import GridFunction
from sheardisp.eff_diffusivity import (
    FlowSpec, lambda_multiplicative, lambda_white, linear_profile, taylor_steady,
)
from sheardisp.aris_solver import ArisRecord, kappa_from_realization
from sheardisp.monte_carlo import (
    InitialData,
    SimConfig,
    ensemble_pdf,
    evaluate_point_backward,
    simulate_forward,
    simulate_random_wave,
    wind_model_solution,
    _apply_bc,
    _fold,
    _y_walk,
)
from sheardisp import monte_carlo
from sheardisp.invariant_measure import cdf_random_wave


def _bc(y, bc):
    """``_apply_bc`` into fresh buffers."""
    return _apply_bc(y, bc, np.empty_like(y), np.empty_like(y))


@pytest.fixture
def fold_calls(monkeypatch):
    """Record every call of the exact fold, the walk's overshoot fallback."""
    calls = []

    def counting_fold(y):
        calls.append(y.copy())
        return _fold(y)

    monkeypatch.setattr(monte_carlo, "_fold", counting_fold)
    return calls


def _reference_velocity(flow, y, xi):
    """Grid-function flows by the allocating lookup v_i + (s - i) slope_i."""
    g = flow.profile
    n = g.nodes.size - 1
    s = np.clip(y, 0.0, 1.0) * n
    i = np.fmin(np.floor(s), n)
    k = i.astype(np.intp)
    v = g.values[k] + (s - i) * np.ediff1d(g.values, to_end=0.0)[k]
    return v if flow.kind == "steady" else v * xi


def _reference_walk(flow, gamma, xi_mid, y, cfg, rng):
    """The allocating y-walk: every step makes a new velocity array, new
    normals and a new folded position array, and folds with one reflection
    (``_fold`` of the stepped positions when a step overshoots past 2)."""
    n = y.size
    drift = np.zeros(n)
    sqrt2dt = math.sqrt(2.0 * cfg.dt)
    yield y, drift
    for xi in xi_mid:
        drift += _reference_velocity(flow, y, xi) * cfg.dt
        z = y + sqrt2dt * rng.standard_normal(n)
        if flow.bc == "periodic":
            y = z - np.floor(z)
        else:
            a = np.abs(z)
            y = np.minimum(a, 2.0 - a)
            if y.min() < 0.0:
                y = _fold(z)
        yield y, drift


class TestConfigAndInitialData:
    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_particles=0)
        with pytest.raises(ValueError):
            SimConfig(pe=-1.0)
        with pytest.raises(ValueError):
            FlowSpec.multiplicative(linear_profile(), bc="slippery")

    @pytest.mark.parametrize("pe", [math.nan, math.inf, -1.0])
    def test_sim_config_rejects_bad_pe(self, pe):
        with pytest.raises(ValueError, match="pe must be finite and nonnegative"):
            SimConfig(pe=pe)

    @pytest.mark.parametrize("s", [math.nan, math.inf, 0.0, -1.0])
    def test_gaussian_rejects_bad_variance(self, s):
        with pytest.raises(ValueError, match="variance s must be finite and positive"):
            InitialData.gaussian(s)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
    def test_random_wave_rejects_bad_wavenumber(self, a):
        with pytest.raises(ValueError, match="wavenumber a must be finite and positive"):
            InitialData.random_wave(a, 1.0 + 1.0j)

    @pytest.mark.parametrize("amplitude", [complex(math.inf, 0.0), complex(1.0, math.nan),
                                           math.inf])
    def test_random_wave_rejects_bad_amplitude(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            InitialData.random_wave(2.0, amplitude)

    @pytest.mark.parametrize("n", [None, 1000])
    def test_random_wave_rejects_empty_paths(self, n):
        with pytest.raises(ValueError, match="paths must hold at least one"):
            simulate_random_wave(0.5, 1.0, 1.0, paths=[], n=n)

    def test_initial_data(self):
        with pytest.raises(ValueError):
            InitialData.gaussian(-1.0)
        g = InitialData.gaussian(0.5)
        assert g.value(0.0) == pytest.approx(1 / math.sqrt(np.pi), rel=1e-12)
        d = InitialData.delta_line()
        with pytest.raises(ValueError):
            d.value(0.0)
        rw = InitialData.random_wave(2.0, 0.3 + 0.4j)
        assert rw.value(0.0) == pytest.approx(0.6, rel=1e-12)
        with pytest.raises(ValueError):
            rw.sample_particles(10, np.random.default_rng(0))
        # smoothed by the heat kernel N(0, 2t)
        assert g.value(0.0, 0.25) == pytest.approx(1 / math.sqrt(2 * np.pi), rel=1e-12)
        assert g.value(1.0, 0.25) == pytest.approx(math.exp(-0.5) / math.sqrt(2 * np.pi), rel=1e-12)
        assert d.value(0.0, 0.25) == pytest.approx(1 / math.sqrt(np.pi), rel=1e-12)
        assert d.value(1.0, 0.25) == pytest.approx(math.exp(-1.0) / math.sqrt(np.pi), rel=1e-12)
        # e^{-2i pi/4} = -i, so 2 Re(A e^{-iax}) = 2 Im(A) = 0.8
        assert rw.value(0.0, 0.5) == pytest.approx(0.6 * math.exp(-2.0), rel=1e-12)
        assert rw.value(math.pi / 4, 0.5) == pytest.approx(0.8 * math.exp(-2.0), rel=1e-12)
        np.testing.assert_allclose(rw.value(np.array([0.0, math.pi / 4]), 0.5),
                                   np.array([0.6, 0.8]) * math.exp(-2.0), rtol=1e-12)
        for data in (g, d, rw):
            with pytest.raises(ValueError):
                data.value(0.0, -0.1)

    def test_scalar_and_array_values_agree_bitwise(self):
        # the wind model and the backward solver evaluate the same data at a
        # scalar x and on arrays; both must square x the same way
        g = InitialData.gaussian(0.5)
        xs = np.random.default_rng(0).standard_normal(20_000)
        scalar = np.array([g.value(x, 0.3) for x in xs])
        one_element = np.array([g.value(np.array([x]), 0.3)[0] for x in xs])
        assert np.array_equal(scalar, one_element)

    @given(st.floats(min_value=-25, max_value=25, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_fold_stays_inside(self, y):
        for folded in (_fold(np.array([y])), _bc(np.array([y]), "no-flux"),
                       _bc(np.array([y]), "periodic")):
            assert 0.0 <= float(folded[0]) <= 1.0

    def test_fold_is_reflection(self):
        assert _fold(np.array([-0.25]))[0] == pytest.approx(0.25)
        assert _fold(np.array([1.3]))[0] == pytest.approx(0.7)
        assert _fold(np.array([2.4]))[0] == pytest.approx(0.4)

    def test_one_reflection_matches_fold(self):
        # on [-1, 2] the one reflection is the exact fold up to the rounding
        # of 2 - (y + 2) in _fold (measured 1.1e-16 on [-1, 0), 0 on [0, 2])
        y = np.random.default_rng(0).uniform(-1.0, 2.0, 100_000)
        y[:4] = (-1.0, 0.0, 1.0, 2.0)
        assert np.max(np.abs(_bc(y, "no-flux") - _fold(y))) <= 2.3e-16
        periodic = _bc(np.concatenate((y, [-1e-17, -25.3, 25.7])), "periodic")
        assert periodic.min() >= 0.0 and periodic.max() <= 1.0

    def test_fold_fallback_only_on_overshoot(self, fold_calls):
        # the one reflection is exact for |y| <= 2, so -1.3 and 1.9 stay on it
        for y, fallback in ((-1.3, False), (1.9, False), (2.4, True),
                            (-2.6, True), (5.7, True)):
            fold_calls.clear()
            got = _bc(np.array([0.5, y]), "no-flux")
            assert bool(fold_calls) is fallback, y
            np.testing.assert_allclose(got, _fold(np.array([0.5, y])), rtol=0, atol=2.3e-16)

    def test_walk_rejects_nan_positions(self):
        v = GridFunction.from_callable(lambda y: y - 0.5, 64)
        walk = _y_walk(FlowSpec.steady(v), 1.0, np.zeros(1), np.array([np.nan, 0.5]),
                       SimConfig(dt=0.01, n_particles=2), np.random.default_rng(0))
        next(walk)
        with pytest.raises(AssertionError):
            next(walk)


class TestForwardSimulation:
    @pytest.mark.filterwarnings("ignore:dt does not resolve")
    @pytest.mark.parametrize("kind, bc, dt", [
        ("steady", "no-flux", 0.01), ("steady", "periodic", 0.01),
        ("multiplicative", "no-flux", 0.01), ("multiplicative", "periodic", 0.01),
        ("steady", "no-flux", 0.5),
    ], ids=["steady-noflux", "steady-periodic", "mult-noflux", "mult-periodic",
            "steady-noflux-overshoot"])
    def test_walk_matches_allocating_reference(self, monkeypatch, kind, bc, dt):
        # the in-place walk reproduces the allocating reference bit for bit,
        # the exact-fold fallback (dt = 0.5, sqrt(2 dt) = 1) included
        v = GridFunction.from_callable(lambda y: np.cos(2 * np.pi * y) + y, 256)
        flow = FlowSpec.steady(v, bc) if kind == "steady" else FlowSpec.multiplicative(v, bc)
        t_end = 2.0 if dt == 0.01 else 10.0
        path = sample_ou(OUParams(1.0), time_grid(t_end, dt), seed=41)
        cfg = SimConfig(dt=dt, n_particles=3_000, seed=12, pe=3.0)

        def run():
            return simulate_forward(flow, 1.0, InitialData.gaussian(0.3), t_end, cfg, path,
                                    keep_positions=True, realization=2)

        got = run()
        monkeypatch.setattr(monte_carlo, "_y_walk", _reference_walk)
        ref = run()
        for name in ("t1bar", "t2bar", "final_x", "final_y"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert got.kappa_se == ref.kappa_se

    def test_pure_diffusion_calibration(self):
        # Pe = 0: Var(x) = 2t within 3 SE, y-marginal uniform (chi^2, 20 bins)
        cfg = SimConfig(dt=0.01, n_particles=40_000, seed=11, pe=0.0)
        zero = GridFunction.from_callable(lambda y: 0.0 * y, 64)
        res = simulate_forward(FlowSpec.steady(zero), 1.0, InitialData.delta_line(),
                               10.0, cfg, keep_positions=True)
        var = res.centered_second()[-1]
        se = 2 * 10.0 * math.sqrt(2 / cfg.n_particles)
        assert abs(var - 20.0) < 3 * se
        assert abs(res.t1bar[-1]) < 4 * math.sqrt(20.0 / cfg.n_particles)
        counts, _ = np.histogram(res.final_y, bins=20, range=(0, 1))
        expected = cfg.n_particles / 20
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.99, df=19)

    def test_steady_taylor_dispersion(self):
        v = GridFunction.from_callable(lambda y: y - 0.5, 512)
        cfg = SimConfig(dt=0.01, n_particles=20_000, seed=9, pe=2.0)
        res = simulate_forward(FlowSpec.steady(v), 1.0, InitialData.delta_line(), 20.0, cfg)
        assert abs(res.kappa_estimate[-1] / taylor_steady(v, 2.0) - 1.0) < 0.05

    def test_steady_shear_enhancement(self):
        # Pe = 20 makes the enhancement O(1): the ratio (kappa - 1) /
        # (taylor_steady - 1) reads 0 for pure diffusion and ~2 against a
        # formula short by a factor of 2.  Margin of the 0.1 bound: the exact
        # Euler finite-t factor at dt = 0.01, t = 10 is 0.9909 (bias 0.0091),
        # and the ratio's SD at 10k particles measured 0.0145 over 20 seeds
        # (5 SD = 0.073).
        v = GridFunction.from_callable(lambda y: y - 0.5, 512)
        cfg = SimConfig(dt=0.01, n_particles=10_000, seed=20, pe=20.0)
        res = simulate_forward(FlowSpec.steady(v), 1.0, InitialData.delta_line(), 10.0, cfg)
        ratio = (res.kappa_estimate[-1] - 1.0) / (taylor_steady(v, 20.0) - 1.0)
        assert abs(ratio - 1.0) < 0.1

    def test_multiplicative_matches_closed_form(self):
        u = linear_profile()
        path = sample_ou(OUParams(1.0), time_grid(30.0, 0.01), seed=31)
        cfg = SimConfig(dt=0.01, n_particles=30_000, seed=10, pe=1.0)
        res = simulate_forward(FlowSpec.multiplicative(u), 1.0, InitialData.delta_line(),
                               30.0, cfg, path)
        closed = lambda_multiplicative(u, 1.0, 1.0).kappa_eff
        assert abs(res.kappa_estimate[-1] / closed - 1.0) < 0.05

    def test_matches_wind_model_moments_on_same_path(self):
        # first two x-moments of the simulation track the analytic wind
        # model driven by the same xi realization
        u = GridFunction.from_callable(lambda y: y + 0.5, 512)
        gamma, pe, t_end = 1.0, 1.0, 20.0
        path = sample_ou(OUParams(gamma), time_grid(t_end, 0.01), seed=77)
        cfg = SimConfig(dt=0.01, n_particles=40_000, seed=3, pe=pe)
        res = simulate_forward(FlowSpec.multiplicative(u), gamma,
                               InitialData.delta_line(), t_end, cfg, path)
        eig = lambda_multiplicative(u, gamma, pe)
        drift = pe * u.mean() * path.integral[-1]
        var_wind = 2 * eig.kappa_eff * t_end
        se_mean = math.sqrt(var_wind / cfg.n_particles)
        assert abs(res.t1bar[-1] - drift) < 4 * se_mean + 0.05 * abs(drift)
        se_var = var_wind * math.sqrt(2 / cfg.n_particles)
        assert abs(res.centered_second()[-1] - var_wind) < 4 * se_var + 0.05 * var_wind

    def test_time_step_refinement(self):
        # halving dt moves the kappa estimate by less than the MC error bar
        v = GridFunction.from_callable(lambda y: y - 0.5, 256)
        ks = []
        for dt in (0.02, 0.01):
            cfg = SimConfig(dt=dt, n_particles=20_000, seed=14, pe=2.0)
            res = simulate_forward(FlowSpec.steady(v), 1.0, InitialData.delta_line(),
                                   10.0, cfg)
            ks.append((res.kappa_estimate[-1], res.kappa_se))
        assert abs(ks[0][0] - ks[1][0]) < 2.5 * math.hypot(ks[0][1], ks[1][1])

    def test_periodic_bc_runs(self):
        # the walls come from the flow: with a SimConfig that names none, the
        # walk wraps, matching the same RNG stream (uniform starts, then one
        # normal per particle-step) walked with y -> y - floor(y)
        u = GridFunction.from_callable(lambda y: np.sin(2 * np.pi * y), 256)
        path = sample_ou(OUParams(1.0), time_grid(2.0, 0.01), seed=5)
        cfg = SimConfig(dt=0.01, n_particles=2_000, seed=6, pe=1.0)
        res = simulate_forward(FlowSpec.multiplicative(u, bc="periodic"), 1.0,
                               InitialData.delta_line(), 2.0, cfg, path,
                               keep_positions=True)
        assert np.all((res.final_y >= 0) & (res.final_y <= 1))
        rng = np.random.default_rng(realization_seed(cfg.seed, 0))
        y = rng.uniform(0.0, 1.0, cfg.n_particles)
        for _ in range(200):
            y = y + math.sqrt(2.0 * cfg.dt) * rng.standard_normal(cfg.n_particles)
            y = y - np.floor(y)
        np.testing.assert_array_equal(res.final_y, y)

    def test_large_dt_walk_stays_inside(self, fold_calls):
        # sqrt(2 dt) = 1: steps overshoot by more than a channel width and
        # the exact fold takes over; the walk asserts every step stays inside
        v = GridFunction.from_callable(lambda y: y - 0.5, 64)
        cfg = SimConfig(dt=0.5, n_particles=2_000, seed=8, pe=1.0)
        with pytest.warns(RuntimeWarning):
            res = simulate_forward(FlowSpec.steady(v), 1.0, InitialData.delta_line(),
                                   10.0, cfg, keep_positions=True)
        assert fold_calls
        assert res.final_y.min() >= 0.0 and res.final_y.max() <= 1.0

    def test_pure_diffusion_is_aris_record(self):
        # Pe = 0 from a delta line: T1bar = 0 and T2bar = 2t exactly, so the
        # particle record feeds the same slope estimator as solve_aris
        zero = GridFunction.from_callable(lambda y: 0.0 * y, 64)
        cfg = SimConfig(dt=0.02, n_particles=10, seed=2, pe=0.0)
        res = simulate_forward(FlowSpec.steady(zero), 1.0, InitialData.delta_line(),
                               20.0, cfg)
        assert isinstance(res, ArisRecord)
        assert kappa_from_realization(res) == pytest.approx(1.0, abs=1e-12)

    def test_path_grid_mismatch(self):
        u = linear_profile()
        path = sample_ou(OUParams(1.0), time_grid(5.0, 0.02), seed=0)
        cfg = SimConfig(dt=0.01, n_particles=100, seed=0, pe=1.0)
        with pytest.raises(ValueError):
            simulate_forward(FlowSpec.multiplicative(u), 1.0,
                             InitialData.delta_line(), 5.0, cfg, path)
        with pytest.raises(ValueError):
            simulate_forward(FlowSpec.multiplicative(u), 1.0,
                             InitialData.delta_line(), 5.0, cfg, None)

    def test_coarse_dt_warns(self):
        zero = GridFunction.from_callable(lambda y: 0.0 * y, 64)
        cfg = SimConfig(dt=0.1, n_particles=100, seed=0, pe=0.0)
        with pytest.warns(RuntimeWarning):
            simulate_forward(FlowSpec.steady(zero), 1.0, InitialData.delta_line(),
                             1.0, cfg)


class TestBackwardEvaluation:
    @pytest.mark.parametrize("bc", ["no-flux", "periodic"])
    def test_matches_allocating_reference(self, monkeypatch, bc):
        u = GridFunction.from_callable(lambda y: y + 0.5, 512)
        path = sample_ou(OUParams(1.0), time_grid(0.5, 0.01), seed=8)
        cfg = SimConfig(dt=0.01, n_particles=2_000, seed=4, pe=2.0)
        args = (FlowSpec.multiplicative(u, bc), 1.0, path, 0.3, 0.2, 0.5,
                InitialData.gaussian(0.5), cfg)
        got = evaluate_point_backward(*args)
        monkeypatch.setattr(monte_carlo, "_y_walk", _reference_walk)
        assert got == evaluate_point_backward(*args)

    def test_array_x_matches_scalar_calls(self):
        # one walk serves every x; each entry has the bits of its scalar call
        u = GridFunction.from_callable(lambda y: y + 0.5, 512)
        path = sample_ou(OUParams(1.0), time_grid(0.5, 0.01), seed=8)
        cfg = SimConfig(dt=0.01, n_particles=5_000, seed=4, pe=1.0)
        args = (FlowSpec.multiplicative(u), 1.0, path)
        rest = (0.5, 0.5, InitialData.gaussian(0.5), cfg)
        xs = np.array([-0.5, 0.1, 0.5])
        est, se = evaluate_point_backward(*args, xs, *rest)
        assert est.shape == se.shape == xs.shape
        scalar = [evaluate_point_backward(*args, float(x), *rest) for x in xs]
        assert all(isinstance(v, float) for pair in scalar for v in pair)
        assert np.array_equal(est, [e for e, _ in scalar])
        assert np.array_equal(se, [s for _, s in scalar])
        with pytest.raises(ValueError, match="finite x"):
            evaluate_point_backward(*args, np.array([0.0, math.nan]), *rest)

    def test_time_zero_is_exact(self):
        u = linear_profile()
        path = sample_ou(OUParams(1.0), time_grid(1.0, 0.01), seed=3)
        cfg = SimConfig(dt=0.01, n_particles=100, seed=4, pe=1.0)
        init = InitialData.gaussian(0.5)
        val, se = evaluate_point_backward(FlowSpec.multiplicative(u), 1.0, path,
                                          0.2, 0.5, 0.0, init, cfg)
        assert val == pytest.approx(float(init.value(0.2)), rel=1e-14)
        assert se == 0.0

    @pytest.mark.filterwarnings("error")
    def test_one_particle_raises(self):
        # one sample has no standard error
        u = linear_profile()
        path = sample_ou(OUParams(1.0), time_grid(0.1, 0.01), seed=3)
        cfg = SimConfig(dt=0.01, n_particles=1, seed=4, pe=1.0)
        with pytest.raises(ValueError, match="n_particles"):
            evaluate_point_backward(FlowSpec.multiplicative(u), 1.0, path,
                                    0.0, 0.5, 0.1, InitialData.gaussian(0.5), cfg)

    @pytest.mark.parametrize("x, y", [(0.0, 1.5), (0.0, -0.1), (0.0, math.nan),
                                      (math.nan, 0.5), (math.inf, 0.5)])
    def test_bad_point_raises(self, x, y):
        u = linear_profile()
        path = sample_ou(OUParams(1.0), time_grid(0.1, 0.01), seed=3)
        cfg = SimConfig(dt=0.01, n_particles=100, seed=4, pe=1.0)
        for t in (0.0, 0.1):
            with pytest.raises(ValueError):
                evaluate_point_backward(FlowSpec.multiplicative(u), 1.0, path,
                                        x, y, t, InitialData.gaussian(0.5), cfg)

    @pytest.mark.parametrize("init", [InitialData.gaussian(0.5), InitialData.delta_line(),
                                      InitialData.random_wave(2.0, 0.3 + 0.4j)],
                             ids=["gaussian", "delta-line", "random-wave"])
    def test_pure_diffusion_is_exact(self, init):
        # Pe = 0: x - Pe D = x for every walk, so the estimate is the
        # heat-smoothed data itself, with no sampling error
        u = linear_profile()
        path = sample_ou(OUParams(1.0), time_grid(0.5, 0.01), seed=3)
        cfg = SimConfig(dt=0.01, n_particles=1_000, seed=4, pe=0.0)
        val, se = evaluate_point_backward(FlowSpec.multiplicative(u), 1.0, path,
                                          0.3, 0.5, 0.5, init, cfg)
        assert val == pytest.approx(float(init.value(0.3, 0.5)), rel=1e-14)
        assert se == 0.0

    @pytest.mark.parametrize("dx", [-0.5, 0.0, 0.5])
    def test_agrees_with_drawn_x_estimator(self, dx):
        # criterion 6's setup at 10k particles.  The reference draws the
        # start point x - Pe D + sqrt(2t) Z after the same y-walk (same RNG
        # stream) and evaluates the raw data; averaging Z out in closed form
        # must agree within its noise and be far less noisy (measured SE
        # ratios at 100k particles: 46 at dx = +-0.5, 400 at dx = 0)
        u = GridFunction.from_callable(lambda y: y + 0.5, 512)
        gamma, pe, t = 1.0, 1.0, 1.0
        path = sample_ou(OUParams(gamma), time_grid(t, 1e-3), seed=2027)
        flow = FlowSpec.multiplicative(u)
        init = InitialData.gaussian(0.5)
        cfg = SimConfig(dt=1e-3, n_particles=10_000, seed=5, pe=pe)
        x = pe * u.mean() * path.integral[-1] + dx

        rng = np.random.default_rng(realization_seed(cfg.seed, 0))
        xi_mid = monte_carlo._xi_midpoints(path, 1000)[::-1]
        for _, drift in _y_walk(flow, gamma, xi_mid, np.full(cfg.n_particles, 0.5), cfg, rng):
            pass
        x0 = x - pe * drift + math.sqrt(2.0 * t) * rng.standard_normal(cfg.n_particles)
        vals = init.value(x0)
        ref, ref_se = float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))

        val, se = evaluate_point_backward(flow, gamma, path, x, 0.5, t, init, cfg)
        assert abs(val - ref) <= 5.0 * ref_se
        assert se < ref_se / 20.0

    def test_heat_kernel_oracle(self):
        # Pe = 0, gaussian(s): T(0, t) = 1/sqrt(2 pi (s + 2t))
        u = linear_profile()
        path = sample_ou(OUParams(1.0), time_grid(0.5, 0.002), seed=3)
        cfg = SimConfig(dt=0.002, n_particles=60_000, seed=4, pe=0.0)
        init = InitialData.gaussian(0.5)
        val, se = evaluate_point_backward(FlowSpec.multiplicative(u), 1.0, path,
                                          0.0, 0.3, 0.5, init, cfg)
        oracle = 1 / math.sqrt(2 * math.pi * (0.5 + 2 * 0.5))
        assert abs(val - oracle) < max(4 * se, 0.01 * oracle)

    def test_matches_wind_model(self):
        u = GridFunction.from_callable(lambda y: y + 0.5, 512)
        gamma, pe = 1.0, 1.0
        path = sample_ou(OUParams(gamma), time_grid(1.0, 0.002), seed=2027)
        eig = lambda_multiplicative(u, gamma, pe)
        init = InitialData.gaussian(0.5)
        cfg = SimConfig(dt=0.002, n_particles=60_000, seed=5, pe=pe)
        x = pe * u.mean() * path.integral[-1]
        wind = float(wind_model_solution(x, 1.0, path, eig, u.mean(), init=init))
        backward, _ = evaluate_point_backward(FlowSpec.multiplicative(u), gamma,
                                              path, x, 0.5, 1.0, init, cfg)
        assert abs(backward / wind - 1.0) < 0.03


@pytest.mark.parametrize("t_end", [-0.5, math.inf, math.nan])
@pytest.mark.parametrize("solver", ["forward-path", "forward-steady", "backward"])
def test_bad_t_end_raises(solver, t_end):
    u = linear_profile()
    path = sample_ou(OUParams(1.0), time_grid(1.0, 0.01), seed=3)
    cfg = SimConfig(dt=0.01, n_particles=100, seed=4, pe=1.0)
    with pytest.raises(ValueError, match="t_end"):
        if solver == "forward-path":
            simulate_forward(FlowSpec.multiplicative(u), 1.0, InitialData.delta_line(),
                             t_end, cfg, path)
        elif solver == "forward-steady":
            simulate_forward(FlowSpec.steady(u), 1.0, InitialData.delta_line(), t_end, cfg)
        else:
            evaluate_point_backward(FlowSpec.multiplicative(u), 1.0, path, 0.0, 0.5,
                                    t_end, InitialData.gaussian(0.5), cfg)


def test_white_noise_path_raises():
    # a white-noise-limit path carries only I(t): neither walk has a xi to read
    u = linear_profile()
    path = sample_brownian_scaled(time_grid(0.1, 0.01), 1.0, seed=3)
    cfg = SimConfig(dt=0.01, n_particles=100, seed=4, pe=1.0)
    with pytest.raises(ValueError, match="white-noise"):
        simulate_forward(FlowSpec.multiplicative(u), 1.0, InitialData.delta_line(),
                         0.1, cfg, path)
    with pytest.raises(ValueError, match="white-noise"):
        evaluate_point_backward(FlowSpec.multiplicative(u), 1.0, path, 0.0, 0.5,
                                0.1, InitialData.gaussian(0.5), cfg)


class TestWindModel:
    def test_time_outside_path_raises(self):
        # the drift needs I(t), which a path on [0, 1] does not have at t = 5
        path = sample_ou(OUParams(1.0), time_grid(1.0, 0.01), seed=3)
        eig = lambda_white(linear_profile(), 1.0)
        with pytest.raises(ValueError, match="span"):
            wind_model_solution(0.0, 5.0, path, eig, ubar=0.5)

    def test_centered_peak(self):
        grid = time_grid(4.0, 0.5)
        path = OUPath(times=grid, values=np.zeros_like(grid))
        eig = lambda_white(linear_profile(), 1.0)
        val = wind_model_solution(0.0, 4.0, path, eig, ubar=0.5)
        assert float(val) == pytest.approx(
            1 / math.sqrt(4 * math.pi * eig.kappa_eff * 4.0), rel=1e-12)

    def test_zero_mean_flow_is_deterministic(self):
        # ubar = 0 removes the random drift entirely
        p1 = sample_ou(OUParams(1.0), time_grid(2.0, 0.01), seed=1)
        p2 = sample_ou(OUParams(1.0), time_grid(2.0, 0.01), seed=2)
        eig = lambda_white(linear_profile(), 1.0)
        xs = np.linspace(-2, 2, 7)
        v1 = wind_model_solution(xs, 2.0, p1, eig, ubar=0.0)
        v2 = wind_model_solution(xs, 2.0, p2, eig, ubar=0.0)
        assert np.array_equal(v1, v2)

    def test_gaussian_variance_is_exact(self):
        s = 0.5
        grid = time_grid(1.0, 0.01)
        path = OUPath(times=grid, values=np.zeros_like(grid))
        eig = lambda_multiplicative(linear_profile(), 1.0, 1.0)
        var = s + 2 * eig.kappa_eff * 1.0
        val = wind_model_solution(0.0, 1.0, path, eig, 0.5, init=InitialData.gaussian(s))
        assert float(val) == pytest.approx(1 / math.sqrt(2 * math.pi * var), rel=1e-12)

    def test_random_wave_data(self):
        # the wave rides the drift and decays at the effective diffusivity
        a, amp = 2.0, 0.3 + 0.4j
        path = sample_ou(OUParams(1.0), time_grid(1.0, 0.01), seed=8)
        eig = lambda_multiplicative(linear_profile(), 1.0, 1.0)
        xs = np.linspace(-2, 2, 9)
        drift = eig.pe * 0.5 * path.integral_at(1.0)
        expected = (2 * np.real(amp * np.exp(-1j * a * (xs - drift)))
                    * math.exp(-a * a * eig.kappa_eff * 1.0))
        val = wind_model_solution(xs, 1.0, path, eig, 0.5, init=InitialData.random_wave(a, amp))
        np.testing.assert_allclose(val, expected, rtol=1e-12, atol=1e-15)


class TestRandomWave:
    def test_second_moment_prediction_at_fixed_time(self):
        # <T^2(0, t)> from wind-model fields on white-noise paths matches the
        # closed N = 2 moment prediction
        from sheardisp.aris_solver import nth_moment_prediction
        u = GridFunction.from_callable(lambda y: y + 0.5, 512)
        eig = lambda_white(u, 1.0)
        grid = time_grid(1.0, 0.01)
        vals = np.array([
            float(wind_model_solution(0.0, 1.0,
                                      sample_brownian_scaled(grid, 1.0, seed=23, realization=i),
                                      eig, u.mean()))
            for i in range(30_000)])
        predicted = nth_moment_prediction(2, 1.0, eig, 1.0)
        assert abs(np.mean(vals**2) / predicted - 1.0) < 0.03

    def test_zero_mean_flow_gaussian_marginal(self):
        # ubar = 0 freezes the phase at a*x, so the marginal at fixed x is a
        # centered Gaussian with variance cos^2(a x)
        grid = time_grid(0.5, 0.01)
        paths = [sample_ou(OUParams(1.0), grid, seed=12, realization=i)
                 for i in range(20_000)]
        a, x = 0.4, 0.8
        samples = simulate_random_wave(a, 1.0, 0.0, paths=paths, x=x)
        sigma = abs(math.cos(a * x))
        from scipy.stats import norm
        est = ensemble_pdf(samples)
        assert est.ks_distance(lambda z: norm.cdf(z, scale=sigma)) < 0.012

    def test_uniform_phase_law(self):
        samples = simulate_random_wave(0.5, 1.0, 1.0, n=200_000, seed=1)
        est = ensemble_pdf(samples)
        assert abs(est.variance() - 0.5) < 0.01
        assert est.ks_distance(cdf_random_wave) < 0.01

    def test_path_phase_approaches_uniform_law(self):
        # late-time OU phases wrap to near-uniform; both routes must agree
        grid = time_grid(0.05, 0.001)
        paths = [sample_ou(OUParams(1.0), grid, seed=4, realization=i)
                 for i in range(30_000)]
        # a Pe ubar sigma_I >> 2 pi needs a large wavenumber at short times,
        # which deliberately trips the rescaling-regime flag
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            samples = simulate_random_wave(400.0, 1.0, 1.0, paths=paths)
        est = ensemble_pdf(samples)
        assert est.ks_distance(cdf_random_wave) < 0.02

    def test_regime_warning(self):
        grid = time_grid(1.0, 0.01)
        paths = [sample_ou(OUParams(1.0), grid, seed=4, realization=i) for i in range(4)]
        with pytest.warns(RuntimeWarning):
            simulate_random_wave(1.0, 1.0, 1.0, paths=paths)

    def test_needs_paths_or_count(self):
        with pytest.raises(ValueError):
            simulate_random_wave(0.5, 1.0, 1.0)


class TestEnsemblePdf:
    def test_uniform_calibration(self):
        rng = np.random.default_rng(0)
        ks = []
        for n in (2_000, 32_000):
            est = ensemble_pdf(rng.uniform(size=n))
            ks.append(est.ks_distance(lambda x: np.clip(x, 0, 1)))
        # KS shrinks roughly like n^{-1/2}
        assert ks[1] < ks[0]
        assert ks[1] < 1.63 / math.sqrt(32_000)   # 99% band

    def test_normal_against_critical_value(self):
        from scipy.stats import norm
        rng = np.random.default_rng(123)
        est = ensemble_pdf(rng.standard_normal(10_000))
        assert est.ks_distance(norm.cdf) < 1.36 / math.sqrt(10_000)

    def test_histogram_normalized(self):
        rng = np.random.default_rng(5)
        est = ensemble_pdf(rng.standard_normal(5_000), bins=40)
        widths = np.diff(est.bin_edges)
        assert np.sum(est.density * widths) == pytest.approx(1.0, abs=1e-12)

    def test_minimum_sample_guard(self):
        with pytest.raises(ValueError):
            ensemble_pdf(np.zeros(10))
