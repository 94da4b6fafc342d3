import math

import numpy as np
import pytest

from sheardisp import eff_diffusivity
from sheardisp.ou_process import _cached_scan_weights
from sheardisp.spectral_core import (
    GridFunction,
    HermiteSeries,
    _decay_integral,
    _inner_weights,
    helmholtz_inverse,
    hermite_norm,
    hermite_project,
)
from sheardisp.eff_diffusivity import (
    EigenData,
    FlowSpec,
    RepresentationMismatchError,
    TruncationError,
    cosine_profile,
    kappa_eff_dimensional_linear,
    kappa_eff_general,
    lambda11_general,
    lambda2_general,
    lambda_multiplicative,
    lambda_white,
    linear_profile,
    small_gamma_asymptotic,
    taylor_steady,
)

NODES = np.linspace(0.0, 1.0, 513)
ZEROS = GridFunction(NODES, np.zeros(NODES.size))


def dimensional_linear_kappa(gamma, pe):
    """Nondimensional form of the dimensional linear-shear closed form."""
    return 1.0 + pe**2 * (1 / 24 - 1 / (2 * gamma)
                          + math.tanh(math.sqrt(gamma) / 2) / gamma**1.5)


class TestEigenData:
    def test_validation(self):
        with pytest.raises(ValueError):
            EigenData(2.5, 1.0, 1.0)   # lambda2 - 2 < lambda11
        with pytest.raises(ValueError):
            EigenData(3.0, -0.5, 1.0)
        eig = EigenData(3.0, 0.5, 1.0)
        assert eig.kappa_eff == pytest.approx(1.25)
        assert eig.beta == pytest.approx(0.2)


def _general_flow():
    return FlowSpec.general(hermite_project(lambda y, xi: y * xi, 1.0, 4, NODES))


@pytest.mark.parametrize("call, name", [
    (lambda: lambda_multiplicative(linear_profile(64), math.nan, 1.0), "gamma"),
    (lambda: lambda_multiplicative(linear_profile(64), math.inf, 1.0), "gamma"),
    (lambda: lambda2_general(_general_flow(), math.nan, 1.0), "gamma"),
    (lambda: lambda11_general(_general_flow(), math.nan, 1.0), "gamma"),
    (lambda: hermite_project(lambda y, xi: y * xi, math.nan, 4, NODES), "gamma"),
    (lambda: _general_flow().velocity(NODES, 0.3, math.nan), "gamma"),
    (lambda: lambda_multiplicative(linear_profile(64), 1.0, math.nan), "pe"),
    (lambda: lambda_white(linear_profile(64), math.nan), "pe"),
    (lambda: taylor_steady(linear_profile(64), math.nan), "pe"),
    (lambda: EigenData(math.inf, 0.0, 1.0), "lambda2"),
    (lambda: helmholtz_inverse(linear_profile(64).centered(), math.nan, "no-flux"), "lambda"),
    *[(lambda pe=pe, fn=fn: fn(_general_flow(), 1.0, pe), "pe")
      for fn in (lambda2_general, lambda11_general) for pe in (math.nan, math.inf, -math.inf)],
    *[(lambda fn=fn, i=i, bad=bad: fn(*[bad if j == i else 1.0 for j in range(4)]), name)
      for fn in (kappa_eff_dimensional_linear, small_gamma_asymptotic)
      for i, name in enumerate(("kappa", "g", "gamma", "L")) for bad in (math.nan, math.inf)],
    # kappa or L <= 0 and gamma < 0 fail the same way (gamma = 0 is the exact limit)
    *[(lambda i=i, bad=bad: small_gamma_asymptotic(*[bad if j == i else 1.0 for j in range(4)]),
       name) for i, name, bad in ((0, "kappa", 0.0), (0, "kappa", -1.0), (2, "gamma", -1.0),
                                  (3, "L", 0.0), (3, "L", -1.0))],
], ids=["multiplicative-gamma-nan", "multiplicative-gamma-inf", "lambda2-gamma-nan",
        "lambda11-gamma-nan", "hermite_project-gamma-nan", "velocity-gamma-nan",
        "multiplicative-pe-nan", "white-pe-nan", "taylor-pe-nan", "eigendata-lambda2-inf",
        "helmholtz-lambda-nan",
        *[f"{fn}-pe-{pe}" for fn in ("lambda2", "lambda11") for pe in ("nan", "inf", "-inf")],
        *[f"{fn}-{name}-{bad}" for fn in ("dimensional", "small_gamma")
          for name in ("kappa", "g", "gamma", "L") for bad in ("nan", "inf")],
        "small_gamma-kappa-zero", "small_gamma-kappa-negative", "small_gamma-gamma-negative",
        "small_gamma-L-zero", "small_gamma-L-negative"])
def test_non_finite_input_names_the_parameter(call, name):
    # NaN fails every comparison, so a "gamma <= 0" test lets it through
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call()


class TestWhiteNoise:
    def test_linear_profile(self):
        u = linear_profile()
        for pe in (1.0, 2.0):
            eig = lambda_white(u, pe)
            assert abs(eig.kappa_eff - (1 + pe**2 / 24)) < 1e-12
            assert abs(eig.lambda2 - (2 + pe**2 / 3)) < 1e-10
            assert abs(eig.lambda11 - pe**2 / 4) < 1e-12

    def test_zero_flow(self):
        u = GridFunction.from_callable(lambda y: 0.0 * y, 64)
        assert lambda_white(u, 3.0).kappa_eff == pytest.approx(1.0, abs=1e-14)
        # a constant profile only translates: no enhancement, so the
        # zero-diffusivity ensemble mean kappa_eff - 1 at Pe = 1 is 0
        u = GridFunction.from_callable(lambda y: 2.0 + 0.0 * y, 64)
        assert lambda_white(u, 1.0).kappa_eff == pytest.approx(1.0, abs=1e-12)

    def test_cosine_profile(self):
        # int cos^2 = 1/2, ubar = 0 -> kappa = 1 + Pe^2/4; cross-check the
        # OU closed form at gamma = 1e6
        u = cosine_profile(1)
        eig = lambda_white(u, 1.0)
        assert abs(eig.kappa_eff - 1.25) < 1e-10
        ou = lambda_multiplicative(u, 1e6, 1.0)
        assert abs(ou.kappa_eff - eig.kappa_eff) < 1e-5


class TestMultiplicative:
    def test_linear_matches_dimensional_form(self):
        u = linear_profile()
        for gamma in (0.1, 1.0, 10.0, 100.0):
            eig = lambda_multiplicative(u, gamma, 1.0)
            assert abs(eig.kappa_eff - dimensional_linear_kappa(gamma, 1.0)) < 1e-8

    def test_constant_profile_no_enhancement(self):
        u = GridFunction.from_callable(lambda y: 0.7 + 0.0 * y, 512)
        eig = lambda_multiplicative(u, 2.0, 1.5)
        assert eig.kappa_eff == pytest.approx(1.0, abs=1e-12)

    def test_cosine_eigenprofile(self):
        # u = cos(pi y), gamma = pi^2: kappa = 1 + Pe^2 gamma/(4(gamma+pi^2))
        u = cosine_profile(1)
        eig = lambda_multiplicative(u, math.pi**2, 1.0)
        assert abs(eig.kappa_eff - 1.125) < 1e-10

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            lambda_multiplicative(linear_profile(), -1.0, 1.0)

    @staticmethod
    def _cosine_enhancement_error(gamma, n):
        """Relative error of kappa - 1 against Pe^2 gamma/(4(gamma + pi^2))."""
        pe = 10.0
        eig = lambda_multiplicative(cosine_profile(1, n), gamma, pe)
        return (eig.kappa_eff - 1.0) / (pe**2 * gamma / (4 * (gamma + math.pi**2))) - 1.0

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0, 144.0, 1e4, 1e6])
    def test_cosine_enhancement_every_gamma(self, gamma):
        # -2.1e-11 at n = 512 for every gamma (stiff gamma included)
        assert abs(self._cosine_enhancement_error(gamma, 512)) < 1e-9

    def test_cosine_enhancement_fourth_order(self):
        # halving h divides the error by 15.6 at gamma = 1e4 (2^4 = 16)
        ratio = (self._cosine_enhancement_error(1e4, 256)
                 / self._cosine_enhancement_error(1e4, 512))
        assert ratio >= 12.0

    def test_white_noise_gap_monotone(self):
        u = linear_profile()
        white = lambda_white(u, 1.0).kappa_eff
        gaps = [abs(lambda_multiplicative(u, g, 1.0).kappa_eff - white)
                for g in (1e2, 1e3, 1e4)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_periodic_bc_eigenprofile(self):
        u = GridFunction.from_callable(lambda y: np.sin(2 * np.pi * y), 512)
        gamma, pe = 2.0, 1.3
        eig = lambda_multiplicative(u, gamma, pe, bc="periodic")
        target = 2 + pe**2 * gamma * 0.5 / (gamma + 4 * np.pi**2)
        assert abs(eig.lambda2 - target) < 1e-9


class TestGeneralSeries:
    def test_reduction_to_multiplicative(self):
        u = linear_profile()
        for gamma in (0.5, 2.0, 10.0):
            series = hermite_project(lambda y, xi: y * xi, gamma, 12, u.nodes)
            flow = FlowSpec.general(series)
            closed = lambda_multiplicative(u, gamma, 1.3)
            assert abs(lambda2_general(flow, gamma, 1.3).value - closed.lambda2) < 1e-10
            assert abs(lambda11_general(flow, gamma, 1.3).value - closed.lambda11) < 1e-10

    def test_no_fluctuating_structure(self):
        flow = FlowSpec.general(HermiteSeries([ZEROS, ZEROS]))
        assert lambda2_general(flow, 1.0, 2.0).value == pytest.approx(2.0, abs=1e-14)

    def test_white_noise_route(self):
        # u = cos(pi y), gamma -> infinity: lambda2 -> 2 + Pe^2/2
        series = hermite_project(lambda y, xi: np.cos(np.pi * y) * xi, 1e8, 12, NODES)
        res = lambda2_general(FlowSpec.general(series), 1e8, 1.0)
        assert abs(res.value - 2.5) < 1e-5

    def test_lambda11_h2_flow(self):
        # vbar(z) = H_2(z): series term (2 Pe^2/gamma) 1! 2^2 = 8 Pe^2/gamma
        ones = GridFunction(NODES, np.ones(NODES.size))
        flow = FlowSpec.general(HermiteSeries([ZEROS, ZEROS, ones, ZEROS]))
        gamma, pe = 1.4, 1.2
        res = lambda11_general(flow, gamma, pe)
        assert res.value == pytest.approx(8 * pe**2 / gamma, rel=1e-12)
        assert res.integral == pytest.approx(res.value, rel=1e-8)

    def test_lambda11_integral_matches_the_vbar_route(self):
        # reference: e^{-z^2} vbar(z) by hermval on the same |z| <= 8 grid,
        # inner integral and outer rule as the cached e^{-z^2} H_n table
        rng = np.random.default_rng(8)
        z = np.linspace(-8.0, 8.0, 4001)
        for gamma, pe in ((0.3, 1.5), (2.0, 7.0), (40.0, 15.0)):
            coeffs = [GridFunction(NODES, (rng.normal() * np.cos(np.pi * NODES) + rng.normal() * NODES)
                                   / math.sqrt(hermite_norm(n))) for n in range(9)]
            coeffs[0] = coeffs[0].centered()
            series = HermiteSeries(coeffs + [ZEROS])
            f = np.exp(-z * z) * series.vbar(z)
            fwd, bwd = _decay_integral(np.array((f, f[::-1])), z[1] - z[0], 0.0)
            cum = np.where(z < 0, fwd, -bwd[::-1])
            outer = 16.0 * np.sum(np.exp(z * z) * cum * cum * _inner_weights(4000))
            ref = 4.0 * pe**2 / (gamma * math.sqrt(math.pi)) * outer
            res = lambda11_general(FlowSpec.general(series), gamma, pe)
            assert abs(res.integral - ref) <= 1e-14 * ref

    def test_resolvent_rates_leave_the_scan_cache_alone(self):
        # the resolvent's rates follow gamma, so their scan weights are not cached
        a1, a2 = GridFunction(NODES, NODES**2 + 0.2), GridFunction(NODES, np.cos(np.pi * NODES))
        series = HermiteSeries([GridFunction(NODES, NODES - 0.5), a1, a2, ZEROS])
        before = _cached_scan_weights.cache_info()
        lambda2_general(FlowSpec.general(series), 1.7, 2.0)
        assert _cached_scan_weights.cache_info() == before

    def test_lambda11_zero_mean(self):
        series = hermite_project(lambda y, xi: np.cos(np.pi * y) * xi, 1.0, 8, NODES)
        res = lambda11_general(FlowSpec.general(series), 1.0, 1.0)
        assert abs(res.value) < 1e-12

    def test_representation_mismatch_detected(self, monkeypatch):
        ones = GridFunction(NODES, np.ones(NODES.size))
        flow = FlowSpec.general(HermiteSeries([ZEROS, ZEROS, ones, ZEROS]))
        # starving the outer quadrature wrecks the integral route
        monkeypatch.setattr(eff_diffusivity, "_Z_MAX", 2.0)
        monkeypatch.setattr(eff_diffusivity, "_N_Z", 16)
        with pytest.raises(RepresentationMismatchError):
            lambda11_general(flow, 1.4, 1.2)

    def test_truncation_guard(self):
        # top mode still significant: a series cut before the flow ends
        # must raise
        ones = GridFunction(NODES, 0.3 * np.ones(NODES.size))
        series = HermiteSeries([ZEROS, ones, ones])
        with pytest.raises(TruncationError):
            lambda2_general(FlowSpec.general(series), 1.0, 1.0)

    def test_zero_rows_keep_the_diagnostics(self):
        # a zero mode inside and a zero terminator: every nonzero mode
        # solved in one stack gives the terms of one resolvent per mode,
        # n_terms counts up to the last nonzero mode, and the zeros read 0
        gamma, pe = 2.0, 1.5
        a0 = GridFunction(NODES, np.cos(np.pi * NODES))
        a1, a3 = GridFunction(NODES, NODES**2 + 0.2), GridFunction(NODES, 0.1 * NODES)
        series = HermiteSeries([a0, a1, ZEROS, a3, ZEROS])
        res = lambda2_general(FlowSpec.general(series), gamma, pe)
        # n = 0 through taylor_steady, n >= 1 through one resolvent each
        one_by_one = 2 * (taylor_steady(a0, pe) - 1) + sum(
            2 * pe**2 * math.factorial(n) * 2**n
            * a.inner(helmholtz_inverse(a, n * gamma, "no-flux")) for n, a in ((1, a1), (3, a3)))
        assert res.value - 2.0 == pytest.approx(one_by_one, rel=1e-13)
        assert (res.n_terms, res.stopped_by) == (4, "tolerance")
        # the same modes without the terminator: the top mode is significant
        with pytest.raises(TruncationError):
            lambda2_general(FlowSpec.general(HermiteSeries([a0, a1, ZEROS, a3])), gamma, pe)

    def test_energy_inequality_and_floor(self):
        corpus = [
            hermite_project(lambda y, xi: y * xi, 1.0, 8, NODES),
            HermiteSeries([ZEROS, GridFunction(NODES, NODES**2 + 0.2),
                           GridFunction(NODES, (1 + NODES) / 4),
                           GridFunction(NODES, 0.1 * np.cos(np.pi * NODES)), ZEROS]),
        ]
        for series in corpus:
            for gamma in (0.7, 3.0):
                eig = kappa_eff_general(FlowSpec.general(series), gamma, 1.1)
                slack = 1e-9 * (1 + abs(eig.lambda2))
                assert eig.lambda2 - 2 >= eig.lambda11 - slack
                assert eig.kappa_eff >= 1 - slack

    def test_no_y_structure_degeneracy(self):
        # v(y,z) = H_1(z): lambda2 - 2 == lambda11, kappa exactly 1
        ones = GridFunction(NODES, np.ones(NODES.size))
        eig = kappa_eff_general(FlowSpec.general(HermiteSeries([ZEROS, ones, ZEROS])), 1.3, 2.0)
        assert eig.kappa_eff == pytest.approx(1.0, abs=1e-11)


class TestResolventOracles:
    """Exact values of single lambda2 resolvent terms through the general series."""

    def test_n0_series_exact(self):
        # [y - 1/2, 0] at Pe 20: kappa = 1 + Pe^2/120 = 13/3; measured error
        # 8e-15 (plain Simpson on the inner product read 1.3e-10)
        v = GridFunction(NODES, NODES - 0.5)
        eig = kappa_eff_general(FlowSpec.general(HermiteSeries([v, ZEROS])), 1.0, 20.0)
        assert abs(eig.kappa_eff - 13 / 3) < 1e-12

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 100.0, 1e4])
    def test_n1_series_matches_multiplicative(self, gamma):
        # the one-mode series [0, u sqrt(gamma)/2, 0] is the flow u(y) xi(t);
        # gamma = 1e4 runs the s > 12 scaled branch.  Worst measured gap 1.3e-13
        # (gamma = 0.1, where lambda2 - 2 and lambda11 nearly cancel)
        pe = 10.0
        a1 = GridFunction(NODES, NODES * math.sqrt(gamma) / 2)
        series = kappa_eff_general(FlowSpec.general(HermiteSeries([ZEROS, a1, ZEROS])), gamma, pe)
        closed = lambda_multiplicative(linear_profile(), gamma, pe)
        assert abs((series.kappa_eff - 1) / (closed.kappa_eff - 1) - 1) < 1e-12

    @pytest.mark.parametrize("gamma, pe", [(1.0, 2.0), (0.1, 2.0), (10.0, 5.0)])
    def test_n2_eigenfunction(self, gamma, pe):
        # a_2 = cos(pi y) is a Neumann eigenfunction with zero mean:
        # lambda2 - 2 = 2 Pe^2 2! 2^2 (1/2) / (2 gamma + pi^2), lambda11 = 0.
        # Measured relative error 1.0e-10 to 1.2e-10, the cumulative-Simpson
        # floor of the lambda > 0 inverse: margin about 90x
        a2 = GridFunction(NODES, np.cos(np.pi * NODES))
        series = HermiteSeries([ZEROS, ZEROS, a2, ZEROS])
        eig = kappa_eff_general(FlowSpec.general(series), gamma, pe)
        exact = 4 * pe**2 / (2 * gamma + math.pi**2)
        assert abs((eig.kappa_eff - 1) / exact - 1) < 1e-8


class TestSteadyTaylor:
    def test_linear_shifted(self):
        v = GridFunction.from_callable(lambda y: y - 0.5, 512)
        assert abs(taylor_steady(v, 2.0) - (1 + 1 / 30)) < 1e-12
        # quadrature oracle for the inner integral: int (y^2/2 - y/2)^2 = 1/120
        w = (v.nodes**2 - v.nodes) / 2
        from scipy.integrate import simpson
        assert simpson(w**2, x=v.nodes) == pytest.approx(1 / 120, abs=1e-12)

    def test_zero_flow(self):
        v = GridFunction.from_callable(lambda y: 0.0 * y, 64)
        assert taylor_steady(v, 5.0) == pytest.approx(1.0, abs=1e-14)

    def test_cosine(self):
        v = cosine_profile(1)
        assert abs(taylor_steady(v, 1.0) - (1 + 1 / (2 * np.pi**2))) < 1e-10

    def test_periodic_walls(self):
        # periodic (-Lap)^{-1} on the sawtooth y - 1/2, |c_k| = 1/(2 pi k):
        # sum_{k != 0} (2 pi k)^{-4} = 1/720, against 1/120 with no-flux walls
        v = GridFunction.from_callable(lambda y: y - 0.5, 512)
        assert abs(taylor_steady(v, 2.0, bc="periodic") - (1 + 4 / 720)) < 1e-12

    def test_galilean_frame(self):
        # adding a constant to v must not change the dispersion
        v1 = GridFunction.from_callable(lambda y: y - 0.5, 256)
        v2 = GridFunction.from_callable(lambda y: y + 3.0, 256)
        assert taylor_steady(v1, 2.0) == pytest.approx(taylor_steady(v2, 2.0), rel=1e-12)

    @pytest.mark.parametrize("bc, v, exact, bound", [
        # a = y^2 - 1/3: A = (y^3 - y)/3, int A^2 = 8/945, Abar = -1/12; A is
        # a cubic the running integral takes exactly (measured 4e-17, 7e-17)
        ("no-flux", lambda y: y**2 - 1 / 3, 8 / 945, 1e-14),
        ("periodic", lambda y: y**2 - 1 / 3, 8 / 945 - 1 / 144, 1e-14),
        # A = (1 - cos 2 pi y)/(2 pi): int A^2 = 3/(8 pi^2) and Abar^2 =
        # 1/(4 pi^2), the case where Abar matters (measured -8.8e-12)
        ("periodic", lambda y: np.sin(2 * np.pi * y), 1 / (8 * np.pi**2), 1e-10),
    ], ids=["no-flux", "periodic", "periodic-sine"])
    def test_n0_term_is_taylors_form(self, bc, v, exact, bound):
        # the n = 0 term <a, (-Lap)^{-1} a> = int A^2 (no-flux) or Var A
        # (periodic), A = int_0^y a, at Pe = 1 on n = 512
        a = GridFunction.from_callable(v, 512)
        assert abs(taylor_steady(a, 1.0, bc=bc) - 1 - exact) <= bound


@pytest.mark.parametrize("call", [
    lambda: taylor_steady(linear_profile(64), 1.0, bc="bogus"),
    lambda: lambda_multiplicative(linear_profile(64), 1.0, 1.0, bc="bogus"),
], ids=["taylor_steady", "lambda_multiplicative"])
def test_unknown_wall_raises(call):
    with pytest.raises(ValueError, match="unknown boundary condition 'bogus'"):
        call()


class TestDimensionalForms:
    def test_white_noise_limit(self):
        # gamma -> infinity leaves kappa + L^2 g^2 / 24
        val = kappa_eff_dimensional_linear(0.7, 1.3, 1e9, 2.0)
        assert val == pytest.approx(0.7 + 4 * 1.3**2 / 24, rel=1e-8)

    def test_no_flow(self):
        assert kappa_eff_dimensional_linear(0.9, 0.0, 2.0, 1.0) == pytest.approx(0.9)

    def test_reference_point(self):
        # kappa = L = g = 1, gamma = 4
        val = kappa_eff_dimensional_linear(1, 1, 4, 1)
        assert val == pytest.approx(1 + (1 / 24 - 1 / 8 + math.tanh(1.0) / 8), rel=1e-14)
        assert val == pytest.approx(1.0118659361611373, rel=1e-12)

    def test_small_gamma_limit(self):
        g = 1e-3
        k_dim = kappa_eff_dimensional_linear(1.0, 1.0, g, 1.0)
        asym = small_gamma_asymptotic(1.0, 1.0, g, 1.0)
        assert abs(k_dim - asym) / (k_dim - 1.0) < 0.05

    def test_gamma_zero_degenerate(self):
        assert small_gamma_asymptotic(0.8, 2.0, 0.0, 1.0) == pytest.approx(0.8)

    def test_domain(self):
        with pytest.raises(ValueError):
            kappa_eff_dimensional_linear(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kappa_eff_dimensional_linear(1.0, 1.0, -1.0, 1.0)


class TestFlowSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            FlowSpec("weird", linear_profile())
        with pytest.raises(TypeError):
            FlowSpec("general", linear_profile())
        with pytest.raises(TypeError):
            FlowSpec("steady", HermiteSeries([ZEROS]))

    def test_velocity_evaluation(self):
        u = linear_profile()
        mult = FlowSpec.multiplicative(u)
        assert mult.velocity(0.5, 2.0) == pytest.approx(1.0)
        steady = FlowSpec.steady(u)
        assert steady.velocity(np.array([0.25, 0.75]), 99.0) == pytest.approx([0.25, 0.75])
        series = hermite_project(lambda y, xi: y * xi, 1.0, 6, NODES)
        gen = FlowSpec.general(series)
        assert gen.velocity(0.5, 0.8, gamma=1.0) == pytest.approx(0.4, abs=1e-10)
        # one broadcast call equals the per-particle evaluation exactly
        ys = np.linspace(0.0, 1.0, 37)
        per_particle = [series.synthesize(float(y), 0.8) for y in ys]
        assert np.array_equal(gen.velocity(ys, 0.8, gamma=1.0), per_particle)
        # out= returns the caller's buffer holding the same bits, for every kind
        for flow, gamma in ((mult, None), (steady, None), (gen, 1.0)):
            buf = np.empty_like(ys)
            assert flow.velocity(ys, 0.8, gamma, out=buf) is buf
            assert np.array_equal(buf, flow.velocity(ys, 0.8, gamma))
        with pytest.raises(ValueError):
            gen.velocity(0.5, 0.8)
