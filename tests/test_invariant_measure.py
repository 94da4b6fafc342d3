import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc, k0e

from sheardisp.eff_diffusivity import lambda_multiplicative
from sheardisp.monte_carlo import InitialData
from sheardisp.spectral_core import GridFunction
from sheardisp.invariant_measure import (
    BetaSpec,
    _random_wave_cdf_table,
    beta_finite_time,
    cdf_deterministic,
    cdf_random_wave,
    gaussian_variance_spectral,
    moment_function,
    pdf_deterministic,
    pdf_moment_quadrature,
    pdf_random_wave,
    reconstruct_pdf_from_moments,
    talbot_inverse,
)


class TestBetaSpec:
    def test_leading_order(self):
        # EigenData.beta = lambda11 / (lambda2 - lambda11) = Pe^2 ubar^2 / (2 kappa_eff)
        u = GridFunction.from_callable(lambda y: y + 0.25, 512)
        eig = lambda_multiplicative(u, 1.0, 2.0)
        assert eig.beta == pytest.approx(4 * 0.75**2 / (2 * eig.kappa_eff), rel=1e-12)

    def test_finite_time_reduces_to_leading(self):
        # v(t) ~ t as t -> infinity
        t = 1e9
        spec = BetaSpec(1.0, 1.0, 1.2, t=t, s=0.5, v_t=t)
        assert beta_finite_time(spec) == pytest.approx(1.0 / 2.4, rel=1e-8)

    def test_s_zero_and_vt_t(self):
        spec = BetaSpec(1.0, 1.0, 1.2, t=7.0, s=0.0, v_t=7.0)
        assert beta_finite_time(spec) == pytest.approx(1.0 / 2.4, rel=1e-14)

    def test_requires_finite_time_fields(self):
        with pytest.raises(TypeError):
            BetaSpec(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad, match", [
        ({"pe": math.nan}, "pe must be finite"),
        ({"ubar": math.inf}, "ubar must be finite"),
        ({"kappa_eff": 0.0}, "kappa_eff must be positive"),
        ({"kappa_eff": math.nan}, "kappa_eff must be positive"),
        ({"t": -1.0}, "t must be finite and nonnegative"),
        ({"t": math.nan}, "t must be finite and nonnegative"),
        # s = -2 at t = kappa_eff = 1 zeroes the denominator 4 t kappa_eff + 2 s
        ({"s": -2.0}, "s must be finite and nonnegative"),
        ({"v_t": -0.5}, "v_t must be finite and nonnegative"),
        ({"v_t": math.inf}, "v_t must be finite and nonnegative"),
        ({"t": 0.0, "s": 0.0}, "t and s must not both be 0"),
    ])
    def test_rejects_bad_field(self, bad, match):
        with pytest.raises(ValueError, match=rf"^{match}"):
            BetaSpec(**{**dict(pe=1.0, ubar=0.5, kappa_eff=1.0, t=1.0, s=0.5, v_t=0.8), **bad})


class TestDeterministicPdf:
    def test_normalization(self):
        for beta in (0.25, 1.0, 4.0):
            # z = exp(-v^2) maps the density to a Gaussian in v
            total = pdf_moment_quadrature(0.0, beta)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_behavior_at_origin(self):
        z = np.array([1e-12])
        assert pdf_deterministic(z, 0.5)[0] < 1e-5          # continuous at 0
        assert pdf_deterministic(z, 2.0)[0] > 1e3           # divergent at 0

    def test_log_divergence_at_one(self):
        # f(z) sqrt(-log z) stays bounded and nonzero as z -> 1
        zs = 1.0 - np.logspace(-10, -4, 5)
        vals = pdf_deterministic(zs, 0.8) * np.sqrt(-np.log(zs))
        target = 1 / math.sqrt(math.pi * 0.8)
        assert np.max(np.abs(vals - target)) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            pdf_deterministic(0.0, 1.0)
        with pytest.raises(ValueError):
            pdf_deterministic(1.0, 1.0)
        for beta in (-1.0, math.nan):
            with pytest.raises(ValueError, match="beta must be positive"):
                pdf_deterministic(0.5, beta)
            with pytest.raises(ValueError, match="beta must be positive"):
                cdf_deterministic(0.5, beta)

    def test_cdf_is_antiderivative(self):
        beta = 0.7
        for z in (0.1, 0.5, 0.9):
            num, _ = quad(lambda w: math.exp(-w / beta) / math.sqrt(math.pi * beta * w),
                          -math.log(z), np.inf)
            assert cdf_deterministic(z, beta) == pytest.approx(num, abs=1e-10)

    def test_skewness_changes_sign_with_beta(self):
        def skew(beta):
            m1, m2, m3 = (moment_function(n, beta) for n in (1, 2, 3))
            mu2 = m2 - m1**2
            mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
            return mu3 / mu2**1.5
        assert skew(0.1) < 0
        assert skew(4.0) > 0
        # bracket the transition
        lo, hi = 0.1, 4.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if skew(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert 0.1 < lo < hi < 4.0


class TestMomentFunction:
    def test_trivial_values(self):
        assert moment_function(0.0, 1.7) == pytest.approx(1.0)
        assert moment_function(3.0, 1.0) == pytest.approx(0.5)

    def test_pole_guard(self):
        for s, beta in ((-2.0, 1.0), (1.0, math.nan), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                moment_function(s, beta)

    @given(st.floats(min_value=0.05, max_value=5.0),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_matches_quadrature(self, beta, n):
        assert abs(moment_function(n, beta) - pdf_moment_quadrature(n, beta)) < 1e-8

    @pytest.mark.parametrize("n, beta, match", [
        (-2.0, 1.0, "clear of the pole"),
        (math.nan, 1.0, "clear of the pole"),
        (1.0, 0.0, "beta must be positive"),
        (1.0, -1.0, "beta must be positive"),
        (1.0, math.nan, "beta must be positive"),
        # n + 1/beta = 0.05: the window's end e^{-800} would underflow to 0
        (-0.95, 1.0, "clear of the pole"),
    ], ids=["past_pole", "nan_order", "zero_beta", "negative_beta", "nan_beta", "next_to_pole"])
    def test_quadrature_rejects_bad_input(self, n, beta, match):
        with pytest.raises(ValueError, match=match):
            pdf_moment_quadrature(n, beta)


class TestTalbot:
    def test_analytic_pair(self):
        # L^{-1}((s+1)^{-1/2})(w) = e^{-w}/sqrt(pi w)
        ws = np.linspace(0.05, 5.0, 25)
        rec = talbot_inverse(lambda p: (p + 1.0) ** -0.5, ws)
        exact = np.exp(-ws) / np.sqrt(np.pi * ws)
        assert np.max(np.abs(rec - exact)) < 1e-8

    def test_exponential(self):
        # L^{-1}(1/(s+2)) = e^{-2w}
        ws = np.linspace(0.1, 3.0, 10)
        rec = talbot_inverse(lambda p: 1.0 / (p + 2.0), ws)
        assert np.max(np.abs(rec - np.exp(-2 * ws))) < 1e-9

    def test_domain(self):
        for w in (0.0, math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError, match="abscissa must be positive"):
                talbot_inverse(lambda p: 1 / p, w)


class TestReconstruction:
    def test_matches_closed_form(self):
        z = np.linspace(0.02, 0.98, 50)
        for beta in (0.5, 1.0, 2.0):
            rec = reconstruct_pdf_from_moments(beta, z)
            assert np.max(np.abs(rec - pdf_deterministic(z, beta))) < 1e-4

    def test_divergence_rate_near_one(self):
        # f ~ (-log z)^{-1/2}/sqrt(pi) for beta = 1 as z -> 1
        zs = np.array([1 - 1e-4, 1 - 1e-5])
        rec = reconstruct_pdf_from_moments(1.0, zs)
        predicted = 1 / np.sqrt(math.pi * (-np.log(zs)))
        assert np.max(np.abs(rec / predicted - 1.0)) < 1e-3

    def test_grid_domain(self):
        with pytest.raises(ValueError):
            reconstruct_pdf_from_moments(1.0, np.array([0.0, 0.5]))
        for beta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="beta must be positive"):
                reconstruct_pdf_from_moments(beta, 0.5)


class TestRandomWavePdf:
    def test_moments_by_quadrature(self):
        m2 = 2 * quad(lambda z: z * z * pdf_random_wave(z), 0, 12, limit=300)[0]
        m4 = 2 * quad(lambda z: z**4 * pdf_random_wave(z), 0, 12, limit=300)[0]
        assert abs(m2 - 0.5) < 1e-6
        assert abs(m4 - 9.0 / 8.0) < 1e-6
        assert m4 / m2**2 == pytest.approx(4.5, abs=1e-5)

    def test_normalization(self):
        total = 2 * quad(pdf_random_wave, 0, 12, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_symmetry_and_singularity(self):
        zs = np.array([0.3, 1.1, 2.7])
        assert np.array_equal(pdf_random_wave(zs), pdf_random_wave(-zs))
        assert pdf_random_wave(0.0) == np.inf

    def test_matches_scipy_k0e(self):
        # e^{-q} K0(q) = k0e(q) e^{-2q}, q = z^2/4, from the log singularity
        # at 0 to a density of 1e-196, over three blocks of the node set
        z = np.geomspace(1e-8, 30.0, 5000)
        q = z * z / 4.0
        ref = k0e(q) * np.exp(-2.0 * q) / (math.sqrt(2.0) * math.pi**1.5)
        assert np.max(np.abs(pdf_random_wave(z) / ref - 1.0)) < 1e-13

    def test_non_finite_and_zero(self):
        out = pdf_random_wave(np.array([0.0, math.nan, math.inf, -math.inf, 1.0, -0.0]))
        assert out[0] == out[5] == np.inf
        assert np.isnan(out[1])
        assert out[2] == out[3] == 0.0
        assert out[4] == pdf_random_wave(1.0)
        for z, want in ((0.0, np.inf), (math.inf, 0.0)):
            assert isinstance(pdf_random_wave(z), float) and pdf_random_wave(z) == want
        assert math.isnan(pdf_random_wave(math.nan))
        assert pdf_random_wave(np.empty(0)).shape == (0,)

    def test_cdf_table_matches_pointwise_quadrature(self):
        # reference: one quad per node of the phase average over eta
        # P(Ttilde > z) = (1/pi) int_0^{pi/2} erfc(z / (sqrt(2) cos eta)) d eta,
        # at tolerances tight enough that the table's own error shows (2.8e-16
        # measured at every 7th node)
        nodes, tail = _random_wave_cdf_table()
        for z, table in zip(nodes[1::100], tail[1::100]):
            ref, _ = quad(lambda th: erfc(z / (math.sqrt(2.0) * math.cos(th))),
                          0.0, math.pi / 2.0, limit=200, epsabs=1e-14, epsrel=1e-13)
            assert abs(table - ref / math.pi) < 1e-12

    def test_cdf_table_against_the_phase_average_rule(self):
        # an independent rule at every node: the phase average above, graded
        # as eta = (pi/2)(1 - t^2), by 256 Gauss-Legendre nodes in t (1e-9)
        nodes, tail = _random_wave_cdf_table()
        x, w = np.polynomial.legendre.leggauss(256)
        t = 0.5 * (x + 1.0)
        ref = erfc(nodes[:, None] / (math.sqrt(2.0) * np.sin(0.5 * math.pi * t * t))) @ (0.5 * w * t)
        assert tail[0] == 0.5
        assert np.all(np.diff(tail) < 0.0)
        assert np.max(np.abs(tail - ref)) < 1e-9

    def test_cdf_consistent_with_pdf(self):
        # the amplitude-conditioned CDF and the K0 density are independent
        # representations of the same law
        for z in (0.4, 1.2, 3.0):
            num, _ = quad(pdf_random_wave, -12, z, points=[0.0], limit=300)
            assert cdf_random_wave(z) == pytest.approx(num, abs=2e-5)


@pytest.mark.parametrize("fn, x", [
    (lambda x: talbot_inverse(lambda p: (p + 1.0) ** -0.5, x), 0.7),
    (lambda x: reconstruct_pdf_from_moments(0.8, x), 0.3),
    (pdf_random_wave, 1.3),
    (cdf_random_wave, -0.4),
    (lambda x: cdf_deterministic(x, 0.8), 0.3),
], ids=["talbot_inverse", "reconstruct_pdf_from_moments", "pdf_random_wave", "cdf_random_wave",
        "cdf_deterministic"])
def test_scalar_in_scalar_out(fn, x):
    out = fn(x)
    assert isinstance(out, float)
    assert out == fn(np.array([x]))[0]


class TestSpectralVariance:
    def test_indicator_cutoff(self):
        assert gaussian_variance_spectral(0.0, lambda h: 1.0, 1.0, 0.0,
                                          h_max=1.0) == pytest.approx(2.0, rel=1e-10)

    def test_decay_to_zero(self):
        vals = [gaussian_variance_spectral(0.0, lambda h: math.exp(-h * h / 2), 1.0, kt)
                for kt in (1.0, 1e2, 1e4, 1e8)]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 2e-4

    def test_alpha_domain(self):
        for alpha, kappa_eff, t in ((-1.5, 1.0, 1.0), (math.nan, 1.0, 1.0),
                                    (0.0, math.nan, 1.0), (0.0, 1.0, math.inf)):
            with pytest.raises(ValueError):
                gaussian_variance_spectral(alpha, lambda h: 1.0, kappa_eff, t)

    @pytest.mark.parametrize("h_max", [0.0, -1.0, math.nan])
    def test_h_max_domain(self, h_max):
        # h_max = -1 once returned -1.49 and NaN returned 0.0
        with pytest.raises(ValueError, match=r"\bh_max must be"):
            gaussian_variance_spectral(0.0, lambda h: 1.0, 1.0, 1.0, h_max=h_max)

    def test_pe_zero_is_the_heat_kernel_variance(self):
        # at Pe = 0 (kappa_eff = 1) each mode h of the data is the random
        # wave with amplitude 1/2 smoothed by the heat kernel, so the variance
        # at x = 0 is 2 int h^alpha phi0hat^2 value(0, t)^2 dh, here by a fine
        # trapezoid; the amplitude decay exp(-h^2 t) once stood in for its
        # square, giving Gamma(1/2)/sqrt(1.8) = 1.321 against 1.099
        t = 0.8
        h = np.linspace(0.0, 8.0, 8_001)
        value = np.array([InitialData.random_wave(k, 0.5).value(0.0, t) for k in h[1:]])
        f = np.exp(-h * h) * np.concatenate(([1.0], value)) ** 2
        expected = 2.0 * float(np.sum(f[1:] + f[:-1]) * 0.5 * (h[1] - h[0]))
        got = gaussian_variance_spectral(0.0, lambda k: math.exp(-k * k / 2), 1.0, t)
        assert got == pytest.approx(expected, abs=1e-6)

    @staticmethod
    def _check_gaussian_cutoff(alpha):
        # phi0hat = exp(-h^2/2), kappa_eff = 1: 2 int_0^inf h^alpha
        # exp(-(1 + 2kt) h^2) dh = Gamma(p) / (1 + 2kt)^p, p = (alpha + 1)/2
        p = (alpha + 1.0) / 2.0
        for kt in (0.0, 0.8):
            val = gaussian_variance_spectral(alpha, lambda h: math.exp(-h * h / 2), 1.0, kt)
            assert val == pytest.approx(math.gamma(p) / (1.0 + 2.0 * kt) ** p,
                                        rel=1e-10), (alpha, kt)

    def test_gaussian_cutoff_closed_form(self):
        for alpha in (0.0, 1.0, 2.0):
            self._check_gaussian_cutoff(alpha)

    def test_negative_alpha_integrable(self):
        # alpha = -1/2 has an integrable singularity at h = 0
        self._check_gaussian_cutoff(-0.5)
