"""Acceptance gates: formula reproduction plus property-based MC checks.

Every criterion below runs at desk scale with frozen seeds and pinned
tolerances and prints one PASS/FAIL line.  `run_all` is what the CLI's
``validate`` subcommand executes; the pytest acceptance module asserts
the same results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ou_process import OUParams, sample_ou, time_grid, integral_variance
from .spectral_core import (
    GridFunction, HermiteSeries, hermite_norm,
    helmholtz_inverse, hermite_project,
)
from .eff_diffusivity import (
    FlowSpec, EigenData, lambda_multiplicative, lambda_white, taylor_steady,
    small_gamma_asymptotic, kappa_eff_dimensional_linear, lambda11_general,
    linear_profile,
)
from .aris_solver import (
    solve_aris, ou_integral_identity, estimate_gamma, nth_moment_prediction,
    npoint_correlator, lambda_from_moments,
    exp_weighted_integral, cosine_eigenvalue,
)
from .monte_carlo import (
    SimConfig, InitialData, simulate_forward, evaluate_point_backward,
    wind_model_solution, simulate_random_wave, ensemble_pdf,
)
from .invariant_measure import (
    BetaSpec, beta_finite_time, pdf_deterministic, cdf_deterministic,
    moment_function, pdf_moment_quadrature, reconstruct_pdf_from_moments,
    pdf_random_wave, cdf_random_wave,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    runtime: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}  [{self.runtime:.1f}s]  {self.details}"


def _result(name: str, checks: list[tuple[bool, str]], t0: float) -> CriterionResult:
    passed = all(ok for ok, _ in checks)
    details = "; ".join(msg for _, msg in checks)
    return CriterionResult(name, passed, details, time.time() - t0)


# --------------------------------------------------------------------------
# 1. white-noise effective diffusivity
# --------------------------------------------------------------------------

def criterion_1_white_noise() -> CriterionResult:
    t0 = time.time()
    u = linear_profile()
    checks = []
    for pe in (1.0, 2.0, 3.5):
        err = abs(lambda_white(u, pe).kappa_eff - (1.0 + pe**2 / 24.0))
        checks.append((err <= 1e-12, f"Pe={pe}: |err|={err:.2e}<=1e-12"))
    return _result("1-white-noise-kappa", checks, t0)


# --------------------------------------------------------------------------
# 2. OU closed form, white-noise gap, small-damping asymptotics
# --------------------------------------------------------------------------

def criterion_2_ou_closed_form() -> CriterionResult:
    t0 = time.time()
    u = GridFunction.from_callable(lambda y: y, 4096)
    checks = []
    for g in (0.1, 1.0, 10.0, 100.0):
        target = 1.0 + (1.0 / 24.0 - 1.0 / (2.0 * g)
                        + math.tanh(math.sqrt(g) / 2.0) / g**1.5)
        err = abs(lambda_multiplicative(u, g, 1.0).kappa_eff - target)
        checks.append((err <= 1e-8, f"gamma={g}: |err|={err:.2e}<=1e-8"))
    k_white = lambda_white(u, 1.0).kappa_eff
    gaps = [abs(lambda_multiplicative(u, g, 1.0).kappa_eff - k_white)
            for g in (1e2, 1e3, 1e4)]
    mono = gaps[0] > gaps[1] > gaps[2]
    checks.append((mono, f"white-noise gap monotone: {gaps[0]:.1e}>{gaps[1]:.1e}>{gaps[2]:.1e}"))
    g_small = 1e-3
    k_dim = kappa_eff_dimensional_linear(1.0, 1.0, g_small, 1.0)
    asym = small_gamma_asymptotic(1.0, 1.0, g_small, 1.0)
    rel = abs(k_dim - asym) / (k_dim - 1.0)
    checks.append((rel <= 0.05, f"small-gamma rel err {rel:.2e}<=5e-2"))
    return _result("2-ou-closed-form", checks, t0)


# --------------------------------------------------------------------------
# 3. ergodicity of the single-realization kappa estimate
# --------------------------------------------------------------------------

def criterion_3_ergodicity() -> CriterionResult:
    t0 = time.time()
    u = linear_profile()
    kappa = lambda_multiplicative(u, 1.0, 1.0).kappa_eff
    grid = time_grid(200.0, 0.005)
    n_pass = 0
    ests = []
    for i in range(100):
        path = sample_ou(OUParams(1.0), grid, seed=2024, realization=i)
        rec = solve_aris(u, 1.0, path, n_max=9)
        est = rec.kappa_estimate[-1]
        ests.append(est)
        if abs(est / kappa - 1.0) <= 0.05:
            n_pass += 1
    mean = float(np.mean(ests))
    # at Pe = 1 kappa - 1 is only 0.0038, so the 5% band above also admits
    # pure diffusion; the enhancement ratio reads 0 for it (84 SE at seed
    # 2024, where it measured 1.0010 +- 0.0119) and 2 for a factor-2 error
    ratio = (np.array(ests) - 1.0) / (kappa - 1.0)
    r_mean, r_se = float(np.mean(ratio)), float(np.std(ratio, ddof=1) / math.sqrt(ratio.size))
    checks = [(n_pass >= 95,
               f"{n_pass}/100 single realizations within 5% of {kappa:.5f} "
               f"(ensemble mean {mean:.5f})"),
              (abs(r_mean - 1.0) <= 5.0 * r_se,
               f"enhancement ratio {r_mean:.4f} +- {r_se:.4f} within 5 SE of 1")]
    return _result("3-ergodicity-gate", checks, t0)


# --------------------------------------------------------------------------
# 4. OU time-integral identity
# --------------------------------------------------------------------------

def criterion_4_ou_integral_identity() -> CriterionResult:
    t0 = time.time()
    gamma = math.pi**2
    lam = cosine_eigenvalue(1)
    grid = time_grid(200.0, 0.005)
    horizons = (50.0, 100.0, 200.0)
    idx = [int(round(t / 0.005)) for t in horizons]
    stats = {t: [] for t in horizons}
    rhs = 0.25
    for i in range(50):
        path = sample_ou(OUParams(gamma), grid, seed=1000, realization=i)
        j = exp_weighted_integral(path, lam)
        for t, k in zip(horizons, idx):
            stats[t].append(j[k] / t)
    checks = []
    means = {t: float(np.mean(v)) for t, v in stats.items()}
    ses = {t: float(np.std(v) / math.sqrt(len(v))) for t, v in stats.items()}
    err200 = abs(means[200.0] - rhs)
    checks.append((err200 <= 0.05 * rhs,
                   f"t=200 mean {means[200.0]:.5f} vs 1/4 (err {err200:.2e}<=1.25e-2)"))
    # O(1/t) consistency: the exact relaxation bias is (gamma/2)/((gamma+lam)^2 t);
    # errors at every horizon must sit inside that bias envelope plus noise
    for t in horizons:
        bias = 0.5 * gamma / ((gamma + lam) ** 2 * t)
        bound = bias + 3.0 * ses[t] + 1e-3 * rhs
        err = abs(means[t] - rhs)
        checks.append((err <= bound, f"t={t:.0f}: err {err:.2e} within O(1/t)+3SE bound {bound:.2e}"))
    return _result("4-ou-integral-identity", checks, t0)


# --------------------------------------------------------------------------
# 5. damping estimator
# --------------------------------------------------------------------------

def criterion_5_gamma_estimator() -> CriterionResult:
    t0 = time.time()
    grid = time_grid(500.0, 0.005)
    ghats = []
    for i in range(20):
        path = sample_ou(OUParams(5.0), grid, seed=77, realization=i)
        ghats.append(estimate_gamma(path, 1))
    mean = float(np.mean(ghats))
    checks = [(abs(mean - 5.0) <= 0.5,
               f"mean gamma-hat {mean:.4f} within 10% of 5")]
    return _result("5-gamma-estimator", checks, t0)


# --------------------------------------------------------------------------
# 6. invariant measure for deterministic data (wind-model ensemble + backward MC)
# --------------------------------------------------------------------------

def criterion_6_invariant_measure() -> CriterionResult:
    t0 = time.time()
    gamma, pe, s_init, t_end = 1.0, 1.0, 0.5, 1.0
    u = GridFunction.from_callable(lambda y: y + 0.5, 512)
    eig = lambda_multiplicative(u, gamma, pe)
    ubar = u.mean()
    init = InitialData.gaussian(s_init)
    rescale = math.sqrt(2.0 * math.pi * s_init + 4.0 * math.pi * eig.kappa_eff * t_end)

    grid = time_grid(t_end, 1e-3)
    vals = np.empty(10_000)
    for i in range(10_000):
        path = sample_ou(OUParams(gamma), grid, seed=606, realization=i)
        vals[i] = float(wind_model_solution(0.0, t_end, path, eig, ubar, init=init)) * rescale
    est = ensemble_pdf(vals, bins=100)
    v_t = float(integral_variance(gamma, t_end))
    beta2 = beta_finite_time(BetaSpec(pe, ubar, eig.kappa_eff, t=t_end, s=s_init, v_t=v_t))
    beta1 = eig.beta
    ks2 = est.ks_distance(lambda z: cdf_deterministic(z, beta2))
    ks1 = est.ks_distance(lambda z: cdf_deterministic(z, beta1))
    checks = [
        (ks2 < 0.03, f"KS(finite-time beta={beta2:.4f}) = {ks2:.4f} < 0.03"),
        (ks2 < ks1, f"finite-time beta fits better: {ks2:.4f} < {ks1:.4f} (leading beta)"),
    ]

    # backward MC spot check on one realization shared with the wind model
    path = sample_ou(OUParams(gamma), grid, seed=2027)
    cfg = SimConfig(dt=1e-3, n_particles=100_000, seed=5, pe=pe)
    drift = pe * ubar * path.integral[-1]
    flow = FlowSpec.multiplicative(u)
    for dx in (-0.5, 0.0, 0.5):
        xq = drift + dx
        wind = float(wind_model_solution(xq, t_end, path, eig, ubar, init=init))
        bk, se = evaluate_point_backward(flow, gamma, path, xq, 0.5, t_end, init, cfg)
        rel = abs(bk / wind - 1.0)
        checks.append((rel <= 0.03,
                       f"x={xq:+.2f}: backward {bk:.5f} vs wind {wind:.5f} rel {rel:.4f}<=0.03"))
    return _result("6-invariant-measure-deterministic", checks, t0)


# --------------------------------------------------------------------------
# 7. random-wave measure
# --------------------------------------------------------------------------

def criterion_7_random_wave() -> CriterionResult:
    from scipy.integrate import quad

    t0 = time.time()
    samples = simulate_random_wave(a=0.5, pe=1.0, ubar=1.0, n=1_000_000, seed=99)
    est = ensemble_pdf(samples, bins=200)
    var, kurt = est.variance(), est.kurtosis()
    ks = est.ks_distance(cdf_random_wave)
    m2 = 2.0 * quad(lambda z: z * z * pdf_random_wave(z), 0.0, 12.0, limit=300)[0]
    m4 = 2.0 * quad(lambda z: z**4 * pdf_random_wave(z), 0.0, 12.0, limit=300)[0]
    checks = [
        (abs(var - 0.5) <= 0.01, f"variance {var:.5f} within 2% of 1/2"),
        (abs(kurt - 4.5) <= 0.225, f"kurtosis {kurt:.4f} within 5% of 9/2"),
        (ks < 0.02, f"KS {ks:.5f} < 0.02"),
        (abs(m2 - 0.5) <= 1e-6, f"quadrature <T^2> err {abs(m2 - 0.5):.2e}<=1e-6"),
        (abs(m4 - 1.125) <= 1e-6, f"quadrature <T^4> err {abs(m4 - 1.125):.2e}<=1e-6"),
    ]
    return _result("7-random-wave-measure", checks, t0)


# --------------------------------------------------------------------------
# 8. moment machinery
# --------------------------------------------------------------------------

def criterion_8_moment_machinery() -> CriterionResult:
    t0 = time.time()
    checks = []
    worst = 0.0
    for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
        for n in range(1, 7):
            worst = max(worst, abs(moment_function(n, beta) - pdf_moment_quadrature(n, beta)))
    checks.append((worst <= 1e-6, f"mu(N) vs quadrature moments, worst {worst:.2e}<=1e-6"))
    z_grid = np.linspace(0.02, 0.98, 50)
    worst_rec = 0.0
    for beta in (0.5, 1.0, 2.0):
        rec = reconstruct_pdf_from_moments(beta, z_grid)
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - pdf_deterministic(z_grid, beta)))))
    checks.append((worst_rec <= 1e-4, f"Laplace reconstruction, worst {worst_rec:.2e}<=1e-4"))
    worst_rt = 0.0
    for l2, l11 in ((3.0, 1.0), (2.6, 0.0), (5.0, 2.2)):
        eig = EigenData(l2, l11, 1.0)
        m1 = nth_moment_prediction(1, 1.0, eig, 10.0)
        m2 = nth_moment_prediction(2, 1.0, eig, 10.0)
        inv = lambda_from_moments(m1, m2, 1.0, 10.0)
        worst_rt = max(worst_rt, abs(inv.lambda2 - l2), abs(inv.lambda11 - l11))
    checks.append((worst_rt <= 1e-10, f"moment round-trip, worst {worst_rt:.2e}<=1e-10"))
    return _result("8-moment-machinery", checks, t0)


# --------------------------------------------------------------------------
# 9. steady Taylor limit
# --------------------------------------------------------------------------

def criterion_9_steady_taylor() -> CriterionResult:
    t0 = time.time()
    v = GridFunction.from_callable(lambda y: y - 0.5, 512)
    target = 1.0 + 1.0 / 30.0
    err = abs(taylor_steady(v, 2.0) - target)
    checks = [(err <= 1e-12, f"closed form err {err:.2e}<=1e-12")]
    cfg = SimConfig(dt=0.01, n_particles=40_000, seed=9, pe=2.0)
    res = simulate_forward(FlowSpec.steady(v), 1.0, InitialData.delta_line(), 50.0, cfg)
    rel = abs(res.kappa_estimate[-1] / target - 1.0)
    checks.append((rel <= 0.05,
                   f"forward MC kappa {res.kappa_estimate[-1]:.5f} within 5% of {target:.5f}"))
    return _result("9-steady-taylor", checks, t0)


# --------------------------------------------------------------------------
# 10. kernel correctness
# --------------------------------------------------------------------------

def _residual_order(bc: str, lam: float) -> float:
    # coarsest grid must already resolve the 1/sqrt(lam) boundary layer,
    # or the refinement sequence is pre-asymptotic
    sizes = (64, 128, 256, 512) if lam <= 100.0 else (256, 512, 1024, 2048)
    res = []
    for n in sizes:
        a = GridFunction.from_callable(lambda y: np.cos(2 * np.pi * y) + np.sin(2 * np.pi * y) * y, n)
        b = helmholtz_inverse(a, lam, bc)
        h = b.h
        interior = (-(b.values[:-2] - 2 * b.values[1:-1] + b.values[2:]) / h**2
                    + lam * b.values[1:-1] - a.values[1:-1])
        res.append(np.max(np.abs(interior)))
    slopes = [math.log(res[i] / res[i + 1]) / math.log(2.0) for i in range(len(sizes) - 1)]
    return min(slopes)


def criterion_10_kernels() -> CriterionResult:
    t0 = time.time()
    checks = []
    for bc in ("no-flux", "periodic"):
        for lam in (1.0, 400.0):
            order = _residual_order(bc, lam)
            checks.append((order >= 1.9, f"{bc} lam={lam}: residual order {order:.2f}>=1.9"))
    z, w = np.polynomial.hermite.hermgauss(64)
    vander = np.polynomial.hermite.hermvander(z, 12)
    gram = (vander.T * w) @ vander / math.sqrt(math.pi)
    norms = np.array([hermite_norm(n) for n in range(13)])
    worst = float(np.max(np.abs(gram - np.diag(norms)) / np.maximum.outer(norms, norms)))
    checks.append((worst <= 1e-10, f"Hermite orthogonality, worst normalized err {worst:.2e}<=1e-10"))

    nodes = np.linspace(0.0, 1.0, 513)
    zeros = GridFunction(nodes, np.zeros(nodes.size))
    corpus = [
        hermite_project(lambda y, xi: y * xi, 1.0, 8, nodes),
        hermite_project(lambda y, xi: (y + 0.5) * xi, 2.0, 8, nodes),
        HermiteSeries([zeros, zeros, GridFunction(nodes, np.ones(nodes.size)), zeros]),
        HermiteSeries([zeros, GridFunction(nodes, nodes**2 + 0.2),
                       GridFunction(nodes, (1.0 + nodes) / 4.0),
                       GridFunction(nodes, 0.1 * np.cos(np.pi * nodes)), zeros]),
    ]
    worst11 = 0.0
    for series in corpus:
        for g in (0.7, 3.0):
            r = lambda11_general(FlowSpec.general(series), g, 1.1)
            if r.value > 0:
                worst11 = max(worst11, abs(r.value - r.integral) / r.value)
    checks.append((worst11 <= 1e-6, f"lambda11 series-vs-integral, worst rel {worst11:.2e}<=1e-6"))

    eig = EigenData(3.0, 1.0, 1.0)
    rng = np.random.default_rng(12)
    worst_sm = 0.0
    for n in range(1, 7):
        x = rng.normal(size=n)
        mine = npoint_correlator(x, 1.3, eig, 7.0)
        lam1 = (eig.lambda2 - eig.lambda11) * np.eye(n) + eig.lambda11 * np.ones((n, n))
        dense = (1.3**n * math.exp(-0.5 * float(x @ np.linalg.solve(lam1, x)) / 7.0)
                 / ((2 * math.pi * 7.0) ** (n / 2) * math.sqrt(np.linalg.det(lam1))))
        worst_sm = max(worst_sm, abs(mine / dense - 1.0))
    checks.append((worst_sm <= 1e-10, f"Sherman-Morrison vs dense, worst rel {worst_sm:.2e}<=1e-10"))
    return _result("10-kernel-correctness", checks, t0)


CRITERIA: dict[str, Callable[[], CriterionResult]] = {
    "1": criterion_1_white_noise,
    "2": criterion_2_ou_closed_form,
    "3": criterion_3_ergodicity,
    "4": criterion_4_ou_integral_identity,
    "5": criterion_5_gamma_estimator,
    "6": criterion_6_invariant_measure,
    "7": criterion_7_random_wave,
    "8": criterion_8_moment_machinery,
    "9": criterion_9_steady_taylor,
    "10": criterion_10_kernels,
}


def run_all(names: Optional[list[str]] = None) -> list[CriterionResult]:
    """Run the requested criteria (default: all), printing one line each to stdout."""
    results = []
    for key, fn in CRITERIA.items():
        if names and key not in names:
            continue
        result = fn()
        print(result.line(), flush=True)
        results.append(result)
    return results
