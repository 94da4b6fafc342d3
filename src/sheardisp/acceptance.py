"""Acceptance gates: formula reproduction plus property-based MC checks.

Every criterion below runs at desk scale with frozen seeds and pinned
tolerances and returns its checks as `Check(label, value, bound)`
records.  A check passes when ``value <= bound`` (NaN fails); a lower
bound is written as a shortfall (``2 - order <= 0.1``), so each bound is
typed once and every check prints its value, bound and their ratio.
`run` times one criterion into a `CriterionResult` with one PASS/FAIL
line; `run_all` is what the CLI's ``validate`` subcommand executes and
the pytest acceptance module asserts the same results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ou_process import OUParams, OUPath, sample_ou, time_grid, integral_variance
from .spectral_core import (
    GridFunction, HermiteSeries, hermite_norm,
    helmholtz_inverse, hermite_project, cosine_eigenvalue,
)
from .eff_diffusivity import (
    FlowSpec, EigenData, lambda_multiplicative, lambda_white, taylor_steady,
    small_gamma_asymptotic, kappa_eff_dimensional_linear, lambda11_general,
    linear_profile,
)
from .aris_solver import solve_aris, estimate_gamma, ou_integral_identity
from .monte_carlo import (
    SimConfig, InitialData, simulate_forward, evaluate_point_backward,
    wind_model_solution, simulate_random_wave, ensemble_pdf,
)
from .invariant_measure import (
    nth_moment_prediction, npoint_correlator, lambda_from_moments,
    BetaSpec, beta_finite_time, pdf_deterministic, cdf_deterministic,
    moment_function, pdf_moment_quadrature, reconstruct_pdf_from_moments,
    pdf_random_wave, cdf_random_wave,
)


@dataclass(frozen=True)
class Check:
    """One gated number: passes when ``value <= bound``, so NaN fails."""

    label: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    @property
    def ratio(self) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(self.value) / self.bound)

    def __str__(self) -> str:
        return f"{self.label} {self.value:.4g} <= {self.bound:.4g} ({self.ratio:.2f})"


@dataclass(frozen=True)
class CriterionResult:
    """A criterion's checks and wall time; it passes when it has checks and all pass."""

    name: str
    checks: list[Check]
    runtime: float

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}  [{self.runtime:.1f}s]  " + "; ".join(map(str, self.checks))


# --------------------------------------------------------------------------
# 1. white-noise effective diffusivity
# --------------------------------------------------------------------------

def criterion_1_white_noise() -> list[Check]:
    u = linear_profile()
    return [Check(f"Pe={pe} |err|", abs(lambda_white(u, pe).kappa_eff - (1.0 + pe**2 / 24.0)), 1e-12)
            for pe in (1.0, 2.0, 3.5)]


# --------------------------------------------------------------------------
# 2. OU closed form, white-noise gap, small-damping asymptotics
# --------------------------------------------------------------------------

def criterion_2_ou_closed_form() -> list[Check]:
    u = GridFunction.from_callable(lambda y: y, 4096)
    checks = []
    for g in (0.1, 1.0, 10.0, 100.0):
        target = kappa_eff_dimensional_linear(1.0, 1.0, g, 1.0)
        err = abs(lambda_multiplicative(u, g, 1.0).kappa_eff - target)
        checks.append(Check(f"gamma={g} |err|", err, 1e-8))
    k_white = lambda_white(u, 1.0).kappa_eff
    gaps = [abs(lambda_multiplicative(u, g, 1.0).kappa_eff - k_white)
            for g in (1e2, 1e3, 1e4)]
    checks.append(Check("white-noise gap at gamma=1e3 vs 1e2", gaps[1], gaps[0]))
    checks.append(Check("white-noise gap at gamma=1e4 vs 1e3", gaps[2], gaps[1]))
    g_small = 1e-3
    k_dim = kappa_eff_dimensional_linear(1.0, 1.0, g_small, 1.0)
    asym = small_gamma_asymptotic(1.0, 1.0, g_small, 1.0)
    checks.append(Check("small-gamma rel err", abs(k_dim - asym) / (k_dim - 1.0), 0.05))
    return checks


# --------------------------------------------------------------------------
# 3. ergodicity of the single-realization kappa estimate
# --------------------------------------------------------------------------

def criterion_3_ergodicity() -> list[Check]:
    u = linear_profile()
    kappa = lambda_multiplicative(u, 1.0, 1.0).kappa_eff
    grid = time_grid(200.0, 0.005)
    ests = np.array([
        solve_aris(u, 1.0, sample_ou(OUParams(1.0), grid, seed=2024, realization=i),
                   n_max=9).kappa_estimate[-1]
        for i in range(100)])
    # at Pe = 1 kappa - 1 is only 0.0038, so the 5% band below also admits
    # pure diffusion; the enhancement ratio reads 0 for it (84 SE at seed
    # 2024, where it measured 1.0010 +- 0.0119) and 2 for a factor-2 error
    ratio = (ests - 1.0) / (kappa - 1.0)
    r_se = float(np.std(ratio, ddof=1) / math.sqrt(ratio.size))
    return [Check("realizations outside 5% of kappa_eff",
                  int(np.count_nonzero(~(np.abs(ests / kappa - 1.0) <= 0.05))), 5),
            Check("|enhancement ratio - 1|", abs(float(np.mean(ratio)) - 1.0), 5.0 * r_se)]


# --------------------------------------------------------------------------
# 4. OU time-integral identity
# --------------------------------------------------------------------------

def criterion_4_ou_integral_identity() -> list[Check]:
    gamma = math.pi**2
    lam = cosine_eigenvalue(1)
    grid = time_grid(200.0, 0.005)
    horizons = (50.0, 100.0, 200.0)
    idx = [int(round(t / 0.005)) for t in horizons]
    stats = {t: [] for t in horizons}
    for i in range(50):
        path = sample_ou(OUParams(gamma), grid, seed=1000, realization=i)
        # the statistic is causal: each horizon reads the prefix of one path
        for t, k in zip(horizons, idx):
            lhs, rhs = ou_integral_identity(1, gamma, OUPath(path.times[:k + 1],
                                                             path.values[:k + 1]))
            stats[t].append(lhs)
    means = {t: float(np.mean(v)) for t, v in stats.items()}
    ses = {t: float(np.std(v) / math.sqrt(len(v))) for t, v in stats.items()}
    checks = [Check("t=200 |mean - 1/4|", abs(means[200.0] - rhs), 0.05 * rhs)]
    # O(1/t) consistency: the exact relaxation bias is (gamma/2)/((gamma+lam)^2 t);
    # errors at every horizon must sit inside that bias envelope plus noise
    for t in horizons:
        bias = 0.5 * gamma / ((gamma + lam) ** 2 * t)
        checks.append(Check(f"t={t:.0f} |mean - 1/4| vs O(1/t)+3SE", abs(means[t] - rhs),
                            bias + 3.0 * ses[t] + 1e-3 * rhs))
    return checks


# --------------------------------------------------------------------------
# 5. damping estimator
# --------------------------------------------------------------------------

def criterion_5_gamma_estimator() -> list[Check]:
    grid = time_grid(500.0, 0.005)
    ghats = [estimate_gamma(sample_ou(OUParams(5.0), grid, seed=77, realization=i), 1)
             for i in range(20)]
    return [Check("|mean gamma-hat - 5|", abs(float(np.mean(ghats)) - 5.0), 0.5)]


# --------------------------------------------------------------------------
# 6. invariant measure for deterministic data (wind-model ensemble + backward MC)
# --------------------------------------------------------------------------

def criterion_6_invariant_measure() -> list[Check]:
    gamma, pe, s_init, t_end = 1.0, 1.0, 0.5, 1.0
    u = GridFunction.from_callable(lambda y: y + 0.5, 512)
    eig = lambda_multiplicative(u, gamma, pe)
    ubar = u.mean()
    init = InitialData.gaussian(s_init)
    rescale = 1.0 / init.value(0.0, eig.kappa_eff * t_end)

    grid = time_grid(t_end, 1e-3)
    vals = np.empty(10_000)
    for i in range(10_000):
        path = sample_ou(OUParams(gamma), grid, seed=606, realization=i)
        vals[i] = float(wind_model_solution(0.0, t_end, path, eig, ubar, init=init)) * rescale
    est = ensemble_pdf(vals, bins=100)
    v_t = float(integral_variance(gamma, t_end))
    beta2 = beta_finite_time(BetaSpec(pe, ubar, eig.kappa_eff, t=t_end, s=s_init, v_t=v_t))
    ks2 = est.ks_distance(lambda z: cdf_deterministic(z, beta2))
    ks1 = est.ks_distance(lambda z: cdf_deterministic(z, eig.beta))
    checks = [Check(f"KS(finite-time beta={beta2:.4f})", ks2, 0.03),
              Check("KS(finite-time beta) vs KS(leading beta)", ks2, ks1)]

    # backward MC spot check on one realization shared with the wind model
    path = sample_ou(OUParams(gamma), grid, seed=2027)
    cfg = SimConfig(dt=1e-3, n_particles=100_000, seed=5, pe=pe)
    drift = pe * ubar * path.integral[-1]
    flow = FlowSpec.multiplicative(u)
    # one walk serves the three points
    xqs = drift + np.array([-0.5, 0.0, 0.5])
    bks, _ = evaluate_point_backward(flow, gamma, path, xqs, 0.5, t_end, init, cfg)
    for xq, bk in zip(xqs, bks):
        wind = float(wind_model_solution(xq, t_end, path, eig, ubar, init=init))
        checks.append(Check(f"x={xq:+.2f} |backward/wind - 1|", abs(bk / wind - 1.0), 0.03))
    return checks


# --------------------------------------------------------------------------
# 7. random-wave measure
# --------------------------------------------------------------------------

def criterion_7_random_wave() -> list[Check]:
    from scipy.integrate import quad

    samples = simulate_random_wave(a=0.5, pe=1.0, ubar=1.0, n=1_000_000, seed=99)
    est = ensemble_pdf(samples, bins=200)
    m2 = 2.0 * quad(lambda z: z * z * pdf_random_wave(z), 0.0, 12.0, limit=300)[0]
    m4 = 2.0 * quad(lambda z: z**4 * pdf_random_wave(z), 0.0, 12.0, limit=300)[0]
    return [Check("|variance - 1/2|", abs(est.variance() - 0.5), 0.01),
            Check("|kurtosis - 9/2|", abs(est.kurtosis() - 4.5), 0.225),
            Check("KS", est.ks_distance(cdf_random_wave), 0.02),
            Check("quadrature |<T^2> - 1/2|", abs(m2 - 0.5), 1e-6),
            Check("quadrature |<T^4> - 9/8|", abs(m4 - 1.125), 1e-6)]


# --------------------------------------------------------------------------
# 8. moment machinery
# --------------------------------------------------------------------------

def criterion_8_moment_machinery() -> list[Check]:
    worst = max(abs(moment_function(n, beta) - pdf_moment_quadrature(n, beta))
                for beta in (0.25, 0.5, 1.0, 2.0, 4.0) for n in range(1, 7))
    z_grid = np.linspace(0.02, 0.98, 50)
    worst_rec = max(float(np.max(np.abs(reconstruct_pdf_from_moments(beta, z_grid)
                                        - pdf_deterministic(z_grid, beta))))
                    for beta in (0.5, 1.0, 2.0))
    worst_rt = 0.0
    for l2, l11 in ((3.0, 1.0), (2.6, 0.0), (5.0, 2.2)):
        eig = EigenData(l2, l11, 1.0)
        m1 = nth_moment_prediction(1, 1.0, eig, 10.0)
        m2 = nth_moment_prediction(2, 1.0, eig, 10.0)
        inv = lambda_from_moments(m1, m2, 1.0, 10.0)
        worst_rt = max(worst_rt, abs(inv.lambda2 - l2), abs(inv.lambda11 - l11))
    return [Check("mu(N) vs quadrature moments, worst", worst, 1e-6),
            Check("Laplace reconstruction, worst", worst_rec, 1e-4),
            Check("moment round-trip, worst", worst_rt, 1e-10)]


# --------------------------------------------------------------------------
# 9. steady Taylor limit
# --------------------------------------------------------------------------

def criterion_9_steady_taylor() -> list[Check]:
    v = GridFunction.from_callable(lambda y: y - 0.5, 512)
    target = 1.0 + 1.0 / 30.0
    cfg = SimConfig(dt=0.01, n_particles=40_000, seed=9, pe=2.0)
    res = simulate_forward(FlowSpec.steady(v), 1.0, InitialData.delta_line(), 50.0, cfg)
    kappa = res.kappa_estimate[-1]
    # the 5% band also admits pure diffusion (kappa = 1 is 3.2% off); the
    # enhancement (kappa - 1) * 30 reads 1 here and 0 without the flow
    return [Check("closed form |err|", abs(taylor_steady(v, 2.0) - target), 1e-12),
            Check("forward MC |kappa/target - 1|", abs(kappa / target - 1.0), 0.05),
            Check("|(kappa-1)*30 - 1|", abs((kappa - 1.0) * 30.0 - 1.0), 5 * 30 * res.kappa_se)]


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


def criterion_10_kernels() -> list[Check]:
    checks = [Check(f"{bc} lam={lam} 2 - residual order", 2.0 - _residual_order(bc, lam), 0.1)
              for bc in ("no-flux", "periodic") for lam in (1.0, 400.0)]
    z, w = np.polynomial.hermite.hermgauss(64)
    vander = np.polynomial.hermite.hermvander(z, 12)
    gram = (vander.T * w) @ vander / math.sqrt(math.pi)
    norms = np.array([hermite_norm(n) for n in range(13)])
    worst = float(np.max(np.abs(gram - np.diag(norms)) / np.maximum.outer(norms, norms)))
    checks.append(Check("Hermite orthogonality, worst normalized err", worst, 1e-10))

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
    checks.append(Check("lambda11 series-vs-integral, worst rel", worst11, 1e-6))

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
    checks.append(Check("Sherman-Morrison vs dense, worst rel", worst_sm, 1e-10))
    return checks


CRITERIA: dict[str, tuple[str, Callable[[], list[Check]]]] = {
    "1": ("1-white-noise-kappa", criterion_1_white_noise),
    "2": ("2-ou-closed-form", criterion_2_ou_closed_form),
    "3": ("3-ergodicity-gate", criterion_3_ergodicity),
    "4": ("4-ou-integral-identity", criterion_4_ou_integral_identity),
    "5": ("5-gamma-estimator", criterion_5_gamma_estimator),
    "6": ("6-invariant-measure-deterministic", criterion_6_invariant_measure),
    "7": ("7-random-wave-measure", criterion_7_random_wave),
    "8": ("8-moment-machinery", criterion_8_moment_machinery),
    "9": ("9-steady-taylor", criterion_9_steady_taylor),
    "10": ("10-kernel-correctness", criterion_10_kernels),
}


def run(key: str) -> CriterionResult:
    """Run one criterion, timed with ``perf_counter``."""
    name, fn = CRITERIA[key]
    t0 = time.perf_counter()
    checks = fn()
    return CriterionResult(name, checks, time.perf_counter() - t0)


def run_all(names: list[str] | None = None) -> list[CriterionResult]:
    """Run the requested criteria (default: all), printing one line each to stdout."""
    results = []
    for key in CRITERIA:
        if names and key not in names:
            continue
        results.append(run(key))
        print(results[-1].line(), flush=True)
    return results
