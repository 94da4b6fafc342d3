"""The four benchmark workloads and their correctness checks.

Every task draws its inputs from the workload seed alone (``task_seed``),
and every check compares against an independent reference with a stated
bound.  A check reports value, bound and value/bound; it passes when the
ratio is at most 1.  Statistical bounds sit at five standard errors, so
a correct program fails one by chance less than once in a million draws.

Library calls go through module attributes (``mc.simulate_forward``)
so that the wrappers ``tracing.install`` puts on the modules see them.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pace


@dataclass
class Check:
    name: str
    value: float
    bound: float

    def __post_init__(self):
        self.value, self.bound = float(self.value), float(self.bound)

    @property
    def ratio(self) -> float:
        return self.value / self.bound if self.bound > 0 else math.inf

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and self.ratio <= 1.0

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "ratio": self.ratio, "passed": self.passed}


@dataclass
class Task:
    kind: str
    seconds: float = 0.0
    scaled: float = 0.0      # seconds at reference pace (pace.py)
    work: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    error: str | None = None
    payload: object = field(default=None, repr=False)   # outputs the checks read

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(c.passed for c in self.checks)


def task_seed(seed: int, round_index: int, slot: int) -> int:
    """Independent 32-bit seed for one task, mixed from the workload seed."""
    return int(np.random.SeedSequence([seed, round_index, slot]).generate_state(1)[0])


def _quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _couette_coefficients(n_max: int = 4001) -> tuple[np.ndarray, np.ndarray]:
    """Cosine coefficients <v, sqrt(2) cos(n pi y)> of v = y - 1/2 (and of
    v = y, which differs only in the mean), with eigenvalues n^2 pi^2."""
    n = np.arange(1, n_max + 1, dtype=float)
    c = math.sqrt(2.0) * ((-1.0) ** n - 1.0) / (n * n * math.pi**2)
    return c, (n * math.pi) ** 2


def _sample_stats(x: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, variance, and their standard errors from the fourth moment."""
    mean = float(np.mean(x))
    c = x - mean
    var = float(np.mean(c * c))
    se_var = math.sqrt(max(float(np.mean(c**4)) - var * var, 0.0) / x.size)
    return mean, var, math.sqrt(var / x.size), se_var


class LibraryWorkload:
    """Common set-up for the workloads that call the library in-process."""

    name = ""
    round_plan: tuple = ()
    trace_rounds = 1

    def __init__(self, root: Path):
        self.root = root

    def import_library(self):
        from sheardisp import (aris_solver, eff_diffusivity, invariant_measure,
                               monte_carlo, ou_process, spectral_core)
        self.ou, self.sc, self.ed = ou_process, spectral_core, eff_diffusivity
        self.ar, self.mc, self.im = aris_solver, monte_carlo, invariant_measure
        self.grid = np.linspace(0.0, 1.0, 513)
        self.zeros = self.sc.GridFunction(self.grid, np.zeros(self.grid.size))

    def setup(self) -> None:
        """Imports, fixtures, warm caches and one warm-up task."""
        self.import_library()
        self.fixtures()
        self.warm_up()

    def fixtures(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for slot, kind in enumerate(dict.fromkeys(self.round_plan)):
            self.run_task(kind, task_seed(0xC0FFEE, 0, slot), warm=True)

    def run_task(self, kind: str, seed: int, warm: bool = False) -> Task:
        raise NotImplementedError

    def check(self, task: Task) -> list:
        """Per-task checks; run outside the task timer and untraced."""
        return getattr(self, f"_check_{task.kind}")(task.payload)

    def run_checks(self, tasks: list) -> list:
        """Checks over the whole run, counted as one extra attempt each."""
        return []

    def trace_diagnostics(self) -> dict:
        """1 - enhancement(taylor_steady) / enhancement(series n = 0 route),
        on v = y - 1/2 at Pe 20."""
        v = self.sc.GridFunction(self.grid, self.grid - 0.5)
        series = self.sc.HermiteSeries([v, self.zeros])
        exact = self.ed.kappa_eff_general(self.ed.FlowSpec.general(series), 1.0, 20.0).kappa_eff - 1.0
        return {"eff_diffusivity.taylor_steady.rel_gap":
                1.0 - (self.ed.taylor_steady(v, 20.0) - 1.0) / exact}


# ---------------------------------------------------------------------------
# particles
# ---------------------------------------------------------------------------

class Particles(LibraryWorkload):
    """Forward and backward particle engines on four flow kinds."""

    name = "particles"
    pace = "arrays"       # 20k-particle numpy steps
    round_plan = ("forward_steady", "forward_ou", "backward", "forward_general")
    FORWARD = ("forward_steady", "forward_ou")
    DT = 0.01             # forward engines
    OU_PE = 10.0          # forward OU and forward general
    VAR_BUDGET = 0.005    # Euler scheme against continuous Aris variance, share of the shear part

    def fixtures(self) -> None:
        sc, ed = self.sc, self.ed
        g = self.grid
        self.v = sc.GridFunction(g, g - 0.5)
        self.u = sc.GridFunction(g, g.copy())
        self.u_back = sc.GridFunction(g, g + 0.5)
        self.steady = ed.FlowSpec.steady(self.v)
        self.mult = ed.FlowSpec.multiplicative(self.u)
        self.back_flow = ed.FlowSpec.multiplicative(self.u_back)
        gamma = 1.0
        self.general = ed.FlowSpec.general(sc.hermite_project(
            lambda y, xi: y * xi + 0.3 * np.cos(np.pi * y) * (xi**2 - gamma / 2.0),
            gamma, 4, g))
        # steady reference: the series n = 0 route, 1 + Pe^2/120 at Pe = 20
        series = sc.HermiteSeries([self.v, self.zeros])
        self.steady_enh = ed.kappa_eff_general(ed.FlowSpec.general(series), 1.0, 20.0).kappa_eff - 1.0
        # exact finite-time, finite-dt factor of the Euler y-walk: the folded
        # Gaussian step decays cos(n pi y) by exactly rho_n = exp(-lambda_n dt)
        c, lam = _couette_coefficients()
        dt, n = self.DT, 1000
        rho = np.exp(-lam * dt)
        pair_sum = n * (1 + rho) / (1 - rho) - 2 * rho * (1 - rho**n) / (1 - rho) ** 2
        self.steady_factor = float(dt * dt / (2 * n * dt) * np.sum(c * c * pair_sum) * 120.0)
        self.c, self.lam = c[:400], lam[:400]   # forward OU check; tail below 1e-9
        self.back_eig = ed.lambda_multiplicative(self.u_back, 1.0, 1.0)

    def run_task(self, kind: str, seed: int, warm: bool = False) -> Task:
        ou, mc = self.ou, self.mc
        task = Task(kind)
        t0 = time.perf_counter()
        if kind == "forward_steady":
            n = 200 if warm else 20_000
            cfg = mc.SimConfig(dt=self.DT, n_particles=n, seed=seed, pe=20.0)
            res = mc.simulate_forward(self.steady, 1.0, mc.InitialData.delta_line(),
                                      0.1 if warm else 10.0, cfg, keep_positions=True)
            task.work["particle_steps"] = n * (10 if warm else 1000)
            payload = res
        elif kind == "forward_ou":
            n, t_end = (200, 0.1) if warm else (20_000, 10.0)
            path = ou.sample_ou(ou.OUParams(1.0), ou.time_grid(t_end, self.DT), seed=seed)
            cfg = mc.SimConfig(dt=self.DT, n_particles=n, seed=seed, pe=self.OU_PE)
            res = mc.simulate_forward(self.mult, 1.0, mc.InitialData.delta_line(), t_end,
                                      cfg, path, keep_positions=True)
            task.work["particle_steps"] = n * int(round(t_end / self.DT))
            payload = (path, res)
        elif kind == "backward":
            n, t_end = (200, 0.01) if warm else (10_000, 1.0)
            path = ou.sample_ou(ou.OUParams(1.0), ou.time_grid(t_end, 1e-3), seed=seed)
            init = mc.InitialData.gaussian(0.5)
            cfg = mc.SimConfig(dt=1e-3, n_particles=n, seed=seed, pe=1.0)
            drift = self.u_back.mean() * path.integral[-1]
            points = []
            for dx in (-0.5, 0.0, 0.5):
                est, se = mc.evaluate_point_backward(self.back_flow, 1.0, path, drift + dx,
                                                     0.5, t_end, init, cfg)
                points.append((drift + dx, est, se))
            task.work["particle_steps"] = 3 * n * int(round(t_end / 1e-3))
            payload = (path, init, points)
        elif kind == "forward_general":
            n, steps = (20, 5) if warm else (1000, 50)
            t_end = steps * self.DT
            path = ou.sample_ou(ou.OUParams(1.0), ou.time_grid(t_end, self.DT), seed=seed)
            cfg = mc.SimConfig(dt=self.DT, n_particles=n, seed=seed, pe=self.OU_PE)
            res = mc.simulate_forward(self.general, 1.0, mc.InitialData.delta_line(),
                                      t_end, cfg, path, keep_positions=True)
            task.work["particle_steps"] = n * steps
            payload = (path, res)
        else:
            raise ValueError(kind)
        task.seconds = time.perf_counter() - t0
        task.payload = payload
        return task

    def _check_forward_steady(self, res) -> list:
        t_end = res.times[-1]
        _, var, _, se_var = _sample_stats(res.final_x)
        enh = var / (2.0 * t_end) - 1.0
        expected = self.steady_enh * self.steady_factor
        return [Check("forward_steady.enhancement_vs_series", abs(enh - expected),
                      5.0 * se_var / (2.0 * t_end))]

    def _check_forward_ou(self, payload) -> list:
        path, res = payload
        rec = self.ar.solve_aris(self.u, self.OU_PE, path, n_max=9)
        mean, var, se_mean, se_var = _sample_stats(res.final_x)
        var_aris = float(rec.centered_second()[-1])
        # exact conditional expectation of the Euler scheme given the path:
        # 2T + Pe^2 dt^2 sum_n c_n^2 sum_{j,k} xi_j xi_k rho_n^|j-k|
        xi = 0.5 * (path.values[:-1] + path.values[1:])
        dt = self.DT
        acc = 0.0
        for c, lam in zip(self.c, self.lam):
            q = _lagged_sum(xi, math.exp(-lam * dt))
            acc += c * c * (float(xi @ xi) + 2.0 * float(xi[1:] @ q))
        shear = self.OU_PE**2 * dt * dt * acc
        var_scheme = 2.0 * res.times[-1] + shear
        return [
            Check("forward_ou.t1bar_vs_aris", abs(mean - float(rec.t1bar[-1])), 5.0 * se_mean),
            Check("forward_ou.var_x_vs_scheme", abs(var - var_scheme), 5.0 * se_var),
            # discretisation budget at dt = 0.01 (n_max 9 against 400 modes):
            # the gap measured 0.08-0.09 % of the shear part over 24 paths
            Check("forward_ou.scheme_vs_aris_var", abs(var_scheme - var_aris), self.VAR_BUDGET * shear),
        ]

    def _check_backward(self, payload) -> list:
        path, init, points = payload
        checks = []
        ubar = self.u_back.mean()
        for x, est, se in points:
            wind = float(self.mc.wind_model_solution(x, path.t_end, path, self.back_eig, ubar, init=init))
            # + 0.02 for the wind model being the long-time law; 10k-particle
            # points measured gaps of 0.002-0.006 at standard error 0.009
            checks.append(Check(f"backward.x{x - ubar * path.integral[-1]:+.1f}_vs_wind",
                                abs(est / wind - 1.0), 5.0 * se / wind + 0.02))
        return checks

    def _check_forward_general(self, payload) -> list:
        path, res = payload
        series = self.general.profile
        xi_mid = 0.5 * (path.values[:-1] + path.values[1:])
        # gamma = 1, so the Hermite variable is xi itself
        ref = self.OU_PE * self.DT * float(np.sum(series.shift + series.vbar(xi_mid)))
        mean, _, se_mean, _ = _sample_stats(res.final_x)
        return [Check("forward_general.mean_x_vs_vbar", abs(mean - ref), 5.0 * se_mean + 1e-9)]

    def report(self, tasks: list) -> dict:
        def rate(kinds):
            sel = [t for t in tasks if t.kind in kinds]
            return sum(t.work["particle_steps"] for t in sel) / sum(t.seconds for t in sel)
        return {"forward_steps_per_s": (rate(self.FORWARD), "1/s"),
                "backward_steps_per_s": (rate(("backward",)), "1/s"),
                "general_steps_per_s": (rate(("forward_general",)), "1/s")}


def _lagged_sum(xi: np.ndarray, rho: float) -> np.ndarray:
    """q_j = sum_{k<j} rho^(j-k) xi_k for j >= 1, by q_j = rho (q_{j-1} + xi_{j-1})."""
    from scipy.signal import lfilter
    return lfilter([rho], [1.0, -rho], xi[:-1])


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

class Paths(LibraryWorkload):
    """Long OU paths through the Aris solver, short paths through the wind model."""

    name = "paths"
    pace = "both"         # long-array solves and per-call short paths
    # each round holds both kinds, so round time sees OU cost per node
    # (long paths) and per call (short paths)
    round_plan = ("aris", "wind") * 2
    trace_rounds = 2
    WIND_PATHS = 1000
    # SD of one path's enhancement over the closed form at t = 400,
    # measured over 150 paths (mean 1.0007 +- 0.011)
    ARIS_SD = 0.13

    def fixtures(self) -> None:
        sc, ed, ou, im = self.sc, self.ed, self.ou, self.im
        self.u = sc.GridFunction(self.grid, self.grid.copy())
        self.aris_grid = ou.time_grid(400.0, 0.005)
        self.aris_enh = ed.lambda_multiplicative(self.u, 1.0, 10.0).kappa_eff - 1.0
        self.u_wind = sc.GridFunction(self.grid, self.grid + 0.5)
        self.wind_eig = ed.lambda_multiplicative(self.u_wind, 1.0, 1.0)
        self.wind_grid = ou.time_grid(1.0, 1e-3)
        self.wind_init = self.mc.InitialData.gaussian(0.5)
        self.rescale = math.sqrt(2.0 * math.pi * 0.5 + 4.0 * math.pi * self.wind_eig.kappa_eff)
        v_t = float(ou.integral_variance(1.0, 1.0))
        self.beta = im.beta_finite_time(im.BetaSpec(1.0, self.u_wind.mean(), self.wind_eig.kappa_eff,
                                                    t=1.0, s=0.5, v_t=v_t))

    def run_task(self, kind: str, seed: int, warm: bool = False) -> Task:
        ou, ar, mc, im = self.ou, self.ar, self.mc, self.im
        task = Task(kind)
        t0 = time.perf_counter()
        if kind == "aris":
            path = ou.sample_ou(ou.OUParams(1.0), self.aris_grid, seed=seed)
            rec = ar.solve_aris(self.u, 10.0, path, n_max=9)
            kappa = ar.kappa_from_realization(rec)
            task.work["paths"] = 1
        elif kind == "wind":
            ubar = self.u_wind.mean()
            vals = np.empty(self.WIND_PATHS)
            for i in range(self.WIND_PATHS):
                path = ou.sample_ou(ou.OUParams(1.0), self.wind_grid, seed=seed, realization=i)
                vals[i] = float(mc.wind_model_solution(0.0, 1.0, path, self.wind_eig, ubar,
                                                       init=self.wind_init)) * self.rescale
            est = mc.ensemble_pdf(vals, bins=100)
            ks = est.ks_distance(lambda z: im.cdf_deterministic(z, self.beta))
            task.work["paths"] = self.WIND_PATHS
        else:
            raise ValueError(kind)
        task.seconds = time.perf_counter() - t0
        if kind == "aris":
            task.work["ratio"] = (kappa - 1.0) / self.aris_enh
        else:
            task.work["samples"] = vals
            task.payload = ks
        return task

    def check(self, task: Task) -> list:
        if task.kind == "aris":
            # one path's ratio is right-skewed (1 path in 3544 read 1.58, 4.9 SD
            # above 1), so this check bounds |ln ratio| by ln 2: it catches a
            # factor-2 defect in one path, and the ensemble check the value
            return [Check("aris.enhancement_vs_closed_form", abs(math.log(task.work["ratio"])),
                          math.log(2.0))]
        return [Check("wind.ks_vs_finite_time_beta", task.payload,
                      2.5 / math.sqrt(task.work["samples"].size))]

    def run_checks(self, tasks: list) -> list:
        ratios = np.array([t.work["ratio"] for t in tasks if t.kind == "aris" and "ratio" in t.work])
        samples = [t.work["samples"] for t in tasks if t.kind == "wind" and "samples" in t.work]
        checks = []
        if ratios.size:
            # + 0.01 for finite-t bias, which the 150-path measurement bounds
            checks.append(Check("aris.ensemble_mean_enhancement", abs(float(np.mean(ratios)) - 1.0),
                                5.0 * self.ARIS_SD / math.sqrt(ratios.size) + 0.01))
        if samples:
            pooled = self.mc.ensemble_pdf(np.concatenate(samples))
            ks = pooled.ks_distance(lambda z: self.im.cdf_deterministic(z, self.beta))
            checks.append(Check("wind.pooled_ks", ks, 2.5 / math.sqrt(pooled.n)))
        return checks

    def report(self, tasks: list) -> dict:
        aris = [t.seconds for t in tasks if t.kind == "aris"]
        wind = [t for t in tasks if t.kind == "wind"]
        return {"aris_paths_per_s": (len(aris) / sum(aris), "1/s"),
                "aris_path_p50_ms": (1e3 * _quantile(aris, 50), "ms"),
                "aris_path_p90_ms": (1e3 * _quantile(aris, 90), "ms"),
                "wind_paths_per_s": (sum(t.work["paths"] for t in wind) / sum(t.seconds for t in wind), "1/s")}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

class ClosedForms(LibraryWorkload):
    """A sweep of random Hermite-series flows through every closed form."""

    name = "closed_forms"
    pace = "interpreter"  # Python loops over small arrays
    round_plan = ("flow",) * 10
    trace_rounds = 3
    N_MODES = 8
    EPS = np.finfo(float).eps

    def fixtures(self) -> None:
        self.z_talbot = np.linspace(0.02, 0.98, 50)
        self.cos_basis = np.array([np.cos(k * np.pi * self.grid) for k in range(4)])
        self.im.cdf_random_wave(0.0)          # builds the cached CDF table

    def random_flow(self, seed: int):
        """8 random modes plus a zero terminator; gamma log-uniform in
        [0.1, 100] so n*gamma crosses the scaled (s > 12) resolvent branch."""
        rng = np.random.default_rng(seed)
        gamma = 10.0 ** rng.uniform(-1.0, 2.0)
        pe = rng.uniform(1.0, 20.0)
        coeffs = []
        for n in range(self.N_MODES + 1):
            shape = rng.normal(size=4) / np.arange(1, 5) @ self.cos_basis + rng.normal() * self.grid
            # 1/sqrt(n! 2^n) keeps every lambda2 term the same order
            coeffs.append(self.sc.GridFunction(self.grid, shape / math.sqrt(self.sc.hermite_norm(n))))
        coeffs[0] = coeffs[0].centered()
        coeffs.append(self.zeros)
        return self.sc.HermiteSeries(coeffs), gamma, pe, rng.uniform(0.2, 1.0)

    def run_task(self, kind: str, seed: int, warm: bool = False) -> Task:
        ed, im = self.ed, self.im
        task = Task(kind)
        t0 = time.perf_counter()
        series, gamma, pe, z_lo = self.random_flow(seed)
        eig = ed.kappa_eff_general(ed.FlowSpec.general(series), gamma, pe)
        a0, a1 = series.coeffs[0], series.coeffs[1]
        mult = ed.lambda_multiplicative(a1, gamma, pe)
        ed.lambda_white(a1, pe)
        ed.taylor_steady(a0, pe)
        rec = im.reconstruct_pdf_from_moments(eig.beta, self.z_talbot)
        z_rw = np.linspace(z_lo, 6.0, 201)
        p_rw = im.pdf_random_wave(z_rw)
        task.seconds = time.perf_counter() - t0
        task.work["flows"] = 1
        task.payload = (series, gamma, pe, mult, eig, rec, z_rw, p_rw)
        return task

    def _check_flow(self, payload) -> list:
        series, gamma, pe, mult, eig, rec, z_rw, p_rw = payload
        sc, ed, im = self.sc, self.ed, self.im
        a1 = series.coeffs[1]
        one_mode = sc.HermiteSeries([self.zeros, a1.with_values(a1.values * math.sqrt(gamma) / 2.0),
                                     self.zeros])
        # series route for v = a1(y) xi must equal lambda_multiplicative(a1)
        via_series = ed.kappa_eff_general(ed.FlowSpec.general(one_mode), gamma, pe)
        enh = mult.kappa_eff - 1.0
        # roundoff budget: the s <= 12 resolvent cancels like exp(2s) eps,
        # and kappa - 1 = (lambda2 - 2 - lambda11)/2 cancels by a further
        # (lambda2 - 2) / (2 (kappa - 1))
        amplify = (mult.lambda2 - 2.0) / (2.0 * enh)
        budget = 1e-12 + 64.0 * self.EPS * math.exp(2.0 * math.sqrt(gamma)) * amplify
        exact = im.pdf_deterministic(self.z_talbot, eig.beta)
        talbot = float(np.max(np.abs(rec - exact) / (1.0 + exact)))
        # K0 density against the independent phase-average CDF table
        # (table accuracy ~1e-5 absolute)
        h = z_rw[1] - z_rw[0]
        simpson = h / 3.0 * (p_rw[0] + p_rw[-1] + 4.0 * p_rw[1:-1:2].sum() + 2.0 * p_rw[2:-1:2].sum())
        mass = float(np.diff(im.cdf_random_wave(np.array([z_rw[0], z_rw[-1]])))[0])
        return [
            Check("closed_forms.series_vs_multiplicative_enhancement",
                  abs((via_series.kappa_eff - 1.0) / enh - 1.0), budget),
            Check("closed_forms.talbot_vs_pdf_deterministic", talbot, 1e-6),
            Check("closed_forms.pdf_random_wave_vs_cdf", abs(simpson - mass), 1e-4),
        ]

    def report(self, tasks: list) -> dict:
        secs = [t.seconds for t in tasks]
        return {"closed_forms_per_s": (len(secs) / sum(secs), "1/s"),
                "closed_form_p50_ms": (1e3 * _quantile(secs, 50), "ms"),
                "closed_form_p90_ms": (1e3 * _quantile(secs, 90), "ms")}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# README recipes, one fresh child process each.  ``{seed}`` and ``{out}``
# are filled per invocation.
RECIPES = {
    "kappa_eff_ou": ["kappa-eff", "--flow", "linear", "--gamma", "1", "--pe", "1"],
    "pdf_deterministic": ["pdf", "--mode", "deterministic", "--beta", "1", "--bins", "200",
                          "--outdir", "{out}"],
    "aris": ["aris", "--flow", "linear", "--gamma", "1", "--pe", "1", "--realizations", "4",
             "--seed", "{seed}", "--outdir", "{out}"],
    "kappa_eff_white": ["kappa-eff", "--flow", "cosine", "--white-noise", "--pe", "2"],
    "validate_quick": ["validate", "--only", "1,2,8,10"],
    "pdf_random_wave": ["pdf", "--mode", "random-wave", "--bins", "200", "--outdir", "{out}"],
    "estimate_gamma": ["estimate-gamma", "--seed", "{seed}"],
    "simulate_steady": ["simulate", "--flow", "linear", "--steady", "--pe", "2", "--t-end", "5",
                        "--particles", "20000", "--seed", "{seed}", "--outdir", "{out}"],
}
QUICK = ("kappa_eff_ou", "kappa_eff_white", "pdf_deterministic", "validate_quick")
CHILD_TIMEOUT = 120


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, root: Path) -> tuple[subprocess.CompletedProcess, float, float]:
    """(result, wall seconds, scale to reference pace) of one child process."""
    return pace.run_sampled(args, CHILD_TIMEOUT, cwd=root, env=child_env(root))


class Cli:
    """README recipes as fresh child processes, one at a time."""

    name = "cli"
    round_plan = tuple(RECIPES)
    trace_rounds = 1

    def __init__(self, root: Path, out: Path):
        self.root = root
        self.out = out / "cli"

    def recipe_args(self, recipe: str, seed: int, out: Path) -> list:
        fill = {"{seed}": str(seed), "{out}": str(out)}
        return ([sys.executable, "-m", "sheardisp.cli"]
                + [fill.get(a, a) for a in RECIPES[recipe]])

    def setup_sample(self) -> tuple:
        """(raw, scaled) time of one fresh CLI process: interpreter, imports
        and a warm-up command."""
        proc, secs, scale = run_child(self.recipe_args("kappa_eff_ou", 0, self.out), self.root)
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up command failed: {proc.stderr[-2000:]}")
        return secs, secs * scale

    def run_task(self, kind: str, seed: int, warm: bool = False) -> Task:
        out = self.out / kind
        shutil.rmtree(out, ignore_errors=True)
        task = Task(kind)
        proc, task.seconds, scale = run_child(self.recipe_args(kind, seed, out), self.root)
        task.scaled = task.seconds * scale
        task.payload = (proc, out)
        if proc.returncode != 0:
            task.error = proc.stderr[-2000:]
        return task

    def check(self, task: Task) -> list:
        proc, out = task.payload
        checks = [Check(f"cli.{task.kind}.exit_code", float(proc.returncode != 0), 0.5)]
        if proc.returncode == 0:
            try:
                checks.append(self._parse(task.kind, proc.stdout, out))
            except (ValueError, OSError, KeyError) as exc:
                task.error = f"{task.kind}: output does not parse: {exc}"
        return checks

    def _parse(self, kind: str, stdout: str, out: Path) -> Check:
        """Parse each recipe's output and check one property of it."""
        if kind.startswith("kappa_eff"):
            rec = json.loads(stdout)
            return Check(f"cli.{kind}.kappa_eff_above_1", float(not rec["kappa_eff"] > 1.0), 0.5)
        if kind.startswith("pdf"):
            data = np.loadtxt(out / f"pdf_{kind[4:].replace('_', '-')}.csv", delimiter=",", skiprows=1)
            centers = data[:, 0]
            width = centers[1] - centers[0]
            return Check(f"cli.{kind}.mass", abs(float(np.sum(data[:, 1]) * width) - 1.0), 1e-4)
        if kind == "validate_quick":
            return Check(f"cli.{kind}.all_passed", float("4/4 criteria passed" not in stdout), 0.5)
        if kind == "estimate_gamma":
            rec = json.loads(stdout)
            # 20 paths of t = 500 give a mean within about 5% of gamma = 5
            return Check(f"cli.{kind}.gamma_hat_mean", abs(rec["gamma_hat_mean"] / rec["true_gamma"] - 1.0), 0.3)
        if kind == "aris":
            rows = [json.loads(line) for line in (out / "aris_summary.ndjson").read_text().splitlines()]
            sizes = [np.loadtxt(out / r["csv"], delimiter=",", skiprows=1).shape[0] for r in rows]
            return Check(f"cli.{kind}.records", float(len(rows) != 4 or set(sizes) != {40_001}), 0.5)
        if kind == "simulate_steady":
            rows = [json.loads(line) for line in (out / "simulate_summary.ndjson").read_text().splitlines()]
            hist = np.loadtxt(out / "x_histogram.csv", delimiter=",", skiprows=1)
            return Check(f"cli.{kind}.outputs", float(len(rows) != 1 or hist.shape != (100, 2)), 0.5)
        raise KeyError(kind)

    def thread_determinism(self, seed: int) -> Check:
        """``aris`` with --threads 1 and 2 must write identical NDJSON and CSV
        bytes; the manifest may differ only in timestamp, threads and hash."""
        out = self.out / "threads"
        outputs = []
        for threads in (1, 2):
            shutil.rmtree(out, ignore_errors=True)
            args = [sys.executable, "-m", "sheardisp.cli", "aris", "--t-end", "20",
                    "--realizations", "4", "--seed", str(seed), "--threads", str(threads),
                    "--outdir", str(out)]
            proc, _, _ = run_child(args, self.root)
            if proc.returncode != 0:
                return Check("cli.aris.thread_determinism", 1.0, 0.5)
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            manifest = json.loads(files.pop("manifest.json"))
            for key in ("timestamp", "config_sha256"):
                manifest.pop(key, None)
            manifest["config"].pop("threads", None)
            outputs.append((files, manifest))
        return Check("cli.aris.thread_determinism", float(outputs[0] != outputs[1]), 0.5)

    def run_checks(self, tasks: list) -> list:
        return []

    def report(self, tasks: list) -> dict:
        quick = [t.seconds for t in tasks if t.kind in QUICK]
        return {"quick_command_s": (float(np.median(quick)), "s")}


WORKLOADS = {"particles": Particles, "paths": Paths, "closed_forms": ClosedForms, "cli": Cli}
