"""Particle Monte Carlo for the channel advection-diffusion problem.

Stochastic characteristics of

    dX = Pe v(Y, xi(t)) dt + sqrt(2) dW_x,
    dY = sqrt(2) dW_y,   Y reflected at y = 0, 1 (or wrapped, periodic),

driven by a single shared OU path per realization -- the same path feeds
the forward solver, the backward point evaluator, and the analytic wind
model, so single-realization comparisons are meaningful.

Only Y is simulated.  Given the cross-channel path, X is exactly Gaussian
with mean x0 + Pe D, D = int v(Y, xi) dt, and variance 2t, so both
solvers share one reflected y-walk that accumulates D.  The forward
solver records exact conditional moments of X (no x noise enters them)
and draws X only once, at the end; the backward solver draws no x: it
averages ``InitialData.value(x - Pe D, t)``, the heat-smoothed data,
over the walks.

Reflection is positional folding, exact in distribution for the uniform
invariant measure and adequate for sqrt(2 dt) << 1.  No-flux walls take
one reflection per step, y -> min(|y|, 2 - |y|) = 1 - |1 - |y||, which
is exact whenever the step overshoots a wall by at most one channel
width; ``_fold`` (y mod 2, mirrored) is the fallback for larger
overshoot.  Periodic walls wrap, y -> y - floor(y).  xi is taken at
step midpoints of the supplied path; the path grid must coincide with
the stepping grid, so no interpolation bias enters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ou_process import OUPath, _step_count, realization_seed
from .eff_diffusivity import EigenData, FlowSpec

# the forward moment history keeps every (n_steps // _N_RECORD)-th step and t_end
_N_RECORD = 50


@dataclass(frozen=True)
class SimConfig:
    """Step size, ensemble size, seeding and Pe; the walls are the flow's (``FlowSpec.bc``)."""

    dt: float = 1e-3
    n_particles: int = 10_000
    seed: int = 0
    pe: float = 1.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_particles < 1:
            raise ValueError("particle count must be >= 1")
        if self.pe < 0:
            raise ValueError("Pe must be nonnegative")


@dataclass(frozen=True)
class InitialData:
    """Initial scalar profile; all kinds are x-stratified (no y structure)."""

    kind: str
    s: Optional[float] = None            # gaussian variance
    a: Optional[float] = None            # random-wave wavenumber
    amplitude: Optional[complex] = None  # random-wave complex amplitude A

    @classmethod
    def delta_line(cls) -> "InitialData":
        return cls("delta-line")

    @classmethod
    def gaussian(cls, s: float) -> "InitialData":
        if s <= 0:
            raise ValueError("gaussian variance must be positive")
        return cls("gaussian", s=s)

    @classmethod
    def random_wave(cls, a: float, amplitude: complex) -> "InitialData":
        return cls("random-wave", a=a, amplitude=complex(amplitude))

    @property
    def mass(self) -> float:
        """Total streamwise integral; unit for the localized kinds."""
        if self.kind in ("delta-line", "gaussian"):
            return 1.0
        if self.kind == "random-wave":
            return 0.0
        raise ValueError(f"mass undefined for {self.kind} data")

    def sample_particles(self, n: int, rng: np.random.Generator):
        if self.kind == "delta-line":
            x = np.zeros(n)
        elif self.kind == "gaussian":
            x = rng.standard_normal(n) * math.sqrt(self.s)
        else:
            raise ValueError(f"{self.kind} data cannot be sampled as particles")
        y = rng.uniform(0.0, 1.0, n)
        return x, y

    def value(self, x, t: float = 0.0):
        """The data smoothed by the unit-diffusivity heat kernel to time t
        (added variance 2t): gaussian(s) gives N(x; s + 2t), random-wave
        2 Re(A e^{-iax}) e^{-a^2 t}, and delta-line N(x; 2t) for t > 0 only."""
        if not (t >= 0.0 and self.kind in ("gaussian", "random-wave")
                or t > 0.0 and self.kind == "delta-line"):
            raise ValueError(f"{self.kind} data has no value at smoothing time t = {t!r}")
        x = np.asarray(x, dtype=float)[()]   # a scalar stays a scalar
        if self.kind == "random-wave":
            decay = math.exp(-self.a * self.a * t)
            return 2.0 * np.real(self.amplitude * np.exp(-1j * self.a * x)) * decay
        var = 2.0 * t + (self.s if self.kind == "gaussian" else 0.0)
        return np.exp(-(x * x) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


@dataclass
class ForwardResult:
    """Streamwise moment history and final-state summaries."""

    times: np.ndarray
    t1bar: np.ndarray
    t2bar: np.ndarray
    var_x: np.ndarray
    kappa_estimate: np.ndarray
    y_bin_edges: np.ndarray
    x_mean_by_bin: np.ndarray
    x_var_by_bin: np.ndarray
    n_particles: int
    final_x: Optional[np.ndarray] = None
    final_y: Optional[np.ndarray] = None
    _kappa_se: float = field(default=math.nan, repr=False)

    def kappa_standard_error(self) -> float:
        """MC standard error of the final kappa estimate: the fourth-moment
        standard error of the sample variance of the conditional means
        m = x0 + Pe D, divided by 2t (the 2t of x noise is exact)."""
        return self._kappa_se


def _fold(y: np.ndarray) -> np.ndarray:
    """Exact positional reflection of arbitrary overshoot into [0, 1]."""
    y = np.mod(y, 2.0)
    return np.where(y > 1.0, 2.0 - y, y)


def _apply_bc(y: np.ndarray, bc: str) -> np.ndarray:
    """Wrap (periodic) or reflect (no-flux) stepped positions into [0, 1].

    No-flux walls reflect once, y -> min(|y|, 2 - |y|) = 1 - |1 - |y||,
    which is exact for |y| <= 2; only a step that overshoots further lands
    below 0 there, and then the whole array takes the exact ``_fold``.
    """
    if bc == "periodic":
        return y - np.floor(y)
    a = np.abs(y)
    folded = np.minimum(a, 2.0 - a)
    if folded.min() < 0.0:
        return _fold(y)
    return folded


def _step_indices(path: Optional[OUPath], t_end: float, dt: float) -> int:
    n_steps = _step_count(t_end, dt)
    if path is not None:
        if abs(path.dt - dt) > 1e-9 * dt:
            raise ValueError("path grid must coincide with the stepping grid")
        if path.times.size < n_steps + 1:
            raise ValueError("path does not cover [0, t_end] at the stepping resolution")
    return n_steps


def _y_walk(flow: FlowSpec, gamma: float, xi_mid: np.ndarray, y: np.ndarray,
            cfg: SimConfig, rng: np.random.Generator):
    """Euler y-walk between the flow's walls accumulating D = sum_k v(Y_k, xi_k) dt.

    ``xi_mid`` holds one xi value per step, in stepping order.  Yields
    (Y, D) before the first step and after every step; D is one array
    updated in place, so read it before advancing the walk.
    """
    n = y.size
    drift = np.zeros(n)
    sqrt2dt = math.sqrt(2.0 * cfg.dt)
    yield y, drift
    for xi in xi_mid:
        drift += flow.velocity(y, xi, gamma) * cfg.dt
        y = _apply_bc(y + sqrt2dt * rng.standard_normal(n), flow.bc)
        if y.size != n or not (y.min() >= 0.0 and y.max() <= 1.0):
            raise AssertionError("particle left the channel: reflection broke mass conservation")
        yield y, drift


def _xi_midpoints(path: Optional[OUPath], n_steps: int) -> np.ndarray:
    if path is None:
        return np.zeros(n_steps)
    xi = path.values[:n_steps + 1]
    return 0.5 * (xi[:-1] + xi[1:])


def simulate_forward(flow: FlowSpec, gamma: float, init: InitialData, t_end: float,
                     cfg: SimConfig, path: Optional[OUPath] = None,
                     n_y_bins: int = 10, keep_positions: bool = False,
                     realization: int = 0) -> ForwardResult:
    """Forward particle ensemble for one flow realization.

    ``path`` supplies the shared xi realization (required unless the flow
    is steady); randomness beyond xi is the per-particle Brownian noise,
    seeded from (cfg.seed, realization).  Particles walk between the walls
    the flow declares (``flow.bc``).  Moments are exact given the
    y-paths: with m = x0 + Pe D, <x> = <m> and <x^2> = <m^2> + 2t, and the
    y-binned variance is that of m plus 2t.  ``final_x`` is drawn from
    N(m, 2t), which has the law of an Euler scheme that also steps x.
    """
    if flow.kind == "steady":
        path = None
    elif path is None or path.values is None:
        raise ValueError("non-steady flows require an OU path with xi values")
    dt = cfg.dt
    if dt * math.pi**2 > 0.25:
        warnings.warn("dt does not resolve the slowest cross-channel mode; "
                      "y-resolved moment post-processing will be biased",
                      RuntimeWarning)
    n_steps = _step_indices(path, t_end, dt)
    rng = np.random.default_rng(realization_seed(cfg.seed, realization))
    x0, y = init.sample_particles(cfg.n_particles, rng)

    stride = max(1, n_steps // _N_RECORD)
    rec_t, rec_m1, rec_m2 = [], [], []
    xi_mid = _xi_midpoints(path, n_steps)
    for k, (y, drift) in enumerate(_y_walk(flow, gamma, xi_mid, y, cfg, rng)):
        if k % stride == 0 or k == n_steps:
            m = x0 + cfg.pe * drift
            rec_t.append(k * dt)
            rec_m1.append(float(np.mean(m)))
            rec_m2.append(float(np.mean(m * m)) + 2.0 * k * dt)

    times = np.array(rec_t)
    t1 = np.array(rec_m1)
    t2 = np.array(rec_m2)
    var = t2 - t1**2
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(times > 0, var / (2.0 * times), np.nan)

    t = times[-1]
    c = m - np.mean(m)
    var_m = float(np.mean(c * c))
    se_var_m = math.sqrt(max(float(np.mean(c**4)) - var_m**2, 0.0) / cfg.n_particles)
    kappa_se = se_var_m / (2.0 * t) if t > 0 else math.nan

    edges = np.linspace(0.0, 1.0, n_y_bins + 1)
    which = np.clip(np.digitize(y, edges) - 1, 0, n_y_bins - 1)
    mean_by = np.full(n_y_bins, np.nan)
    var_by = np.full(n_y_bins, np.nan)
    for b in range(n_y_bins):
        sel = which == b
        if np.any(sel):
            mean_by[b] = float(np.mean(m[sel]))
            var_by[b] = float(np.var(m[sel])) + 2.0 * t

    final_x = None
    if keep_positions:
        final_x = m + math.sqrt(2.0 * t) * rng.standard_normal(cfg.n_particles)
    return ForwardResult(
        times=times, t1bar=t1, t2bar=t2, var_x=var, kappa_estimate=kappa,
        y_bin_edges=edges, x_mean_by_bin=mean_by, x_var_by_bin=var_by,
        n_particles=cfg.n_particles,
        final_x=final_x,
        final_y=y if keep_positions else None,
        _kappa_se=kappa_se,
    )


def evaluate_point_backward(flow: FlowSpec, gamma: float, path: OUPath,
                            x: float, y: float, t: float, init: InitialData,
                            cfg: SimConfig, realization: int = 0) -> tuple[float, float]:
    """Backward-characteristics estimate of T(x, y, t) for one realization.

    Every backward sample sees the same xi path, so the estimate is one
    realization of the random field.  Given the y-walk's D the start point
    is x - Pe D - sqrt(2t) Z, and Z is averaged out exactly: the estimate
    is the mean of ``init.value(x - Pe D, t)`` over the walks, which run
    between the walls the flow declares (``flow.bc``).  Returns (estimate,
    standard error); a start point off the channel (y outside [0, 1]) or
    not finite, or fewer than two particles, raises ``ValueError``.
    """
    if not (math.isfinite(x) and math.isfinite(y) and 0.0 <= y <= 1.0):
        raise ValueError(f"need finite x and y in [0, 1], got x={x!r}, y={y!r}")
    if cfg.n_particles < 2:
        raise ValueError(f"a standard error needs n_particles >= 2, got {cfg.n_particles}")
    if path.values is None:
        raise ValueError("backward evaluation needs pointwise xi values")
    n_steps = _step_indices(path, t, cfg.dt)
    rng = np.random.default_rng(realization_seed(cfg.seed, realization))
    n = cfg.n_particles
    # backward clock: step k uses xi over [t-(k+1)dt, t-k dt]
    xi_mid = _xi_midpoints(path, n_steps)[::-1]
    for _, drift in _y_walk(flow, gamma, xi_mid, np.full(n, float(y)), cfg, rng):
        pass
    vals = init.value(x - cfg.pe * drift, t)
    # moments about the first sample, so identical samples give SE exactly 0
    dev = vals - vals[0]
    return float(vals[0] + np.mean(dev)), float(np.std(dev, ddof=1) / math.sqrt(n))


def wind_model_solution(x, t: float, path: OUPath, eigen: EigenData, ubar: float,
                        init: Optional[InitialData] = None, mass: float = 1.0):
    """Analytic long-time wind-model field on one xi realization: the data
    (default the delta line) carried by the drift Pe ubar I(t) and smoothed
    by the heat kernel with diffusivity kappa_eff,

        T(x, t) = mass * init.value(x - Pe ubar I(t), kappa_eff t).
    """
    if eigen.kappa_eff <= 0:
        raise ValueError("kappa_eff must be positive")
    drift = eigen.pe * ubar * path.integral_at(t)
    x_rel = np.asarray(x, dtype=float) - drift
    return mass * (init or InitialData.delta_line()).value(x_rel, eigen.kappa_eff * t)


def simulate_random_wave(a: float, pe: float, ubar: float,
                         paths: Optional[list[OUPath]] = None, n: Optional[int] = None,
                         x: float = 0.0, seed: int = 0) -> np.ndarray:
    """Rescaled random-wave scalar samples Ttilde = Z cos(a x + a Pe ubar I(t)).

    The combined Gaussian wave amplitude Z (the "2 Re A" factor) carries
    unit variance, which is the normalization under which the limiting
    density is the Bessel-K0 law with variance 1/2 and kurtosis 9/2.
    With ``paths`` the phase comes from each realization's OU integral
    (regime flag: the rescaling neglects O(a^2 t) decay curvature, so
    a^2 t should stay small); without paths the phase is drawn uniform,
    which is the long-time law.
    """
    rng = np.random.default_rng(realization_seed(seed, 0))
    if paths is not None:
        t_end = paths[0].t_end
        if a * a * t_end > 0.1:
            warnings.warn(f"a^2 t = {a * a * t_end:.3g} > 0.1: outside the "
                          "random-wave rescaling regime", RuntimeWarning)
        eta = np.array([a * x + a * pe * ubar * p.integral_at(p.t_end) for p in paths])
    else:
        if n is None:
            raise ValueError("need either an ensemble of paths or a sample count")
        eta = rng.uniform(0.0, 2.0 * math.pi, n)
    amplitude = rng.standard_normal(eta.size)
    return amplitude * np.cos(eta)


# ---------------------------------------------------------------------------
# empirical distributions
# ---------------------------------------------------------------------------

@dataclass
class PDFEstimate:
    """Normalized histogram and sorted samples (KS distance, moments) of a sample set."""

    sorted_samples: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray

    @property
    def n(self) -> int:
        return self.sorted_samples.size

    def ks_distance(self, cdf) -> float:
        """Kolmogorov-Smirnov distance against an analytic CDF callable."""
        f = np.asarray(cdf(self.sorted_samples), dtype=float)
        i = np.arange(1, self.n + 1)
        return float(np.max(np.maximum(np.abs(i / self.n - f), np.abs(f - (i - 1) / self.n))))

    def variance(self) -> float:
        return float(np.var(self.sorted_samples))

    def kurtosis(self) -> float:
        """Flatness <x^4>/<x^2>^2 about the mean."""
        c = self.sorted_samples - np.mean(self.sorted_samples)
        return float(np.mean(c**4) / np.mean(c**2) ** 2)


def ensemble_pdf(samples, bins: int = 100) -> PDFEstimate:
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 1000:
        raise ValueError("need at least 1e3 samples for a stable histogram")
    density, edges = np.histogram(samples, bins=bins, density=True)
    return PDFEstimate(np.sort(samples), edges, density)
