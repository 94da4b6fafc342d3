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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ou_process import OUPath, _step_count, realization_seed
from .eff_diffusivity import EigenData, FlowSpec
from .aris_solver import ArisRecord

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
        if not (math.isfinite(self.pe) and self.pe >= 0):
            raise ValueError(f"pe must be finite and nonnegative, got {self.pe!r}")


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
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"gaussian variance s must be finite and positive, got {s!r}")
        return cls("gaussian", s=s)

    @classmethod
    def random_wave(cls, a: float, amplitude: complex) -> "InitialData":
        if not (math.isfinite(a) and a > 0):
            raise ValueError(f"random-wave wavenumber a must be finite and positive, got {a!r}")
        amplitude = complex(amplitude)
        if not np.isfinite(amplitude):
            raise ValueError(f"random-wave amplitude must be finite, got {amplitude!r}")
        return cls("random-wave", a=a, amplitude=amplitude)

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
class ForwardResult(ArisRecord):
    """The particle route's Aris record, plus what only particles give:
    ``kappa_se``, the MC standard error of the final kappa estimate (the
    fourth-moment standard error of the sample variance of the conditional
    means m = x0 + Pe D, divided by 2t; the 2t of x noise is exact), and
    optionally the final positions."""

    kappa_se: float
    final_x: Optional[np.ndarray] = None
    final_y: Optional[np.ndarray] = None


def _fold(y: np.ndarray) -> np.ndarray:
    """Exact positional reflection of arbitrary overshoot into [0, 1]."""
    y = np.mod(y, 2.0)
    return np.where(y > 1.0, 2.0 - y, y)


def _apply_bc(y: np.ndarray, bc: str, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Wrap (periodic) or reflect (no-flux) stepped positions y into [0, 1].

    No-flux walls reflect once, y -> min(|y|, 2 - |y|) = 1 - |1 - |y||,
    which is exact for |y| <= 2; only a step that overshoots further lands
    below 0 there, and then the whole array takes the exact ``_fold`` of
    the unfolded y.  The result is built in ``out`` and returned; ``work``
    is scratch for the no-flux fold.  Both have y's shape and neither may
    be y itself.
    """
    if bc == "periodic":
        np.floor(y, out=out)
        return np.subtract(y, out, out=out)
    np.abs(y, out=out)
    np.subtract(2.0, out, out=work)
    np.minimum(out, work, out=out)
    if out.min() < 0.0:
        out[...] = _fold(y)
    return out


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
    (Y, D) before the first step and after every step.  Y (a copy of the
    start positions ``y``) and D are arrays the walk owns and updates in
    place, so read them before advancing the walk.  The normals, the
    velocity and the fold's scratch live in buffers made once per call, so
    a step allocates only the lookup's short-lived index and gathers.
    """
    n = y.size
    y = y.copy()
    drift = np.zeros(n)
    z = np.empty(n)      # normals, then the stepped (unfolded) positions
    v = np.empty(n)      # velocity, then the fold's scratch
    dt = cfg.dt
    sqrt2dt = math.sqrt(2.0 * dt)
    yield y, drift
    for xi in xi_mid:
        flow.velocity(y, xi, gamma, out=v)
        v *= dt
        drift += v
        rng.standard_normal(out=z)
        z *= sqrt2dt
        z += y
        _apply_bc(z, flow.bc, out=y, work=v)
        if not (y.min() >= 0.0 and y.max() <= 1.0):
            raise AssertionError("particle left the channel: reflection broke mass conservation")
        yield y, drift


def _xi_midpoints(path: Optional[OUPath], n_steps: int) -> np.ndarray:
    if path is None:
        return np.zeros(n_steps)
    xi = path.xi[:n_steps + 1]
    return 0.5 * (xi[:-1] + xi[1:])


def simulate_forward(flow: FlowSpec, gamma: float, init: InitialData, t_end: float,
                     cfg: SimConfig, path: Optional[OUPath] = None,
                     keep_positions: bool = False, realization: int = 0) -> ForwardResult:
    """Forward particle ensemble for one flow realization.

    ``path`` supplies the shared xi realization (required unless the flow
    is steady); randomness beyond xi is the per-particle Brownian noise,
    seeded from (cfg.seed, realization).  Particles walk between the walls
    the flow declares (``flow.bc``).  The returned Aris record is exact
    given the y-paths: with m = x0 + Pe D, T1bar = <m> and
    T2bar = <m^2> + 2t.  ``final_x`` is drawn from N(m, 2t), which has the
    law of an Euler scheme that also steps x.
    """
    if flow.kind == "steady":
        path = None
    elif path is None:
        raise ValueError("non-steady flows require an OU path")
    dt = cfg.dt
    if dt * math.pi**2 > 0.25:
        warnings.warn("dt does not resolve the slowest cross-channel mode; "
                      "the moment history will be biased", RuntimeWarning)
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

    t = rec_t[-1]
    c = m - np.mean(m)
    var_m = float(np.mean(c * c))
    se_var_m = math.sqrt(max(float(np.mean(c**4)) - var_m**2, 0.0) / cfg.n_particles)
    kappa_se = se_var_m / (2.0 * t) if t > 0 else math.nan

    final_x = None
    if keep_positions:
        final_x = m + math.sqrt(2.0 * t) * rng.standard_normal(cfg.n_particles)
    return ForwardResult(np.array(rec_t), np.array(rec_m1), np.array(rec_m2), kappa_se,
                         final_x, y if keep_positions else None)


def evaluate_point_backward(flow: FlowSpec, gamma: float, path: OUPath,
                            x, y: float, t: float, init: InitialData,
                            cfg: SimConfig):
    """Backward-characteristics estimate of T(x, y, t) for one realization.

    Every backward sample sees the same xi path, so the estimate is one
    realization of the random field.  Given the y-walk's D the start point
    is x - Pe D - sqrt(2t) Z, and Z is averaged out exactly: the estimate
    is the mean of ``init.value(x - Pe D, t)`` over the walks, which run
    between the walls the flow declares (``flow.bc``) and are seeded from
    cfg.seed.  ``x`` may be an array: one walk then serves every x, and
    each entry gets the value a scalar call at that x returns.

    Returns (estimate, standard error), floats for scalar x and arrays of
    x's shape otherwise.  A start point off the channel (y outside [0, 1]),
    a non-finite x or y, fewer than two particles, or a white-noise-limit
    path (no pointwise xi) raises ``ValueError``.
    """
    xs = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(xs)) and math.isfinite(y) and 0.0 <= y <= 1.0):
        raise ValueError(f"need finite x and y in [0, 1], got x={x!r}, y={y!r}")
    if cfg.n_particles < 2:
        raise ValueError(f"a standard error needs n_particles >= 2, got {cfg.n_particles}")
    n_steps = _step_indices(path, t, cfg.dt)
    rng = np.random.default_rng(realization_seed(cfg.seed, 0))
    n = cfg.n_particles
    # backward clock: step k uses xi over [t-(k+1)dt, t-k dt]
    xi_mid = _xi_midpoints(path, n_steps)[::-1]
    for _, drift in _y_walk(flow, gamma, xi_mid, np.full(n, float(y)), cfg, rng):
        pass
    vals = init.value(xs[..., None] - cfg.pe * drift, t)
    # moments about the first sample, so identical samples give SE exactly 0
    dev = vals - vals[..., :1]
    est = vals[..., 0] + np.mean(dev, axis=-1)
    se = np.std(dev, axis=-1, ddof=1) / math.sqrt(n)
    if xs.ndim == 0:
        return float(est), float(se)
    return est, se


def wind_model_solution(x, t: float, path: OUPath, eigen: EigenData, ubar: float,
                        init: Optional[InitialData] = None):
    """Analytic long-time wind-model field on one xi realization: the data
    (default the unit-mass delta line) carried by the drift Pe ubar I(t) and
    smoothed by the heat kernel with diffusivity kappa_eff,

        T(x, t) = init.value(x - Pe ubar I(t), kappa_eff t).
    """
    if eigen.kappa_eff <= 0:
        raise ValueError("kappa_eff must be positive")
    drift = eigen.pe * ubar * path.integral_at(t)
    x_rel = np.asarray(x, dtype=float) - drift
    return (init or InitialData.delta_line()).value(x_rel, eigen.kappa_eff * t)


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
        if not paths:
            raise ValueError("paths must hold at least one OU path")
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
