"""Exact sampling of the nondimensional stationary OU process.

The process solves d(xi) = -gamma*xi dt + dB with xi(0) ~ N(0, gamma/2),
so the stationary variance is gamma/2 and the autocovariance is
(gamma/2) exp(-gamma |t-s|).  Sampling uses the exact one-step transition

    xi(t+D) = xi(t) e^{-gamma D} + N(0, (gamma/2)(1 - e^{-2 gamma D})),

which is bias-free for any step size, on a uniform grid.

An ``OUPath`` carries its step ``dt`` and its running integral
I(t) = int_0^t xi from construction: the constructor validates the grid
once (uniform, starting at 0) and integrates the values by the
trapezoidal rule.  The white-noise limit has its own sampler,
``sample_brownian_scaled``, which draws the limit object directly (I(t) a
scaled Brownian motion, passed as the integral; no pointwise values)
instead of pushing gamma to infinity through the transition kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.signal import lfilter


@dataclass(frozen=True)
class OUParams:
    """Damping of the driving process."""

    gamma: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


@dataclass
class OUPath:
    """One realization on a uniform grid: node times, xi values, the step
    ``dt`` and the running integral I(t), all fixed at construction.

    Give ``values`` (I is then their trapezoidal integral) or, for
    white-noise-limit paths where only the Brownian integral is defined,
    ``integral``; giving both or neither raises ``ValueError``, as does a
    grid that is not uniform from 0 with at least two nodes.
    """

    times: np.ndarray
    values: Optional[np.ndarray] = None
    integral: Optional[np.ndarray] = None
    dt: float = field(init=False)

    def __post_init__(self):
        if (self.values is None) == (self.integral is None):
            raise ValueError("give exactly one of values and integral")
        t = self.times = np.asarray(self.times, dtype=float)
        self.dt = dt = _grid_step(t)
        if not np.max(np.abs(t - dt * np.arange(t.size))) <= 1e-9 * dt:
            raise ValueError("path grid must be uniform and start at 0")
        given = self.integral if self.values is None else self.values
        if np.shape(given) != t.shape:
            raise ValueError("values or integral must have one entry per grid node")
        if self.values is None:
            self.integral = np.asarray(self.integral, dtype=float)
        else:
            self.values = np.asarray(self.values, dtype=float)
            self.integral = _cumtrapz(self.values, dt)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def xi(self) -> np.ndarray:
        """Pointwise xi samples; unavailable in the white-noise limit."""
        if self.values is None:
            raise ValueError("pointwise xi values do not exist in white-noise-limit mode")
        return self.values

    def integral_at(self, t: float) -> float:
        """Linear interpolation of I(t) between grid nodes; a t outside the
        path's span (beyond a 1e-9 dt roundoff slack) raises ``ValueError``."""
        if not -1e-9 * self.dt <= t <= self.t_end + 1e-9 * self.dt:
            raise ValueError(f"t={t!r} is outside the path's span [0, {self.t_end!r}]")
        return float(np.interp(t, self.times, self.integral))

    def to_csv(self, path) -> None:
        xi = self.values if self.values is not None else np.full_like(self.times, np.nan)
        data = np.column_stack([self.times, xi, self.integral])
        np.savetxt(path, data, delimiter=",", header="t,xi,integral", comments="")


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform grid over [0, t_end] with spacing dt (t_end/dt must be whole)."""
    return np.linspace(0.0, t_end, _step_count(t_end, dt) + 1)


def _step_count(t_end: float, dt: float) -> int:
    """round(t_end/dt) for a finite dt > 0 and a finite t_end >= 0 that is a
    whole number of steps (1e-9 slack); anything else raises ``ValueError``."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end!r}")
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end={t_end!r} must be a whole number of steps dt={dt!r}")
    return n


def realization_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Splittable per-realization seed: realization i mixes (seed, i).

    SeedSequence hashes the pair, so ensembles are order-independent and
    safe to draw in parallel.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def transition_moments(gamma: float, dt: float) -> tuple[float, float]:
    """Exact one-step conditional (mean factor, variance) of the OU kernel."""
    decay = np.exp(-gamma * dt)
    var = 0.5 * gamma * (-np.expm1(-2.0 * gamma * dt))
    return float(decay), float(var)


def _grid_step(t: np.ndarray) -> float:
    """The first step of a path grid, which must be 1-d with at least two
    nodes and increase; ``OUPath`` checks that every step equals it."""
    if t.ndim != 1 or t.size < 2 or not t[1] > t[0]:
        raise ValueError("a path grid is 1-d and increasing with at least two nodes")
    return float(t[1] - t[0])


def _draw_ou_values(gamma: float, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    decay, var = transition_moments(gamma, _grid_step(t))
    normals = rng.standard_normal(t.size)
    # first-order recurrence xi_k = decay*xi_{k-1} + noise_k at C speed
    inp = np.concatenate(([np.sqrt(0.5 * gamma) * normals[0]], np.sqrt(var) * normals[1:]))
    return lfilter([1.0], [1.0, -decay], inp)


def sample_ou(params: OUParams, t_grid: np.ndarray, seed: int,
              realization: int = 0) -> OUPath:
    """Draw one stationary OU path on the given uniform grid, integral included.

    Identical (params, t_grid, seed, realization) reproduce the path
    bit-for-bit; distinct realization indices give independent paths.  A
    non-uniform grid raises ``ValueError``.
    """
    t = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(realization_seed(seed, realization))
    return OUPath(times=t, values=_draw_ou_values(params.gamma, t, rng))


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoidal integral on a uniform grid of step dt, zero at the first node."""
    out = np.empty(values.size)
    out[0] = 0.0
    out[1:] = np.cumsum(0.5 * dt * (values[:-1] + values[1:]))
    return out


def sample_brownian_scaled(t_grid: np.ndarray, scale: float, seed: int,
                           realization: int = 0) -> OUPath:
    """White-noise-limit path on a uniform grid: I(t) is a Brownian motion
    times ``scale``.

    The pointwise driving process has no finite-valued samples in this
    limit, so the path carries the integral and no values.
    """
    t = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(realization_seed(seed, realization))
    incs = math.sqrt(_grid_step(t)) * rng.standard_normal(t.size - 1)
    return OUPath(times=t, integral=np.concatenate(([0.0], scale * np.cumsum(incs))))


def integral_variance(gamma: float, t) -> np.ndarray:
    """Var of int_0^t xi(s) ds for the stationary OU process:
    t + (exp(-gamma t) - 1)/gamma."""
    t = np.asarray(t, dtype=float)
    return t + np.expm1(-gamma * t) / gamma


def sample_ensemble(params: OUParams, t_grid: np.ndarray, seed: int,
                    n_paths: int) -> list[OUPath]:
    """Independent paths; path i is seeded by (seed, i), order-independent."""
    return [sample_ou(params, t_grid, seed, realization=i) for i in range(n_paths)]
