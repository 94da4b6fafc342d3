"""Exact sampling of the nondimensional stationary OU process.

The process solves d(xi) = -gamma*xi dt + dB with xi(0) ~ N(0, gamma/2),
so the stationary variance is gamma/2 and the autocovariance is
(gamma/2) exp(-gamma |t-s|).  Sampling uses the exact one-step transition

    xi(t+D) = xi(t) e^{-gamma D} + N(0, (gamma/2)(1 - e^{-2 gamma D})),

which is bias-free for any step size; the pathwise time integral
I(t) = int_0^t xi is accumulated by the trapezoidal rule on the grid.

The white-noise limit is a separate mode that samples the limit object
directly (I(t) a scaled Brownian motion) instead of pushing gamma to
infinity through the transition kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter


@dataclass(frozen=True)
class OUParams:
    """Damping and sampling mode for the driving process."""

    gamma: float = 1.0
    mode: str = "ou"          # "ou" | "white-noise-limit"

    def __post_init__(self):
        if self.mode not in ("ou", "white-noise-limit"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "ou" and not self.gamma > 0:
            raise ValueError("gamma must be positive in ou mode")


@dataclass
class OUPath:
    """One realization: node times, xi values, and the running integral.

    ``values`` is None for white-noise-limit paths, where only the
    Brownian integral is defined.
    """

    times: np.ndarray
    values: Optional[np.ndarray]
    integral: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("times must be a nonempty 1-d grid")
        if self.times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("time grid must be strictly increasing")

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
        """Linear interpolation of I(t) between grid nodes."""
        if self.integral is None:
            raise ValueError("integral not populated; call integrate_path first")
        return float(np.interp(t, self.times, self.integral))

    def to_csv(self, path) -> None:
        xi = self.values if self.values is not None else np.full_like(self.times, np.nan)
        integ = self.integral if self.integral is not None else np.full_like(self.times, np.nan)
        data = np.column_stack([self.times, xi, integ])
        np.savetxt(path, data, delimiter=",", header="t,xi,integral", comments="")


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform grid over [0, t_end] with spacing dt (t_end/dt must be whole)."""
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    return np.linspace(0.0, t_end, n + 1)


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


def _draw_ou_values(gamma: float, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    normals = rng.standard_normal(t.size)
    values = np.empty(t.size)
    values[0] = np.sqrt(0.5 * gamma) * normals[0]
    if t.size == 1:
        return values
    dts = np.diff(t)
    if np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        decay, var = transition_moments(gamma, float(dts[0]))
        # first-order recurrence xi_k = decay*xi_{k-1} + noise_k at C speed
        inp = np.concatenate(([values[0]], np.sqrt(var) * normals[1:]))
        return lfilter([1.0], [1.0, -decay], inp)
    for k in range(1, t.size):
        decay, var = transition_moments(gamma, float(dts[k - 1]))
        values[k] = decay * values[k - 1] + np.sqrt(var) * normals[k]
    return values


def sample_ou(params: OUParams, t_grid: np.ndarray, seed: int,
              realization: int = 0) -> OUPath:
    """Draw one stationary OU path on the given grid, integral included.

    Identical (params, t_grid, seed, realization) reproduce the path
    bit-for-bit; distinct realization indices give independent paths.
    """
    if params.mode != "ou":
        raise ValueError("sample_ou requires ou mode; use sample_brownian_scaled for the limit")
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValueError("empty time grid")
    rng = np.random.default_rng(realization_seed(seed, realization))
    values = _draw_ou_values(params.gamma, t, rng)
    return integrate_path(OUPath(times=t, values=values, seed=seed))


def integrate_path(path: OUPath) -> OUPath:
    """Populate the running trapezoidal integral I(t) along the path."""
    if path.values is None:
        raise ValueError("path has no pointwise values to integrate")
    path.integral = _cumtrapz(path.values, np.diff(path.times))
    return path


def _cumtrapz(values: np.ndarray, dt) -> np.ndarray:
    """Running trapezoidal integral, zero at the first node; ``dt`` is the
    step, one per interval or a scalar for a uniform grid."""
    out = np.empty(values.size)
    out[0] = 0.0
    out[1:] = np.cumsum(0.5 * dt * (values[:-1] + values[1:]))
    return out


def sample_brownian_scaled(t_grid: np.ndarray, scale: float, seed: int,
                           realization: int = 0) -> OUPath:
    """White-noise-limit path: I(t) is a Brownian motion times ``scale``.

    The pointwise driving process has no finite-valued samples in this
    limit, so ``values`` stays None and only the integral is populated.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValueError("empty time grid")
    rng = np.random.default_rng(realization_seed(seed, realization))
    integ = np.empty_like(t)
    integ[0] = 0.0
    if t.size > 1:
        incs = rng.standard_normal(t.size - 1) * np.sqrt(np.diff(t))
        integ[1:] = scale * np.cumsum(incs)
    return OUPath(times=t, values=None, integral=integ, seed=seed)


def integral_variance(gamma: float, t) -> np.ndarray:
    """Var of int_0^t xi(s) ds for the stationary OU process:
    t + (exp(-gamma t) - 1)/gamma."""
    t = np.asarray(t, dtype=float)
    return t + np.expm1(-gamma * t) / gamma


def sample_ensemble(params: OUParams, t_grid: np.ndarray, seed: int,
                    n_paths: int) -> list[OUPath]:
    """Independent paths; path i is seeded by (seed, i), order-independent."""
    return [sample_ou(params, t_grid, seed, realization=i) for i in range(n_paths)]
