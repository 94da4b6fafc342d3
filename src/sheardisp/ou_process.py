"""Exact sampling of the nondimensional stationary OU process.

The process solves d(xi) = -gamma*xi dt + dB with xi(0) ~ N(0, gamma/2),
so the stationary variance is gamma/2 and the autocovariance is
(gamma/2) exp(-gamma |t-s|).  Sampling uses the exact one-step transition

    xi(t+D) = xi(t) e^{-gamma D} + N(0, (gamma/2)(1 - e^{-2 gamma D})),

which is bias-free for any step size, on a uniform grid.

An ``OUPath`` carries its step ``dt`` and its running integral
I(t) = int_0^t xi from construction: the constructor validates the grid
once (uniform, starting at 0) and integrates the values by the
trapezoidal rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class OUParams:
    """Damping of the driving process."""

    gamma: float = 1.0

    def __post_init__(self):
        _require_positive(gamma=self.gamma)


@dataclass
class OUPath:
    """One realization on a uniform grid: node times, xi values, the step
    ``dt`` and the running integral I(t) (the trapezoidal integral of the
    values), all fixed at construction.

    A grid that is not uniform from 0 with at least two nodes, or values
    that are not finite or not one per node, raise ``ValueError``.
    """

    times: np.ndarray
    values: np.ndarray
    dt: float = field(init=False)
    integral: np.ndarray = field(init=False)

    def __post_init__(self):
        t = self.times = np.asarray(self.times, dtype=float)
        self.dt = dt = _grid_step(t)
        gap = abs(t - _grid_ramp(dt, t.size))      # abs() of a long temporary reuses it
        # gap at argmax is the max (the first NaN if any) without a ufunc reduce
        if not gap[gap.argmax()] <= 1e-9 * dt:
            raise ValueError("path grid must be uniform and start at 0")
        del gap                                     # free before the integral allocates
        v = self.values = np.asarray(self.values, dtype=float)
        if v.shape != t.shape:
            raise ValueError("values must have one entry per grid node")
        try:
            self.integral = _cumtrapz(v, dt)
            finite = math.isfinite(self.integral[-1])   # a nan or inf value, or an overflow
        except RuntimeWarning:      # inf - inf or an overflow, with warnings as errors
            finite = False
        if not finite:
            raise ValueError("values must be finite, and so must their running integral")

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def integral_at(self, t: float) -> float:
        """Linear interpolation of I(t) between grid nodes, the last node's I
        at or past ``t_end`` (as ``np.interp``); a t outside the path's span
        (beyond a 1e-9 dt roundoff slack) raises ``ValueError``."""
        t_end, slack = self.t_end, 1e-9 * self.dt
        if not -slack <= t <= t_end + slack:
            raise ValueError(f"t={t!r} is outside the path's span [0, {t_end!r}]")
        return float(self.integral[-1] if t >= t_end else np.interp(t, self.times, self.integral))

    def to_csv(self, path) -> None:
        _write_csv(path, "t,xi,integral", [self.times, self.values, self.integral])


_CSV_BLOCK = 4096   # rows formatted per write


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length columns as a comma-separated table under one
    header line.  Values are ``%.17g``, the shortest fixed precision that
    reads back every float64 bit-exactly (nan and inf included).  Rows are
    formatted and written a block at a time, so memory stays bounded by the
    block rather than growing with the table."""
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, data.shape[0], _CSV_BLOCK):
            block = data[start:start + _CSV_BLOCK]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _require_finite(**args: float) -> None:
    for name, value in args.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(**args: float) -> None:
    for name, value in args.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_whole(value, name: str, low: int) -> None:
    """An int or numpy integer (not a bool) >= low, else ``ValueError`` naming it."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= low):
        raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")


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
    safe to draw in parallel.  Both must be integers >= 0.
    """
    _require_whole(seed, "seed", 0)
    _require_whole(index, "index", 0)
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


@lru_cache(maxsize=16)
def _grid_ramp(dt: float, n: int) -> np.ndarray:
    """The nodes dt*j, j = 0..n-1, of the uniform grid ``OUPath`` checks against."""
    ramp = dt * np.arange(n)
    ramp.flags.writeable = False        # shared through the cache
    return ramp


def _scan_weights(d, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(d^j, d^-j), j = 0..length-1, for a float d or a column of rates; d^-j < e^200."""
    j = np.arange(length, dtype=float)
    return d**j, d**-j


@lru_cache(maxsize=64)
def _cached_scan_weights(d: float, length: int) -> tuple[np.ndarray, np.ndarray]:
    up, down = _scan_weights(d, length)
    up.flags.writeable = down.flags.writeable = False   # shared through the cache
    return up, down


def _decay_scan(inp: np.ndarray, d) -> np.ndarray:
    """y_k = d y_{k-1} + inp_k from y_{-1} = 0 along the last axis, for
    0 <= d <= 1 a float or a list of one per row of the last leading axis,
    scanned at once in m even blocks of L <= ceil(200/|ln d|) nodes (d = 1
    is a plain cumsum) as y_j = d^j cumsum(inp_i d^-i) plus d^(j+1) times
    the previous block's last local value; the carry from two blocks back,
    below d^L < e^-100, is dropped.  The rows of one m form one stack.
    Float rates (OU paths, Aris modes) recur, so their weights are cached; a
    list (resolvent rates, set by each call's gamma) gets one power call.  A
    float rate in one block (m = 1: a short OU path) goes straight to its
    weights.  Sums run in ``np.add.accumulate``, ``np.cumsum``'s own loop."""
    n = inp.shape[-1]
    if isinstance(d, float) and 0.0 < d < 1.0 and n <= math.ceil(200.0 / -math.log(d)):
        m, (up, down) = 1, _cached_scan_weights(d, n)
    else:
        ds = [d] if isinstance(d, float) else d
        # m per rate; m = 0 marks d = 1 (a cumsum), m = -1 marks d = 0 (y = inp)
        counts = [-(-n // math.ceil(200.0 / -math.log(v))) if 0.0 < v < 1.0 else int(v) - 1
                  for v in ds]
        if len(set(counts)) > 1:
            rows, out = inp.reshape(-1, len(ds), n), np.empty(inp.shape)
            for m in set(counts):
                sel = np.equal(counts, m)
                ds_m = [v for v, c in zip(ds, counts) if c == m]
                out.reshape(rows.shape)[:, sel] = _decay_scan(rows[:, sel], ds_m)
            return out
        m = counts[0]
        if m < 1:
            return np.add.accumulate(inp, axis=-1) if m == 0 else inp.copy()
        length = -(-n // m)
        up, down = (_cached_scan_weights(d, length) if isinstance(d, float) else
                    _scan_weights(np.array(ds)[:, None], length))
    if m == 1:                              # no padding and no carry
        out = inp * down
        np.add.accumulate(out, axis=-1, out=out)
        return np.multiply(out, up, out=out)
    blocks = np.zeros(inp.shape[:-1] + (m, length))
    blocks.reshape(inp.shape[:-1] + (-1,))[..., :n] = inp
    blocks *= down[..., None, :]
    np.add.accumulate(blocks, axis=-1, out=blocks)
    carry = np.asarray(d)[..., None, None] * up[..., None, -1:]       # d^L per row
    blocks[..., 1:, :] += carry * blocks[..., :-1, -1:]
    blocks *= up[..., None, :]
    return blocks.reshape(inp.shape[:-1] + (-1,))[..., :n]


def sample_ou(params: OUParams, t_grid: np.ndarray, seed: int,
              realization: int = 0) -> OUPath:
    """Draw one stationary OU path on the given uniform grid, integral included.

    Identical (params, t_grid, seed, realization) reproduce the path
    bit-for-bit; distinct realization indices give independent paths.  A
    non-uniform grid raises ``ValueError``.
    """
    t = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(realization_seed(seed, realization))
    decay, var = transition_moments(params.gamma, _grid_step(t))
    inp = rng.standard_normal(t.size)
    inp[0] *= math.sqrt(0.5 * params.gamma)
    inp[1:] *= math.sqrt(var)
    return OUPath(times=t, values=_decay_scan(inp, decay))


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoidal integral on a uniform grid of step dt, zero at the
    first node: ``np.add.accumulate`` (cumsum's loop) of dt (v_k + v_{k+1})/2."""
    out = np.empty(values.size)
    out[0] = 0.0
    steps = np.add(values[:-1], values[1:], out=out[1:])
    np.add.accumulate(np.multiply(steps, 0.5 * dt, out=steps), out=steps)
    return out


def integral_variance(gamma: float, t) -> np.ndarray:
    """Var of int_0^t xi(s) ds for the stationary OU process:
    t + (exp(-gamma t) - 1)/gamma.  A t that is not finite and >= 0 raises
    ``ValueError``."""
    _require_positive(gamma=gamma)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    return t + np.expm1(-gamma * t) / gamma

