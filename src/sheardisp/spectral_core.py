"""Shared numerical kernels.

One Helmholtz inverse (-d^2/dy^2 + lambda)^{-1}, lambda > 0, on the channel
cross section [0, 1]: the free-space kernel exp(-s|y - q|)/(2s),
s = sqrt(lambda), plus one decaying exponential per wall, whose two
coefficients are all that no-flux and periodic walls change, solved for a
stack of rows with one rate per row (every Hermite mode n >= 1 of lambda2
in one call).  Also grid functions with one
quadrature rule (Boole's, for integrals, means and inner products),
Hermite series and their Gauss-Hermite projections (numpy's ``hermval``
and ``hermvander`` do the Hermite algebra, reached where they are called
so that importing this module leaves ``numpy.polynomial`` unloaded), and
cosine-basis projections.

Convention fixed throughout the package: *physicists'* Hermite
polynomials, orthogonal under the weight exp(-z^2) with

    (1/sqrt(pi)) * integral H_m H_n exp(-z^2) dz = delta_mn * n! * 2^n.

This is the convention of ``numpy.polynomial.hermite``.  The
probabilists' convention (``hermite_e``) would silently rescale every
eigenvalue derivative built on top of these kernels, so do not swap it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ou_process import _decay_scan, _require_positive, _require_whole


# ---------------------------------------------------------------------------
# grid functions on [0, 1]
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Real function sampled on a uniform grid over [0, 1], endpoints included.

    ``nodes`` has N+1 points with N even and N >= 8.  Means (on [0, 1] the
    same number as integrals) and inner products share one rule: Boole's,
    the Richardson extrapolation (16 S_h - S_2h)/15 of the h and 2h Simpson
    sums (exact for quintics), and plain Simpson when 4 does not divide N.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        n = self.nodes.size - 1
        if n < 8 or n % 2 != 0:
            raise ValueError(f"need an even number of intervals >= 8, got {n}")
        if self.values.shape != self.nodes.shape:
            raise ValueError("nodes and values must have the same shape")
        h = np.diff(self.nodes)
        if not (abs(self.nodes[0]) < 1e-14 and abs(self.nodes[-1] - 1.0) < 1e-14):
            raise ValueError("grid must span [0, 1]")
        # max|h - h_0| <= 1e-14 + 1e-12 |h_0|, False for NaN nodes
        if not np.abs(h - h[0]).max() <= 1e-14 + 1e-12 * abs(h[0]):
            raise ValueError("grid must be uniform")

    @classmethod
    def from_callable(cls, f, n: int = 512) -> "GridFunction":
        nodes = np.linspace(0.0, 1.0, n + 1)
        return cls(nodes, np.asarray(f(nodes), dtype=float) * np.ones(n + 1))

    @property
    def h(self) -> float:
        return self.nodes[1] - self.nodes[0]

    def mean(self) -> float:
        """The grid's one quadrature: numpy's pairwise sum of values times
        the Boole (or Simpson) weights, the same sum ``cosine_project`` takes."""
        return float(np.sum(self.values * _inner_weights(self.nodes.size - 1)))

    def is_zero_mean(self) -> bool:
        """Mean zero up to roundoff: |mean| <= 1e-10 (1 + max|values|)."""
        return bool(abs(self.mean()) <= 1e-10 * (1.0 + np.abs(self.values).max()))

    def inner(self, other: "GridFunction") -> float:
        """Inner product: the integral of u*v over [0, 1]."""
        if other.nodes.size != self.nodes.size:
            raise ValueError("grid mismatch")
        return self.with_values(self.values * other.values).mean()

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """New values on this (already validated) grid; only their shape is checked."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise ValueError("nodes and values must have the same shape")
        out = copy.copy(self)
        out.values = values
        out.__dict__.pop("_slope", None)    # the lookup slope of the old values
        return out

    def centered(self) -> "GridFunction":
        return self.with_values(self.values - self.mean())

    def __call__(self, y, out=None) -> np.ndarray:
        """Linear interpolation off the grid (used by particle tracking).

        Index arithmetic on the uniform grid: s = clip(y, 0, 1) N, node
        i = floor(s), value v_i + (s - i)(v_{i+1} - v_i).  Out-of-range y
        clamps to the end values, as ``np.interp`` does; NaN gives NaN.

        With ``out`` (a float array of y's shape, which may be y itself) the
        result is built there and returned, with the same bits as without;
        only the float cell i, its integer copy and the two gathers allocate.
        """
        n = self.nodes.size - 1
        s = np.clip(np.asarray(y, dtype=float), 0.0, 1.0, out=out)
        s *= n
        # i = n (slope 0) only at s = n, so y >= 1 returns v_n exactly;
        # fmin also drops NaN, which keeps the integer cast warning-free
        cell = np.fmin(np.floor(s), n)
        k = cell.astype(np.intp)
        s -= cell
        del cell    # kept alive, a 20k-point call took 86 page faults and twice the time
        s *= self._slope.take(k)
        s += self.values.take(k)
        return s

    @cached_property
    def _slope(self) -> np.ndarray:
        """v_{i+1} - v_i, 0 past the last node, once per values array."""
        return np.ediff1d(self.values, to_end=0.0)


@lru_cache(maxsize=None)
def _inner_weights(n: int) -> np.ndarray:
    """Boole weights 2h/45 [7, 32, 12, 32, 14, ..., 7] on n intervals of [0, 1];
    Simpson weights h/3 [1, 4, 2, 4, ..., 1] when 4 does not divide n."""
    pattern, scale = ([2.0, 4.0], 1.0 / 3.0) if n % 4 else ([14.0, 32.0, 12.0, 32.0], 2.0 / 45.0)
    w = np.resize(pattern, n + 1) * (scale / n)
    w[0] = w[-1] = 0.5 * w[0]
    w.flags.writeable = False           # shared by every caller through the cache
    return w


# ---------------------------------------------------------------------------
# Helmholtz inverse
# ---------------------------------------------------------------------------

# C[c, i, k]: the coefficient of u^k (u = 1 - t) in the Lagrange basis
# polynomial of node i of the cubic through four neighbouring nodes at
# offsets t (in steps from the step's left node) {0..3} on the first step
# (c = 0), {-1..2} inside (c = 1) and {-2..1} on the last step (c = 2)
_CUBIC_COEFFS = np.array([np.linalg.inv(np.vander(1.0 - np.arange(o, o + 4.0), 4, increasing=True)).T
                          for o in (0.0, -1.0, -2.0)])
# below x = 1, m_k(x) = sum_j x^j (-1)^j / ((k + 1 + j) j!), 24 terms (1/24! < 1e-23)
_J = np.arange(24.0)
_SERIES = (-1.0) ** _J / ((np.arange(4.0)[:, None] + 1.0 + _J)
                          * np.array([math.factorial(j) for j in range(_J.size)], dtype=float))
_STEP_0 = _CUBIC_COEFFS @ _SERIES[:, 0]      # step weights / h at s = 0: m_k(0) = 1/(k + 1)


def _exp_moments(x) -> np.ndarray:
    """m_k(x) = int_0^1 exp(-x u) u^k du for k = 0..3, shape x.shape + (4,),
    for x >= 0: the power series below x = 1, where the recursion loses
    digits (at x = 0 it is 1/(k + 1) exactly), else the upward recursion
    m_0 = (1 - exp(-x))/x, m_k = (k m_{k-1} - exp(-x))/x."""
    x = np.asarray(x, dtype=float)
    m = (_SERIES @ (np.minimum(x, 1.0)[..., None] ** _J)[..., None])[..., 0]
    for i, v in enumerate(x.ravel().tolist()):
        if v >= 1.0:
            e, row = math.exp(-v), [-math.expm1(-v) / v]
            for k in (1.0, 2.0, 3.0):
                row.append((k * row[-1] - e) / v)
            m.reshape(-1, 4)[i] = row
    return m


def _decay_integral(a_vals: np.ndarray, h: float, s) -> np.ndarray:
    """F(y_k) = int_0^{y_k} exp(-s (y_k - q)) a(q) dq along the last axis, s a
    float or one rate per row of the last leading axis, fourth order at
    every s >= 0; s = 0 is the running integral, exact for cubics.  Each
    step takes the kernel exactly against the cubic through four
    neighbouring nodes, by the moments ``_exp_moments(s h)`` (inside, one
    ``np.correlate`` per row, twice as fast as shifted slices), and
    ``_decay_scan`` sums F_k = exp(-s h) F_{k-1} + step_k."""
    x = np.asarray(s * h, dtype=float)
    xs = x.ravel().tolist()
    zero = max(xs) == 0.0
    w = h * (_STEP_0 if zero else (_CUBIC_COEFFS @ _exp_moments(x)[..., None, :, None])[..., 0])
    n = a_vals.shape[-1]
    inp = np.zeros(a_vals.shape)
    inp[..., 1] = (w[..., 0, None, :] @ a_vals[..., :4, None])[..., 0, 0]
    inp[..., -1] = (w[..., 2, None, :] @ a_vals[..., -4:, None])[..., 0, 0]
    taps, rows = w[..., 1, :].reshape(-1, 4), inp.reshape(-1, n)
    for i, a_row in enumerate(a_vals.reshape(-1, n)):
        rows[i, 2:-1] = np.correlate(a_row, taps[i % len(taps)], "valid")
    d = 1.0 if zero else [math.exp(-v) for v in xs]
    return _decay_scan(inp, d if x.ndim or zero else d[0])


def _helmholtz_rows(a: np.ndarray, nodes: np.ndarray, lam: np.ndarray, bc: str) -> np.ndarray:
    """The kernel of ``helmholtz_inverse`` for a stack of rows a_r on
    ``nodes``, one rate lam_r > 0 per row; all decay integrals in one call.
    The callers check the wall name."""
    s = np.sqrt(lam)
    fwd, bwd = _decay_integral(np.array((a, a[:, ::-1])), nodes[1] - nodes[0], s)
    bwd, s, ms = bwd[:, ::-1], s[:, None], -s[:, None]
    f1, b0, e = fwd[:, -1:], bwd[:, :1], np.exp(ms)
    if bc == "no-flux":
        d = -np.expm1(2.0 * ms)             # 1 - E^2
        alpha, beta = (b0 + e * f1) / d, (f1 + e * b0) / d
    else:
        d = -np.expm1(ms)                   # 1 - E, periodic
        alpha, beta = f1 / d, b0 / d
    b = (fwd + bwd + alpha * np.exp(ms * nodes) + beta * np.exp(ms * (1.0 - nodes))) / (2.0 * s)
    w = _inner_weights(nodes.size - 1)
    return b + ((a * w).sum(-1) / lam - (b * w).sum(-1))[:, None]


def helmholtz_inverse(a: GridFunction, lam: float, bc: str) -> GridFunction:
    """Solve -b'' + lam*b = a on [0, 1], 0 < lam < inf, with no-flux
    (b'(0) = b'(1) = 0) or periodic (b(0) = b(1), b'(0) = b'(1)) walls.

    With s = sqrt(lam), E = exp(-s), the free-space kernel
    exp(-s|y - q|)/(2s) plus one decaying exponential from each wall,

        b = (F + B + alpha exp(-s y) + beta exp(-s (1 - y))) / (2s),
        F(y) = int_0^y exp(-s (y - q)) a dq,  B(y) = int_y^1 exp(-s (q - y)) a dq,

    where the walls only choose (alpha, beta):
    no-flux (B(0) + E F(1), F(1) + E B(0)) / (1 - E^2),
    periodic (F(1), B(0)) / (1 - E).  Both walls give lam mean(b) = mean(a),
    which sets b's constant mode, where the walls would otherwise amplify
    the quadrature error of F(1) and B(0) by 1/lam as lam -> 0.  This is
    the one-row case of the stacked kernel ``_helmholtz_rows``.
    """
    if bc not in ("no-flux", "periodic"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    return a.with_values(_helmholtz_rows(a.values[None], a.nodes, np.array([float(lam)]), bc)[0])


# ---------------------------------------------------------------------------
# Hermite polynomials and projections
# ---------------------------------------------------------------------------

def hermite_norm(n: int) -> float:
    """(1/sqrt(pi)) int H_n^2 exp(-z^2) dz = n! 2^n."""
    return math.factorial(n) * 2.0**n


@dataclass
class HermiteSeries:
    """Coefficients a_n(y) of v(y, sqrt(gamma)*z) = sum_n a_n(y) H_n(z).

    ``shift`` records the cross-sectional mean removed from a_0 so that
    the stored a_0 has zero mean (Galilean frame).
    """

    coeffs: list
    shift: float = 0.0

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least the n=0 coefficient")
        if not self.coeffs[0].is_zero_mean():
            raise ValueError("a_0 must have zero cross-sectional mean (apply the Galilean shift)")
        if len({c.nodes.size for c in self.coeffs}) > 1:
            raise ValueError("all coefficients must share one grid")

    @property
    def n_modes(self) -> int:
        return len(self.coeffs) - 1

    def mean_coefficients(self) -> np.ndarray:
        """abar_n (abar_0 = 0): one stacked product, rows summed bit for bit as ``mean()``."""
        values = np.array([c.values for c in self.coeffs])
        return (values * _inner_weights(values.shape[1] - 1)).sum(axis=1)

    def vbar(self, z) -> np.ndarray:
        """Cross-sectionally averaged flow sum_n abar_n H_n(z)."""
        return np.polynomial.hermite.hermval(np.asarray(z, dtype=float), self.mean_coefficients())

    def synthesize(self, y, z: float, out=None) -> np.ndarray:
        """Evaluate sum_n a_n(y) H_n(z) (+shift) at positions y and one z: one
        ``hermval`` sums the modes on the grid and the sum is looked up once,
        into ``out`` as in ``GridFunction.__call__``."""
        coeffs = np.array([c.values for c in self.coeffs])
        grid = np.polynomial.hermite.hermval(float(z), coeffs) + self.shift
        return self.coeffs[0].with_values(grid)(y, out=out)


def hermite_project(v, gamma: float, n_h: int, grid: np.ndarray) -> HermiteSeries:
    """Project a flow v(y, xi) onto Hermite modes in the scaled variable.

    Computes a_n(y) = (1/(sqrt(pi) n! 2^n)) int v(y, sqrt(gamma) z) H_n(z)
    exp(-z^2) dz for n = 0..n_h by (2 n_h + 16)-point Gauss-Hermite
    quadrature, one ``hermvander`` product for all modes, and removes the
    mean of a_0 (returned as ``shift``) so downstream eigenvalue series
    apply.

    ``v`` is called as v(y_array, xi_scalar) with xi the physical flow
    argument; the quadrature feeds it xi = sqrt(gamma) * z_node.
    """
    _require_positive(gamma=gamma)
    z_nodes, w = np.polynomial.hermite.hermgauss(2 * n_h + 16)
    y = np.asarray(grid, dtype=float)
    # samples[i, j] = v(y_j, sqrt(gamma) z_i)
    samples = np.array([np.asarray(v(y, np.sqrt(gamma) * z)) * np.ones_like(y)
                        for z in z_nodes])
    norms = np.sqrt(np.pi) * np.array([hermite_norm(n) for n in range(n_h + 1)])
    a = (np.polynomial.hermite.hermvander(z_nodes, n_h) * w[:, None]).T @ samples / norms[:, None]
    coeffs = [GridFunction(y, an) for an in a]
    shift = coeffs[0].mean()
    coeffs[0] = coeffs[0].centered()
    return HermiteSeries(coeffs, shift=shift)


# ---------------------------------------------------------------------------
# cosine basis on [0, 1]
# ---------------------------------------------------------------------------

def cosine_project(u: GridFunction, n_max: int) -> np.ndarray:
    """Coefficients <u, phi_n> for phi_0 = 1, phi_n = sqrt(2) cos(n pi y),
    by the GridFunction quadrature row by row, so c_0 is u.mean() bit for bit."""
    _require_whole(n_max, "n_max", 0)
    y = u.nodes
    modes = np.sqrt(2.0) * np.cos(np.pi * np.outer(np.arange(n_max + 1), y))
    modes[0] = 1.0
    return np.sum(modes * (u.values * _inner_weights(y.size - 1)), axis=1)


def cosine_eigenvalue(n: int) -> float:
    """Neumann Laplacian eigenvalue n^2 pi^2 for phi_n."""
    return float(n * n * np.pi * np.pi)
