"""Shared numerical kernels.

One Helmholtz/Laplace inverse (-d^2/dy^2 + lambda)^{-1} on the channel
cross section [0, 1]: for lambda > 0 the free-space kernel
exp(-s|y - q|)/(2s), s = sqrt(lambda), plus one decaying exponential per
wall, whose two coefficients are all that no-flux and periodic walls
change; for lambda = 0 a double antiderivative.  Also grid functions with
one quadrature rule (Boole's, for integrals, means and inner products),
Hermite series and their Gauss-Hermite projections (numpy's ``hermval``
and ``hermvander`` do the Hermite algebra), and cosine-basis projections.

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
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss, hermval, hermvander

from .ou_process import _decay_scan


class SolvabilityError(ValueError):
    """Zero-eigenvalue inverse requested for data with nonzero mean."""


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
        if not np.allclose(h, h[0], rtol=1e-12, atol=1e-14):
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
        """Solvability of the lambda = 0 inverse: |mean| <= 1e-10 (1 + max|values|)."""
        return bool(abs(self.mean()) <= 1e-10 * (1.0 + np.max(np.abs(self.values))))

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
        only the index arithmetic and the two gathers still allocate.
        """
        n = self.nodes.size - 1
        s = np.clip(np.asarray(y, dtype=float), 0.0, 1.0, out=out)
        s *= n
        # i = n (slope 0) only at s = n, so y >= 1 returns v_n exactly;
        # fmin also drops NaN, which keeps the integer cast warning-free
        k = np.fmin(np.floor(s), n).astype(np.intp)
        slope = np.ediff1d(self.values, to_end=0.0)
        s -= k          # the index converts to float exactly: s - i
        s *= slope[k]
        s += self.values[k]
        return s


@lru_cache(maxsize=None)
def _inner_weights(n: int) -> np.ndarray:
    """Boole weights 2h/45 [7, 32, 12, 32, 14, ..., 7] on n intervals of [0, 1];
    Simpson weights h/3 [1, 4, 2, 4, ..., 1] when 4 does not divide n."""
    pattern, scale = ([2.0, 4.0], 1.0 / 3.0) if n % 4 else ([14.0, 32.0, 12.0, 32.0], 2.0 / 45.0)
    w = np.resize(pattern, n + 1) * (scale / n)
    w[0] = w[-1] = 0.5 * w[0]
    w.flags.writeable = False           # shared by every caller through the cache
    return w


def cumint(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative Simpson antiderivative with F(x[0]) = 0 on a uniform grid of
    step h: interval i integrates the parabola through nodes i..i+2 when i is
    even, (h/12)(5 f_i + 8 f_{i+1} - f_{i+2}), and through nodes i-1..i+1
    when i is odd or the last, (h/12)(-f_{i-1} + 8 f_i + 5 f_{i+1})."""
    f = np.asarray(values, dtype=float)
    left = 5.0 * f[:-2] + 8.0 * f[1:-1] - f[2:]     # interval i, nodes i..i+2
    right = -f[:-2] + 8.0 * f[1:-1] + 5.0 * f[2:]   # interval i+1, nodes i..i+2
    steps = np.append(left, right[-1])
    steps[1::2] = right[::2]
    return np.concatenate(([0.0], np.cumsum(steps * (h / 12.0))))


# ---------------------------------------------------------------------------
# Helmholtz / Laplace inverses
# ---------------------------------------------------------------------------

# C[c, i, k]: the coefficient of u^k (u = 1 - t) in the Lagrange basis
# polynomial of node i of the cubic through four neighbouring nodes at
# offsets t (in steps from the step's left node) {0..3} on the first step
# (c = 0), {-1..2} inside (c = 1) and {-2..1} on the last step (c = 2)
_CUBIC_COEFFS = np.array([np.linalg.inv(np.vander(1.0 - np.arange(o, o + 4.0), 4, increasing=True)).T
                          for o in (0.0, -1.0, -2.0)])
# below x = 1, m_k(x) = sum_j (-x)^j / ((k + 1 + j) j!), 24 terms (1/24! < 1e-23)
_J = np.arange(24.0)
_SERIES = 1.0 / ((np.arange(4.0)[:, None] + 1.0 + _J)
                 * np.array([math.factorial(j) for j in range(_J.size)], dtype=float))


def _exp_moments(x: float) -> np.ndarray:
    """m_k(x) = int_0^1 exp(-x u) u^k du for k = 0..3 and x > 0: the power
    series below x = 1, where the recursion loses digits, else the upward
    recursion m_0 = (1 - exp(-x))/x, m_k = (k m_{k-1} - exp(-x))/x."""
    if x < 1.0:
        return _SERIES @ (-x) ** _J
    e = math.exp(-x)
    m = [-math.expm1(-x) / x]
    for k in (1.0, 2.0, 3.0):
        m.append((k * m[-1] - e) / x)
    return np.array(m)


def _decay_integral(a_vals: np.ndarray, h: float, s: float) -> np.ndarray:
    """F(y_k) = int_0^{y_k} exp(-s (y_k - q)) a(q) dq, fourth order at every
    s > 0: each step takes the kernel exactly against the cubic through four
    neighbouring nodes, by the moments ``_exp_moments(s h)``, and the decay
    scan F_k = exp(-x) F_{k-1} + step_k sums them."""
    x = s * h
    w = h * (_CUBIC_COEFFS @ _exp_moments(x))
    inp = np.concatenate(([0.0, w[0] @ a_vals[:4]], np.correlate(a_vals, w[1], "valid"),
                          [w[2] @ a_vals[-4:]]))
    return _decay_scan(inp, math.exp(-x))


def helmholtz_inverse(a: GridFunction, lam: float, bc: str) -> GridFunction:
    """Solve -b'' + lam*b = a on [0, 1] with no-flux (b'(0) = b'(1) = 0) or
    periodic (b(0) = b(1), b'(0) = b'(1)) walls.

    For lam > 0, with s = sqrt(lam), E = exp(-s), the free-space kernel
    exp(-s|y - q|)/(2s) plus one decaying exponential from each wall,

        b = (F + B + alpha exp(-s y) + beta exp(-s (1 - y))) / (2s),
        F(y) = int_0^y exp(-s (y - q)) a dq,  B(y) = int_y^1 exp(-s (q - y)) a dq,

    where the walls only choose (alpha, beta):
    no-flux (B(0) + E F(1), F(1) + E B(0)) / (1 - E^2),
    periodic (F(1), B(0)) / (1 - E).  Both walls give lam mean(b) = mean(a),
    which sets b's constant mode, where the walls would otherwise amplify
    the quadrature error of F(1) and B(0) by 1/lam as lam -> 0.

    lam = 0 needs zero-mean data (else SolvabilityError) and returns
    -D(y), D(y) = int_0^y int_0^{y1} a; periodic walls add D(1) y + D(1),
    the linear term periodicity b(0) = b(1) forces.
    """
    if bc not in ("no-flux", "periodic"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    y = a.nodes
    if lam == 0.0:
        if not a.is_zero_mean():
            raise SolvabilityError(f"{bc} inverse at lambda=0 needs zero-mean data")
        second = cumint(cumint(a.values, a.h), a.h)
        b = -second
        if bc == "periodic":
            b = b + second[-1] * y + second[-1]
        return a.with_values(b)
    s = np.sqrt(lam)
    fwd = _decay_integral(a.values, a.h, s)
    bwd = _decay_integral(a.values[::-1], a.h, s)[::-1]
    f1, b0, e = fwd[-1], bwd[0], np.exp(-s)
    if bc == "no-flux":
        d = -np.expm1(-2.0 * s)             # 1 - E^2
        alpha, beta = (b0 + e * f1) / d, (f1 + e * b0) / d
    else:
        d = -np.expm1(-s)                   # 1 - E
        alpha, beta = f1 / d, b0 / d
    b = a.with_values((fwd + bwd + alpha * np.exp(-s * y) + beta * np.exp(-s * (1.0 - y)))
                      / (2.0 * s))
    return b.with_values(b.values + (a.mean() / lam - b.mean()))


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

    @property
    def n_modes(self) -> int:
        return len(self.coeffs) - 1

    def mean_coefficients(self) -> np.ndarray:
        """Cross-sectional means abar_n; abar_0 is zero by construction."""
        return np.array([c.mean() for c in self.coeffs])

    def vbar(self, z) -> np.ndarray:
        """Cross-sectionally averaged flow sum_n abar_n H_n(z)."""
        return hermval(np.asarray(z, dtype=float), self.mean_coefficients())

    def synthesize(self, y, z):
        """Evaluate sum_n a_n(y) H_n(z) (+shift); y and z broadcast, so one
        call serves scalar y with an array of z, or particle positions y
        at one z."""
        return self.shift + hermval(z, np.array([c(y) for c in self.coeffs]), tensor=False)


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
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z_nodes, w = hermgauss(2 * n_h + 16)
    y = np.asarray(grid, dtype=float)
    # samples[i, j] = v(y_j, sqrt(gamma) z_i)
    samples = np.array([np.asarray(v(y, np.sqrt(gamma) * z)) * np.ones_like(y)
                        for z in z_nodes])
    norms = np.sqrt(np.pi) * np.array([hermite_norm(n) for n in range(n_h + 1)])
    a = (hermvander(z_nodes, n_h) * w[:, None]).T @ samples / norms[:, None]
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
    y = u.nodes
    modes = np.sqrt(2.0) * np.cos(np.pi * np.outer(np.arange(n_max + 1), y))
    modes[0] = 1.0
    return np.sum(modes * (u.values * _inner_weights(y.size - 1)), axis=1)


def cosine_eigenvalue(n: int) -> float:
    """Neumann Laplacian eigenvalue n^2 pi^2 for phi_n."""
    return float(n * n * np.pi * np.pi)
