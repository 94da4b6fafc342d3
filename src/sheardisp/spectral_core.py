"""Shared numerical kernels.

Closed-form Helmholtz/Laplace inverse operators on the channel cross
section [0, 1] (no-flux and periodic boundary conditions), physicists'
Hermite polynomials and Gauss-Hermite projections, cosine-basis
projections, and the modified Bessel function K0.

Convention fixed throughout the package: *physicists'* Hermite
polynomials, orthogonal under the weight exp(-z^2) with

    (1/sqrt(pi)) * integral H_m H_n exp(-z^2) dz = delta_mn * n! * 2^n.

The probabilists' convention would silently rescale every eigenvalue
derivative built on top of these kernels, so do not swap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.signal import lfilter
from scipy.special import k0


class SolvabilityError(ValueError):
    """Zero-eigenvalue inverse requested for data with nonzero mean."""


# ---------------------------------------------------------------------------
# grid functions on [0, 1]
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Real function sampled on a uniform grid over [0, 1], endpoints included.

    ``nodes`` has N+1 points with N even and N >= 8 so that composite
    Simpson quadrature applies directly.
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

    def integral(self) -> float:
        return float(simpson(self.values, x=self.nodes))

    def mean(self) -> float:
        return self.integral()

    def is_zero_mean(self) -> bool:
        """Solvability of the lambda = 0 inverse: |mean| <= 1e-10 (1 + max|values|)."""
        return bool(abs(self.mean()) <= 1e-10 * (1.0 + np.max(np.abs(self.values))))

    def inner(self, other: "GridFunction") -> float:
        """Inner product integral u*v over [0, 1] by Boole's rule, the
        Richardson extrapolation (16 S_h - S_2h)/15 of the h and 2h Simpson
        sums (exact for quintics); plain Simpson when the interval count is
        not a multiple of 4."""
        if other.nodes.size != self.nodes.size:
            raise ValueError("grid mismatch")
        return float(np.dot(self.values * other.values, _inner_weights(self.nodes.size - 1)))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.nodes, values)

    def centered(self) -> "GridFunction":
        return self.with_values(self.values - self.mean())

    def __call__(self, y) -> np.ndarray:
        """Linear interpolation off the grid (used by particle tracking)."""
        return np.interp(y, self.nodes, self.values)


@lru_cache(maxsize=None)
def _inner_weights(n: int) -> np.ndarray:
    """Boole weights 2h/45 [7, 32, 12, 32, 14, ..., 7] on n intervals of [0, 1];
    Simpson weights h/3 [1, 4, 2, 4, ..., 1] when 4 does not divide n."""
    pattern, scale = ([2.0, 4.0], 1.0 / 3.0) if n % 4 else ([14.0, 32.0, 12.0, 32.0], 2.0 / 45.0)
    w = np.resize(pattern, n + 1) * (scale / n)
    w[0] = w[-1] = 0.5 * w[0]
    w.flags.writeable = False           # shared by every caller through the cache
    return w


def cumint(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson antiderivative with F(x[0]) = 0."""
    return np.concatenate(([0.0], cumulative_simpson(values, x=x)))


# ---------------------------------------------------------------------------
# Helmholtz / Laplace inverses
# ---------------------------------------------------------------------------

# Above this sqrt(lambda) the cosh/sinh closed form loses ~e^{2s}*eps to
# internal cancellation; the scaled decaying-kernel form takes over.
_LARGE_S = 12.0


def _decay_filter_forward(a_vals: np.ndarray, h: float, s: float) -> np.ndarray:
    """F(y_k) = int_0^{y_k} exp(-s (y_k - q)) a(q) dq, a linear per step."""
    eps = np.exp(-s * h)
    one_minus = -np.expm1(-s * h)
    w_left = one_minus / (s * s * h) - eps / s
    w_right = 1.0 / s - one_minus / (s * s * h)
    inp = np.empty_like(a_vals)
    inp[0] = 0.0
    inp[1:] = w_left * a_vals[:-1] + w_right * a_vals[1:]
    return lfilter([1.0], [1.0, -eps], inp)


def _decay_filter_backward(a_vals: np.ndarray, h: float, s: float) -> np.ndarray:
    """F(y_k) = int_{y_k}^1 exp(-s (q - y_k)) a(q) dq."""
    return _decay_filter_forward(a_vals[::-1], h, s)[::-1]


def _decay_cumulative(a_vals: np.ndarray, h: float, s: float) -> np.ndarray:
    """W(y_k) = int_0^{y_k} exp(-s q) a(q) dq, a linear per step.

    The weight collapses within one step once s*h >> 1, where trapezoid
    on the product would be badly biased; each step integrates the
    exponential exactly against the linear interpolant instead.
    """
    eps = np.exp(-s * h)
    one_minus = -np.expm1(-s * h)
    i0 = one_minus / s                       # int_0^h e^{-s w} dw
    i1 = (1.0 - eps * (1.0 + s * h)) / (s * s)   # int_0^h e^{-s w} w dw
    left = a_vals[:-1]
    slope = np.diff(a_vals) / h
    k = np.arange(a_vals.size - 1)
    steps = np.exp(-s * h * k) * (left * i0 + slope * i1)
    out = np.empty_like(a_vals)
    out[0] = 0.0
    out[1:] = np.cumsum(steps)
    return out


def _neumann_large(a: GridFunction, s: float) -> GridFunction:
    # Green's function in decaying-exponential form,
    # G = [e^{-s|y-q|} + e^{-s(y+q)} + e^{-s(2-y-q)} + e^{-s(2-|y-q|)}]
    #     / (2 s (1 - e^{-2s})),
    # with every exponent nonpositive.
    y, h = a.nodes, a.h
    f_fwd = _decay_filter_forward(a.values, h, s)
    f_bwd = _decay_filter_backward(a.values, h, s)
    w_fwd = _decay_cumulative(a.values, h, s)            # int_0^y e^{-s q} a dq
    w_bwd = _decay_cumulative(a.values[::-1], h, s)[::-1]  # int_y^1 e^{-s(1-q)} a dq
    b = (f_fwd + f_bwd
         + np.exp(-s * y) * w_fwd[-1] + np.exp(-s * (1.0 - y)) * w_bwd[0]
         # e^{-2s} image: int e^{-s(2-|y-q|)} a dq
         + np.exp(-s * (2.0 - y)) * w_fwd + np.exp(-s * (1.0 + y)) * w_bwd)
    return a.with_values(b / (2.0 * s * (-np.expm1(-2.0 * s))))


def _periodic_large(a: GridFunction, s: float) -> GridFunction:
    # G = [e^{-s|y-q|} + e^{-s(1-|y-q|)}] / (2 s (1 - e^{-s}))
    y, h = a.nodes, a.h
    f_fwd = _decay_filter_forward(a.values, h, s)
    f_bwd = _decay_filter_backward(a.values, h, s)
    w_fwd = _decay_cumulative(a.values, h, s)
    w_bwd = _decay_cumulative(a.values[::-1], h, s)[::-1]
    wrap = np.exp(-s * (1.0 - y)) * w_fwd + np.exp(-s * y) * w_bwd
    return a.with_values((f_fwd + f_bwd + wrap) / (2.0 * s * (-np.expm1(-s))))


def helmholtz_inverse_neumann(a: GridFunction, lam: float) -> GridFunction:
    """Solve -b'' + lam*b = a on [0,1] with b'(0) = b'(1) = 0.

    Evaluates the closed-form integral representation

        b(y) = [cosh(s*y) * int_0^1 a(q) cosh(s*(1-q)) dq / sinh(s)
                - int_0^y a(q) sinh(s*(y-q)) dq] / s,        s = sqrt(lam)

    for lam > 0; for lam = 0 (solvable only when a has zero mean) the
    double antiderivative -int_0^y int_0^{y1} a.  All integrals are
    composite Simpson on the sampling grid, so the convolution term uses
    the expansion sinh(s*(y-q)) = sinh(s*y)cosh(s*q) - cosh(s*y)sinh(s*q)
    and two cumulative antiderivatives.  That split cancels like
    exp(2s)*eps in floating point, so beyond s = 12 the same Green's
    function is evaluated through exponentially scaled decaying kernels
    instead, trading Simpson's O(N^-4) for uniformly bounded roundoff.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    y = a.nodes
    if lam == 0.0:
        if not a.is_zero_mean():
            raise SolvabilityError("Neumann inverse at lambda=0 needs zero-mean data")
        second = cumint(cumint(a.values, y), y)
        return a.with_values(-second)
    s = np.sqrt(lam)
    if s > _LARGE_S:
        return _neumann_large(a, s)
    ch, sh = np.cosh(s * y), np.sinh(s * y)
    boundary = float(simpson(a.values * np.cosh(s * (1.0 - y)), x=y))
    cum_ch = cumint(a.values * ch, y)
    cum_sh = cumint(a.values * sh, y)
    conv = sh * cum_ch - ch * cum_sh            # int_0^y a(q) sinh(s(y-q)) dq
    b = (ch * boundary / np.sinh(s) - conv) / s
    return a.with_values(b)


def helmholtz_inverse_periodic(a: GridFunction, lam: float) -> GridFunction:
    """Solve -b'' + lam*b = a with b(0) = b(1), b'(0) = b'(1).

    lam > 0 uses the closed form built from sinh/cosh kernels centered at
    y - 1/2 (equivalent to the periodic Green's function
    cosh(s*(|y-q|-1/2)) / (2 s sinh(s/2))).  lam = 0 requires zero-mean
    data and returns

        b(y) = -D(y) + D(1)*y + D(1),   D(y) = int_0^y int_0^{y1} a,

    whose linear coefficient D(1) (rather than the mean of a) is what
    periodicity b(0) = b(1) forces once a has zero mean.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    y = a.nodes
    if lam == 0.0:
        if not a.is_zero_mean():
            raise SolvabilityError("periodic inverse at lambda=0 needs zero-mean data")
        second = cumint(cumint(a.values, y), y)
        d1 = second[-1]
        return a.with_values(-second + d1 * y + d1)
    s = np.sqrt(lam)
    if s > _LARGE_S:
        return _periodic_large(a, s)
    denom = 2.0 * s * np.sinh(s / 2.0)
    int_sh = float(simpson(a.values * np.sinh(s * (1.0 - y)), x=y))
    int_ch = float(simpson(a.values * np.cosh(s * (1.0 - y)), x=y))
    ch, sh = np.cosh(s * y), np.sinh(s * y)
    cum_ch = cumint(a.values * ch, y)
    cum_sh = cumint(a.values * sh, y)
    conv = sh * cum_ch - ch * cum_sh
    b = (np.sinh(s * (y - 0.5)) * int_sh + np.cosh(s * (y - 0.5)) * int_ch) / denom - conv / s
    return a.with_values(b)


def helmholtz_inverse(a: GridFunction, lam: float, bc: str) -> GridFunction:
    if bc == "no-flux":
        return helmholtz_inverse_neumann(a, lam)
    if bc == "periodic":
        return helmholtz_inverse_periodic(a, lam)
    raise ValueError(f"unknown boundary condition {bc!r}")


# ---------------------------------------------------------------------------
# Hermite polynomials and projections
# ---------------------------------------------------------------------------

def hermite_eval(n: int, z) -> np.ndarray:
    """Physicists' Hermite H_n(z) by the three-term recurrence."""
    if n < 0:
        raise ValueError("Hermite index must be nonnegative")
    z = np.asarray(z, dtype=float)
    h_prev = np.ones_like(z)
    if n == 0:
        return h_prev
    h = 2.0 * z
    for k in range(1, n):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
    return h


def hermite_norm(n: int) -> float:
    """(1/sqrt(pi)) int H_n^2 exp(-z^2) dz = n! 2^n."""
    out = 1.0
    for k in range(1, n + 1):
        out *= 2.0 * k
    return out


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
        z = np.asarray(z, dtype=float)
        abar = self.mean_coefficients()
        out = np.zeros_like(z)
        for n, cn in enumerate(abar):
            if cn != 0.0:
                out += cn * hermite_eval(n, z)
        return out

    def synthesize(self, y, z):
        """Evaluate sum_n a_n(y) H_n(z) (+shift); y and z broadcast, so one
        call serves scalar y with an array of z, or particle positions y
        at one z."""
        out = self.shift
        for n, c in enumerate(self.coeffs):
            out = out + c(y) * hermite_eval(n, z)
        return out


def hermite_project(v, gamma: float, n_h: int, grid: np.ndarray,
                    n_quad: int | None = None) -> HermiteSeries:
    """Project a flow v(y, xi) onto Hermite modes in the scaled variable.

    Computes a_n(y) = (1/(sqrt(pi) n! 2^n)) int v(y, sqrt(gamma) z) H_n(z)
    exp(-z^2) dz by Gauss-Hermite quadrature and removes the mean of a_0
    (returned as ``shift``) so downstream eigenvalue series apply.

    ``v`` is called as v(y_array, xi_scalar) with xi the physical flow
    argument; the quadrature feeds it xi = sqrt(gamma) * z_node.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if n_quad is None:
        n_quad = 2 * n_h + 16
    if n_quad < max(n_h, 2 * n_h):
        raise ValueError(f"quadrature order {n_quad} too small for {n_h} modes")
    z_nodes, w = np.polynomial.hermite.hermgauss(n_quad)
    y = np.asarray(grid, dtype=float)
    # samples[i, j] = v(y_j, sqrt(gamma) z_i)
    samples = np.array([np.asarray(v(y, np.sqrt(gamma) * z)) * np.ones_like(y)
                        for z in z_nodes])
    coeffs = []
    for n in range(n_h + 1):
        hn = hermite_eval(n, z_nodes)
        an = (w * hn) @ samples / (np.sqrt(np.pi) * hermite_norm(n))
        coeffs.append(GridFunction(y, an))
    shift = coeffs[0].mean()
    coeffs[0] = coeffs[0].centered()
    return HermiteSeries(coeffs, shift=shift)


# ---------------------------------------------------------------------------
# cosine basis on [0, 1]
# ---------------------------------------------------------------------------

def cosine_project(u: GridFunction, n_max: int) -> np.ndarray:
    """Coefficients <u, phi_n> for phi_0 = 1, phi_n = sqrt(2) cos(n pi y)."""
    y = u.nodes
    out = np.empty(n_max + 1)
    out[0] = u.integral()
    for n in range(1, n_max + 1):
        out[n] = simpson(u.values * np.sqrt(2.0) * np.cos(n * np.pi * y), x=y)
    return out


def cosine_eigenvalue(n: int) -> float:
    """Neumann Laplacian eigenvalue n^2 pi^2 for phi_n."""
    return float(n * n * np.pi * np.pi)


# ---------------------------------------------------------------------------
# modified Bessel function K0
# ---------------------------------------------------------------------------

def bessel_k0(x) -> np.ndarray:
    """Modified Bessel function K0(x), x > 0 (scipy.special.k0)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("K0 is defined for x > 0 only")
    out = k0(x_arr)
    return float(out) if x_arr.ndim == 0 else out
