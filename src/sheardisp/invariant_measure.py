"""Closed-form long-time PDFs of the rescaled scalar.

Deterministic integrable initial data leads, after rescaling by the
Gaussian peak factor, to values Ttilde = exp(-beta Z^2 / 2) with Z
standard normal, whose density on (0, 1) is

    f(z) = z^{1/beta - 1} / sqrt(-pi beta log z),

with CDF erfc(sqrt(-log(z)/beta)).  Random-wave initial data leads to
Ttilde = N(0,1) * cos(U), U uniform, with the Bessel-K0 density.  Both
are cross-checked here: the deterministic family against its moment
function (s beta + 1)^{-1/2} through a fixed-Talbot inverse Laplace
reconstruction, the random-wave family against quadrature moments.

All quadrature on the deterministic density goes through the
substitution w = -log z, which maps (0,1) to (0,inf) and removes both
endpoint singularities analytically (the integrand becomes Gamma-type).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, k0e

_TALBOT_NODES = 32       # fixed-Talbot contour points


@dataclass(frozen=True)
class BetaSpec:
    """Parameters determining the deterministic-data shape parameter beta.

    Leading order beta = Pe^2 ubar^2 / (2 kappa_eff); the finite-time
    field set (t, s, v_t) refines it for an initial Gaussian of variance
    s using the exact variance v_t of the OU time integral.
    """

    pe: float
    ubar: float
    kappa_eff: float
    t: Optional[float] = None
    s: Optional[float] = None
    v_t: Optional[float] = None

    def __post_init__(self):
        if self.kappa_eff <= 0:
            raise ValueError("kappa_eff must be positive")

    @property
    def beta_leading(self) -> float:
        return self.pe**2 * self.ubar**2 / (2.0 * self.kappa_eff)


def beta_finite_time(spec: BetaSpec) -> float:
    """Finite-time beta = 2 Pe^2 ubar^2 v(t) / (4 t kappa_eff + 2 s).

    Reduces to the leading-order value as t -> inf with v(t)/t -> 1."""
    if spec.t is None or spec.s is None or spec.v_t is None:
        raise ValueError("finite-time fields (t, s, v_t) must all be present")
    return 2.0 * spec.pe**2 * spec.ubar**2 * spec.v_t / (4.0 * spec.t * spec.kappa_eff + 2.0 * spec.s)


# ---------------------------------------------------------------------------
# deterministic initial data
# ---------------------------------------------------------------------------

def pdf_deterministic(z, beta: float):
    """Density z^{1/beta-1} / sqrt(-pi beta log z) on (0, 1).

    Continuous at 0 for beta <= 1, divergent there for beta > 1 (a
    feature, not an error); always a logarithmic divergence at z = 1.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    z_arr = np.asarray(z, dtype=float)
    if np.any((z_arr <= 0.0) | (z_arr >= 1.0)):
        raise ValueError("z must lie strictly inside (0, 1)")
    return z_arr ** (1.0 / beta - 1.0) / np.sqrt(-math.pi * beta * np.log(z_arr))


def cdf_deterministic(z, beta: float):
    """Closed-form CDF erfc(sqrt(-log(z)/beta)) of the rescaled scalar."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    z_arr = np.clip(np.asarray(z, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        w = -np.log(z_arr)
    return erfc(np.sqrt(w / beta))


def moment_function(s: float, beta: float) -> float:
    """mu(s) = <Ttilde^s> = (s beta + 1)^{-1/2}, the N-th moment formula
    continued off the integers."""
    if s * beta + 1.0 <= 0.0:
        raise ValueError(f"moment function pole crossed: s*beta+1 = {s * beta + 1.0}")
    return (s * beta + 1.0) ** -0.5


def pdf_moment_quadrature(n: float, beta: float) -> float:
    """Independent check of moment_function: int z^n f(z) dz computed under
    w = -log z, then v = sqrt(w), leaving a plain Gaussian integral."""
    rate = n + 1.0 / beta
    val, _ = quad(lambda v: 2.0 * np.exp(-rate * v * v) / math.sqrt(math.pi * beta), 0.0, np.inf)
    return val


# ---------------------------------------------------------------------------
# fixed-Talbot inverse Laplace transform
# ---------------------------------------------------------------------------

def talbot_inverse(transform, w):
    """Numerical inverse Laplace transform on the fixed Talbot contour.

    Samples the transform along p(theta) = (r/w) theta (cot theta + i) at
    M = _TALBOT_NODES points, r = 2 M / 5, and sums the standard weights.
    The deformed contour requires all singularities of the transform on
    or near the negative real axis, which holds for every transform used
    here.
    """
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w_arr <= 0):
        raise ValueError("inversion abscissa must be positive")
    m = _TALBOT_NODES
    r = 2.0 * m / 5.0
    theta = np.pi * np.arange(1, m) / m
    cot = 1.0 / np.tan(theta)
    out = np.empty_like(w_arr)
    for i, t in enumerate(w_arr):
        p0 = r / t
        acc = 0.5 * math.exp(r) * complex(transform(complex(p0, 0.0)))
        p = (r / t) * theta * (cot + 1j)
        weights = 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)
        fp = np.array([transform(pk) for pk in p], dtype=complex)
        acc += np.sum(np.exp(t * p) * weights * fp)
        out[i] = 2.0 / (5.0 * t) * acc.real
    if np.ndim(w) == 0:
        return float(out[0])
    return out


def reconstruct_pdf_from_moments(beta: float, z_grid):
    """Rebuild the deterministic-data density from its moment function by
    inverse Laplace transform: f(z) = L^{-1}(mu)(-log z) / z.

    Must agree with pdf_deterministic; the Talbot scheme itself is
    validated in the test suite on the analytic pair
    L^{-1}((s+1)^{-1/2})(w) = e^{-w}/sqrt(pi w).
    """
    z_arr = np.atleast_1d(np.asarray(z_grid, dtype=float))
    if np.any((z_arr <= 0.0) | (z_arr >= 1.0)):
        raise ValueError("z grid must lie strictly inside (0, 1)")
    w = -np.log(z_arr)
    vals = talbot_inverse(lambda p: (beta * p + 1.0) ** -0.5, w)
    if not np.all(np.isfinite(vals)):
        raise RuntimeError("Talbot contour evaluation failed (non-finite sum)")
    out = vals / z_arr
    if np.ndim(z_grid) == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# random-wave initial data
# ---------------------------------------------------------------------------

_RW_NORM = 1.0 / (math.sqrt(2.0) * math.pi**1.5)


def pdf_random_wave(z):
    """Density of Ttilde = N(0,1)*cos(U):  e^{-z^2/4} K0(z^2/4) / (sqrt(2) pi^{3/2}).

    Symmetric, unit mass, variance 1/2, fourth moment 9/8 (kurtosis 9/2);
    logarithmically singular at z = 0, where +inf is returned.
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    out = np.full(z_arr.shape, np.inf)
    nz = z_arr != 0.0
    q = z_arr[nz] ** 2 / 4.0
    out[nz] = k0e(q) * np.exp(-2.0 * q) * _RW_NORM   # e^{-q} K0(q)
    return float(out[0]) if scalar else out


def pdf_random_wave_tail(z):
    """Large-|z| expansion e^{-z^2/2} (1/(pi z) - 1/(2 pi z^3))."""
    z_arr = np.abs(np.asarray(z, dtype=float))
    return np.exp(-z_arr**2 / 2.0) * (1.0 / (math.pi * z_arr) - 1.0 / (2.0 * math.pi * z_arr**3))


def _random_wave_upper_tail(z_abs: float) -> float:
    """P(Ttilde > z) for z >= 0, by quadrature over the uniform phase: the
    conditional law given the phase is N(0, cos^2 eta)."""
    if z_abs == 0.0:
        return 0.5
    val, _ = quad(
        lambda th: erfc(z_abs / (math.sqrt(2.0) * math.cos(th))),
        0.0, math.pi / 2.0, limit=200)
    return val / math.pi


@lru_cache(maxsize=1)
def _random_wave_cdf_table() -> tuple[np.ndarray, np.ndarray]:
    # log-spaced abscissae resolve the log-singular density at 0; beyond
    # z = 9 the tail is below e^{-40} and the table clamps
    z = np.concatenate(([0.0], np.logspace(-6, np.log10(9.0), 1500)))
    tail = np.array([_random_wave_upper_tail(zi) for zi in z])
    return z, tail


def cdf_random_wave(z):
    """CDF of the random-wave invariant measure.

    Built from the phase-average representation (conditional law
    N(0, cos^2 eta)), which deliberately does not reuse the K0 density,
    so it doubles as an independent representation in tests.  Evaluations
    interpolate a cached 1500-node tail table (absolute accuracy ~1e-5).
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    nodes, tail = _random_wave_cdf_table()
    t = np.interp(np.abs(z_arr), nodes, tail, right=0.0)
    out = np.where(z_arr >= 0, 1.0 - t, t)
    if np.ndim(z) == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# square-integrable spectral initial data
# ---------------------------------------------------------------------------

def gaussian_variance_spectral(alpha: float, cutoff, kappa_eff: float, t: float,
                               h_max: float = np.inf) -> float:
    """Variance of the limiting Gaussian law for stratified random initial
    data with spectral exponent alpha and cutoff profile phi0hat:

        int |h|^alpha phi0hat(h)^2 exp(-kappa_eff h^2 t) dh.

    The limit law is Normal(0, this variance) regardless of the driving
    process.  ``h_max`` truncates the integration for compactly
    supported cutoffs.
    """
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1 for an integrable spectrum")
    if kappa_eff < 0 or t < 0:
        raise ValueError("kappa_eff and t must be nonnegative")

    def integrand(h):
        return h**alpha * cutoff(h) ** 2 * math.exp(-kappa_eff * h * h * t)

    val, _ = quad(integrand, 0.0, h_max, limit=200)
    return 2.0 * val
