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

The moment quadrature integrates the density itself under z = exp(-v^2),
which removes both endpoint singularities (the integrand is Gaussian in v).

The deterministic family needs numpy and the stdlib erfc only; the
random-wave functions import scipy.special where they call it, and both
Gauss-Legendre rules are built on first use, so importing this module
loads neither a scipy submodule nor ``numpy.polynomial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_TALBOT_NODES = 32       # fixed-Talbot contour points


@dataclass(frozen=True)
class BetaSpec:
    """Parameters of the finite-time shape parameter beta for an initial
    Gaussian of variance s at time t, with v_t the exact variance of the OU
    time integral.  The leading-order beta = Pe^2 ubar^2 / (2 kappa_eff),
    its t -> inf limit, is ``EigenData.beta``."""

    pe: float
    ubar: float
    kappa_eff: float
    t: float
    s: float
    v_t: float

    def __post_init__(self):
        if self.kappa_eff <= 0:
            raise ValueError("kappa_eff must be positive")


def beta_finite_time(spec: BetaSpec) -> float:
    """Finite-time beta = 2 Pe^2 ubar^2 v(t) / (4 t kappa_eff + 2 s).

    Reduces to the leading-order value as t -> inf with v(t)/t -> 1."""
    return 2.0 * spec.pe**2 * spec.ubar**2 * spec.v_t / (4.0 * spec.t * spec.kappa_eff + 2.0 * spec.s)


# ---------------------------------------------------------------------------
# deterministic initial data
# ---------------------------------------------------------------------------

def pdf_deterministic(z, beta: float):
    """Density z^{1/beta-1} / sqrt(-pi beta log z) on (0, 1).

    Continuous at 0 for beta <= 1, divergent there for beta > 1 (a
    feature, not an error); always a logarithmic divergence at z = 1.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    z_arr = np.asarray(z, dtype=float)
    if np.any((z_arr <= 0.0) | (z_arr >= 1.0)):
        raise ValueError("z must lie strictly inside (0, 1)")
    return z_arr ** (1.0 / beta - 1.0) / np.sqrt(-math.pi * beta * np.log(z_arr))


def cdf_deterministic(z, beta: float):
    """Closed-form CDF erfc(sqrt(-log(z)/beta)) of the rescaled scalar."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    z_arr = np.clip(np.asarray(z, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        w = -np.log(z_arr)
    return np.vectorize(math.erfc, otypes=[float])(np.sqrt(w / beta))[()]


def moment_function(s: float, beta: float) -> float:
    """mu(s) = <Ttilde^s> = (s beta + 1)^{-1/2}, the N-th moment formula
    continued off the integers."""
    if not s * beta + 1.0 > 0.0:            # also rejects a NaN s or beta
        raise ValueError(f"moment function needs s*beta + 1 > 0, got s={s!r}, beta={beta!r}")
    return (s * beta + 1.0) ** -0.5


def pdf_moment_quadrature(n: float, beta: float) -> float:
    """Independent check of moment_function: int z^n f(z) dz of pdf_deterministic
    under z = exp(-v^2), 32 Gauss-Legendre nodes on v^2 <= 40/(n + 1/beta)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    rate = n + 1.0 / beta                   # > 0 exactly when n*beta + 1 > 0
    if not rate > 40.0 / 700.0:             # also rejects a NaN n; e^{-40/rate} must not underflow
        raise ValueError(f"moment quadrature needs n + 1/beta > 40/700, clear of the pole "
                         f"n*beta + 1 = 0, got n={n!r}, beta={beta!r}")
    half = 0.5 * math.sqrt(40.0 / rate)
    nodes, weights = _moment_rule()
    v = half * (nodes + 1.0)
    z = np.exp(-v * v)
    return float(half * np.sum(weights * z**n * pdf_deterministic(z, beta) * 2.0 * v * z))


@lru_cache(maxsize=1)
def _moment_rule() -> tuple[np.ndarray, np.ndarray]:
    """32-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(32)


# ---------------------------------------------------------------------------
# fixed-Talbot inverse Laplace transform
# ---------------------------------------------------------------------------

def talbot_inverse(transform, w):
    """Numerical inverse Laplace transform on the fixed Talbot contour.

    Samples the transform along p(theta) = (r/w) theta (cot theta + i) at
    M = _TALBOT_NODES points, r = 2 M / 5, and sums the standard weights.
    ``transform`` must act elementwise on complex arrays: it is called on
    the theta = 0 points r/w (weight 1/2) and on the other M - 1 contour
    points, shape w.shape + (M - 1,).  The deformed contour requires all
    singularities of the transform on or near the negative real axis,
    which holds for every transform used here.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("inversion abscissa must be positive")
    m = _TALBOT_NODES
    r = 2.0 * m / 5.0
    theta = np.pi * np.arange(1, m) / m
    cot = 1.0 / np.tan(theta)
    t = w[..., None]
    p = (r / t) * theta * (cot + 1j)
    weights = 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)
    acc = 0.5 * math.exp(r) * transform(r / w + 0j)
    acc += np.sum(np.exp(t * p) * weights * transform(p), axis=-1)
    return (2.0 / (5.0 * w) * acc.real)[()]


def reconstruct_pdf_from_moments(beta: float, z_grid):
    """Rebuild the deterministic-data density from its moment function by
    inverse Laplace transform: f(z) = L^{-1}(mu)(-log z) / z.

    Must agree with pdf_deterministic; the Talbot scheme itself is
    validated in the test suite on the analytic pair
    L^{-1}((s+1)^{-1/2})(w) = e^{-w}/sqrt(pi w).
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    z = np.asarray(z_grid, dtype=float)
    if np.any((z <= 0.0) | (z >= 1.0)):
        raise ValueError("z grid must lie strictly inside (0, 1)")
    vals = talbot_inverse(lambda p: (beta * p + 1.0) ** -0.5, -np.log(z))
    if not np.all(np.isfinite(vals)):
        raise RuntimeError("Talbot contour evaluation failed (non-finite sum)")
    return (vals / z)[()]


# ---------------------------------------------------------------------------
# random-wave initial data
# ---------------------------------------------------------------------------

_RW_NORM = 1.0 / (math.sqrt(2.0) * math.pi**1.5)


def pdf_random_wave(z):
    """Density of Ttilde = N(0,1)*cos(U):  e^{-z^2/4} K0(z^2/4) / (sqrt(2) pi^{3/2}).

    Symmetric, unit mass, variance 1/2, fourth moment 9/8 (kurtosis 9/2);
    logarithmically singular at z = 0, where +inf is returned.
    """
    from scipy.special import k0e

    q = np.asarray(z, dtype=float) ** 2 / 4.0
    return (k0e(q) * np.exp(-2.0 * q) * _RW_NORM)[()]   # e^{-q} K0(q)


def pdf_random_wave_tail(z):
    """Large-|z| expansion e^{-z^2/2} (1/(pi z) - 1/(2 pi z^3))."""
    z_arr = np.abs(np.asarray(z, dtype=float))
    return np.exp(-z_arr**2 / 2.0) * (1.0 / (math.pi * z_arr) - 1.0 / (2.0 * math.pi * z_arr**3))


@lru_cache(maxsize=1)
def _random_wave_cdf_table() -> tuple[np.ndarray, np.ndarray]:
    # log-spaced abscissae resolve the log-singular density at 0; beyond
    # z = 9 the tail is below e^{-40} and the table clamps.  P(Ttilde > z)
    # averages the tail of the conditional law N(0, cos^2 eta) over the
    # uniform phase, (1/pi) int erfc(z / (sqrt(2) cos eta)) d eta over
    # (0, pi/2).  Graded as eta = (pi/2)(1 - t^2) it is int_0^1 erfc(z /
    # (sqrt(2) sin(pi t^2/2))) t dt, flat at t = 0, and 256 Gauss-Legendre
    # nodes in t reach 1e-9 at every node (ungraded, 512 miss by 5e-7).
    from scipy.special import erfc

    z = np.concatenate(([0.0], np.logspace(-6, np.log10(9.0), 1500)))
    x, w = np.polynomial.legendre.leggauss(256)
    t = 0.5 * (x + 1.0)
    cos_eta = np.sin(0.5 * math.pi * t * t)
    return z, erfc(z[:, None] / (math.sqrt(2.0) * cos_eta)) @ (0.5 * w * t)


def cdf_random_wave(z):
    """CDF of the random-wave invariant measure.

    Built from the phase-average representation (conditional law
    N(0, cos^2 eta)), which deliberately does not reuse the K0 density,
    so it doubles as an independent representation in tests.  Evaluations
    interpolate a cached 1500-node tail table (absolute accuracy ~1e-5).
    """
    z = np.asarray(z, dtype=float)
    nodes, tail = _random_wave_cdf_table()
    t = np.interp(np.abs(z), nodes, tail, right=0.0)
    return np.where(z >= 0, 1.0 - t, t)[()]


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
    from scipy.integrate import quad

    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1 for an integrable spectrum")
    if kappa_eff < 0 or t < 0:
        raise ValueError("kappa_eff and t must be nonnegative")

    def integrand(h):
        return h**alpha * cutoff(h) ** 2 * math.exp(-kappa_eff * h * h * t)

    val, _ = quad(integrand, 0.0, h_max, limit=200)
    return 2.0 * val
