"""The long-time law of the scalar: the Gaussian N-point correlator, whose
coincident-point moments (1 + N beta)^{-1/2} fix the PDFs below.

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

Everything here but ``gaussian_variance_spectral`` (scipy.integrate) needs
numpy and the stdlib only: the K0 density and the random-wave CDF table are
trapezoid rules, and the moment quadrature builds its Gauss-Legendre rule on
first use, so importing this module loads no scipy submodule or ``numpy.polynomial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .ou_process import _require_finite, _require_positive

if TYPE_CHECKING:
    from .eff_diffusivity import EigenData

_TALBOT_NODES = 32       # fixed-Talbot contour points


@dataclass(frozen=True)
class BetaSpec:
    """Parameters of the finite-time shape parameter beta for an initial
    Gaussian of variance s at time t, with v_t the exact variance of the OU
    time integral.  The leading-order beta = Pe^2 ubar^2 / (2 kappa_eff),
    its t -> inf limit, is ``EigenData.beta``.  A non-finite field, a
    kappa_eff <= 0, a negative t, s or v_t, or t = s = 0 raises ``ValueError``."""

    pe: float
    ubar: float
    kappa_eff: float
    t: float
    s: float
    v_t: float

    def __post_init__(self):
        _require_finite(pe=self.pe, ubar=self.ubar)
        _require_positive(kappa_eff=self.kappa_eff)
        for name, value in (("t", self.t), ("s", self.s), ("v_t", self.v_t)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.t == self.s == 0.0:
            raise ValueError("t and s must not both be 0: the spread 4 t kappa_eff + 2 s vanishes")


def beta_finite_time(spec: BetaSpec) -> float:
    """Finite-time beta = 2 Pe^2 ubar^2 v(t) / (4 t kappa_eff + 2 s).

    Reduces to the leading-order value as t -> inf with v(t)/t -> 1."""
    return 2.0 * spec.pe**2 * spec.ubar**2 * spec.v_t / (4.0 * spec.t * spec.kappa_eff + 2.0 * spec.s)


# ---------------------------------------------------------------------------
# N-point correlator and its coincident-point moments
# ---------------------------------------------------------------------------

def npoint_correlator(x, mass: float, eig: EigenData, t: float) -> float:
    """Gaussian N-point correlator at the N = len(x) points x,

        mass^N exp(-x Lam1^{-1} x^T / (2t)) / ((2 pi t)^{N/2} sqrt(det Lam1))

    with Lam1 = (lambda2 - lambda11) I + lambda11 e^T e.  The inverse
    quadratic form and determinant use Sherman-Morrison and the matrix
    determinant lemma, O(N) instead of a dense solve.  Non-finite input
    raises ``ValueError``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _require_finite(mass=mass, t=t, **{f"x[{i}]": v for i, v in enumerate(x.tolist())})
    n = x.size
    if n < 1 or not t > 0:
        raise ValueError(f"need correlator order N >= 1 and t > 0, got N={n}, t={t!r}")
    d = eig.lambda2 - eig.lambda11
    c = eig.lambda11
    denom_sm = eig.lambda2 + (n - 1) * c
    if d <= 0 or denom_sm <= 0:
        raise ValueError("Lambda1 is singular or indefinite")
    sx = float(np.sum(x))
    quad = (float(np.dot(x, x)) - c * sx * sx / denom_sm) / d
    det = d ** (n - 1) * denom_sm
    return mass**n * math.exp(-quad / (2.0 * t)) / (
        (2.0 * math.pi * t) ** (0.5 * n) * math.sqrt(det))


def nth_moment_prediction(n: int, mass: float, eig: EigenData, t: float) -> float:
    """Long-time N-th one-point moment at x = 0, the correlator at N = n
    coincident points: <T^N> = mass^N (4 pi t kappa_eff)^{-N/2} (1 + N beta)^{-1/2},
    the last factor ``moment_function(N, EigenData.beta)``.  A non-integer
    n (a bool among them), or n < 1, raises ``ValueError``."""
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"correlator order n must be an integer >= 1, got n={n!r}")
    return npoint_correlator(np.zeros(n), mass, eig, t)


class MomentInversion(NamedTuple):
    lambda2: float
    lambda11: float


def lambda_from_moments(m1: float, m2: float, mass: float, t: float) -> MomentInversion:
    """Recover (lambda2, lambda11) from the first two one-point moments.

    Inverts the N = 1, 2 cases of the moment prediction:
    lambda2 = mass^2 / (2 pi t m1^2) and, with q = mass^2 / (2 pi t m2)
    equal to sqrt(lambda2^2 - lambda11^2),
    lambda11 = sqrt(lambda2^2 - q^2).  Non-finite input raises ``ValueError``.
    """
    _require_finite(m1=m1, m2=m2, mass=mass, t=t)
    if t <= 0:
        raise ValueError("t must be positive")
    if m1 <= 0 or m2 <= 0 or mass <= 0:
        raise ValueError("moments and mass must be positive")
    lambda2 = mass**2 / (2.0 * math.pi * t * m1**2)
    q = mass**2 / (2.0 * math.pi * t * m2)
    rad = lambda2**2 - q**2
    if rad < -1e-9 * lambda2**2:
        raise ValueError("inconsistent moments: implied lambda11^2 is negative")
    # the inversion is square-root degenerate at lambda11 = 0: radicands at
    # roundoff scale would otherwise surface as sqrt(eps)-sized artifacts
    if rad < 1e-12 * lambda2**2:
        rad = 0.0
    lambda11 = math.sqrt(max(rad, 0.0))
    if lambda11 > lambda2 * (1.0 + 1e-12):
        raise ValueError("inconsistent moments: implied lambda11 exceeds lambda2")
    return MomentInversion(lambda2, lambda11)


# ---------------------------------------------------------------------------
# deterministic initial data
# ---------------------------------------------------------------------------

def pdf_deterministic(z, beta: float):
    """Density z^{1/beta-1} / sqrt(-pi beta log z) on (0, 1).

    Continuous at 0 for beta <= 1, divergent there for beta > 1 (a
    feature, not an error); always a logarithmic divergence at z = 1.
    """
    _require_positive(beta=beta)
    z_arr = np.asarray(z, dtype=float)
    if np.any((z_arr <= 0.0) | (z_arr >= 1.0)):
        raise ValueError("z must lie strictly inside (0, 1)")
    return z_arr ** (1.0 / beta - 1.0) / np.sqrt(-math.pi * beta * np.log(z_arr))


def cdf_deterministic(z, beta: float):
    """Closed-form CDF erfc(sqrt(-log(z)/beta)) of the rescaled scalar."""
    _require_positive(beta=beta)
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
    _require_positive(beta=beta)
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
    if not np.all(w > 0):                   # also rejects a NaN abscissa
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
    _require_positive(beta=beta)
    z = np.asarray(z_grid, dtype=float)
    if np.any((z <= 0.0) | (z >= 1.0)):
        raise ValueError("z grid must lie strictly inside (0, 1)")
    vals = talbot_inverse(lambda p: 1.0 / np.sqrt(beta * p + 1.0), -np.log(z))
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
    logarithmically singular at z = 0, where +inf is returned; 0 at +-inf.
    """
    # e^{-q} K0(q) = e^{-2q} int_0^inf exp(-2 q sinh^2(t/2)) dt, q = z^2/4, by the trapezoid
    # rule in tau = t sqrt(1 + q), O(1) wide at every q: one node set per 2048 points, step
    # 0.3, out to 2 q sinh^2(t/2) > 40 at each; within 2e-15 of scipy's k0e over z in [1e-8, 37]
    q = np.asarray(z, dtype=float) ** 2 / 4.0
    k = np.where(q == 0.0, np.inf, 1.0)     # times e^{-2q}: +inf at 0, 0 at inf, nan at nan
    todo, h = np.flatnonzero((q > 0.0) & (q < np.inf)), 0.3
    for part in np.split(todo, range(2048, todo.size, 2048)):   # bounds the temporaries
        qk = q.flat[part]
        r = np.sqrt(1.0 + qk)
        tau = np.arange(h, np.max(np.arccosh(1.0 + 40.0 / qk) * r, initial=0.0) + h, h)
        half_t = 0.5 * tau / r[:, None]
        # the node tau = 0, where the integrand is 1, adds h/2
        k.flat[part] = h * (np.exp(-2.0 * qk[:, None] * np.sinh(half_t) ** 2).sum(axis=1) + 0.5) / r
    return (k * np.exp(-2.0 * q) * _RW_NORM)[()]


@lru_cache(maxsize=1)
def _random_wave_cdf_table() -> tuple[np.ndarray, np.ndarray]:
    # log-spaced abscissae resolve the log-singular density at 0; beyond z = 9
    # the tail is below e^{-40} and the table clamps.  Given the amplitude
    # x = |N(0,1)|, P(Ttilde > z) = (2/pi) int_z^inf phi(x) arccos(z/x) dx, which
    # x = z cosh s turns into (2/pi) z int_0^inf phi(z cosh s) arctan(sinh s) sinh s ds:
    # even, analytic and double-exponentially decaying in s, so the trapezoid rule at
    # step 0.12 out to z cosh s = 9.5 converges geometrically; tail(0) = 1/2 exactly
    z = np.concatenate(([0.0], np.logspace(-6, np.log10(9.0), 1500)))
    h = 0.12
    s = np.arange(0.0, math.acosh(9.5 / z[1]) + h, h)
    x = z[1:, None] * np.cosh(s)
    w = (h * math.sqrt(2.0) / math.pi**1.5) * np.arctan(np.sinh(s)) * np.sinh(s)
    return z, np.concatenate(([0.5], z[1:] * (np.exp(-0.5 * x * x) @ w)))


def cdf_random_wave(z):
    """CDF of the random-wave invariant measure.

    Built from the amplitude-conditioned tail (the arccosine law of the
    phase given |N(0,1)|), which deliberately does not reuse the K0 density,
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

        int |h|^alpha phi0hat(h)^2 exp(-2 kappa_eff h^2 t) dh,

    the square of the heat kernel's amplitude decay exp(-kappa_eff h^2 t)
    (``InitialData.value``).  The limit law is Normal(0, this variance)
    regardless of the driving process.  ``h_max`` (> 0, default infinite)
    truncates the integration for compactly supported cutoffs.
    """
    from scipy.integrate import quad

    if not alpha > -1.0:                    # also rejects a NaN alpha
        raise ValueError(f"alpha must exceed -1 for an integrable spectrum, got {alpha!r}")
    if not (0.0 <= kappa_eff < math.inf and 0.0 <= t < math.inf):
        raise ValueError(f"kappa_eff and t must be finite and nonnegative, "
                         f"got {kappa_eff!r} and {t!r}")
    if not h_max > 0.0:                     # also rejects a NaN h_max
        raise ValueError(f"h_max must be positive, got {h_max!r}")

    def integrand(h):
        return h**alpha * cutoff(h) ** 2 * math.exp(-2.0 * kappa_eff * h * h * t)

    val, _ = quad(integrand, 0.0, h_max, limit=200)
    return 2.0 * val
