"""Closed-form effective diffusivities and eigenvalue derivatives.

The long-time statistics of a scalar advected by a random channel shear
are governed by two second derivatives of the ground-state eigenvalue,
lambda2 and lambda11, with enhanced diffusivity

    kappa_eff = (lambda2 - lambda11) / 2   >= 1.

Every lambda2 here is built from the terms of
lambda2 = 2 + sum_n 2 Pe^2 n! 2^n <a_n, (n gamma - Lap)^{-1} a_n> of a flow
v(y, sqrt(gamma) z) = sum_n a_n(y) H_n(z), evaluated by ``_lambda2_term``:
steady Taylor dispersion is the n = 0 term of a_0 = vbar, a multiplicative
flow u(y) xi(t) the n = 1 term of a_1 = u sqrt(gamma)/2, and white noise its
gamma -> infinity limit.  Also: the dual-route lambda11 and the dimensional
linear-shear expression with its small-damping asymptotics.  The
zero-diffusivity ensemble mean is the white-noise enhancement at Pe = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .spectral_core import (
    GridFunction,
    HermiteSeries,
    _inner_weights,
    hermite_norm,
    helmholtz_inverse,
)


class RepresentationMismatchError(RuntimeError):
    """Series and integral forms of lambda11 disagree beyond tolerance."""


class TruncationError(RuntimeError):
    """Hermite truncation too short: last retained term still significant."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class FlowSpec:
    """Shear flow v(y, xi): steady v(y), multiplicative u(y)*xi, or a
    general Hermite series in the scaled noise variable."""

    kind: str                                   # "steady" | "multiplicative" | "general"
    profile: Union[GridFunction, HermiteSeries]
    bc: str = field(default="no-flux")

    def __post_init__(self):
        if self.kind not in ("steady", "multiplicative", "general"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.bc not in ("no-flux", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        needs_grid = self.kind in ("steady", "multiplicative")
        if needs_grid and not isinstance(self.profile, GridFunction):
            raise TypeError(f"{self.kind} flow stores a GridFunction profile")
        if self.kind == "general" and not isinstance(self.profile, HermiteSeries):
            raise TypeError("general flow stores a HermiteSeries")

    @classmethod
    def steady(cls, v: GridFunction, bc: str = "no-flux") -> "FlowSpec":
        return cls("steady", v, bc)

    @classmethod
    def multiplicative(cls, u: GridFunction, bc: str = "no-flux") -> "FlowSpec":
        return cls("multiplicative", u, bc)

    @classmethod
    def general(cls, series: HermiteSeries, bc: str = "no-flux") -> "FlowSpec":
        return cls("general", series, bc)

    def velocity(self, y, xi: float, gamma: Optional[float] = None, out=None) -> np.ndarray:
        """Evaluate v(y, xi) at particle positions y.

        With ``out`` (a float array of y's shape) the result is written there
        and returned, with the same bits as without.  Steady and
        multiplicative flows build it in place; general flows still
        synthesize a new array and copy it in.
        """
        if self.kind == "steady":
            return self.profile(y, out=out)
        if self.kind == "multiplicative":
            v = self.profile(y, out=out)
            v *= xi
            return v
        if gamma is None or gamma <= 0:
            raise ValueError("general flows need gamma to unscale the Hermite variable")
        v = self.profile.synthesize(y, xi / math.sqrt(gamma))
        if out is None:
            return v
        out[...] = v
        return out


@dataclass(frozen=True)
class EigenData:
    """Eigenvalue Hessian entries and the effective diffusivity they set."""

    lambda2: float
    lambda11: float
    pe: float

    _RTOL = 1e-8

    def __post_init__(self):
        slack = self._RTOL * (1.0 + abs(self.lambda2))
        if self.lambda11 < -slack:
            raise ValueError(f"lambda11 must be nonnegative, got {self.lambda11}")
        if self.lambda2 - 2.0 < self.lambda11 - slack:
            raise ValueError(
                f"energy inequality violated: lambda2-2={self.lambda2 - 2.0} "
                f"< lambda11={self.lambda11}")

    @property
    def kappa_eff(self) -> float:
        """(lambda2 - lambda11) / 2."""
        return 0.5 * (self.lambda2 - self.lambda11)

    @property
    def beta(self) -> float:
        """Moment-function parameter lambda11 / (lambda2 - lambda11)."""
        return self.lambda11 / (self.lambda2 - self.lambda11)


class Lambda2Result(NamedTuple):
    value: float
    last_term: float          # magnitude of the final retained series term
    n_terms: int              # number of Hermite modes contributing
    stopped_by: str           # "tolerance" | "modes" (the top mode is still significant)


class Lambda11Result(NamedTuple):
    value: float              # series evaluation (returned as the answer)
    integral: float           # independent double-integral evaluation


# ---------------------------------------------------------------------------
# general Hermite-series formulas
# ---------------------------------------------------------------------------

_SERIES_RTOL = 1e-12
_TRUNCATION_TOL = 1e-6    # top term of a series still significant, relative to the enhancement
_LAMBDA11_RTOL = 1e-6     # series vs integral route of lambda11
_Z_MAX = 8.0              # integral route of lambda11: outer grid |z| <= _Z_MAX
_N_Z = 4000               # on _N_Z (even) intervals


def _lambda2_term(a: GridFunction, n: int, gamma: float, pe: float, bc: str) -> float:
    """The n-th term 2 Pe^2 n! 2^n <a, (n gamma - Lap)^{-1} a> of lambda2 - 2."""
    return 2.0 * pe**2 * hermite_norm(n) * a.inner(helmholtz_inverse(a, n * gamma, bc))


def lambda2_general(flow: FlowSpec, gamma: float, pe: float) -> Lambda2Result:
    """lambda2 = 2 + 2 Pe^2 sum_n n! 2^n int a_n (n*gamma - Lap)^{-1} a_n dy.

    The n = 0 term uses the zero-eigenvalue inverse, which is solvable
    because a_0 is stored in the Galilean frame (zero mean).  Every mode
    of the series contributes; the diagnostic reports whether the series
    visibly converged (every term beyond some index below 1e-12 of the
    enhancement) before running out of modes.  If the top mode is still
    significant, TruncationError is raised -- for exactly terminating
    hand-built series, append a zero coefficient to mark the end.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    series = _require_general(flow)
    terms = [_lambda2_term(a_n, n, gamma, pe, flow.bc) if np.any(a_n.values) else 0.0
             for n, a_n in enumerate(series.coeffs)]
    total = sum(terms)
    scale = max(abs(total), 1e-300)
    significant = [n for n, t in enumerate(terms) if abs(t) >= _SERIES_RTOL * scale]
    n_used = (significant[-1] + 1) if significant else 1
    stopped_by = "tolerance" if n_used <= series.n_modes else "modes"
    last = abs(terms[n_used - 1])
    if stopped_by == "modes" and last > _TRUNCATION_TOL * max(scale, 1e-12):
        raise TruncationError(
            f"{series.n_modes} modes too few: top term {last:.3e} above tolerance "
            f"{_TRUNCATION_TOL:.1e} relative to enhancement {scale:.3e}")
    return Lambda2Result(2.0 + total, last, n_used, stopped_by)


def lambda11_general(flow: FlowSpec, gamma: float, pe: float) -> Lambda11Result:
    """lambda11 by two routes with a built-in agreement check.

    Series: (2 Pe^2 / gamma) sum_{n>=1} (n! 2^n / n) abar_n^2.

    Integral: (4 Pe^2 / (gamma sqrt(pi))) *
        int e^{z^2} ( int_{-inf}^{z} e^{-s^2} vbar(s) ds )^2 dz,
    where vbar(z) = sum_n abar_n H_n(z).  The 1/sqrt(pi) carries the
    Gaussian inner-product normalization (checked against the series on
    every call).  The inner cumulative integral is accumulated forward
    for z < 0 and backward from +z_max for z > 0 -- the backward variant
    of the vanishing-total-mass identity -- because forward accumulation
    past the origin leaves a roundoff residue that e^{z^2} amplifies
    catastrophically.  Truncation tail beyond |z| = z_max = 8 is below
    e^{-z_max^2} * poly and is negligible.

    Returns the series value; a relative disagreement beyond 1e-6 raises
    RepresentationMismatchError (truncation or quadrature failure).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    series = _require_general(flow)
    abar = series.mean_coefficients()

    value = (2.0 * pe**2 / gamma) * sum(hermite_norm(n) / n * abar[n] ** 2
                                        for n in range(1, series.n_modes + 1))

    integral = _lambda11_integral(series, gamma, pe)

    tol = _LAMBDA11_RTOL * abs(value) + 1e-10 * (1.0 + pe**2 / gamma)
    if abs(value - integral) > tol:
        raise RepresentationMismatchError(
            f"lambda11 series {value:.12e} vs integral {integral:.12e} "
            f"disagree beyond tolerance {tol:.3e}")
    return Lambda11Result(value, integral)


def _lambda11_integral(series: HermiteSeries, gamma: float, pe: float) -> float:
    z = np.linspace(-_Z_MAX, _Z_MAX, _N_Z + 1)
    h = z[1] - z[0]
    mid = z[:-1] + 0.5 * h
    f_nodes = np.exp(-z * z) * series.vbar(z)
    f_mid = np.exp(-mid * mid) * series.vbar(mid)
    steps = (h / 6.0) * (f_nodes[:-1] + 4.0 * f_mid + f_nodes[1:])
    izero = _N_Z // 2
    cum = np.zeros(_N_Z + 1)
    # forward from -z_max on the left half, backward from +z_max on the right
    cum[1:izero + 1] = np.cumsum(steps[:izero])
    cum[izero:-1] = -np.cumsum(steps[izero:][::-1])[::-1]
    cum[-1] = 0.0
    outer = np.exp(z * z) * cum * cum
    # the package's one rule, scaled from [0, 1] to [-z_max, z_max]
    integral = 2.0 * _Z_MAX * np.sum(outer * _inner_weights(_N_Z))
    return 4.0 * pe**2 / (gamma * np.sqrt(np.pi)) * integral


def kappa_eff_general(flow: FlowSpec, gamma: float, pe: float) -> EigenData:
    """Assemble EigenData for a general Hermite-series flow."""
    l2 = lambda2_general(flow, gamma, pe)
    l11 = lambda11_general(flow, gamma, pe)
    return EigenData(l2.value, l11.value, pe)


def _require_general(flow: FlowSpec) -> HermiteSeries:
    if flow.kind != "general":
        raise TypeError("this operation expects a general Hermite-series flow")
    return flow.profile


# ---------------------------------------------------------------------------
# multiplicative and white-noise closed forms
# ---------------------------------------------------------------------------

def lambda_multiplicative(u: GridFunction, gamma: float, pe: float,
                          bc: str = "no-flux") -> EigenData:
    """Closed form for v = u(y) xi(t), the n = 1 term of a_1 = u sqrt(gamma)/2:
    lambda2 = 2 + Pe^2 gamma <u, (gamma - Lap)^{-1} u>,
    lambda11 = Pe^2 (int u)^2."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    a_1 = u.with_values(0.5 * math.sqrt(gamma) * u.values)
    lambda2 = 2.0 + _lambda2_term(a_1, 1, gamma, pe, bc)
    lambda11 = pe**2 * u.mean() ** 2
    return EigenData(lambda2, lambda11, pe)


def lambda_white(u: GridFunction, pe: float) -> EigenData:
    """White noise, the gamma -> infinity limit of the n = 1 term, where
    gamma (gamma - Lap)^{-1} u -> u: lambda2 = 2 + Pe^2 <u, u>, lambda11 = Pe^2 (int u)^2.

    The enhancement kappa_eff - 1 = Pe^2 (<u, u> - ubar^2) / 2 at Pe = 1 is
    the ensemble mean of the zero-molecular-diffusivity effective
    diffusivity (<u, u> - ubar^2) B(1)^2 / 2."""
    lambda2 = 2.0 + pe**2 * u.inner(u)
    lambda11 = pe**2 * u.mean() ** 2
    return EigenData(lambda2, lambda11, pe)


def taylor_steady(v: GridFunction, pe: float, bc: str = "no-flux") -> float:
    """Steady-shear Taylor dispersion, the n = 0 term of a_0 = vbar:
    kappa_eff = 1 + Pe^2 <vbar, (-Lap)^{-1} vbar>, with vbar = v minus its
    cross-sectional mean (Galilean frame); with no-flux walls this is
    1 + Pe^2 int_0^1 (int_0^y vbar)^2 dy."""
    return 1.0 + 0.5 * _lambda2_term(v.centered(), 0, 0.0, pe, bc)


def small_gamma_asymptotic(kappa: float, g: float, gamma: float, L: float) -> float:
    """Leading small-damping behavior of the dimensional linear-shear
    effective diffusivity: kappa + gamma g^2 L^4 / (240 kappa)."""
    return kappa + gamma * g**2 * L**4 / (240.0 * kappa)


def kappa_eff_dimensional_linear(kappa: float, g: float, gamma: float, L: float) -> float:
    """Dimensional effective diffusivity for v(y, xi) = y xi(t):

    kappa + g^2 (L^2/24 - kappa/(2 gamma)
                 + kappa^{3/2} tanh(sqrt(gamma) L / (2 sqrt(kappa)))
                   / (gamma^{3/2} L)).
    """
    if kappa <= 0 or L <= 0:
        raise ValueError("kappa and L must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return kappa + g**2 * (
        L**2 / 24.0
        - kappa / (2.0 * gamma)
        + kappa**1.5 * math.tanh(math.sqrt(gamma) * L / (2.0 * math.sqrt(kappa)))
        / (gamma**1.5 * L)
    )


# ---------------------------------------------------------------------------
# profile presets
# ---------------------------------------------------------------------------

def linear_profile(n: int = 512) -> GridFunction:
    """u(y) = y."""
    return GridFunction.from_callable(lambda y: y, n)


def cosine_profile(k: int = 1, n: int = 512) -> GridFunction:
    """u(y) = cos(k pi y)."""
    return GridFunction.from_callable(lambda y: np.cos(k * np.pi * y), n)
