"""Closed-form effective diffusivities and eigenvalue derivatives.

The long-time statistics of a scalar advected by a random channel shear
are governed by two second derivatives of the ground-state eigenvalue,
lambda2 and lambda11, with enhanced diffusivity

    kappa_eff = (lambda2 - lambda11) / 2   >= 1.

Every lambda2 here is built from the terms of
lambda2 = 2 + sum_n 2 Pe^2 n! 2^n <a_n, (n gamma - Lap)^{-1} a_n> of a flow
v(y, sqrt(gamma) z) = sum_n a_n(y) H_n(z), by ``_lambda2_terms`` (all n >= 1
in one stacked resolvent): steady Taylor dispersion is the n = 0 term of
a_0 = vbar, a multiplicative flow u(y) xi(t) the n = 1 term of a_1 =
u sqrt(gamma)/2, and white noise its gamma -> infinity limit.  Also: the
dual-route lambda11 and the dimensional linear-shear expression with its
small-damping asymptotics.  The zero-diffusivity ensemble mean is the
white-noise enhancement at Pe = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .ou_process import _require_finite, _require_positive
from .spectral_core import (
    GridFunction,
    HermiteSeries,
    _decay_integral,
    _helmholtz_rows,
    _inner_weights,
    hermite_norm,
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

        With ``out`` (a float array of y's shape) the result is built there
        and returned, with the same bits as without.
        """
        if self.kind == "steady":
            return self.profile(y, out=out)
        if self.kind == "multiplicative":
            v = self.profile(y, out=out)
            v *= xi
            return v
        if gamma is None or not 0 < gamma < math.inf:
            raise ValueError("general flows need gamma to unscale the Hermite variable")
        return self.profile.synthesize(y, xi / math.sqrt(gamma), out=out)


@dataclass(frozen=True)
class EigenData:
    """Eigenvalue Hessian entries and the effective diffusivity they set."""

    lambda2: float
    lambda11: float
    pe: float

    _RTOL = 1e-8

    def __post_init__(self):
        _require_finite(pe=self.pe, lambda2=self.lambda2, lambda11=self.lambda11)
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


def _lambda2_terms(rows: list, gamma: float, pe: float, bc: str, first: int = 0) -> list:
    """The terms 2 Pe^2 n! 2^n <a_n, (n gamma - Lap)^{-1} a_n> of lambda2 - 2
    for GridFunctions a_n, n = first, first + 1, ...: all n >= 1 by one
    stacked resolvent (a zero row gives 0), and n = 0, for zero-mean a_0,
    as Taylor's <A, A> with A = int_0^y a_0, less Abar^2 between periodic
    walls.  Both follow from b' = -A + c for -b'' = a_0: no-flux walls
    force c = 0 and periodicity c = Abar, and <a_0, b> = <A - c, A - c>."""
    if bc not in ("no-flux", "periodic"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    inner = []
    if first == 0:
        cum = rows[0].with_values(_decay_integral(rows[0].values, rows[0].h, 0.0))
        inner.append(cum.inner(cum) - (cum.mean() ** 2 if bc == "periodic" else 0.0))
    if len(rows) > len(inner):
        a = np.array([r.values for r in rows[len(inner):]])
        lam = gamma * np.arange(first + len(inner), first + len(rows))
        b = _helmholtz_rows(a, rows[0].nodes, lam, bc)
        inner += (a * b * _inner_weights(a.shape[1] - 1)).sum(1).tolist()
    c = 2.0 * pe**2
    return [c * hermite_norm(n) * t for n, t in enumerate(inner, first)]


def lambda2_general(flow: FlowSpec, gamma: float, pe: float) -> Lambda2Result:
    """lambda2 = 2 + 2 Pe^2 sum_n n! 2^n int a_n (n*gamma - Lap)^{-1} a_n dy.

    The n = 0 term is Taylor's int A^2, A = int_0^y a_0 (Var A between
    periodic walls), which holds because a_0 is stored in the Galilean
    frame (zero mean).  Every mode
    of the series contributes; the diagnostic reports whether the series
    visibly converged (every term beyond some index below 1e-12 of the
    enhancement) before running out of modes.  If the top mode is still
    significant, TruncationError is raised -- for exactly terminating
    hand-built series, append a zero coefficient to mark the end.
    """
    _require_positive(gamma=gamma)
    _require_finite(pe=pe)
    series = _require_general(flow)
    terms = _lambda2_terms(series.coeffs, gamma, pe, flow.bc)
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
    _require_positive(gamma=gamma)
    _require_finite(pe=pe)
    series = _require_general(flow)
    abar = series.mean_coefficients()

    value = (2.0 * pe**2 / gamma) * sum(hermite_norm(n) / n * abar[n] ** 2
                                        for n in range(1, series.n_modes + 1))

    integral = _lambda11_integral(abar, gamma, pe)

    tol = _LAMBDA11_RTOL * abs(value) + 1e-10 * (1.0 + pe**2 / gamma)
    if not abs(value - integral) <= tol:
        raise RepresentationMismatchError(
            f"lambda11 series {value:.12e} vs integral {integral:.12e} "
            f"disagree beyond tolerance {tol:.3e}")
    return Lambda11Result(value, integral)


@lru_cache(maxsize=8)
def _lambda11_table(n_modes: int, z_max: float, n_z: int) -> tuple:
    """Nodes z of |z| <= z_max, e^{-z^2} H_n(z) (a row per node), 2 z_max e^{z^2} w."""
    z = np.linspace(-z_max, z_max, n_z + 1)
    herm = np.polynomial.hermite.hermvander(z, n_modes) * np.exp(-z * z)[:, None]
    outer = 2.0 * z_max * np.exp(z * z) * _inner_weights(n_z)
    z.flags.writeable = herm.flags.writeable = outer.flags.writeable = False   # cached
    return z, herm, outer


def _lambda11_integral(abar: np.ndarray, gamma: float, pe: float) -> float:
    """lambda11's integral route from abar_n, on the table cached per (modes, _Z_MAX, _N_Z)."""
    z, herm, outer = _lambda11_table(abar.size - 1, _Z_MAX, _N_Z)
    f = np.einsum("ij,j->i", herm, abar)    # e^{-z^2} vbar(z); einsum stays off threaded BLAS
    # forward from -z_max on the left half, backward from +z_max on the right
    fwd, bwd = _decay_integral(np.array((f, f[::-1])), z[1] - z[0], 0.0)
    cum = np.where(z < 0, fwd, -bwd[::-1])
    return 4.0 * pe**2 / (gamma * np.sqrt(np.pi)) * np.sum(outer * cum * cum)


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
    _require_positive(gamma=gamma)
    _require_finite(pe=pe)
    a_1 = u.with_values(0.5 * math.sqrt(gamma) * u.values)
    lambda2 = 2.0 + _lambda2_terms([a_1], gamma, pe, bc, first=1)[0]
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
    cross-sectional mean (Galilean frame).  With A = int_0^y vbar this is
    1 + Pe^2 int_0^1 A^2 dy between no-flux walls and
    1 + Pe^2 (int_0^1 A^2 dy - (int_0^1 A dy)^2) between periodic walls."""
    _require_finite(pe=pe)
    return 1.0 + 0.5 * _lambda2_terms([v.centered()], 0.0, pe, bc)[0]


def small_gamma_asymptotic(kappa: float, g: float, gamma: float, L: float) -> float:
    """Leading small-damping behavior of the dimensional linear-shear
    effective diffusivity: kappa + gamma g^2 L^4 / (240 kappa), exact at
    the limit gamma = 0."""
    _require_finite(g=g, gamma=gamma)
    _require_positive(kappa=kappa, L=L)
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    return kappa + gamma * g**2 * L**4 / (240.0 * kappa)


def kappa_eff_dimensional_linear(kappa: float, g: float, gamma: float, L: float) -> float:
    """Dimensional effective diffusivity for v(y, xi) = y xi(t):

    kappa + g^2 (L^2/24 - kappa/(2 gamma)
                 + kappa^{3/2} tanh(sqrt(gamma) L / (2 sqrt(kappa)))
                   / (gamma^{3/2} L)).
    """
    _require_finite(g=g)
    _require_positive(kappa=kappa, gamma=gamma, L=L)
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
