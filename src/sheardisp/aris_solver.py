"""Pathwise Aris-moment evolution and ergodic estimators.

For the multiplicative flow u(y) xi(t) with a unit-mass line source, the
streamwise moments obey a recursive hierarchy whose first two
cross-sectional averages close exactly:

    T1bar(t) = Pe ubar I(t),
    T2bar(t) = 2 t + 2 Pe^2 sum_n <u, phi_n>^2 J_n(t) + T1bar(t)^2,

with phi_n = sqrt(2) cos(n pi y), lambda_n = n^2 pi^2,

    q_n(t) = e^{-lambda_n t} int_0^t e^{lambda_n s} xi(s) ds,
    J_n(t) = int_0^t xi(s) q_n(s) ds.

The exponentially weighted integrals overflow if evaluated literally;
q_n is advanced by the unconditionally stable recursion
q_n(t+D) = q_n(t) e^{-lambda_n D} + (local quadrature), with xi linear
on each step.

The centered second moment grows like 2 kappa_eff t along every single
realization, which is the ergodic route to the deterministic effective
diffusivity; J_n/t also furnishes closed long-time identities for OU
time integrals and a damping estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .ou_process import OUPath, _cumtrapz
from .spectral_core import GridFunction, _decay_filter_forward, cosine_project, cosine_eigenvalue
from .eff_diffusivity import EigenData
from .invariant_measure import moment_function


class EstimatorDomainError(ValueError):
    """Finite-sample statistic fell outside the estimator's domain."""


@dataclass
class ArisRecord:
    """Time series of streamwise moments along one flow realization."""

    times: np.ndarray
    t1bar: np.ndarray
    t2bar: np.ndarray
    modes: np.ndarray            # a_n(t), shape (n_max, n_times), n = 1..n_max
    kappa_estimate: np.ndarray   # (T2bar - T1bar^2) / (2t); nan at t = 0

    def centered_second(self) -> np.ndarray:
        return self.t2bar - self.t1bar**2

    def to_csv(self, path) -> None:
        data = np.column_stack([self.times, self.t1bar, self.t2bar, self.kappa_estimate])
        np.savetxt(path, data, delimiter=",",
                   header="t,t1bar,t2bar,kappa_estimate", comments="")


@dataclass(frozen=True)
class CorrelatorSpec:
    """Inputs of the long-time N-point correlator prediction."""

    N: int
    x: np.ndarray
    mass: float
    eigen: EigenData
    t: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("correlator order N must be >= 1")
        if not self.t > 0:
            raise ValueError("t must be positive")
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.size != self.N:
            raise ValueError(f"need {self.N} evaluation points, got {x.size}")
        object.__setattr__(self, "x", x)


# ---------------------------------------------------------------------------
# pathwise solve
# ---------------------------------------------------------------------------

def _uniform_step(path: OUPath) -> float:
    dts = np.diff(path.times)
    if dts.size == 0:
        raise ValueError("path must contain more than one node")
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("Aris solves require a uniform path grid")
    return float(dts[0])


def exp_weighted_integral(path: OUPath, lam: float) -> np.ndarray:
    """J(t_k) = int_0^{t_k} xi(s) e^{-lam s} int_0^s e^{lam tau} xi(tau) dtau ds,
    evaluated stably through the running mode amplitude."""
    dt = _uniform_step(path)
    return _cumtrapz(path.xi * _decay_filter_forward(path.xi, dt, lam), dt)


def solve_aris(u: GridFunction, pe: float, path: OUPath, n_max: int = 8) -> ArisRecord:
    """Evolve the first two Aris moments along one OU realization.

    Mass is conserved exactly (T0bar = 1 for the delta line source), so
    only T1bar and T2bar are tracked, plus the spectral mode amplitudes
    a_n(t) = Pe <u, phi_n> q_n(t).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if path.integral is None or path.values is None:
        raise ValueError("path must carry xi values and the populated integral")
    dt = _uniform_step(path)
    coeffs = cosine_project(u, n_max)
    ubar = coeffs[0]
    xi = path.xi

    t1 = pe * ubar * path.integral
    centered = 2.0 * path.times.copy()
    modes = np.empty((n_max, path.times.size))
    for n in range(1, n_max + 1):
        lam = cosine_eigenvalue(n)
        # q_n(t_k) for q' = -lambda_n q + xi, xi linear on each step
        q = _decay_filter_forward(xi, dt, lam)
        modes[n - 1] = pe * coeffs[n] * q
        if coeffs[n] != 0.0:
            centered += 2.0 * pe**2 * coeffs[n] ** 2 * _cumtrapz(xi * q, dt)
    t2 = centered + t1**2
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(path.times > 0, centered / (2.0 * path.times), np.nan)
    return ArisRecord(path.times, t1, t2, modes, kappa)


def kappa_from_realization(record: ArisRecord, t_window: Optional[tuple[float, float]] = None) -> float:
    """Ergodic single-realization estimate of kappa_eff.

    Least-squares slope of (T2bar - T1bar^2)/2 against t over the window
    (default: the trailing half of the record), robust to the O(1)
    additive offset in the centered moment.
    """
    t = record.times
    if t_window is None:
        t_window = (t[-1] / 2.0, t[-1])
    lo, hi = t_window
    if hi - lo < 10.0:
        raise ValueError(f"window [{lo}, {hi}] shorter than 10 diffusive times")
    sel = (t >= lo) & (t <= hi)
    if np.count_nonzero(sel) < 2:
        raise ValueError("window contains fewer than two record times")
    slope = np.polyfit(t[sel], 0.5 * record.centered_second()[sel], 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# OU time-integral identity and damping estimator
# ---------------------------------------------------------------------------

def ou_integral_identity(n: int, gamma: float, path: OUPath) -> tuple[float, float]:
    """Long-time identity for the doubly exponentially weighted OU integral.

    lhs = (1/t) int_0^t e^{-n^2 pi^2 s} xi(s) int_0^s e^{n^2 pi^2 tau} xi dtau ds,
    rhs = 1/2 - pi^2 n^2 / (2 (gamma + pi^2 n^2)),
    equal up to O(1/t).
    """
    lam = cosine_eigenvalue(n)
    t_end = path.t_end
    if t_end < 50.0 / gamma or t_end < 50.0 / lam:
        raise ValueError(f"path too short: need t >= {max(50.0 / gamma, 50.0 / lam):.3g}")
    lhs = float(exp_weighted_integral(path, lam)[-1]) / t_end
    rhs = 0.5 - lam / (2.0 * (gamma + lam))
    return lhs, rhs


def estimate_gamma(path: OUPath, n: int = 1) -> float:
    """Invert the integral identity into a damping estimate
    gammahat = 2 n^2 pi^2 I / (1 - 2 I), valid for I in (0, 1/2)."""
    lam = cosine_eigenvalue(n)
    stat = float(exp_weighted_integral(path, lam)[-1]) / path.t_end
    if not 0.0 < stat < 0.5:
        raise EstimatorDomainError(
            f"integral statistic {stat:.6g} outside (0, 1/2); "
            "estimator undefined at this sample")
    return 2.0 * lam * stat / (1.0 - 2.0 * stat)


# ---------------------------------------------------------------------------
# N-point correlator predictions
# ---------------------------------------------------------------------------

def nth_moment_prediction(spec: CorrelatorSpec) -> float:
    """Long-time N-th one-point moment at x = 0:

    <T^N> = mass^N (4 pi t kappa_eff)^{-N/2} (1 + N beta)^{-1/2},
    beta = lambda11 / (lambda2 - lambda11).
    """
    eig = spec.eigen
    gap = eig.lambda2 - eig.lambda11
    if gap <= 0:
        raise ValueError("degenerate eigenvalue gap: lambda2 must exceed lambda11")
    n = spec.N
    prefactor = (4.0 * math.pi * spec.t * eig.kappa_eff) ** (-0.5 * n)
    return spec.mass**n * prefactor * moment_function(n, eig.beta)


def npoint_correlator(spec: CorrelatorSpec) -> float:
    """Gaussian N-point correlator

        mass^N exp(-x Lam1^{-1} x^T / (2t)) / ((2 pi t)^{N/2} sqrt(det Lam1))

    with Lam1 = (lambda2 - lambda11) I + lambda11 e^T e.  The inverse
    quadratic form and determinant use Sherman-Morrison and the matrix
    determinant lemma, O(N) instead of a dense solve.
    """
    eig = spec.eigen
    d = eig.lambda2 - eig.lambda11
    c = eig.lambda11
    n = spec.N
    denom_sm = eig.lambda2 + (n - 1) * c
    if d <= 0 or denom_sm <= 0:
        raise ValueError("Lambda1 is singular or indefinite")
    x = spec.x
    sx = float(np.sum(x))
    quad = (float(np.dot(x, x)) - c * sx * sx / denom_sm) / d
    det = d ** (n - 1) * denom_sm
    return spec.mass**n * math.exp(-quad / (2.0 * spec.t)) / (
        (2.0 * math.pi * spec.t) ** (0.5 * n) * math.sqrt(det))


class MomentInversion(NamedTuple):
    lambda2: float
    lambda11: float


def lambda_from_moments(m1: float, m2: float, mass: float, t: float) -> MomentInversion:
    """Recover (lambda2, lambda11) from the first two one-point moments.

    Inverts the N = 1, 2 cases of the moment prediction:
    lambda2 = mass^2 / (2 pi t m1^2) and, with q = mass^2 / (2 pi t m2)
    equal to sqrt(lambda2^2 - lambda11^2),
    lambda11 = sqrt(lambda2^2 - q^2).
    """
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
