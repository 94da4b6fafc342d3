"""Pathwise Aris-moment evolution and ergodic estimators.

For the multiplicative flow u(y) xi(t) with a unit-mass line source, the
streamwise moments obey a recursive hierarchy whose first two
cross-sectional averages close exactly:

    T1bar(t) = Pe ubar I(t),
    T2bar(t) = 2 t + 2 Pe^2 sum_n <u, phi_n>^2 J_n(t) + T1bar(t)^2,

with phi_n = sqrt(2) cos(n pi y), lambda_n = n^2 pi^2,

    q_n(t) = e^{-lambda_n t} int_0^t e^{lambda_n s} xi(s) ds,
    J_n(t) = int_0^t xi(s) q_n(s) ds,

T2bar sums the weighted q_n before one trapezoid of xi times that sum.
The exponentially weighted integrals overflow if evaluated literally;
q_n is advanced by the unconditionally stable recursion
q_n(t+D) = q_n(t) e^{-lambda_n D} + (local quadrature), xi linear on each step.

The centered second moment grows like 2 kappa_eff t along every single
realization, which is the ergodic route to the deterministic effective
diffusivity; J_n/t also furnishes closed long-time identities for OU
time integrals and a damping estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ou_process import (
    OUPath, _cumtrapz, _decay_scan, _require_finite, _require_positive, _require_whole,
    _write_csv,
)
from .spectral_core import GridFunction, _exp_moments, cosine_project, cosine_eigenvalue


MIN_WINDOW = 10.0   # diffusive times: the shortest window kappa_from_realization fits


class EstimatorDomainError(ValueError):
    """Finite-sample statistic fell outside the estimator's domain."""


@dataclass
class ArisRecord:
    """Streamwise moments T1bar and T2bar at increasing times along one flow
    realization, from the moment hierarchy (``solve_aris``) or from
    particles (``simulate_forward``); the kappa estimate is derived from them."""

    times: np.ndarray
    t1bar: np.ndarray
    t2bar: np.ndarray
    data_variance = 0.0     # x-variance s of the data, not dispersion; ForwardResult sets it

    def centered_second(self) -> np.ndarray:
        return self.t2bar - self.t1bar**2

    @property
    def kappa_estimate(self) -> np.ndarray:
        """(T2bar - T1bar^2 - s) / (2t), s = ``data_variance``; nan at t = 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = self.centered_second() - self.data_variance
            return np.where(self.times > 0, spread / (2.0 * self.times), np.nan)

    def to_csv(self, path) -> None:
        _write_csv(path, "t,t1bar,t2bar,kappa_estimate",
                   [self.times, self.t1bar, self.t2bar, self.kappa_estimate])


# ---------------------------------------------------------------------------
# pathwise solve
# ---------------------------------------------------------------------------

def _mode_integrals(path: OUPath, lams, weights) -> np.ndarray:
    """sum_n w_n J_n(t_k) over the modes (lam_n, w_n), one trapezoid of xi
    times sum_n w_n q_n, each running mode amplitude q_n advanced stably by
    its decay scan.  With xi linear on each step, a step adds
    w dt (m_1 xi_k + (m_0 - m_1) xi_{k+1}) to w q, m_j = ``_exp_moments(lam dt)``,
    the package's one step-moment rule."""
    xi, dt = path.values, path.dt
    inp, total = np.zeros(xi.size), np.zeros(xi.size)
    for lam, w, m in zip(lams, weights, _exp_moments(np.multiply(lams, dt))):
        np.multiply(xi[:-1], w * dt * m[1], out=inp[1:])
        inp[1:] += (w * dt * (m[0] - m[1])) * xi[1:]
        total += _decay_scan(inp, math.exp(-lam * dt))
    return _cumtrapz(np.multiply(xi, total, out=total), dt)


def exp_weighted_integral(path: OUPath, lam: float) -> np.ndarray:
    """J(t_k) = int_0^{t_k} xi(s) e^{-lam s} int_0^s e^{lam tau} xi(tau) dtau ds,
    the one-mode case of ``_mode_integrals``."""
    return _mode_integrals(path, [lam], [1.0])


def solve_aris(u: GridFunction, pe: float, path: OUPath, n_max: int = 8) -> ArisRecord:
    """Evolve the first two Aris moments along one OU realization.

    Mass is conserved exactly (T0bar = 1 for the delta line source), so
    only T1bar and T2bar are tracked; T2bar sums 2 Pe^2 <u, phi_n>^2 J_n over
    the modes n = 1..n_max above roundoff, in one ``_mode_integrals`` call.
    """
    _require_whole(n_max, "n_max", 1)
    _require_finite(pe=pe)
    coeffs = cosine_project(u, n_max)
    t1 = pe * coeffs[0] * path.integral
    # skip |c_n| <= 1e-14 max|u|, >= 100x the projection's roundoff: such a mode
    # adds <= Pe^2 1e-28 max|u|^2 t, under one ULP of T2bar >= 2t while Pe max|u| < 1e6
    floor = 1e-14 * float(np.max(np.abs(u.values)))
    modes = [n for n in range(1, n_max + 1) if abs(coeffs[n]) > floor]
    centered = 2.0 * path.times + _mode_integrals(
        path, [cosine_eigenvalue(n) for n in modes], [2.0 * pe**2 * coeffs[n] ** 2 for n in modes])
    return ArisRecord(path.times, t1, centered + t1**2)


def kappa_from_realization(record: ArisRecord) -> float:
    """Ergodic single-realization estimate of kappa_eff from either route's
    record (``solve_aris`` or ``simulate_forward``).

    Least-squares slope of (T2bar - T1bar^2)/2 against t over the trailing
    half of the record, robust to the O(1) additive offset in the centered
    moment, in closed form: sum(tc y) / sum(tc^2), tc the centred window times.
    """
    t = record.times
    lo, hi = t[-1] / 2.0, t[-1]
    if hi - lo < MIN_WINDOW:
        raise ValueError(f"window [{lo}, {hi}] shorter than {MIN_WINDOW:g} diffusive times")
    start = int(np.searchsorted(t, lo))     # record times increase
    if t.size - start < 2:
        raise ValueError("window contains fewer than two record times")
    tc = t[start:] - t[start:].mean()
    y = record.t2bar[start:] - record.t1bar[start:] ** 2
    # einsum, not BLAS: a threaded 40k-term ddot took 8 ms against 20 us on 2 CPUs
    return 0.5 * float(np.einsum("i,i", tc, y)) / float(np.einsum("i,i", tc, tc))


# ---------------------------------------------------------------------------
# OU time-integral identity and damping estimator
# ---------------------------------------------------------------------------

def _identity_statistic(path: OUPath, n: int) -> tuple[float, float]:
    """(lambda_n, J_n(t)/t at the path's end), read by the identity and the
    damping estimator; n is an integer >= 1, since mode 0 (lambda 0) has no
    identity."""
    _require_whole(n, "mode index n", 1)
    lam = cosine_eigenvalue(n)
    return lam, float(exp_weighted_integral(path, lam)[-1]) / path.t_end


def ou_integral_identity(n: int, gamma: float, path: OUPath) -> tuple[float, float]:
    """Long-time identity for the doubly exponentially weighted OU integral.

    lhs = (1/t) int_0^t e^{-n^2 pi^2 s} xi(s) int_0^s e^{n^2 pi^2 tau} xi dtau ds,
    rhs = 1/2 - pi^2 n^2 / (2 (gamma + pi^2 n^2)),
    equal up to O(1/t).
    """
    _require_positive(gamma=gamma)
    lam, lhs = _identity_statistic(path, n)
    if path.t_end < 50.0 / gamma or path.t_end < 50.0 / lam:
        raise ValueError(f"path too short: need t >= {max(50.0 / gamma, 50.0 / lam):.3g}")
    rhs = 0.5 - lam / (2.0 * (gamma + lam))
    return lhs, rhs


def estimate_gamma(path: OUPath, n: int = 1) -> float:
    """Invert the integral identity into a damping estimate
    gammahat = 2 n^2 pi^2 I / (1 - 2 I), valid for I in (0, 1/2)."""
    lam, stat = _identity_statistic(path, n)
    if not 0.0 < stat < 0.5:
        raise EstimatorDomainError(
            f"integral statistic {stat:.6g} outside (0, 1/2); "
            "estimator undefined at this sample")
    return 2.0 * lam * stat / (1.0 - 2.0 * stat)
