"""Probabilistic closeness bounds derived from a composed certificate.

Given a closeness function with quadratic output lower bound
``alpha(s) = alpha_coef * s**2``, linear decrease rate ``kappa_hat`` and
offset ``psi_hat``, the supremum deviation of the two output trajectories
over a finite horizon exceeds ``epsilon`` with probability at most the
two-case expression evaluated by :func:`finite_horizon_bound`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BoundQuery",
    "BoundResult",
    "psi_hat",
    "finite_horizon_bound",
]


@dataclass(frozen=True)
class BoundQuery:
    """Inputs of the finite-horizon deviation bound.

    ``V0`` is the closeness value at the initial state pair, ``epsilon`` the
    output-space deviation threshold and ``T`` the number of steps (the
    supremum runs over times ``0..T`` inclusive).
    """

    V0: float
    alpha_coef: float
    epsilon: float
    T: int
    psi_hat: float
    kappa_hat: float

    def __post_init__(self):
        # each guard is written so that NaN fails it; infinite values fail too
        if not 0 <= self.V0 < np.inf:
            raise DomainError(f"V0 must be finite and nonnegative: {self.V0}")
        if not 0 < self.alpha_coef < np.inf:
            raise DomainError(f"alpha_coef must be finite and positive: {self.alpha_coef}")
        if not 0 < self.epsilon < np.inf:
            raise DomainError(f"epsilon must be finite and positive: {self.epsilon}")
        if not 0 <= self.psi_hat < np.inf:
            raise DomainError(f"psi_hat must be finite and nonnegative: {self.psi_hat}")
        if not 0.0 < self.kappa_hat < 1.0:
            raise DomainError(f"kappa_hat out of (0,1): {self.kappa_hat}")
        if int(self.T) != self.T or self.T < 0:
            raise DomainError(f"T must be a nonnegative integer: {self.T}")
        object.__setattr__(self, "T", int(self.T))


@dataclass(frozen=True)
class BoundResult:
    """Evaluated bound: ``probability`` is ``raw`` clamped into [0, 1]."""

    probability: float
    raw: float
    branch: str
    clamped: bool


def psi_hat(rho_ext_coef: float, nuhat_sup: float, psi: float) -> float:
    """Tight admissible offset ``rho_ext_coef * nuhat_sup**2 + psi``, whose first
    term is 0 where ``rho_ext_coef = 0``, even if ``nuhat_sup**2`` overflows."""
    if nuhat_sup < 0:
        raise DomainError(f"nuhat_sup must be nonnegative: {nuhat_sup}")
    return (rho_ext_coef * (nuhat_sup * nuhat_sup) if rho_ext_coef else 0.0) + psi


def finite_horizon_bound(q: BoundQuery) -> BoundResult:
    """Two-case supremum-deviation bound over ``0 <= k <= T``.

    With ``a = alpha_coef * epsilon**2``:

    * high threshold (``a >= psi_hat / kappa_hat``):
      ``1 - (1 - V0/a) (1 - psi_hat/a)**T``
    * low threshold (``a < psi_hat / kappa_hat``):
      ``(V0/a) (1-kappa_hat)**T + (psi_hat/(kappa_hat a)) (1 - (1-kappa_hat)**T)``

    The branches agree exactly at the threshold.  The raw value can exceed 1
    when ``V0 > a``; the reported probability is clamped.  Where ``a``
    underflows below the normal floats, the bound is its limit at ``a -> 0``,
    which bounds every ``a > 0``: 1 unless ``V0 = 0`` and ``psi_hat T = 0``.
    Where ``a`` overflows, it is evaluated from logs, and rounded up.
    """
    a = q.alpha_coef * (q.epsilon * q.epsilon)  # where a float ** raises, * gives inf
    branch = "high_threshold" if a >= q.psi_hat / q.kappa_hat else "low_threshold"
    if a == math.inf:  # a has overflowed
        branch, raw = _bound_from_logs(q)
    elif a < np.finfo(float).tiny:  # a has underflowed: the limit, inf or 0
        raw = math.inf if q.V0 > 0 or (q.psi_hat > 0 and q.T > 0) else 0.0
    elif branch == "high_threshold":
        if q.V0 < a:  # in logs, so that a bound far below 1e-16 does not cancel to 0
            raw = -math.expm1(math.log1p(-q.V0 / a) + q.T * math.log1p(-q.psi_hat / a))
        else:  # raw >= 1 here, and is clamped
            raw = 1.0 - (1.0 - q.V0 / a) * (1.0 - q.psi_hat / a) ** q.T
    else:
        decay = (1.0 - q.kappa_hat) ** q.T
        # 1 - decay, which cancels to 0 once kappa_hat is below the rounding unit
        growth = -math.expm1(q.T * math.log1p(-q.kappa_hat))
        raw = (q.V0 / a) * decay + (q.psi_hat / (q.kappa_hat * a)) * growth
    prob = min(max(raw, 0.0), 1.0)
    return BoundResult(probability=prob, raw=float(raw), branch=branch, clamped=prob != raw)


def _bound_from_logs(q: BoundQuery) -> tuple[str, float]:
    """Branch and raw bound where ``a = alpha_coef epsilon**2`` overflows, in ``x = V0/a``
    and ``y = psi_hat/a`` formed from logs (the threshold is ``y <= kappa_hat``).  The
    logs are raised by 1e-12, above their rounding error, and a positive result by one
    ulp, so the bound is never below the exact value, nor 0 unless that is."""
    log_a = math.log(q.alpha_coef) + 2 * math.log(q.epsilon) - 1e-12
    lx, ly = (math.log(v) - log_a if v > 0 else -math.inf for v in (q.V0, q.psi_hat))
    lty = ly + math.log(q.T) if q.T > 0 else -math.inf  # log(T y)
    if ly > math.log(q.kappa_hat):
        t = q.T * math.log1p(-q.kappa_hat)  # the log of (1 - kappa_hat)**T
        raw = math.exp(lx + t) - math.exp(ly) / q.kappa_hat * math.expm1(t)
        branch = "low_threshold"
    elif max(lx, lty) < -40:  # x + T y, at most 1 + 1e-17 times 1 - (1-x)(1-y)**T
        branch, raw = "high_threshold", math.exp(float(np.logaddexp(lx, lty)))
    else:  # T log1p(-y) is -T y below e**-40, where y itself may be subnormal
        tail = q.T * math.log1p(-math.exp(ly)) if ly > -40 else -math.exp(lty)
        head = math.log1p(-math.exp(lx)) if lx < 0 else -math.inf  # x >= 1 gives 1
        branch, raw = "high_threshold", -math.expm1(head + tail)
    positive = q.V0 > 0 or (q.psi_hat > 0 and q.T > 0)
    return branch, math.nextafter(raw, math.inf) if positive else raw
