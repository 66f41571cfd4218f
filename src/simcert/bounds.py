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
    """Tight admissible offset ``rho_ext_coef * nuhat_sup**2 + psi``, rounded up to a float;
    its first term is 0 where ``rho_ext_coef = 0``, even if ``nuhat_sup**2`` overflows."""
    if nuhat_sup < 0:
        raise DomainError(f"nuhat_sup must be nonnegative: {nuhat_sup}")
    offset = (rho_ext_coef * (nuhat_sup * nuhat_sup) if rho_ext_coef else 0.0) + psi
    if rho_ext_coef and offset < math.inf:  # the rounded product-sum may fall below the exact
        from fractions import Fraction  # here, as it adds 3 ms to importing simcert
        exact = Fraction(rho_ext_coef) * Fraction(nuhat_sup) ** 2 + Fraction(psi)
        offset = float(min(exact, Fraction(np.finfo(float).max)))
        if Fraction(offset) < exact:
            offset = math.nextafter(offset, math.inf)
    return offset


def finite_horizon_bound(q: BoundQuery) -> BoundResult:
    """Two-case supremum-deviation bound over ``0 <= k <= T``.

    With ``a = alpha_coef * epsilon**2``, ``x = V0/a`` and ``y = psi_hat/a``:

    * high threshold (``y <= kappa_hat``): ``1 - (1 - x) (1 - y)**T``
    * low threshold (``y > kappa_hat``): ``x (1-k)**T + (y/k) (1 - (1-k)**T)``, ``k = kappa_hat``

    The branches agree at the threshold, and each is the larger on its own side.
    The raw value can exceed 1 when ``x > 1``; the probability is clamped.  ``x``
    and ``y`` are evaluated from logs, so ``a`` is never formed, and the result is
    never below the exact value, nor 0 unless ``V0 = 0`` and ``psi_hat T = 0``.
    ``branch`` is the side of the unraised ``log y``, so a tie is ``high_threshold``;
    the formula is the raised one's, which near a tie can be the low threshold's.
    """
    log_alpha, log_eps, lk = (math.log(v) for v in (q.alpha_coef, q.epsilon, q.kappa_hat))
    la = log_alpha + 2 * log_eps  # log a
    lv, lp = (math.log(v) if v > 0 else -math.inf for v in (q.V0, q.psi_hat))
    branch = "low_threshold" if lp - la > lk else "high_threshold"
    # log, exp, log1p and expm1 err by under 2**-52 of their result, a sum or product by
    # 2**-53: 2**-50 times the magnitudes of the logs in lx = log x, ly = log y and ly - lk,
    # plus 2, covers every step's error but the last, which rounding up once covers
    size = abs(log_alpha) + 2 * abs(log_eps) + 2
    lx = lv - la + 2**-50 * (abs(lv) + size) if q.V0 > 0 else -math.inf
    ly = lp - la + 2**-50 * (abs(lp) + abs(lk) + size) if q.psi_hat > 0 else -math.inf
    try:  # rounded by at most 2**-53, which the raises below cover; inf past the float range
        T = float(q.T)
    except OverflowError:
        T = math.inf
    if ly > lk:  # also where only the raise lifts y past kappa_hat, above which this is larger
        t = T * math.log1p(-q.kappa_hat)  # log (1 - kappa_hat)**T, within 2**-51 of |t|
        # log((1 - (1 - kappa_hat)**T) / kappa_hat) is in [0, |lk|], which bounds its error
        lgy = ly + math.log(-math.expm1(t) / q.kappa_hat) if q.T else -math.inf
        raw = _exp(float(np.logaddexp(lx + t * (1 - 2**-50), lgy)))
    else:  # T log1p(-y) is -T y below e**-40, where y itself may be subnormal
        lty = ly + math.log(q.T) * (1 + 2**-50) if q.T else -math.inf  # log(T y)
        tail = T * math.log1p(-math.exp(ly)) if ly > -40 else -_exp(lty)
        head = math.log1p(-math.exp(lx)) if lx < 0 else -math.inf  # x >= 1 gives 1
        raw = -math.expm1(head + tail)
    if q.V0 > 0 or (q.psi_hat > 0 and q.T > 0):
        raw = math.nextafter(raw, math.inf)
    prob = min(max(raw, 0.0), 1.0)
    return BoundResult(probability=prob, raw=raw, branch=branch, clamped=prob != raw)


def _exp(v: float) -> float:
    """``e**v``, and inf past the float range, where ``math.exp`` raises."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf
