"""Per-subsystem abstraction certificates and their quadratic closeness function.

A certificate ``(M, K, P, Q, S, Rtilde, pi, kappa_hat)`` relates a concrete
subsystem ``(A, B, C, D, F)`` to a reduced candidate ``(Ahat, Bhat, Dhat,
Fhat)`` with output map ``Chat = C P`` through the lifted error ``e = x - P
xhat``.  :func:`solve_structural` completes it from the candidate and
``(M, K, pi, kappa_hat)``, the only part a project stores.  It is valid when

* ``M`` is symmetric positive (semi)definite and dominates the output Gram
  matrix, ``C'C <= M`` with ``C`` the full stacked output map;
* the closed loop contracts in the ``M``-metric,
  ``(1 + pi) (A + BK)' M (A + BK) <= (1 - kappa_hat) M``;
* the structural equalities ``A P = P Ahat - B Q`` and ``D = P Dhat - B S``
  hold (``C P = Chat`` holds by construction).

Those facts make ``V(x, xhat) = e' M e`` a one-step expected-decrease
function: with the concrete input refined by the interface function
``nu = K (x - P xhat) + Q xhat + Rtilde nuhat + S omegahat``,

    E[V+] - V  <=  -kappa_hat V
                   + rho_int ||omega - omegahat||^2
                   + rho_ext ||nuhat||^2
                   + psi,

with the closed-form coefficients produced by :func:`derive_constants`.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    Infeasible,
    RankDeficientWarning,
    SingularGramWarning,
)
from .model import LinearSubsystem, _matrix

__all__ = [
    "AbstractionCandidate",
    "AbstractionCertificate",
    "SpsfConstants",
    "ConditionCheck",
    "ConditionReport",
    "check_conditions",
    "synthesize_MK",
    "solve_structural",
    "compute_Rtilde",
    "derive_constants",
]

@dataclass(frozen=True, eq=False)
class AbstractionCandidate:
    """Reduced-order model plus the lifting matrix ``P`` that embeds its state.

    The internal input space is shared with the concrete subsystem (``Dhat``
    has the same column count as ``D``).  The output map is not stored: it is
    ``Chat = C P`` blockwise, the one map that matches the concrete outputs,
    so both systems write into the same output space.
    """

    Ahat: np.ndarray
    Bhat: np.ndarray
    Dhat: np.ndarray
    Fhat: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        for name in ("Ahat", "Bhat", "Dhat", "Fhat", "P"):
            object.__setattr__(self, name, _matrix(getattr(self, name), name))

    @property
    def nhat(self) -> int:
        return self.Ahat.shape[0]

    @property
    def mhat(self) -> int:
        return self.Bhat.shape[1]

    @classmethod
    def induced(cls, s: LinearSubsystem, P, Ahat, Bhat, Dhat, Fhat=None) -> "AbstractionCandidate":
        """Candidate whose absent ``Fhat`` is a noiseless abstraction (zero columns),
        the choice that minimizes the offset ``psi``."""
        Ahat = _matrix(Ahat, "Ahat")
        Fhat = np.zeros((Ahat.shape[0], 0)) if Fhat is None else Fhat
        return cls(Ahat=Ahat, Bhat=Bhat, Dhat=Dhat, Fhat=Fhat, P=P)

    def as_subsystem(self, s: LinearSubsystem) -> LinearSubsystem:
        """View the candidate of ``s`` as a subsystem so it can be interconnected:
        its output blocks are ``C_ext P`` and ``C_int[j] P``, wired like those of ``s``."""
        return LinearSubsystem(
            id=s.id,
            A=self.Ahat,
            B=self.Bhat,
            D=self.Dhat,
            F=self.Fhat,
            C_ext=s.C_ext @ self.P,
            C_int={j: blk @ self.P for j, blk in s.C_int.items()},
        )


@dataclass(frozen=True, eq=False)
class AbstractionCertificate:
    """Witness data for one concrete/abstract subsystem pair."""

    M: np.ndarray
    K: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    Rtilde: np.ndarray
    pi: float
    kappa_hat: float

    def __post_init__(self):
        for name in ("M", "K", "P", "Q", "S", "Rtilde"):
            object.__setattr__(self, name, _matrix(getattr(self, name), name))
        object.__setattr__(self, "pi", float(self.pi))
        object.__setattr__(self, "kappa_hat", float(self.kappa_hat))


@dataclass(frozen=True)
class SpsfConstants:
    """Closed-form constants of the one-step decrease inequality.

    The output lower bound is ``alpha(s) = s**2``; the decrease rate is
    linear, ``kappa(s) = kappa_hat * s``; the gain terms are quadratic with
    coefficients ``rho_int_coef`` and ``rho_ext_coef``; ``psi`` is the
    additive noise offset.
    """

    kappa_hat: float
    rho_int_coef: float
    rho_ext_coef: float
    psi: float

    def __post_init__(self):
        if not 0.0 < self.kappa_hat < 1.0:
            raise ValueError(f"kappa_hat out of (0,1): {self.kappa_hat}")
        for name in ("rho_int_coef", "rho_ext_coef", "psi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    """Residuals of every certificate condition plus domain violations."""

    tol: float
    checks: tuple[ConditionCheck, ...]
    violations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations and all(c.passed for c in self.checks)

    def render(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"{'condition':<{width}}  {'residual':>13}  {'threshold':>13}  status"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<{width}}  {c.value:>13.6e}  {c.threshold:>13.6e}  {status}")
        for v in self.violations:
            lines.append(f"violation: {v}")
        return "\n".join(lines)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


# An overflowed matrix gives NaN, which fails every condition, where LAPACK would raise.


def _min_eig(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    m = _sym(m)
    return float(np.linalg.eigvalsh(m)[0]) if np.isfinite(m).all() else np.nan


def _spec_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0]) if np.isfinite(m).all() else np.nan


def _margins(M, C, Abar, pi, kappa_hat) -> tuple[float, float, float]:
    """Output-bound and decrease margins of ``M``, and their scale ``max(1, ||M||)``."""
    out = _min_eig(M - C.T @ C)
    dec = _min_eig((1.0 - kappa_hat) * M - (1.0 + pi) * Abar.T @ M @ Abar)
    return out, dec, max(1.0, _spec_norm(M))


# an overflow's inf or NaN fails its check, so numpy need not warn of it
@np.errstate(over="ignore", invalid="ignore")
def check_conditions(
    s: LinearSubsystem,
    cand: AbstractionCandidate,
    cert: AbstractionCertificate,
    tol: float = 1e-9,
) -> ConditionReport:
    """Evaluate all certificate conditions and report their numerical slack.

    Matrix-inequality margins (minimum eigenvalues) must be ``>= -tol`` scaled by
    ``max(1, ||M||)``, equality residuals (spectral norms) ``<= tol``, and ``cert.P``
    must be ``cand.P`` bit for bit.  Nothing is raised: the report carries pass/fail.
    """
    M, K, P, C_full = cert.M, cert.K, cert.P, s.output_matrix()
    n, nhat = s.n, cand.nhat
    if P.shape != (n, nhat):
        raise DimensionMismatch(f"P is {P.shape}, expected ({n}, {nhat})")
    if K.shape != (s.m, n):
        raise DimensionMismatch(f"K is {K.shape}, expected ({s.m}, {n})")
    out_margin, dec_margin, scale = _margins(M, C_full, s.A + s.B @ K, cert.pi, cert.kappa_hat)
    eig_tol = tol * scale

    m_defect = max(_spec_norm(M - M.T), max(0.0, -_min_eig(M)))
    drift_res = _spec_norm(s.A @ P - P @ cand.Ahat + s.B @ cert.Q)
    internal_res = _spec_norm(s.D - P @ cand.Dhat + s.B @ cert.S)

    checks = (
        ConditionCheck("M symmetric positive", m_defect, eig_tol, m_defect <= eig_tol),
        ConditionCheck("output bound", out_margin, -eig_tol, out_margin >= -eig_tol),
        ConditionCheck("decrease", dec_margin, -eig_tol, dec_margin >= -eig_tol),
        ConditionCheck("drift match", drift_res, tol, drift_res <= tol),
        ConditionCheck("internal input match", internal_res, tol, internal_res <= tol),
    )
    lift = P.shape == cand.P.shape and P.tobytes() == cand.P.tobytes()
    violations = [] if lift else ["the certificate's P is not the candidate's lift, bit for bit"]
    if not 0.0 < cert.kappa_hat < 1.0:
        violations.append(f"kappa_hat out of (0,1): {cert.kappa_hat}")
    if cert.pi <= 0.0:
        violations.append(f"pi must be positive: {cert.pi}")
    return ConditionReport(tol=tol, checks=checks, violations=tuple(violations))


_SWEEPS = 64  # doubling sweeps of either iteration: 2**64 terms of its series


def _dare(A, G):
    """Stabilizing ``X = A'XA - A'XB (I + B'XB)^-1 B'XA + I`` for ``G = BB'``, by doubling."""
    I = np.eye(A.shape[0])
    H = I
    for _ in range(_SWEEPS):
        WA, WG = np.hsplit(np.linalg.solve(I + G @ H, np.hstack([A, G])), 2)
        H, H_prev = H + A.T @ H @ WA, H
        G, A = G + A @ WG @ A.T, A @ WA
        if not np.isfinite(H).all():
            raise np.linalg.LinAlgError("the Riccati doubling diverged")
        if np.max(np.abs(H - H_prev)) <= 1e-15 * np.max(np.abs(H)):
            return H
    raise np.linalg.LinAlgError(f"the Riccati doubling did not converge in {_SWEEPS} sweeps")


def _stein(G, W):
    """Symmetric ``M = G'MG + W`` for Schur-stable ``G``: squared Smith, one residual pass."""
    def series(X):
        A = G
        for _ in range(_SWEEPS):
            X, X_prev, A = _sym(X + A.T @ X @ A), X, A @ A
            if np.array_equal(X, X_prev):
                break
        return X
    M = series(W)
    return M + series(W + G.T @ M @ G - M)


# an overflow's inf or NaN ends as Infeasible: the doubling raises, a margin fails
@np.errstate(over="ignore", invalid="ignore")
def synthesize_MK(
    A, B, C, pi: float, kappa_hat: float, *, tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Find ``(M, K)`` satisfying the output-bound and decrease inequalities.

    The decrease condition is equivalent to Schur stability of the scaled
    closed loop ``gamma (A + BK)`` with ``gamma = sqrt((1+pi)/(1-kappa_hat))``.
    ``K`` is the uniform shrinkage ``-eta B^-1 A`` when ``B`` is square and
    invertible, at the first grid ``eta`` with ``gamma rho(A) (1 - eta) <= 0.9``:
    its loop ``(1 - eta) A`` needs ``rho(A)`` once, not per ``eta``.  Otherwise,
    or if round-off lifts that loop above 0.9 (at a grid tie, where a per-``eta``
    sweep goes on to the next ``eta``), ``K`` is the optimal regulator
    gain of the gamma-scaled pair, from the Riccati solution that the
    structure-preserving doubling iteration reaches once a sweep changes it by at
    most ``1e-15`` of its largest entry.  ``M`` is then the scaled Lyapunov series

        M = sum_k gamma**(2k) (A+BK)'**k (C'C + eps I) (A+BK)**k,

    summed by the squared Smith iteration until a sweep leaves it bitwise
    unchanged, then once more on the residual.  Either iteration stops after 64
    sweeps.  The pair is returned once both margins are at least ``-tol *
    max(1, ||M||)``: round-off can spend the positive margin that ``eps I``
    gives, down to a decrease margin of -93 where ``||M|| = 1.2e13``.

    Raises
    ------
    Infeasible
        If no gain renders the scaled closed loop Schur stable.
    """
    A = _matrix(A, "A")
    B = _matrix(B, "B")
    C = _matrix(C, "C")
    n, m = B.shape
    if A.shape != (n, n) or C.shape[1] != n:
        raise DimensionMismatch("A/B/C dimensions inconsistent")
    if pi <= 0 or not 0.0 < kappa_hat < 1.0:
        raise Infeasible(f"need pi > 0 and kappa_hat in (0,1), got {pi}, {kappa_hat}")
    gamma = np.sqrt((1.0 + pi) / (1.0 - kappa_hat))

    K = None
    if m == n and np.linalg.cond(B) < 1e12:
        # the first eta with gamma rho(A) (1 - eta) <= 0.9; an overflowed radius takes eta = 1
        r, etas = gamma * _spectral_radius(A), np.linspace(0.0, 1.0, 21)
        eta = etas[np.argmax(r * (1.0 - etas) <= 0.9)] if np.isfinite(r) else 1.0
        K = -eta * np.linalg.solve(B, A)
    if K is None or not gamma * _spectral_radius(A + B @ K) <= 0.9:
        try:
            X = _dare(gamma * A, gamma**2 * B @ B.T)
            K = -np.linalg.solve(np.eye(m) + gamma**2 * B.T @ X @ B, gamma**2 * B.T @ X @ A)
        except Exception as exc:
            raise Infeasible(f"no stabilizing gain found: {exc}") from exc
        if not gamma * _spectral_radius(A + B @ K) < 1.0:  # NaN: an overflowed loop
            raise Infeasible("scaled closed loop is not Schur stable")

    G = gamma * (A + B @ K)
    Abar = A + B @ K
    eps = 1e-8 * _spec_norm(C.T @ C) + 1e-12
    for _ in range(3):
        # M = sum_k G'**k (C'C + eps I) G**k, i.e. M = G'MG + C'C + eps I
        M = _stein(G, _sym(C.T @ C + eps * np.eye(n)))
        # never hand back a failing pair: verify at the caller's tolerance (NaN fails)
        out, dec, scale = _margins(M, C, Abar, pi, kappa_hat)
        if out >= -tol * scale and dec >= -tol * scale:
            return M, K
        eps *= 1e4
    raise Infeasible("certificate margins lost to round-off")


def _spectral_radius(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m)))) if np.isfinite(m).all() else np.nan


@np.errstate(over="ignore", invalid="ignore")  # an overflowed Q or S fails its match check
def solve_structural(
    s: LinearSubsystem, cand: AbstractionCandidate, M, K, pi: float, kappa_hat: float
) -> AbstractionCertificate:
    """Complete ``(M, K, pi, kappa_hat)`` into the certificate of ``s`` and ``cand``.

    ``P`` is the candidate's; ``Q`` and ``S`` solve ``B Q = P Ahat - A P`` and
    ``B S = P Dhat - D`` in the minimum-norm least-squares sense, and ``Rtilde``
    is :func:`compute_Rtilde`.  Certificate validity requires the attained
    residuals to be numerically zero; :func:`check_conditions` reports them as
    "drift match" and "internal input match".

    Warns with :class:`RankDeficientWarning` when ``B`` lacks full column
    rank (the solution is then non-unique).
    """
    P = cand.P
    Q, _, rank, _ = np.linalg.lstsq(s.B, P @ cand.Ahat - s.A @ P, rcond=None)
    if rank < s.m:
        warnings.warn(
            "B lacks full column rank; returning minimum-norm Q, S", RankDeficientWarning
        )
    S = np.linalg.lstsq(s.B, P @ cand.Dhat - s.D, rcond=None)[0]
    Rtilde = compute_Rtilde(s.B, M, P, cand.Bhat)
    return AbstractionCertificate(
        M=M, K=K, P=P, Q=Q, S=S, Rtilde=Rtilde, pi=pi, kappa_hat=kappa_hat
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises DomainError instead
def compute_Rtilde(B, M, P, Bhat) -> np.ndarray:
    """Input-matching gain ``Rtilde = (B'MB)^{-1} B'M P Bhat``.

    This is the weighted least-squares choice that minimizes
    ``||sqrt(M)(B Rtilde - P Bhat)||`` and hence the external gain
    coefficient.  Falls back to a pseudo-inverse (with
    :class:`SingularGramWarning`) when the Gram matrix ``B'MB`` is singular.
    Raises :class:`DomainError` when ``B'MB`` or ``B'M P Bhat`` overflows,
    before any factorisation sees a non-finite matrix.
    """
    B = _matrix(B, "B")
    M = _matrix(M, "M")
    P = _matrix(P, "P")
    Bhat = _matrix(Bhat, "Bhat")
    gram = B.T @ M @ B
    rhs = B.T @ M @ P @ Bhat
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise DomainError("B'MB or B'M P Bhat is not finite; Rtilde is undefined")
    if gram.size == 0:
        return np.zeros((B.shape[1], Bhat.shape[1]))
    if np.linalg.cond(gram) > 1e12:
        warnings.warn("B'MB is singular; using pseudo-inverse", SingularGramWarning)
        return np.linalg.pinv(gram) @ rhs
    return np.linalg.solve(gram, rhs)


def derive_constants(
    s: LinearSubsystem, cand: AbstractionCandidate, cert: AbstractionCertificate
) -> SpsfConstants:
    """Closed-form decrease-inequality constants for a valid certificate.

    With spectral norms throughout:

    * ``rho_int_coef = (1 + 2/pi + pi/2) ||sqrt(M) D||^2``
    * ``rho_ext_coef = (1 + 4/pi) ||sqrt(M)(B Rtilde - P Bhat)||^2``
    * ``psi = Tr(F'MF + Fhat'P'MP Fhat)``

    The external coefficient splits the mixed cross term as
    ``2ab <= (pi/2) a^2 + (2/pi) b^2``, which is a valid bound for every
    ``pi > 0``.  Raises :class:`DomainError` when a constant overflows.
    """
    young_int = 1.0 + 2.0 / cert.pi + cert.pi / 2.0
    young_ext = 1.0 + 4.0 / cert.pi
    M, P = cert.M, cert.P
    X = s.B @ cert.Rtilde - P @ cand.Bhat
    PF = P @ cand.Fhat
    # largest eigenvalues as -min(-m), round-off below zero clamped, an overflow's NaN kept
    lam = -np.array([_min_eig(-s.D.T @ M @ s.D), _min_eig(-X.T @ M @ X)])
    rho = np.array([young_int, young_ext]) * np.where(lam <= 0, 0.0, lam)
    psi = float(np.trace(s.F.T @ M @ s.F) + np.trace(PF.T @ M @ PF))
    if not np.isfinite([*rho, psi]).all():
        raise DomainError(f"certificate constants are not finite: rho = {rho}, psi = {psi}")
    return SpsfConstants(
        kappa_hat=cert.kappa_hat,
        rho_int_coef=float(rho[0]),
        rho_ext_coef=float(rho[1]),
        psi=max(0.0, psi),
    )
