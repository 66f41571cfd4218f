"""Network-level composition of per-subsystem certificates.

Each subsystem brings a decrease rate ``lambda_i = kappa_hat_i`` and passes
quadratic gain ``delta_ij`` to every peer that feeds it.  When the gain
matrix test ``rho(Lambda^{-1} Delta) < 1`` succeeds, a positive weight vector
``mu`` with ``mu' (-Lambda + Delta) < 0`` exists and the weighted sum
``V = sum_i mu_i V_i`` is a closeness function for the interconnection, with
composed constants emitted by :func:`compose`.
"""

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Infeasible
from .model import Topology, _matrix
from .spsf import SpsfConstants

__all__ = [
    "GainDecomposition",
    "CompositionCertificate",
    "build_gains",
    "find_mu",
    "compose",
]

@dataclass(frozen=True, eq=False)
class GainDecomposition:
    """Diagonal decay rates ``Lambda`` and cross-gain matrix ``Delta``.

    ``Delta[i, j]`` bounds how strongly subsystem ``j``'s closeness function
    enters subsystem ``i``'s decrease inequality; it is zero whenever ``j``
    does not feed ``i``.  The comparison functions are fixed linear,
    ``gamma_i(s) = s``.
    """

    Lambda: np.ndarray
    Delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Lambda", _matrix(self.Lambda, "Lambda"))
        object.__setattr__(self, "Delta", _matrix(self.Delta, "Delta"))
        n = self.Lambda.shape[0]
        if self.Lambda.shape != (n, n) or self.Delta.shape != (n, n):
            raise ValueError("Lambda and Delta must be square of equal size")
        if np.any(self.Lambda != np.diag(np.diag(self.Lambda))):
            raise ValueError("Lambda must be diagonal")
        if np.any(np.diag(self.Lambda) <= 0):
            raise ValueError("diagonal of Lambda must be positive")
        if np.any(self.Delta < 0):
            raise ValueError("Delta must be nonnegative")
        if np.any(np.diag(self.Delta) != 0):
            raise ValueError("Delta must have zero diagonal")

    @property
    def n(self) -> int:
        return self.Lambda.shape[0]

    @functools.cached_property
    def _spectrum(self):
        """``G = Lambda^{-1} Delta`` and the eigenpairs of ``G'`` by one dense ``eig``: tiny,
        often permutation-like matrices stall iterative schemes."""
        G = np.linalg.solve(self.Lambda, self.Delta)
        # a ratio that overflowed belongs to a gain far above 1
        return (G, *np.linalg.eig(G.T)) if np.isfinite(G).all() else (G, np.array([np.inf]), None)

    @property
    def radius(self) -> float:
        """Spectral radius of ``Lambda^{-1} Delta``, from the eigensolve that also gives
        :func:`find_mu` its first weights."""
        return float(np.max(np.abs(self._spectrum[1])))


@dataclass(frozen=True, eq=False)
class CompositionCertificate:
    """Weights and constants of the composed closeness function.

    The composed function is ``V(x, xhat) = sum_i mu_i V_i(x_i, xhat_i)``; its
    output lower bound is quadratic with coefficient ``alpha_coef = min_i
    mu_i``, the decrease rate is ``kappa_hat``, and the external gain and
    offset add up with weights ``mu_i``.
    """

    mu: np.ndarray
    alpha_coef: float
    kappa_hat: float
    rho_ext_coef: float
    psi: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        if np.any(mu <= 0):
            raise ValueError("mu must be strictly positive")
        if not 0.0 < self.kappa_hat < 1.0:
            raise ValueError(f"composed kappa_hat out of (0,1): {self.kappa_hat}")


def build_gains(constants: Sequence[SpsfConstants], topo: Topology) -> GainDecomposition:
    """Gain matrices induced by quadratic/linear certificate constants:
    ``lambda_i = kappa_hat_i``, and ``delta_ij = rho_int_coef_i`` on every edge
    ``j -> i`` whatever the fan-in of ``i``.

    The internal input is stacked, each in-edge on its own rows, so by the
    abstract output map ``Chat_full,j = C_full,j P_j`` the squared ``||omega_i -
    omegahat_i||`` is the sum over ``j -> i`` of ``||C_int,j->i (x_j - P_j
    xhat_j)||**2``, and each term is at most ``V_j`` by the output bound ``M_j
    >= C_full,j' C_full,j``.  The paper's fan-in factor ``d**2`` splits a
    general class-K_inf gain, ``rho(sum s_j) <= sum rho(d s_j)``; quadratic
    gains on a stacked norm do not need it.
    """
    n = topo.n_subsystems
    if len(constants) != n:
        raise ValueError(f"expected {n} constant sets, got {len(constants)}")
    lam = np.diag([c.kappa_hat for c in constants])
    delta = np.zeros((n, n))
    for src, tgt in topo.pairs:
        delta[tgt, src] = constants[tgt].rho_int_coef
    return GainDecomposition(Lambda=lam, Delta=delta)


def find_mu(g: GainDecomposition) -> np.ndarray:
    """Positive weights with strictly negative slack ``mu' (-Lambda + Delta)``.

    Uses the left eigenvector ``w`` of ``Lambda^{-1} Delta`` for its eigenvalue
    of largest real part, the Perron root ``rho`` (on a ring every eigenvalue has
    its modulus), and returns ``mu_i = w_i / lambda_i`` normalized to
    ``max(mu) = 1``:  then ``mu'(-Lambda + Delta) = (rho - 1) w' < 0``.  The first
    try takes ``w`` from the eigensolve that gave :attr:`GainDecomposition.radius`.
    Where ``w`` is not positive (a reducible network), each retry adds a small
    constant, from 1e-9 down, to every entry of ``Lambda^{-1} Delta`` and solves again.

    Raises
    ------
    Infeasible
        If the spectral radius test fails (``rho >= 1``).
    """
    rho = g.radius
    if rho >= 1.0:
        raise Infeasible(f"spectral radius {rho:.6f} >= 1; no valid mu exists")
    lam = np.diag(g.Lambda)
    if not np.any(g.Delta):
        return np.ones(g.n)
    G, vals, vecs = g._spectrum  # the unperturbed try reuses the radius's eigenpairs
    eps = 0.0
    for _ in range(8):
        if eps:
            vals, vecs = np.linalg.eig((G + eps).T)
        w = np.real(vecs[:, np.argmax(vals.real)])
        if w.sum() < 0:
            w = -w
        mu = w / lam
        if np.all(mu > 0):
            mu = mu / mu.max()
            slack = mu @ (-g.Lambda + g.Delta)
            if np.all(slack < 0):
                return mu
        eps = eps / 1e3 if eps else 1e-9
    raise Infeasible("could not certify a positive mu despite radius < 1")


def compose(
    constants: Sequence[SpsfConstants], g: GainDecomposition, mu: np.ndarray
) -> CompositionCertificate:
    """Composed constants of the weighted-sum closeness function.

    ``kappa_hat`` is the worst normalized slack of the small-gain inequality,
    ``min_i (mu_i lambda_i - sum_j mu_j delta_ji) / mu_i``; the offset and
    external gain accumulate with weights ``mu_i``; the output lower-bound
    coefficient is ``min_i mu_i``.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    lam = np.diag(g.Lambda)
    slack = mu * lam - g.Delta.T @ mu
    if np.any(slack <= 0):
        raise Infeasible("mu does not satisfy the small-gain inequality")
    kappa = float(np.min(slack / mu))
    return CompositionCertificate(
        mu=mu,
        alpha_coef=float(np.min(mu)),
        kappa_hat=kappa,
        rho_ext_coef=float(sum(w * c.rho_ext_coef for w, c in zip(mu, constants))),
        psi=float(sum(w * c.psi for w, c in zip(mu, constants))),
    )
