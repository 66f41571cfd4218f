"""Bundled reference network: four 25-state subsystems in a ring.

This is the regression fixture used by the ``paper-example`` command.  Four
identical integrator-like subsystems are coupled in a directed ring
(``2 -> 0 -> 3 -> 1 -> 2``), each abstracted to a single state by the rank-one
lift ``P = 1``.  The module also records the externally published constants
the toolkit is expected to reproduce, together with their comparison
tolerances.

One published value is knowingly inconsistent: the internal input matching
forces ``S = -0.004 * ones`` (``B S = P Dhat - D`` with ``Dhat = 0.096``),
while the published figure is ``-0.003 * ones``, off by 0.001 per row.  The
fixture derives the recomputed value; reports must flag the difference.
"""

import numpy as np

from .model import LinearSubsystem, Topology
from .project import SCHEMA_VERSION, ProjectFile, RunDefaults
from .spsf import AbstractionCandidate, AbstractionCertificate, SpsfConstants, solve_structural

__all__ = [
    "N_SUBSYSTEMS",
    "STATE_DIM",
    "EXPECTED",
    "S_PUBLISHED_COEF",
    "S_RECOMPUTED_COEF",
    "S_NOTE",
    "published_constants",
    "reference_subsystems",
    "reference_topology",
    "reference_candidates",
    "reference_certificates",
    "reference_project",
]

N_SUBSYSTEMS = 4
STATE_DIM = 25

# ring wiring: source -> target (internal output of `source` feeds `target`)
_EDGE_PAIRS = ((2, 0), (3, 1), (1, 2), (0, 3))

S_PUBLISHED_COEF = -0.003
S_RECOMPUTED_COEF = -0.004
S_NOTE = (
    "S recomputed from the internal-input matching equality as -0.004*ones; "
    "the published value -0.003*ones leaves a residual of 0.001 per row."
)

# published values the pipeline must reproduce, with comparison tolerances
EXPECTED = {
    "rho_int_coef": (0.88, 5e-3),
    "rho_ext_coef": (0.0, 0.0),
    "psi": (0.0025, 1e-6),
    "spectral_radius": (0.898, 1e-3),
    "composed_kappa_hat": (0.1, 1e-9),
    "composed_psi": (0.01, 1e-9),
    "bound": (0.0956, 1e-4),
}


def published_constants() -> SpsfConstants:
    """Per-subsystem constants as published (internal gain rounded to 0.88).

    The toolkit computes ``rho_int_coef = 0.8788...``; the published tables
    round this up to 0.88, which remains a valid (slightly conservative)
    gain.  The composition stage of the regression uses these values so the
    composed constants land exactly on the published figures.
    """
    return SpsfConstants(kappa_hat=0.98, rho_int_coef=0.88, rho_ext_coef=0.0, psi=0.0025)


def reference_subsystems() -> tuple[LinearSubsystem, ...]:
    n = STATE_DIM
    ones_col = np.ones((n, 1))
    row = 0.1 * np.ones((1, n))
    outgoing = {src: tgt for src, tgt in _EDGE_PAIRS}
    subs = []
    for i in range(N_SUBSYSTEMS):
        subs.append(
            LinearSubsystem(
                id=i,
                A=np.eye(n),
                B=np.eye(n),
                D=0.1 * ones_col,
                F=0.01 * ones_col,
                C_ext=row,
                C_int={outgoing[i]: row},
            )
        )
    return tuple(subs)


def reference_topology() -> Topology:
    return Topology.from_pairs(reference_subsystems(), _EDGE_PAIRS)


def reference_candidates() -> dict[int, AbstractionCandidate]:
    P = np.ones((STATE_DIM, 1))
    return {
        i: AbstractionCandidate(
            P=P, Ahat=[[2.0]], Bhat=[[1.0]], Dhat=[[0.096]], Fhat=np.zeros((1, 0))
        )
        for i in range(N_SUBSYSTEMS)
    }


def reference_certificates() -> dict[int, AbstractionCertificate]:
    """Each subsystem's certificate, completed from ``M = I``, ``K = -0.95 I``,
    ``pi = 0.99`` and ``kappa_hat = 0.98``: ``Q = Rtilde = 1`` and ``S = -0.004``."""
    n = STATE_DIM
    cands = reference_candidates()
    return {
        s.id: solve_structural(s, cands[s.id], np.eye(n), -0.95 * np.eye(n), 0.99, 0.98)
        for s in reference_subsystems()
    }


def reference_project() -> ProjectFile:
    return ProjectFile(
        schema_version=SCHEMA_VERSION,
        subsystems=reference_subsystems(),
        topology=reference_topology(),
        candidates=reference_candidates(),
        certificates=reference_certificates(),
        notes={i: S_NOTE for i in range(N_SUBSYSTEMS)},
        run=RunDefaults(horizon=10, trials=10_000, seed=42, epsilon=1.0),
    )
