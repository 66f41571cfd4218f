"""Certified low-dimensional abstractions of interconnected linear stochastic systems.

The toolkit constructs quadratic closeness certificates between discrete-time
linear stochastic subsystems and reduced-order candidates, composes them over
a network through a small-gain test, evaluates closed-form probabilistic
deviation bounds, and validates everything by seeded Monte Carlo simulation.
"""

from .bounds import (
    BoundQuery,
    BoundResult,
    finite_horizon_bound,
    psi_hat,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    Infeasible,
    PreconditionViolated,
    RankDeficientWarning,
    SchemaError,
    SimcertError,
    SingularGramWarning,
)
from .model import (
    Edge,
    InterconnectedSystem,
    LinearSubsystem,
    Topology,
    assemble_interconnection,
    validate_subsystem,
)
from .montecarlo import (
    RunConfig,
    ViolationEstimate,
    noise_stream,
    simulate_pair,
    violation_probability,
)
from .project import ProjectFile, RunDefaults, load_project, save_project
from .smallgain import (
    CompositionCertificate,
    GainDecomposition,
    build_gains,
    compose,
    find_mu,
)
from .spsf import (
    AbstractionCandidate,
    AbstractionCertificate,
    ConditionReport,
    SpsfConstants,
    check_conditions,
    compute_Rtilde,
    derive_constants,
    solve_structural,
    synthesize_MK,
)

__version__ = "0.1.0"
