"""Coupled simulation of concrete/abstract interconnections and empirical checks.

Each trial runs the concrete network and its abstraction side by side: the
internal inputs are routed from the respective internal outputs, the abstract
external input comes from a user policy (zero by default), and the concrete
input is refined through the per-subsystem interface functions.  Per-trial
noise is drawn from counter-based substreams keyed by
``(seed, trial, subsystem id, concrete/abstract)``, so results are
reproducible and independent of how trials are scheduled.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import beta as _beta

from . import model
from .errors import DimensionMismatch, PolicyDimension
from .model import LinearSubsystem, Topology, _block_diag
from .spsf import (
    AbstractionCandidate,
    AbstractionCertificate,
    derive_constants,
    evaluate_V,
    expected_decrease_bound,
    expected_V_next,
    interface,
)

__all__ = [
    "RunConfig",
    "DeviationSample",
    "ViolationEstimate",
    "SupermartingaleCheck",
    "noise_stream",
    "step",
    "simulate_pair",
    "violation_probability",
    "empirical_supermartingale_check",
]

Policy = Callable[[int, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Trial count, horizon, seed and optional policy/initial states.

    ``abstract_policy`` maps ``(k, xhat)`` (stacked abstract state) to the
    stacked abstract external input; ``None`` means identically zero.
    Initial states default to zero vectors.
    """

    horizon: int
    trials: int
    seed: int
    abstract_policy: Policy | None = None
    initial_concrete: np.ndarray | None = None
    initial_abstract: np.ndarray | None = None
    record_trajectories: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1: {self.trials}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0: {self.horizon}")


@dataclass(frozen=True, eq=False)
class DeviationSample:
    """Supremum output deviation of one trial, optionally with trajectories."""

    trial: int
    sup_deviation: float
    outputs: np.ndarray | None = None
    abstract_outputs: np.ndarray | None = None


def noise_stream(seed: int, trial: int, subsystem_id: int, abstract: bool) -> np.random.Generator:
    """Deterministic substream for one (trial, subsystem, side) combination.

    Built on the counter-based Philox generator keyed through a seed sequence,
    so distinct keys give statistically independent, parallel-safe streams.
    """
    key = np.random.SeedSequence(seed, spawn_key=(trial, subsystem_id, int(abstract)))
    return np.random.Generator(np.random.Philox(key))


def step(s: LinearSubsystem, x, nu, omega, noise) -> np.ndarray:
    """One subsystem transition ``A x + B nu + D omega + F noise``."""
    return (
        s.A @ np.asarray(x, dtype=float)
        + s.B @ np.asarray(nu, dtype=float)
        + s.D @ np.asarray(omega, dtype=float)
        + s.F @ np.asarray(noise, dtype=float)
    )


class _PairSimulator:
    """Precomputed closed-loop matrices of the coupled concrete/abstract pair.

    Substituting the routed internal inputs and the interface function into
    the subsystem recursions leaves, per step,

        x+    = Mxx x + Mxh xhat + Mxv nuhat + Fc noise_c
        xhat+ = Mhh xhat + Mhv nuhat + Fa noise_a

    which is what the per-trial loop iterates.  Both networks are closed by
    :func:`model.assemble_interconnection`; the concrete input refined from
    the abstract internal inputs is routed through the abstract ``R_int``.
    """

    def __init__(self, subsystems, topo, abstract_subsystems, abstract_topo, certs):
        certs = tuple(certs)
        if not (len(subsystems) == len(abstract_subsystems) == len(certs)):
            raise DimensionMismatch("subsystem, abstraction and certificate counts differ")
        if {(e.source, e.target, e.start, e.stop) for e in topo.edges} != {
            (e.source, e.target, e.start, e.stop) for e in abstract_topo.edges
        }:
            raise DimensionMismatch("abstract topology must mirror the concrete one")
        net = model.assemble_interconnection(subsystems, topo)
        abs_net = model.assemble_interconnection(abstract_subsystems, abstract_topo)

        K = _block_diag([c.K for c in certs])
        P = _block_diag([c.P for c in certs])
        Q = _block_diag([c.Q for c in certs])
        S = _block_diag([c.S for c in certs])
        Rt = _block_diag([c.Rtilde for c in certs])
        B = net.B_cl

        self.Mxx = net.A_cl + B @ K
        self.Mxh = B @ (Q - K @ P) + B @ S @ abs_net.R_int
        self.Mxv = B @ Rt
        self.Fc = net.F_cl
        self.Mhh = abs_net.A_cl
        self.Mhv = abs_net.B_cl
        self.Fa = abs_net.F_cl
        self.Cy = net.C_cl
        self.Cyh = abs_net.C_cl
        self.n_tot = self.Mxx.shape[0]
        self.nhat_tot = self.Mhh.shape[0]
        self.mhat_tot = self.Mhv.shape[1]
        self.q_dims = [s.q for s in net.subsystems]
        self.qhat_dims = [a.q for a in abs_net.subsystems]
        self.ids = [s.id for s in net.subsystems]

    def run_trial(self, trial: int, cfg: RunConfig) -> DeviationSample:
        T = cfg.horizon
        x = (
            np.zeros(self.n_tot)
            if cfg.initial_concrete is None
            else np.array(cfg.initial_concrete, dtype=float)
        )
        xh = (
            np.zeros(self.nhat_tot)
            if cfg.initial_abstract is None
            else np.array(cfg.initial_abstract, dtype=float)
        )
        if x.shape != (self.n_tot,) or xh.shape != (self.nhat_tot,):
            raise DimensionMismatch("initial state dimensions do not match the network")
        noise_c = np.hstack(
            [
                noise_stream(cfg.seed, trial, sid, abstract=False).standard_normal((T, q))
                for sid, q in zip(self.ids, self.q_dims)
            ]
        ) if self.q_dims else np.zeros((T, 0))
        noise_a = np.hstack(
            [
                noise_stream(cfg.seed, trial, sid, abstract=True).standard_normal((T, q))
                for sid, q in zip(self.ids, self.qhat_dims)
            ]
        ) if self.qhat_dims else np.zeros((T, 0))

        zero_nuhat = np.zeros(self.mhat_tot)
        record = cfg.record_trajectories
        ys = np.empty((T + 1, self.Cy.shape[0])) if record else None
        yhs = np.empty((T + 1, self.Cyh.shape[0])) if record else None

        y = self.Cy @ x
        yh = self.Cyh @ xh
        if record:
            ys[0], yhs[0] = y, yh
        sup = float(np.linalg.norm(y - yh))
        for k in range(T):
            if cfg.abstract_policy is None:
                nuhat = zero_nuhat
            else:
                nuhat = np.asarray(cfg.abstract_policy(k, xh), dtype=float).reshape(-1)
                if nuhat.shape != (self.mhat_tot,):
                    raise PolicyDimension(
                        f"policy returned dim {nuhat.shape}, expected ({self.mhat_tot},)"
                    )
            x = self.Mxx @ x + self.Mxh @ xh + self.Mxv @ nuhat + self.Fc @ noise_c[k]
            xh = self.Mhh @ xh + self.Mhv @ nuhat + self.Fa @ noise_a[k]
            y = self.Cy @ x
            yh = self.Cyh @ xh
            if record:
                ys[k + 1], yhs[k + 1] = y, yh
            sup = max(sup, float(np.linalg.norm(y - yh)))
        return DeviationSample(trial=trial, sup_deviation=sup, outputs=ys, abstract_outputs=yhs)


def simulate_pair(
    subsystems: Sequence[LinearSubsystem],
    topo: Topology,
    abstract_subsystems: Sequence[LinearSubsystem],
    abstract_topo: Topology,
    certs: Sequence[AbstractionCertificate],
    cfg: RunConfig,
    *,
    workers: int = 1,
) -> list[DeviationSample]:
    """Run all trials of the coupled pair and collect deviation samples.

    Concrete and abstract noises are fully independent.  Results are
    bitwise-reproducible for a fixed config: every trial consumes only its
    own substreams, and ``workers`` (thread-based trial parallelism) does not
    affect values or ordering.
    """
    sim = _PairSimulator(subsystems, topo, abstract_subsystems, abstract_topo, certs)
    trials = range(cfg.trials)
    if workers <= 1:
        return [sim.run_trial(t, cfg) for t in trials]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: sim.run_trial(t, cfg), trials))


@dataclass(frozen=True)
class ViolationEstimate:
    """Empirical exceedance frequency with a one-sided 95% upper bound."""

    violations: int
    trials: int
    estimate: float
    upper95: float


def violation_probability(samples: Sequence[DeviationSample], epsilon: float) -> ViolationEstimate:
    """Fraction of trials with ``sup deviation >= epsilon`` plus its
    exact (Clopper-Pearson) one-sided 95% upper confidence bound."""
    if not samples:
        raise ValueError("samples must be nonempty")
    n = len(samples)
    x = sum(1 for s in samples if s.sup_deviation >= epsilon)
    upper = 1.0 if x == n else float(_beta.ppf(0.95, x + 1, n - x))
    return ViolationEstimate(violations=x, trials=n, estimate=x / n, upper95=upper)


@dataclass(frozen=True)
class SupermartingaleCheck:
    """Worst observed slack of the one-step decrease inequality.

    ``worst_slack`` is the largest ``E_mc[V+] - rhs`` over the sampled
    points (nonpositive up to noise when the certificate is valid);
    ``max_gap_se`` is the largest ``|E_mc[V+] - E_exact[V+]|`` in units of
    the Monte Carlo standard error.
    """

    worst_slack: float
    worst_slack_stderr: float
    max_gap_se: float
    points: int
    draws: int


def empirical_supermartingale_check(
    s: LinearSubsystem,
    cand: AbstractionCandidate,
    cert: AbstractionCertificate,
    points: int = 100,
    draws_per_point: int = 1000,
    seed: int = 0,
) -> SupermartingaleCheck:
    """Estimate ``E[V+]`` by simulation at random points and compare against
    the closed-form decrease bound and the exact expectation.

    At each sampled ``(x, xhat, nuhat, omega, omegahat)`` the concrete input
    is refined through the interface, ``draws_per_point`` noise pairs are
    drawn, and the sampled mean of ``V+`` is checked against both the exact
    one-step expectation and the right-hand side of the decrease inequality.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    constants = derive_constants(s, cand, cert)
    M, P = cert.M, cert.P
    PF = P @ cand.Fhat
    worst = -np.inf
    worst_se = 0.0
    max_gap_se = 0.0
    for _ in range(points):
        x = rng.standard_normal(s.n)
        xh = rng.standard_normal(cand.nhat)
        nuhat = rng.standard_normal(cand.mhat)
        omega = rng.standard_normal(s.p)
        omegahat = rng.standard_normal(s.p)
        nu = interface(x, xh, nuhat, omegahat, cert)
        mean_c = s.A @ x + s.B @ nu + s.D @ omega
        mean_a = cand.Ahat @ xh + cand.Bhat @ nuhat + cand.Dhat @ omegahat
        e_mean = mean_c - P @ mean_a
        zc = rng.standard_normal((draws_per_point, s.q))
        za = rng.standard_normal((draws_per_point, cand.Fhat.shape[1]))
        e_plus = e_mean + zc @ s.F.T - za @ PF.T
        v_plus = np.einsum("ij,jk,ik->i", e_plus, M, e_plus)
        est = float(v_plus.mean())
        se = float(v_plus.std(ddof=1) / np.sqrt(draws_per_point)) if draws_per_point > 1 else 0.0
        v = evaluate_V(x, xh, M, P)
        rhs = expected_decrease_bound(v, constants, omega, omegahat, nuhat)
        slack = est - rhs
        if slack > worst:
            worst, worst_se = slack, se
        exact = expected_V_next(x, xh, nu, nuhat, omega, omegahat, s, cand, cert)
        if se > 1e-12 * max(1.0, abs(est)):
            gap = abs(est - exact) / se
        else:
            # degenerate (noiseless) distribution: require agreement to round-off
            gap = 0.0 if abs(est - exact) <= 1e-9 * max(1.0, abs(exact)) else np.inf
        max_gap_se = max(max_gap_se, gap)
    return SupermartingaleCheck(
        worst_slack=worst,
        worst_slack_stderr=worst_se,
        max_gap_se=max_gap_se,
        points=points,
        draws=draws_per_point,
    )
