"""Shared construction helpers for randomized test instances, dense oracles,
the closeness function, the interface function and the one-step expectation
oracles with their Monte Carlo check, the inline form of a project document, a
run's recorded outputs, the row-by-row trajectory CSV writer, a ring of
reference copies, and a fresh interpreter for import checks."""

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import block_diag

import simcert
from simcert.model import InterconnectedSystem, LinearSubsystem, Topology
from simcert.montecarlo import simulate_pair
from simcert.project import ProjectFile, open_output, project_to_dict
from simcert.reference import reference_project
from simcert.smallgain import build_gains, compose, find_mu
from simcert.spsf import (
    AbstractionCandidate,
    AbstractionCertificate,
    ConditionReport,
    SpsfConstants,
    derive_constants,
    solve_structural,
    synthesize_MK,
)


def step(s: LinearSubsystem, x, nu, omega, noise) -> np.ndarray:
    """One subsystem transition ``A x + B nu + D omega + F noise``."""
    return (
        s.A @ np.asarray(x, dtype=float)
        + s.B @ np.asarray(nu, dtype=float)
        + s.D @ np.asarray(omega, dtype=float)
        + s.F @ np.asarray(noise, dtype=float)
    )


def evaluate_V(x, xhat, M, P) -> float:
    """Quadratic closeness function ``(x - P xhat)' M (x - P xhat)``."""
    e = np.asarray(x, dtype=float) - np.asarray(P, dtype=float) @ np.asarray(xhat, dtype=float)
    return float(e @ np.asarray(M, dtype=float) @ e)


def interface(x, xhat, nuhat, omegahat, cert: AbstractionCertificate) -> np.ndarray:
    """Refine an abstract input into the concrete one:

    ``nu = K (x - P xhat) + Q xhat + Rtilde nuhat + S omegahat``.
    """
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    nuhat = np.asarray(nuhat, dtype=float)
    omegahat = np.asarray(omegahat, dtype=float)
    return (
        cert.K @ (x - cert.P @ xhat)
        + cert.Q @ xhat
        + cert.Rtilde @ nuhat
        + cert.S @ omegahat
    )


def condition_values(report: ConditionReport) -> dict[str, float]:
    """Each condition's residual, by condition name."""
    return {c.name: c.value for c in report.checks}


class DenseMonolith:
    """Closed monolithic system over the stacked state, as dense matrices.

    Built edge by edge from the per-edge routing of ``net``: ``R_int`` maps
    the stacked state to the stacked internal inputs, and ``A_cl`` adds
    ``D_i[:, e.start:e.stop] @ block`` per in-edge to ``blockdiag(A)``, so
    ``A_cl = blockdiag(A) + blockdiag(D) @ R_int``.  Its size is quadratic in
    the stacked state, so it serves as an oracle for small networks only.
    """

    def __init__(self, net: InterconnectedSystem):
        subs = net.subsystems
        self.n, self.state_offsets = net.n, net.state_offsets
        p_off = np.cumsum([0] + [s.p for s in subs])
        self.A_cl = block_diag(*(s.A for s in subs))
        self.R_int = np.zeros((p_off[-1], self.n))
        for i, s in enumerate(subs):
            ri = self.state_offsets[i]
            for e, block in net.in_edges[i]:
                rj = self.state_offsets[e.source]
                cols = slice(rj, rj + block.shape[1])
                self.A_cl[ri : ri + s.n, cols] += s.D[:, e.start : e.stop] @ block
                self.R_int[p_off[i] + e.start : p_off[i] + e.stop, cols] = block
        self.B_cl = block_diag(*(s.B for s in subs))
        self.F_cl = block_diag(*(s.F for s in subs))
        self.C_cl = block_diag(*(s.C_ext for s in subs))

    def step(self, x: np.ndarray, nu: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return self.A_cl @ x + self.B_cl @ nu + self.F_cl @ noise


def shrinkage_sweep_gain(A, B, pi, kappa_hat):
    """Shrinkage gain by the numeric sweep ``synthesize_MK`` once ran.

    The first ``K = -eta B^-1 A`` over ``eta = 0, 0.05, ..., 1`` whose scaled
    closed loop ``gamma (A + B K)`` has spectral radius ``<= 0.9``, each
    radius from its own eigendecomposition; None when no grid point does.
    """
    gamma = np.sqrt((1.0 + pi) / (1.0 - kappa_hat))
    Binv_A = np.linalg.solve(B, A)
    for eta in np.linspace(0.0, 1.0, 21):
        K = -eta * Binv_A
        if gamma * float(np.max(np.abs(np.linalg.eigvals(A + B @ K)))) <= 0.9:
            return K
    return None


def invertible(rng, n, cond_cap=1e6):
    while True:
        b = rng.standard_normal((n, n))
        if np.linalg.cond(b) < cond_cap:
            return b


def random_certified_instance(rng, n_max=10, nhat_max=3, with_abstract_noise=False):
    """Random subsystem + candidate + valid certificate.

    ``B`` is kept square and invertible so the structural equalities are
    exactly solvable; ``M``/``K`` come from the synthesizer, so the returned
    certificate passes every condition by construction.
    """
    n = int(rng.integers(2, n_max + 1))
    nhat = int(rng.integers(1, min(nhat_max, n) + 1))
    p = int(rng.integers(1, 3))
    q = int(rng.integers(1, 3))
    r = int(rng.integers(1, 3))
    mhat = int(rng.integers(1, 3))

    A = 0.8 * rng.standard_normal((n, n))
    B = invertible(rng, n)
    D = rng.standard_normal((n, p))
    F = 0.3 * rng.standard_normal((n, q))
    C = 0.5 * rng.standard_normal((r, n))
    s = LinearSubsystem(id=0, A=A, B=B, D=D, F=F, C_ext=C)

    P = rng.standard_normal((n, nhat))
    Ahat = 0.5 * rng.standard_normal((nhat, nhat))
    Bhat = rng.standard_normal((nhat, mhat))
    Dhat = rng.standard_normal((nhat, p))
    Fhat = 0.3 * rng.standard_normal((nhat, q)) if with_abstract_noise else None
    cand = AbstractionCandidate.induced(s, P=P, Ahat=Ahat, Bhat=Bhat, Dhat=Dhat, Fhat=Fhat)

    pi = float(rng.uniform(0.3, 1.5))
    kappa_hat = float(rng.uniform(0.2, 0.9))
    M, K = synthesize_MK(s.A, s.B, s.output_matrix(), pi, kappa_hat)
    return s, cand, solve_structural(s, cand, M, K, pi, kappa_hat)


def identity_candidate(s: LinearSubsystem) -> AbstractionCandidate:
    """Self-abstraction: P = I and all abstract matrices equal the concrete ones."""
    return AbstractionCandidate.induced(
        s, P=np.eye(s.n), Ahat=s.A, Bhat=s.B, Dhat=s.D, Fhat=s.F
    )


def diverging_project() -> ProjectFile:
    """The reference project with unstable, noisy abstractions ``Ahat = 3``, ``Fhat = 1``.

    Each certificate is completed again from its ``M``, ``K``, ``pi`` and
    ``kappa_hat``, so it still passes its check, but the abstract states grow
    like ``3**k``: past a few hundred steps the deviations overflow to ``inf``
    and then ``nan``.
    """
    project = reference_project()
    cands, certs = {}, {}
    for s in project.subsystems:
        cands[s.id] = dataclasses.replace(project.candidates[s.id], Ahat=[[3.0]], Fhat=[[1.0]])
        c = project.certificates[s.id]
        certs[s.id] = solve_structural(s, cands[s.id], c.M, c.K, c.pi, c.kappa_hat)
    return dataclasses.replace(project, candidates=cands, certificates=certs)


def inline(doc: dict) -> dict:
    """``doc`` in its index-free form, a version 2 document: each matrix field that
    holds an index into ``arrays`` holds its own copy of that entry, and ``arrays``
    goes, so a fixture can edit one field's matrix in place."""
    out = json.loads(json.dumps(doc))  # a copy to edit
    arrays = out.pop("arrays", [])
    out["schema_version"] = 2

    def fill(entry: dict, names) -> None:
        entry.update((n, arrays[entry[n]]) for n in names if type(entry.get(n)) is int)

    for sub in out["subsystems"]:
        fill(sub, ("A", "B", "D", "F", "C_ext"))
        fill(sub.get("C_int", {}), list(sub.get("C_int", {})))
    for entry in out.get("candidates", []):
        fill(entry, ("P", "Ahat", "Bhat", "Dhat", "Fhat"))
    for entry in out.get("certificates", []):
        fill(entry, ("M", "K"))
    return json.loads(json.dumps(out))  # every field its own lists


def recorded_run(subs, topo, cands, certs, cfg):
    """``(sup, y, yhat)`` of a run: :func:`simulate_pair`'s result, and every block's
    concrete and abstract outputs copied as it is handed out and joined, each
    shaped ``(trials, T+1, r)``."""
    blocks = []

    def keep(trials, y, yh):
        assert trials.start == sum(len(b[0]) for b in blocks)  # blocks come in order
        blocks.append((y.copy(), yh.copy()))

    sup = simulate_pair(subs, topo, cands, certs, cfg, each_block=keep)
    return sup, *(np.concatenate(side) for side in zip(*blocks))


def row_by_row_csv(path, outputs, abstract_outputs) -> None:
    """:func:`simcert.cli._write_block` over a whole run as an oracle: each row is
    formatted on its own, ``repr`` of each cell joined by commas.

    ``outputs`` and ``abstract_outputs`` are a run's concrete and abstract
    outputs, shaped ``(trials, T+1, r)``.  One row per trial and step; the
    deviation is computed as the run's supremum is.
    """
    header = (
        ["trial", "k"]
        + [f"y{i}" for i in range(outputs.shape[2])]
        + [f"yhat{i}" for i in range(abstract_outputs.shape[2])]
        + ["deviation"]
    )
    with open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        for at in range(0, len(outputs), 16):
            y, yh = outputs[at : at + 16], abstract_outputs[at : at + 16]
            deviation = np.linalg.norm(y - yh, axis=2)
            rows = np.concatenate([y, yh, deviation[:, :, None]], axis=2).tolist()
            fh.writelines(
                f"{trial},{k},{','.join(map(repr, row))}\n"
                for trial, trial_rows in enumerate(rows, at)
                for k, row in enumerate(trial_rows)
            )


def ring_document(n: int) -> dict:
    """A ring ``i -> i+1 mod n`` of copies of reference subsystem 0, each with the
    reference candidate (given ``Fhat = 0.01``) and certificate, as an inline
    project document whose copies share no list."""
    ref = inline(project_to_dict(reference_project()))
    sub, cand, cert = (ref[key][0] for key in ("subsystems", "candidates", "certificates"))
    (row,) = sub["C_int"].values()
    return json.loads(json.dumps({
        "schema_version": ref["schema_version"],
        "subsystems": [{**sub, "id": i, "C_int": {str((i + 1) % n): row}} for i in range(n)],
        "topology": {"edges": [[i, (i + 1) % n] for i in range(n)]},
        "candidates": [{**cand, "subsystem": i, "Fhat": [[0.01]]} for i in range(n)],
        "certificates": [{**cert, "subsystem": i} for i in range(n)],
    }))


def certified_network(seed, abstract_noise=False, fan_in=1):
    """Random 2-4 subsystem interconnection with valid certificates and a
    feasible gain composition.

    Subsystem ``i`` feeds ``i + 1, ..., i + fan_in`` (mod N), one row to each,
    so every fan-in is ``fan_in``; N is raised to ``fan_in + 1`` where it is
    drawn smaller.  Couplings are rescaled (halved) until the spectral-radius
    test passes, so every returned instance admits a composed certificate.
    With ``abstract_noise`` every candidate gets a one-column ``Fhat``, which
    no equality constrains; the other matrices are the same for either value.
    """
    rng = np.random.default_rng(seed)
    N = max(int(rng.integers(2, 5)), fan_in + 1)
    dims = [int(rng.integers(2, 5)) for _ in range(N)]
    pairs = [(i, (i + k) % N) for i in range(N) for k in range(1, fan_in + 1)]
    raw = {
        i: dict(
            A=0.5 * rng.standard_normal((dims[i], dims[i])),
            B=invertible(rng, dims[i]),
            D=rng.standard_normal((dims[i], fan_in)),
            F=0.05 * rng.standard_normal((dims[i], 1)),
            C_ext=0.3 * rng.standard_normal((1, dims[i])),
            C_int=0.3 * rng.standard_normal((fan_in, dims[i])),
            nhat=int(rng.integers(1, min(3, dims[i]) + 1)),
        )
        for i in range(N)
    }
    kappa = float(rng.uniform(0.6, 0.9))
    pi = float(rng.uniform(0.5, 1.5))
    Fhat = [0.05 * rng.standard_normal((raw[i]["nhat"], 1)) if abstract_noise else None
            for i in range(N)]

    scale = 1.0
    for _ in range(12):
        subs, cands, certs = [], [], []
        for i in range(N):
            r = raw[i]
            n, nhat = dims[i], r["nhat"]
            s = LinearSubsystem(
                id=i, A=r["A"], B=r["B"], D=scale * r["D"], F=r["F"],
                C_ext=r["C_ext"],
                C_int={(i + k) % N: scale * r["C_int"][k - 1 : k] for k in range(1, fan_in + 1)},
            )
            P = np.ones((n, nhat)) + 0.1 * np.arange(n * nhat).reshape(n, nhat)
            Ahat = 0.3 * np.eye(nhat)
            Bhat = np.eye(nhat)
            Dhat = np.zeros((nhat, fan_in))
            cand = AbstractionCandidate.induced(
                s, P=P, Ahat=Ahat, Bhat=Bhat, Dhat=Dhat, Fhat=Fhat[i]
            )
            M, K = synthesize_MK(s.A, s.B, s.output_matrix(), pi, kappa)
            certs.append(solve_structural(s, cand, M, K, pi, kappa))
            subs.append(s)
            cands.append(cand)
        topo = Topology.from_pairs(subs, pairs)
        constants = [derive_constants(subs[i], cands[i], certs[i]) for i in range(N)]
        gains = build_gains(constants, topo)
        if gains.radius < 0.9:
            mu = find_mu(gains)
            composed = compose(constants, gains, mu)
            return subs, topo, cands, certs, composed
        scale *= 0.5
    raise AssertionError("could not scale couplings into the feasible region")


def omega_slices(subs, topo) -> dict[tuple[int, int], slice]:
    """The omega rows of each ``(source, target)`` pair by the documented rule.

    Written apart from ``simcert.model``: a target's rows go to its sources
    from row 0 in ascending source order, each taking the row count of the
    source's ``C_int[target]`` block.
    """
    slices = {}
    for tgt in range(len(subs)):
        row = 0
        for src in sorted(src for src, t in topo.pairs if t == tgt):
            rows = subs[src].C_int[tgt].shape[0]
            slices[src, tgt] = slice(row, row + rows)
            row += rows
    return slices


def deviation_covariance(subs, topo, cands, certs, T) -> np.ndarray:
    """Exact ``Cov(y_k - yhat_k)`` for ``k = 0 .. T``, shaped ``(T+1, r, r)``, of a
    run from zero states with a zero abstract input.

    Built in the error coordinates ``e_i = x_i - P_i xhat_i``: when the drift
    and internal-input equalities hold, ``e_i+ = (A_i + B_i K_i) e_i + D_i
    (omega_i - omegahat_i) + F_i w_i - P_i Fhat_i what_i`` with ``omega_i -
    omegahat_i`` routed from ``C_int e`` of its sources and ``y - yhat = C_ext e``,
    since the abstract output map is ``C P``.
    So ``Sigma_k+1 = Acl Sigma_k Acl' + W`` from ``Sigma_0 = 0``.  The noise
    never enters: this is a reference for the simulator's draws.  Raises
    ``AssertionError`` unless every equality holds to 1e-12.
    """
    residuals = []
    for s, cand, cert in zip(subs, cands, certs):
        P = cert.P
        residuals += [s.A @ P - P @ cand.Ahat + s.B @ cert.Q, s.D - P @ cand.Dhat + s.B @ cert.S]
    assert max(float(np.abs(r).max(initial=0.0)) for r in residuals) <= 1e-12
    at = np.cumsum([0] + [s.n for s in subs])
    Acl = block_diag(*(s.A + s.B @ cert.K for s, cert in zip(subs, certs)))
    for (src, tgt), rows in omega_slices(subs, topo).items():
        coupling = subs[tgt].D[:, rows] @ subs[src].C_int[tgt]
        Acl[at[tgt] : at[tgt + 1], at[src] : at[src + 1]] += coupling
    # the two noises are independent: F F' + (P Fhat)(P Fhat)' per subsystem
    noise = [np.hstack([s.F, cert.P @ cand.Fhat]) for s, cand, cert in zip(subs, cands, certs)]
    W = block_diag(*(G @ G.T for G in noise))
    C = block_diag(*(s.C_ext for s in subs))
    sigma, cov = np.zeros_like(Acl), []
    for _ in range(T + 1):
        cov.append(C @ sigma @ C.T)
        sigma = Acl @ sigma @ Acl.T + W
    return np.array(cov)


def random_network(rng, n_subs=None):
    """Random interconnection with consistent internal wiring.

    Every ordered pair becomes an edge with probability 1/2; connecting
    output blocks get 1 or 2 rows.  Returns (subsystems, pairs).
    """
    N = n_subs if n_subs is not None else int(rng.integers(2, 5))
    dims = [int(rng.integers(1, 5)) for _ in range(N)]
    pairs = []
    block_rows = {}
    for src in range(N):
        for tgt in range(N):
            if src != tgt and rng.random() < 0.5:
                pairs.append((src, tgt))
                block_rows[(src, tgt)] = int(rng.integers(1, 3))
    subs = []
    for i in range(N):
        n = dims[i]
        p = sum(block_rows[(src, i)] for src, tgt in pairs if tgt == i)
        c_int = {
            tgt: rng.standard_normal((block_rows[(i, tgt)], n))
            for src, tgt in pairs
            if src == i
        }
        subs.append(
            LinearSubsystem(
                id=i,
                A=0.5 * rng.standard_normal((n, n)),
                B=rng.standard_normal((n, int(rng.integers(1, 3)))),
                D=rng.standard_normal((n, p)),
                F=rng.standard_normal((n, int(rng.integers(1, 3)))),
                C_ext=rng.standard_normal((int(rng.integers(1, 3)), n)),
                C_int=c_int,
            )
        )
    return subs, pairs


def python_env(**extra: str) -> dict:
    """The environment of a new interpreter that imports this simcert, with ``extra`` set."""
    src = str(Path(simcert.__file__).parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def python_run(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """``python *argv`` run in a new interpreter that imports this simcert, with ``env`` set."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=python_env(**env), timeout=120)


def fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this simcert."""
    done = python_run("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def expected_V_next(
    x,
    xhat,
    nu,
    nuhat,
    omega,
    omegahat,
    s: LinearSubsystem,
    cand: AbstractionCandidate,
    cert: AbstractionCertificate,
) -> float:
    """Exact one-step conditional expectation of the closeness function.

    Both noises are zero mean and mutually independent, so the expectation
    splits into the deterministic mean drift plus the trace offset:

        E[V+] = || sqrt(M) (mean_x - P mean_xhat) ||^2
                + Tr(F'MF + Fhat'P'MP Fhat).

    When the structural equalities hold and ``nu`` comes from
    :func:`interface`, the mean term equals
    ``(A+BK)(x - P xhat) + D (omega - omegahat) + (B Rtilde - P Bhat) nuhat``.
    """
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    mean_c = s.A @ x + s.B @ np.asarray(nu, dtype=float) + s.D @ np.asarray(omega, dtype=float)
    mean_a = (
        cand.Ahat @ xhat
        + cand.Bhat @ np.asarray(nuhat, dtype=float)
        + cand.Dhat @ np.asarray(omegahat, dtype=float)
    )
    d = mean_c - cert.P @ mean_a
    PF = cert.P @ cand.Fhat
    trace_term = float(np.trace(s.F.T @ cert.M @ s.F) + np.trace(PF.T @ cert.M @ PF))
    return float(d @ cert.M @ d) + trace_term


def expected_decrease_bound(
    v: float, constants: SpsfConstants, omega, omegahat, nuhat
) -> float:
    """Right-hand side of the one-step inequality on ``E[V+]``:

    ``V - kappa_hat V + rho_int ||omega - omegahat||^2
    + rho_ext ||nuhat||^2 + psi``.
    """
    d_omega = np.asarray(omega, dtype=float) - np.asarray(omegahat, dtype=float)
    nuhat = np.asarray(nuhat, dtype=float)
    return (
        (1.0 - constants.kappa_hat) * v
        + constants.rho_int_coef * float(d_omega @ d_omega)
        + constants.rho_ext_coef * float(nuhat @ nuhat)
        + constants.psi
    )


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
        v_plus = ((e_plus @ M) * e_plus).sum(axis=1)
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
