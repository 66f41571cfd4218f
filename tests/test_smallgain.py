import numpy as np
import pytest
from helpers import certified_network, evaluate_V, expected_V_next, interface, omega_slices

from simcert.bounds import BoundQuery, finite_horizon_bound
from simcert.errors import Infeasible
from simcert.model import Topology
from simcert.reference import published_constants
from simcert.smallgain import (
    CompositionCertificate,
    GainDecomposition,
    build_gains,
    compose,
    find_mu,
)
from simcert.spsf import SpsfConstants, derive_constants

RING = [(2, 0), (3, 1), (1, 2), (0, 3)]


def _ring_topology(ref_parts):
    return ref_parts[1]


def test_build_gains_reference_in_degree(ref_parts):
    topo = _ring_topology(ref_parts)
    constants = [published_constants()] * 4
    g = build_gains(constants, topo)
    assert np.allclose(np.diag(g.Lambda), 0.98)
    expected = np.zeros((4, 4))
    for tgt, src in [(0, 2), (1, 3), (2, 1), (3, 0)]:
        expected[tgt, src] = 0.88
    assert np.array_equal(g.Delta, expected)


def test_build_gains_empty_topology():
    constants = [published_constants()] * 3
    g = build_gains(constants, Topology(3))
    assert np.all(g.Delta == 0)


def test_build_gains_one_gain_per_edge():
    # subsystem 0 is fed by 1, 2 and 3: each edge carries rho_int of 0, not 3**2 times it
    subs, topo, cands, certs, _ = certified_network(5, fan_in=3)
    constants = [derive_constants(s, c, k) for s, c, k in zip(subs, cands, certs)]
    g = build_gains(constants, topo)
    for src, tgt in topo.pairs:
        assert g.Delta[tgt, src] == constants[tgt].rho_int_coef
    assert np.count_nonzero(g.Delta) == len(topo.pairs) == 12
    # the fan-in rule rho_int * d**2 gave a radius 9 times as large
    assert GainDecomposition(g.Lambda, 9 * g.Delta).radius == pytest.approx(9 * g.radius)


def test_spectral_radius_reference(ref_parts):
    g = build_gains([published_constants()] * 4, _ring_topology(ref_parts))
    assert g.radius == pytest.approx(0.88 / 0.98, abs=1e-12)


def test_spectral_radius_zero_delta():
    g = GainDecomposition(np.eye(2), np.zeros((2, 2)))
    assert g.radius == 0.0


def test_spectral_radius_boundary():
    g = GainDecomposition(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert g.radius == pytest.approx(1.0, abs=1e-12)


def test_find_mu_reference(ref_parts):
    g = build_gains([published_constants()] * 4, _ring_topology(ref_parts))
    mu = find_mu(g)
    assert np.allclose(mu, 1.0, atol=1e-9)
    slack = mu @ (-g.Lambda + g.Delta)
    assert np.allclose(slack, -0.1, atol=1e-9)


def test_find_mu_zero_delta():
    g = GainDecomposition(np.diag([0.3, 0.7]), np.zeros((2, 2)))
    assert np.array_equal(find_mu(g), np.ones(2))


def test_find_mu_symmetric_pair():
    g = GainDecomposition(np.eye(2), np.array([[0.0, 0.5], [0.5, 0.0]]))
    mu = find_mu(g)
    assert np.allclose(mu, [1.0, 1.0], atol=1e-12)
    assert np.allclose(mu @ (-g.Lambda + g.Delta), -0.5, atol=1e-12)


def test_find_mu_infeasible():
    g = GainDecomposition(np.eye(2), np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(Infeasible):
        find_mu(g)


def test_find_mu_reducible_chain():
    # 0 -> 1 -> 2 chain: strictly triangular Delta is reducible
    lam = np.diag([0.5, 0.5, 0.5])
    delta = np.zeros((3, 3))
    delta[1, 0] = 0.3
    delta[2, 1] = 0.3
    g = GainDecomposition(lam, delta)
    mu = find_mu(g)
    slack = mu @ (-g.Lambda + g.Delta)
    assert np.all(mu > 0) and np.all(slack < 0)


@pytest.mark.parametrize("n", [4, 64, 128])
def test_find_mu_on_homogeneous_rings_needs_no_perturbation(n, monkeypatch):
    # every eigenvalue of a ring's Lambda^-1 Delta has the Perron root's modulus;
    # the largest modulus picked a non-real one, and only the perturbation gave mu > 0
    eig, calls = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m) or eig(m))
    delta = np.zeros((n, n))
    delta[(np.arange(n) + 1) % n, np.arange(n)] = 0.88
    mu = find_mu(GainDecomposition(0.98 * np.eye(n), delta))
    assert len(calls) == 1
    assert np.max(np.abs(mu - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [5, 64, 100, 128])
def test_find_mu_on_disjoint_cycles_and_chains(n):
    # reducible networks: the unperturbed Perron vector has zero entries, and the
    # fallback perturbation must still give a positive mu with negative slack
    def ring(nodes):
        G = np.zeros((n, n))
        G[np.roll(nodes, -1), nodes] = 0.3
        return G

    chain = ring(np.arange(n))
    chain[0, n - 1] = 0.0
    half = n // 2
    for delta in (ring(np.arange(half)) + ring(np.arange(half, n)), chain):
        g = GainDecomposition(0.5 * np.eye(n), delta)
        mu = find_mu(g)
        assert np.all(mu > 0) and np.all(mu @ (-g.Lambda + g.Delta) < 0)


def test_find_mu_near_boundary():
    # radius 0.999: the slack is tiny but must stay strictly negative
    g = GainDecomposition(np.eye(2), 0.999 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert g.radius == pytest.approx(0.999, abs=1e-12)
    mu = find_mu(g)
    slack = mu @ (-g.Lambda + g.Delta)
    assert np.all(slack < 0)
    assert np.max(slack) == pytest.approx(-0.001, abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_find_mu_random_feasible(seed):
    rng = np.random.default_rng(300 + seed)
    N = int(rng.integers(1, 9))
    lam = rng.uniform(0.05, 0.99, N)
    delta = rng.uniform(0, 1, (N, N)) * (rng.random((N, N)) < 0.6)
    np.fill_diagonal(delta, 0.0)
    rho = np.max(np.abs(np.linalg.eigvals(delta / lam[:, None])))
    if rho > 0:
        delta *= rng.uniform(0.05, 0.98) / rho
    g = GainDecomposition(np.diag(lam), delta)
    mu = find_mu(g)
    assert np.all(mu > 0)
    assert np.all(mu @ (-g.Lambda + g.Delta) < 0)


def test_compose_reference(ref_parts):
    subs, topo, cands, certs = ref_parts
    derived = [derive_constants(subs[i], cands[i], certs[i]) for i in range(4)]
    published = [
        SpsfConstants(p.kappa_hat, p.rho_int_coef, d.rho_ext_coef, d.psi)
        for p, d in zip([published_constants()] * 4, derived)
    ]
    g = build_gains(published, topo)
    mu = find_mu(g)
    comp = compose(published, g, mu)
    assert comp.kappa_hat == pytest.approx(0.1, abs=1e-9)
    assert comp.psi == pytest.approx(0.01, abs=1e-9)
    assert comp.rho_ext_coef == 0.0
    assert comp.alpha_coef == pytest.approx(1.0, abs=1e-12)


def test_compose_single_subsystem_passthrough():
    c = SpsfConstants(0.4, 0.7, 0.2, 0.003)
    g = GainDecomposition(np.diag([0.4]), np.zeros((1, 1)))
    mu = find_mu(g)
    comp = compose([c], g, mu)
    assert comp.kappa_hat == pytest.approx(0.4)
    assert comp.psi == pytest.approx(0.003)
    assert comp.rho_ext_coef == pytest.approx(0.2)
    assert comp.alpha_coef == pytest.approx(1.0)


def test_compose_two_subsystems_derived():
    c = SpsfConstants(0.5, 0.2, 0.0, 0.003)
    g = GainDecomposition(np.diag([0.5, 0.5]), np.array([[0.0, 0.2], [0.2, 0.0]]))
    mu = np.array([1.0, 1.0])
    comp = compose([c, c], g, mu)
    assert comp.kappa_hat == pytest.approx(0.3, abs=1e-12)
    assert comp.psi == pytest.approx(0.006, abs=1e-15)


def test_compose_rejects_bad_mu():
    c = SpsfConstants(0.5, 0.2, 0.0, 0.0)
    g = GainDecomposition(np.diag([0.5, 0.5]), np.array([[0.0, 0.6], [0.6, 0.0]]))
    with pytest.raises(Infeasible):
        compose([c, c], g, np.array([1.0, 1.0]))


def _route_internal(subs, topo, states):
    omegas = [np.zeros(s.p) for s in subs]
    for (src, tgt), rows in omega_slices(subs, topo).items():
        omegas[tgt][rows] = subs[src].C_int[tgt] @ states[src]
    return omegas


def _reference_composition(subs, topo, cands, certs):
    derived = [derive_constants(subs[i], cands[i], certs[i]) for i in range(4)]
    g = build_gains(derived, topo)
    mu = find_mu(g)
    return derived, compose(derived, g, mu)


def test_composed_lower_bound(ref_parts):
    subs, topo, cands, certs = ref_parts
    _, comp = _reference_composition(subs, topo, cands, certs)
    rng = np.random.default_rng(21)
    for _ in range(1000):
        xs = [rng.standard_normal(25) for _ in range(4)]
        xhs = [rng.standard_normal(1) for _ in range(4)]
        y = np.concatenate([subs[i].C_ext @ xs[i] for i in range(4)])
        yh = np.concatenate([cands[i].as_subsystem(subs[i]).C_ext @ xhs[i] for i in range(4)])
        v = sum(comp.mu[i] * evaluate_V(xs[i], xhs[i], certs[i].M, certs[i].P) for i in range(4))
        assert comp.alpha_coef * float((y - yh) @ (y - yh)) <= v + 1e-9


def test_composed_supermartingale_one_step(ref_parts):
    subs, topo, cands, certs = ref_parts
    derived, comp = _reference_composition(subs, topo, cands, certs)
    rng = np.random.default_rng(22)
    abs_subs = [cands[i].as_subsystem(subs[i]) for i in range(4)]
    for _ in range(1000):
        xs = [rng.standard_normal(25) for _ in range(4)]
        xhs = [rng.standard_normal(1) for _ in range(4)]
        omegas = _route_internal(subs, topo, xs)
        omegahats = _route_internal(abs_subs, topo, xhs)
        lhs = 0.0
        v = 0.0
        for i in range(4):
            nu = interface(xs[i], xhs[i], [0.0], omegahats[i], certs[i])
            lhs += comp.mu[i] * (
                expected_V_next(
                    xs[i], xhs[i], nu, [0.0], omegas[i], omegahats[i],
                    subs[i], cands[i], certs[i],
                )
                - evaluate_V(xs[i], xhs[i], certs[i].M, certs[i].P)
            )
            v += comp.mu[i] * evaluate_V(xs[i], xhs[i], certs[i].M, certs[i].P)
        assert lhs <= -comp.kappa_hat * v + comp.psi + 1e-9


def test_mu_scaling_invariance(ref_parts):
    subs, topo, cands, certs = ref_parts
    derived = [derive_constants(subs[i], cands[i], certs[i]) for i in range(4)]
    g = build_gains(derived, topo)
    mu = find_mu(g)
    scale = 7.3
    comp1 = compose(derived, g, mu)
    comp2 = compose(derived, g, scale * mu)
    assert comp2.kappa_hat == pytest.approx(comp1.kappa_hat, rel=1e-12)
    assert comp2.psi == pytest.approx(scale * comp1.psi, rel=1e-12)
    assert comp2.alpha_coef == pytest.approx(scale * comp1.alpha_coef, rel=1e-12)
    for eps, T in [(1.0, 10), (0.5, 3), (2.0, 50)]:
        b1 = finite_horizon_bound(
            BoundQuery(V0=0.0, alpha_coef=comp1.alpha_coef, epsilon=eps, T=T,
                       psi_hat=comp1.psi, kappa_hat=comp1.kappa_hat)
        )
        b2 = finite_horizon_bound(
            BoundQuery(V0=0.0, alpha_coef=comp2.alpha_coef, epsilon=eps, T=T,
                       psi_hat=comp2.psi, kappa_hat=comp2.kappa_hat)
        )
        assert b2.probability == pytest.approx(b1.probability, rel=1e-12)


def test_composition_certificate_validation():
    with pytest.raises(ValueError):
        CompositionCertificate(
            mu=np.array([1.0, -1.0]), alpha_coef=1.0, kappa_hat=0.5, rho_ext_coef=0.0, psi=0.0
        )


def _composed_one_step_form(subs, topo, cands, certs, composed):
    """``(Q, c)`` with ``z' Q z + c = sum_i mu_i (E[V_i+] - (1 - kappa_hat) V_i) - psi``.

    ``z`` stacks every concrete state and then every abstract state, the
    abstract input is zero and ``E[V_i+]`` is :func:`expected_V_next` at the
    interface's input.  The form is exact in ``z``, so ``Q`` is read off by
    polarization at the unit vectors and their pairwise sums.
    """
    N = len(subs)
    abs_subs = [cands[i].as_subsystem(subs[i]) for i in range(N)]
    sizes = [s.n for s in subs] + [c.nhat for c in cands]
    cuts = np.cumsum(sizes)[:-1]

    def f(z):
        parts = np.split(z, cuts)
        xs, xhs = parts[:N], parts[N:]
        omegas = _route_internal(subs, topo, xs)
        omegahats = _route_internal(abs_subs, topo, xhs)
        total = -composed.psi
        for i in range(N):
            nuhat = np.zeros(cands[i].Bhat.shape[1])
            nu = interface(xs[i], xhs[i], nuhat, omegahats[i], certs[i])
            v_next = expected_V_next(xs[i], xhs[i], nu, nuhat, omegas[i], omegahats[i],
                                     subs[i], cands[i], certs[i])
            v = evaluate_V(xs[i], xhs[i], certs[i].M, certs[i].P)
            total += composed.mu[i] * (v_next - (1.0 - composed.kappa_hat) * v)
        return total

    unit = np.eye(sum(sizes))
    c = f(np.zeros(len(unit)))
    diag = np.array([f(e) - c for e in unit])
    Q = np.diag(diag)
    for j in range(len(unit)):
        for k in range(j):
            Q[j, k] = Q[k, j] = (f(unit[j] + unit[k]) - diag[j] - diag[k] - c) / 2
    return Q, c


@pytest.mark.parametrize("seed, fan_in", [(s, 2 + s % 2) for s in range(8)])
def test_composed_one_step_inequality_holds(seed, fan_in):
    # with delta_ij = rho_int_i on every edge the composed V satisfies
    # E[V+] <= (1 - kappa_hat) V + psi at every state pair: the form is <= 0
    subs, topo, cands, certs, composed = certified_network(1000 + seed, fan_in=fan_in)
    assert all(sum(t == i for _, t in topo.pairs) == fan_in for i in range(len(subs)))
    Q, c = _composed_one_step_form(subs, topo, cands, certs, composed)
    # the certificates hold to tol 1e-9 relative to ||M_i||; so does the form
    scale = max(1.0, max(m * np.linalg.norm(k.M, 2) for m, k in zip(composed.mu, certs)))
    assert np.linalg.eigvalsh(Q).max() <= 1e-9 * scale
    assert c <= 1e-12 * scale
