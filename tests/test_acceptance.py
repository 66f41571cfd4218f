"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is stated inline next to its assertion.
"""

import time

import numpy as np
import pytest
from helpers import (
    empirical_supermartingale_check,
    evaluate_V,
    expected_decrease_bound,
    expected_V_next,
    identity_candidate,
    interface,
    random_certified_instance,
)

from simcert.bounds import BoundQuery, finite_horizon_bound
from simcert.cli import main
from simcert.errors import Infeasible
from simcert.model import LinearSubsystem
from simcert.montecarlo import simulate_pair, violation_probability
from simcert.project import RunDefaults, save_project
from simcert.reference import reference_project
from simcert.smallgain import GainDecomposition, find_mu
from simcert.spsf import (
    AbstractionCertificate,
    check_conditions,
    derive_constants,
    synthesize_MK,
)

BOUND_REFERENCE = 1.0 - 0.99**10  # 0.09561792...


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_criterion_1_reference_constants(capsys):
    t0 = time.perf_counter()
    code = main(["paper-example"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    # the full run reproduces every published constant within tolerance and
    # flags exactly the known S discrepancy
    assert "MISMATCH" not in out
    assert "recomputed -0.004, published -0.003" in out
    assert "all constants reproduced" in out
    assert elapsed < 10.0, f"paper-example took {elapsed:.1f} s (budget 10 s)"
    with capsys.disabled():
        _report("criterion 1", f"constants reproduced, S flagged, {elapsed:.1f} s < 10 s")


def test_criterion_2_reference_bound(capsys):
    res = finite_horizon_bound(
        BoundQuery(V0=0.0, alpha_coef=1.0, epsilon=1.0, T=10, psi_hat=0.01, kappa_hat=0.1)
    )
    assert res.probability == pytest.approx(0.0956, abs=1e-4)
    assert res.probability == pytest.approx(BOUND_REFERENCE, abs=1e-15)
    assert 1.0 - res.probability > 0.90  # the published closeness claim (90.44%)
    with capsys.disabled():
        _report("criterion 2", f"bound {res.probability:.6f} = 0.0956 +/- 1e-4")


def test_criterion_3_monte_carlo_soundness(capsys):
    project = reference_project()
    cands = [project.candidates[i] for i in range(4)]
    certs = [project.certificates[i] for i in range(4)]
    cfg = RunDefaults(horizon=10, trials=10_000, seed=42)
    t0 = time.perf_counter()
    samples = simulate_pair(project.subsystems, project.topology, cands, certs, cfg)
    elapsed = time.perf_counter() - t0
    est = violation_probability(samples, epsilon=1.0)
    assert est.upper95 <= 0.0956
    assert elapsed < 60.0, f"simulation took {elapsed:.1f} s (budget 60 s)"
    with capsys.disabled():
        _report(
            "criterion 3",
            f"{est.violations}/10000 violations, upper CI {est.upper95:.5f} "
            f"<= 0.0956, {elapsed:.1f} s < 60 s",
        )


def _exact_slack_suite(s, cand, cert, points, rng):
    constants = derive_constants(s, cand, cert)
    worst = -np.inf
    for _ in range(points):
        x = rng.standard_normal(s.n)
        xh = rng.standard_normal(cand.nhat)
        nuhat = rng.standard_normal(cand.mhat)
        omega = rng.standard_normal(s.p)
        omegahat = rng.standard_normal(s.p)
        nu = interface(x, xh, nuhat, omegahat, cert)
        lhs = expected_V_next(x, xh, nu, nuhat, omega, omegahat, s, cand, cert)
        v = evaluate_V(x, xh, cert.M, cert.P)
        rhs = expected_decrease_bound(v, constants, omega, omegahat, nuhat)
        worst = max(worst, lhs - rhs)
    return worst


def test_criterion_4_supermartingale_suite(ref_parts, capsys):
    subs, _, cands, certs = ref_parts
    rng = np.random.default_rng(4040)
    instances = [(subs[0], cands[0], certs[0])]
    for k in range(20):
        instances.append(
            random_certified_instance(
                np.random.default_rng(5000 + k), n_max=10, nhat_max=3,
                with_abstract_noise=(k % 2 == 0),
            )
        )
    worst_exact = -np.inf
    for s, cand, cert in instances:
        worst_exact = max(worst_exact, _exact_slack_suite(s, cand, cert, 1000, rng))
    # decrease inequality on the exact expectation: slack >= -1e-9
    assert worst_exact <= 1e-9

    worst_gap = 0.0
    for i, (s, cand, cert) in enumerate(instances):
        res = empirical_supermartingale_check(
            s, cand, cert, points=2, draws_per_point=100_000, seed=600 + i
        )
        worst_gap = max(worst_gap, res.max_gap_se)
        assert res.worst_slack <= max(1e-9, 5.0 * res.worst_slack_stderr)
    # Monte Carlo estimates agree with the closed form within 5 standard errors
    assert worst_gap <= 5.0
    with capsys.disabled():
        _report(
            "criterion 4",
            f"21 instances x 1000 points, worst exact slack {worst_exact:.2e} <= 1e-9, "
            f"worst MC gap {worst_gap:.2f} SE <= 5",
        )


def test_criterion_5_small_gain_suite(capsys):
    rng = np.random.default_rng(55)
    for case in range(100):
        N = int(rng.integers(1, 9))
        lam = rng.uniform(0.05, 0.99, N)
        delta = rng.uniform(0, 1, (N, N)) * (rng.random((N, N)) < 0.6)
        np.fill_diagonal(delta, 0.0)
        rho = np.max(np.abs(np.linalg.eigvals(delta / lam[:, None])))
        if rho > 0:
            delta *= rng.uniform(0.05, 0.98) / rho
        g = GainDecomposition(np.diag(lam), delta)
        assert g.radius < 1.0
        mu = find_mu(g)
        slack = mu @ (-g.Lambda + g.Delta)
        assert np.all(mu > 0) and np.all(slack < 0)

    for case in range(100):
        N = int(rng.integers(2, 9))
        lam = rng.uniform(0.05, 0.99, N)
        delta = rng.uniform(0, 1, (N, N))
        np.fill_diagonal(delta, 0.0)
        delta[0, 1] = max(delta[0, 1], 0.5)
        rho = np.max(np.abs(np.linalg.eigvals(delta / lam[:, None])))
        delta *= rng.uniform(1.05, 3.0) / rho
        g = GainDecomposition(np.diag(lam), delta)
        assert g.radius >= 1.0
        with pytest.raises(Infeasible):
            find_mu(g)
    with capsys.disabled():
        _report("criterion 5", "100 feasible all strictly negative slack, "
                               "100 infeasible all rejected")


def test_criterion_6_bound_formula_properties(capsys):
    rng = np.random.default_rng(66)

    def case1(v0, a, ph, T):
        return 1.0 - (1.0 - v0 / a) * (1.0 - ph / a) ** T

    def case2(v0, a, ph, kh, T):
        decay = (1.0 - kh) ** T
        return (v0 / a) * decay + (ph / (kh * a)) * (1.0 - decay)

    # branch agreement at the threshold, 10^4 random points, <= 1e-12
    worst = 0.0
    for _ in range(10_000):
        kh = rng.uniform(0.01, 0.99)
        a = rng.uniform(0.1, 10.0)
        v0 = rng.uniform(0.0, 2.0) * a
        T = int(rng.integers(0, 300))
        worst = max(worst, abs(case1(v0, a, kh * a, T) - case2(v0, a, kh * a, kh, T)))
    assert worst <= 1e-12

    # monotonicity in epsilon (down), V0, psi_hat, T (up)
    for _ in range(2000):
        kh = rng.uniform(0.05, 0.95)
        alpha = rng.uniform(0.1, 5.0)
        base_kwargs = dict(
            V0=rng.uniform(0.0, 5.0), alpha_coef=alpha,
            epsilon=rng.uniform(0.1, 3.0), T=int(rng.integers(0, 100)),
            psi_hat=rng.uniform(0.0, 1.0), kappa_hat=kh,
        )
        base = finite_horizon_bound(BoundQuery(**base_kwargs)).probability
        for key, delta, direction in (
            ("epsilon", 0.7, -1), ("V0", 0.8, +1), ("psi_hat", 0.3, +1), ("T", 11, +1),
        ):
            kwargs = dict(base_kwargs)
            kwargs[key] += delta
            moved = finite_horizon_bound(BoundQuery(**kwargs)).probability
            assert direction * (moved - base) >= -1e-12

    # T -> infinity limit of the low-threshold branch: psi_hat / (kappa_hat a)
    for _ in range(200):
        kh = rng.uniform(0.05, 0.95)
        a = rng.uniform(0.1, 2.0)
        ph = kh * a * rng.uniform(1.05, 5.0)  # force the low-threshold branch
        res = finite_horizon_bound(
            BoundQuery(V0=rng.uniform(0.0, 3.0), alpha_coef=a, epsilon=1.0,
                       T=10**6, psi_hat=ph, kappa_hat=kh)
        )
        assert res.branch == "low_threshold"
        assert abs(res.raw - ph / (kh * a)) <= 1e-9

    # the infinite-horizon bound min(V0 / (alpha eps^2), 1) equals the psi_hat = 0 limit
    for _ in range(200):
        v0 = rng.uniform(0.0, 3.0)
        a = rng.uniform(0.1, 2.0)
        fin = finite_horizon_bound(
            BoundQuery(V0=v0, alpha_coef=a, epsilon=1.0, T=10**6,
                       psi_hat=0.0, kappa_hat=rng.uniform(0.05, 0.95))
        ).probability
        assert min(v0 / (a * 1.0**2), 1.0) == pytest.approx(fin, abs=1e-12)
    with capsys.disabled():
        _report("criterion 6", "branch agreement <= 1e-12 on 1e4 grid, monotone, "
                               "limits match")


def test_criterion_7_synthesis_self_consistency(capsys):
    rng = np.random.default_rng(77)
    infeasible = 0
    for case in range(50):
        n = int(rng.integers(1, 11))
        m = n if case % 2 == 0 else int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((int(rng.integers(1, 4)), n))
        pi = float(rng.uniform(0.2, 2.0))
        kh = float(rng.uniform(0.05, 0.95))
        s = LinearSubsystem(id=0, A=A, B=B, D=rng.standard_normal((n, 1)),
                            F=0.1 * rng.standard_normal((n, 1)), C_ext=C)
        try:
            M, K = synthesize_MK(A, B, C, pi, kh, tol=1e-9)
        except Infeasible:
            infeasible += 1
            continue
        cand = identity_candidate(s)
        cert = AbstractionCertificate(
            M=M, K=K, P=np.eye(n), Q=np.zeros((m, n)), S=np.zeros((m, 1)),
            Rtilde=np.eye(m), pi=pi, kappa_hat=kh,
        )
        report = check_conditions(s, cand, cert, tol=1e-9)
        assert report.passed, report.render()
    assert infeasible < 25  # synthesis succeeds on the bulk of random systems
    with capsys.disabled():
        _report("criterion 7", f"50 systems: {50 - infeasible} certified at tol 1e-9, "
                               f"{infeasible} honestly infeasible, 0 failing certificates")


def test_criterion_8_simulation_determinism(tmp_path, capsys):
    path = tmp_path / "net.json"
    save_project(reference_project(), path)
    csv1 = tmp_path / "run1.csv"
    csv2 = tmp_path / "run2.csv"
    base = ["simulate", "--project", str(path), "--trials", "400",
            "--seed", "42", "--horizon", "10"]
    assert main(base + ["--csv", str(csv1), "--workers", "1"]) == 0
    assert main(base + ["--csv", str(csv2), "--workers", "3"]) == 0
    b1, b2 = csv1.read_bytes(), csv2.read_bytes()
    assert b1 == b2
    capsys.readouterr()
    with capsys.disabled():
        _report("criterion 8", f"CSV byte-identical across worker counts "
                               f"({len(b1)} bytes)")
