import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import qr, solve_discrete_are, solve_discrete_lyapunov
from helpers import (
    condition_values,
    evaluate_V,
    expected_decrease_bound,
    expected_V_next,
    identity_candidate,
    interface,
    invertible,
    random_certified_instance,
    shrinkage_sweep_gain,
)

from simcert import spsf
from simcert.errors import DimensionMismatch, Infeasible, RankDeficientWarning, SingularGramWarning
from simcert.model import LinearSubsystem, Topology
from simcert.montecarlo import simulate_pair
from simcert.project import RunDefaults
from simcert.spsf import (
    _dare,
    _spec_norm,
    _stein,
    AbstractionCandidate,
    AbstractionCertificate,
    check_conditions,
    compute_Rtilde,
    derive_constants,
    solve_structural,
    synthesize_MK,
)

ONES = np.ones((25, 1))


def test_check_reference_certificate_passes(ref_parts):
    subs, _, cands, certs = ref_parts
    report = check_conditions(subs[0], cands[0], certs[0])
    assert report.passed
    values = condition_values(report)
    assert values["internal input match"] < 1e-9
    assert values["drift match"] == 0.0


def test_check_published_S_fails_internal_match(ref_parts):
    subs, _, cands, certs = ref_parts
    c = certs[0]
    published = AbstractionCertificate(
        M=c.M, K=c.K, P=c.P, Q=c.Q, S=-0.003 * ONES, Rtilde=c.Rtilde,
        pi=c.pi, kappa_hat=c.kappa_hat,
    )
    report = check_conditions(subs[0], cands[0], published)
    assert not report.passed
    values = condition_values(report)
    # ||0.001 * ones_25|| = 0.001 * 5 in the spectral norm
    assert values["internal input match"] == pytest.approx(0.005, rel=1e-9)
    failing = [c.name for c in report.checks if not c.passed]
    assert failing == ["internal input match"]


def test_check_identity_abstraction_zero_residuals():
    rng = np.random.default_rng(0)
    n = 4
    s = LinearSubsystem(
        id=0, A=0.3 * rng.standard_normal((n, n)), B=rng.standard_normal((n, n)),
        D=rng.standard_normal((n, 2)), F=rng.standard_normal((n, 1)),
        C_ext=rng.standard_normal((2, n)),
    )
    cand = identity_candidate(s)
    M, K = synthesize_MK(s.A, s.B, s.output_matrix(), pi=0.5, kappa_hat=0.5)
    cert = AbstractionCertificate(
        M=M, K=K, P=np.eye(n), Q=np.zeros((n, n)), S=np.zeros((n, 2)),
        Rtilde=np.eye(n), pi=0.5, kappa_hat=0.5,
    )
    values = condition_values(check_conditions(s, cand, cert))
    assert values["drift match"] == 0.0
    assert values["internal input match"] == 0.0


def test_check_certificate_with_another_lift_fails(ref_parts):
    # with P = 0 every row holds, but V = x'Mx then says nothing of the candidate's
    # outputs C P xhat: the certificate's P must be the candidate's, bit for bit
    subs, _, cands, certs = ref_parts
    zeros = np.zeros((25, 1))
    other = dataclasses.replace(certs[0], P=zeros, Q=zeros, S=-subs[0].D, Rtilde=zeros)
    report = check_conditions(subs[0], cands[0], other)
    assert all(c.passed for c in report.checks) and not report.passed
    assert report.violations == ("the certificate's P is not the candidate's lift, bit for bit",)
    P = cands[0].P.copy()
    assert check_conditions(subs[0], cands[0], dataclasses.replace(certs[0], P=P)).passed
    P[3, 0] = np.nextafter(1.0, 2.0)
    assert not check_conditions(subs[0], cands[0], dataclasses.replace(certs[0], P=P)).passed


def test_check_refuses_an_empty_dhat(ref_parts):
    # numpy broadcast the internal input match residual D - P Dhat + B S to 25x0,
    # whose norm is 0, so this candidate passed every condition
    subs, _, cands, certs = ref_parts
    cand = dataclasses.replace(cands[1], Dhat=np.zeros((1, 0)))
    with pytest.raises(DimensionMismatch, match=r"^Dhat is 1x0, expected 1x1 \(nhat x p\)$"):
        check_conditions(subs[1], cand, certs[1])


_CANDIDATE_FIELDS = ("P", "Ahat", "Bhat", "Dhat", "Fhat")
# the dimension each of these defines, which a wrong shape keeps: nhat is Ahat's row
# count, mhat Bhat's column count and qhat Fhat's
_DEFINES = {"Ahat": 0, "Bhat": 1, "Fhat": 1}


@pytest.fixture(scope="module")
def noisy_instance():
    return random_certified_instance(np.random.default_rng(5), n_max=5, with_abstract_noise=True)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_matrix_that_does_not_fit_is_refused_by_name(noisy_instance, data):
    # one field of the candidate or certificate takes a shape near its own; every entry
    # point raises DimensionMismatch naming it, never a report, a number or a ValueError
    s, cand, cert = noisy_instance
    name = data.draw(st.sampled_from((*_CANDIDATE_FIELDS, "M", "K", "Q", "S", "Rtilde")))
    on_cand = name in _CANDIDATE_FIELDS and (name != "P" or data.draw(st.booleans()))
    want = getattr(cand if on_cand else cert, name).shape
    near = [st.integers(max(0, w - 2), w + 2) for w in want]
    if name in _DEFINES:
        near[_DEFINES[name]] = st.just(want[_DEFINES[name]])
    shape = data.draw(st.tuples(*near).filter(lambda sh: sh != want))
    bad = {name: np.ones(shape)}
    cand = dataclasses.replace(cand, **bad) if on_cand else cand
    cert = cert if on_cand else dataclasses.replace(cert, **bad)
    calls = [
        lambda: check_conditions(s, cand, cert),
        lambda: derive_constants(s, cand, cert),
        lambda: simulate_pair([s], Topology(1), [cand], [cert], RunDefaults(horizon=2, trials=2)),
    ]
    if on_cand or name in ("M", "K"):  # the fields solve_structural reads
        calls.append(lambda: solve_structural(s, cand, cert.M, cert.K, cert.pi, cert.kappa_hat))
    message = rf"^{name} is {shape[0]}x{shape[1]}, expected {want[0]}x{want[1]} \("
    for call in calls:
        with pytest.raises(DimensionMismatch, match=message):
            call()


def test_check_kappa_domain_violation(ref_parts):
    subs, _, cands, certs = ref_parts
    c = certs[0]
    bad = AbstractionCertificate(
        M=c.M, K=c.K, P=c.P, Q=c.Q, S=c.S, Rtilde=c.Rtilde, pi=c.pi, kappa_hat=1.2
    )
    report = check_conditions(subs[0], cands[0], bad)
    assert not report.passed
    assert any("kappa_hat out of (0,1)" in v for v in report.violations)


def test_check_report_renders_table(ref_parts):
    subs, _, cands, certs = ref_parts
    text = check_conditions(subs[0], cands[0], certs[0]).render()
    assert "condition" in text and "pass" in text


def test_synthesize_reference_dimensions(ref_parts):
    subs, *_ = ref_parts
    s = subs[0]
    M, K = synthesize_MK(s.A, s.B, s.output_matrix(), pi=0.99, kappa_hat=0.98)
    gamma = np.sqrt(1.99 / 0.02)
    rho = np.max(np.abs(np.linalg.eigvals(s.A + s.B @ K)))
    assert gamma * rho < 1.0
    # uniform shrinkage lands on the published gain here, as the numeric sweep did
    assert np.allclose(K, -0.95 * np.eye(25))
    assert K.tobytes() == shrinkage_sweep_gain(s.A, s.B, 0.99, 0.98).tobytes()


def test_synthesize_zero_output():
    M, K = synthesize_MK(np.eye(3), np.eye(3), np.zeros((1, 3)), pi=1.0, kappa_hat=0.5)
    assert np.linalg.eigvalsh(M)[0] > 0
    scale = max(1.0, np.linalg.norm(M, 2))
    Ab = np.eye(3) + K
    margin = np.linalg.eigvalsh(0.5 * M - 2.0 * Ab.T @ M @ Ab)[0]
    assert margin >= -1e-9 * scale


def test_synthesize_scalar():
    M, K = synthesize_MK([[2.0]], [[1.0]], [[1.0]], pi=1.0, kappa_hat=0.5)
    gamma = 2.0  # sqrt((1+1)/(1-0.5))
    assert gamma * abs(2.0 + K[0, 0]) < 1.0
    assert M[0, 0] >= 1.0  # M >= C'C


def test_synthesize_infeasible():
    with pytest.raises(Infeasible):
        synthesize_MK([[2.0]], [[0.0]], [[1.0]], pi=1.0, kappa_hat=0.5)


@pytest.mark.parametrize("margins", [(np.nan, 1.0, 1.0), (1.0, np.nan, 1.0)])
def test_synthesize_never_returns_a_nan_margin(monkeypatch, margins):
    # each margin is tested on its own: min(out, dec) would let a NaN decrease margin pass
    monkeypatch.setattr(spsf, "_margins", lambda *args: margins)
    with pytest.raises(Infeasible, match="round-off"):
        synthesize_MK([[2.0]], [[1.0]], [[1.0]], pi=1.0, kappa_hat=0.5)


@pytest.mark.parametrize("seed", range(16))
def test_shrinkage_closed_form_matches_sweep(seed):
    # one radius of A, scaled by (1 - eta), picks the gain the per-eta radii picked, bit for
    # bit, except at a grid tie: there round-off lifts the first feasible eta's loop above
    # 0.9, synthesize_MK falls back to the regulator and the sweep goes on to the next eta
    # (test_shrinkage_lost_to_round_off_falls_back_to_regulator[tie-at-eta-half])
    rng = np.random.default_rng(300 + seed)
    n = 1 + seed % 5
    A = rng.uniform(0.2, 4.0) * rng.standard_normal((n, n))
    B = invertible(rng, n)
    if seed % 4 == 3:  # singular values 1 ... 1e-10: cond(B) = 1e10, under the 1e12 gate
        U, _, Vt = np.linalg.svd(B)
        B = U @ np.diag(np.logspace(0, -10, n)) @ Vt
    pi, kappa_hat = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.05, 0.95))
    _, K = synthesize_MK(A, B, np.eye(n), pi, kappa_hat)
    assert K.tobytes() == shrinkage_sweep_gain(A, B, pi, kappa_hat).tobytes()


def test_shrinkage_overflowed_radius_takes_eta_one():
    # gamma rho(A) overflows, so (1 - eta) gamma rho(A) is inf or NaN at every grid point;
    # the sweep ends at eta = 1, where A + BK = 0, and must not fall back to eta = 0
    A, B = np.diag([1.5e308, -1.5e308]), np.array([[2.0, 1.0], [0.0, 1.0]])
    with np.errstate(over="ignore"):
        _, K = synthesize_MK(A, B, np.eye(2), pi=0.99, kappa_hat=0.98)
        swept = shrinkage_sweep_gain(A, B, 0.99, 0.98)
    assert K.tobytes() == swept.tobytes() == (-1.0 * np.linalg.solve(B, A)).tobytes()


def _spoiled_shrinkage(name):
    if name == "cond-1e10":
        # ||A|| ~ 1e6 and cond(B) = 1e10: round-off in B^-1 A keeps gamma rho(A + BK)
        # above 0.9 on the whole grid
        rng = np.random.default_rng(3)
        U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        return 1e6 * rng.standard_normal((2, 2)), U @ np.diag([1.0, 1e-10]) @ U.T
    # gamma rho(A) = 1.8 picks eta = 0.5 at 0.9 exactly, and round-off lifts the loop's
    # radius just above 0.9; the Riccati problem is well conditioned
    rng = np.random.default_rng(7)
    A, B = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    return A * 1.8 / (np.sqrt((1.0 + 0.99) / (1.0 - 0.98)) * spsf._spectral_radius(A)), B


@pytest.mark.parametrize("name", ["cond-1e10", "tie-at-eta-half"])
def test_shrinkage_lost_to_round_off_falls_back_to_regulator(name):
    A, B = _spoiled_shrinkage(name)
    if name == "cond-1e10":
        assert shrinkage_sweep_gain(A, B, 0.99, 0.98) is None
        # the Riccati solution is ~1e25 here, and I + gamma^2 B'XB is singular in floats
        with pytest.raises(Infeasible, match="no stabilizing gain found: Singular matrix"):
            synthesize_MK(A, B, np.eye(2), pi=0.99, kappa_hat=0.98)
        return
    gamma = np.sqrt((1.0 + 0.99) / (1.0 - 0.98))
    assert gamma * spsf._spectral_radius(A) <= 1.8
    assert gamma * spsf._spectral_radius(A - 0.5 * B @ np.linalg.solve(B, A)) > 0.9
    M, K = synthesize_MK(A, B, np.eye(2), pi=0.99, kappa_hat=0.98)
    X = solve_discrete_are(gamma * A, gamma * B, np.eye(2), np.eye(2))
    regulator = -np.linalg.solve(np.eye(2) + gamma**2 * B.T @ X @ B, gamma**2 * B.T @ X @ A)
    np.testing.assert_allclose(K, regulator, rtol=1e-9, atol=0)
    s = LinearSubsystem(id=0, A=A, B=B, D=np.zeros((2, 1)), F=np.zeros((2, 1)), C_ext=np.eye(2))
    cert = AbstractionCertificate(M=M, K=K, P=np.eye(2), Q=np.zeros((2, 2)), S=np.zeros((2, 1)),
                                  Rtilde=np.eye(2), pi=0.99, kappa_hat=0.98)
    assert check_conditions(s, identity_candidate(s), cert).passed


def test_singular_regulator_gain_is_infeasible():
    # cond(B) = 1e11 and ||A|| ~ 7e7: shrinkage is lost to round-off, and the
    # regulator's I + gamma^2 B'XB is singular; that is Infeasible, not a LinAlgError
    r = np.random.default_rng(1)
    n = int(r.integers(1, 5))
    A = 10 ** r.uniform(0, 8) * r.standard_normal((n, n))
    U, _ = qr(r.standard_normal((n, n)))
    B = U @ np.diag(np.logspace(0, -r.uniform(8, 12), n)) @ U.T
    with pytest.raises(Infeasible, match="Singular matrix"):
        synthesize_MK(A, B, np.eye(n), 0.99, 0.98)


def test_synthesize_infinite_gamma_infeasible():
    with np.errstate(invalid="ignore"), pytest.raises(Infeasible):
        synthesize_MK(np.diag([0.5, 2.0]), np.eye(2), np.eye(2), pi=np.inf, kappa_hat=0.5)


# an unstabilizable input, an infinite gamma, an A whose Riccati doubling overflows, and
# one whose shrinkage gain B^-1 A overflows, so that its loop's radius is NaN
OVERFLOWING = {
    "unstabilizable": ([[2.0]], [[0.0]], 1.0),
    "infinite-gamma": (np.diag([0.5, 2.0]), np.eye(2), np.inf),
    "overflowing-A": (np.full((2, 2), 1e200), [[0.0], [1.0]], 1.0),
    "overflowing-shrinkage": (np.full((2, 2), 1e305), [[1e-5, 2e-5], [3e-5, 4e-5]], 0.5),
}


@pytest.mark.parametrize("name", OVERFLOWING)
def test_synthesize_overflow_is_infeasible_without_warnings(name):
    A, B, pi = OVERFLOWING[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Infeasible):
            synthesize_MK(A, B, np.eye(len(A)), pi=pi, kappa_hat=0.5)


@pytest.mark.parametrize("seed", range(20))
def test_riccati_doubling_matches_scipy(seed):
    rng = np.random.default_rng(400 + seed)
    n = 1 + seed % 8
    A = rng.uniform(0.5, 2.0) * rng.standard_normal((n, n)) / np.sqrt(n)
    B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    want = solve_discrete_are(A, B, np.eye(n), np.eye(B.shape[1]))
    np.testing.assert_allclose(_dare(A, B @ B.T), want, rtol=0, atol=1e-9 * abs(want).max())


@pytest.mark.parametrize("seed", range(20))
def test_squared_smith_matches_scipy(seed):
    rng = np.random.default_rng(500 + seed)
    n = 1 + seed % 8
    G = rng.standard_normal((n, n))
    G *= rng.uniform(0.1, 0.95) / spsf._spectral_radius(G)
    C = rng.standard_normal((int(rng.integers(1, 4)), n))
    W = C.T @ C + 1e-3 * np.eye(n)
    want = solve_discrete_lyapunov(G.T, W)
    np.testing.assert_allclose(_stein(G, W), want, rtol=0, atol=1e-9 * abs(want).max())


@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (6, 6)])
def test_spec_norm_is_bitwise_norm_2(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        m = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        assert _spec_norm(m) == float(np.linalg.norm(m, 2))


def test_spec_norm_empty_and_non_finite():
    assert _spec_norm(np.zeros((0, 3))) == 0.0
    assert np.isnan(_spec_norm(np.array([[1.0, np.inf]])))


@pytest.mark.parametrize("seed", range(20))
def test_synthesize_random_passes_conditions(seed):
    rng = np.random.default_rng(100 + seed)
    s, cand, cert = random_certified_instance(rng)
    assert check_conditions(s, cand, cert, tol=1e-9).passed


def _assert_completes(s, cand, cert):
    """``solve_structural`` from ``cert``'s M, K, pi and kappa_hat gives lstsq's Q and S
    and compute_Rtilde's Rtilde bitwise, P = cand.P, and the rest passed through."""
    rebuilt = solve_structural(s, cand, cert.M, cert.K, cert.pi, cert.kappa_hat)
    P = cand.P
    Q = np.linalg.lstsq(s.B, P @ cand.Ahat - s.A @ P, rcond=None)[0]
    S = np.linalg.lstsq(s.B, P @ cand.Dhat - s.D, rcond=None)[0]
    assert np.array_equal(rebuilt.Q, Q) and np.array_equal(rebuilt.S, S)
    assert np.array_equal(rebuilt.Rtilde, compute_Rtilde(s.B, cert.M, P, cand.Bhat))
    assert np.array_equal(rebuilt.P, P)
    assert np.array_equal(rebuilt.M, cert.M) and np.array_equal(rebuilt.K, cert.K)
    assert (rebuilt.pi, rebuilt.kappa_hat) == (cert.pi, cert.kappa_hat)


def test_solve_structural_completes_reference(ref_parts):
    subs, _, cands, certs = ref_parts
    for i in range(4):
        _assert_completes(subs[i], cands[i], certs[i])


@pytest.mark.parametrize("seed", range(5))
def test_solve_structural_completes_random(seed):
    s, cand, cert = random_certified_instance(np.random.default_rng(300 + seed))
    _assert_completes(s, cand, cert)


def test_solve_structural_reference(ref_parts):
    subs, _, cands, certs = ref_parts
    c = certs[0]
    cert = solve_structural(subs[0], cands[0], c.M, c.K, c.pi, c.kappa_hat)
    assert np.array_equal(cert.Q, ONES)
    assert np.max(np.abs(cert.S - (-0.004) * ONES)) < 1e-12
    values = condition_values(check_conditions(subs[0], cands[0], cert))
    assert values["drift match"] < 1e-12
    assert values["internal input match"] < 1e-12


def test_solve_structural_identity_candidate():
    rng = np.random.default_rng(5)
    n = 3
    s = LinearSubsystem(
        id=0, A=rng.standard_normal((n, n)), B=rng.standard_normal((n, n)),
        D=rng.standard_normal((n, 1)), F=np.zeros((n, 1)), C_ext=np.ones((1, n)),
    )
    cert = solve_structural(s, identity_candidate(s), np.eye(n), np.zeros((n, n)), 0.5, 0.5)
    assert np.max(np.abs(cert.Q)) < 1e-12
    assert np.max(np.abs(cert.S)) < 1e-12


def test_solve_structural_rank_deficient_warns():
    s = LinearSubsystem(
        id=0, A=np.eye(2), B=np.zeros((2, 2)), D=np.zeros((2, 1)),
        F=np.zeros((2, 1)), C_ext=np.ones((1, 2)),
    )
    cand = AbstractionCandidate.induced(
        s, P=np.eye(2), Ahat=np.eye(2), Bhat=np.eye(2), Dhat=np.zeros((2, 1))
    )
    # B = 0: the least-squares Q, S are non-unique, then the Gram matrix B'MB is singular
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_structural(s, cand, np.eye(2), np.zeros((2, 2)), 0.5, 0.5)
    assert [w.category for w in caught] == [RankDeficientWarning, SingularGramWarning]


def test_compute_Rtilde_reference(ref_parts):
    _, _, cands, certs = ref_parts
    rt = compute_Rtilde(np.eye(25), certs[0].M, cands[0].P, cands[0].Bhat)
    assert np.array_equal(rt, ONES)


def test_compute_Rtilde_zero_abstract_input():
    rt = compute_Rtilde(np.eye(3), np.eye(3), np.ones((3, 1)), [[0.0]])
    assert np.array_equal(rt, np.zeros((3, 1)))


def test_compute_Rtilde_scalar():
    rt = compute_Rtilde([[2.0]], [[3.0]], [[1.0]], [[5.0]])
    # (B'MB)^{-1} B'M P Bhat = 30 / 12
    assert rt[0, 0] == pytest.approx(2.5, abs=1e-15)


def test_compute_Rtilde_singular_gram_warns():
    with pytest.warns(SingularGramWarning):
        rt = compute_Rtilde(np.zeros((2, 1)), np.eye(2), np.ones((2, 1)), [[1.0]])
    assert np.array_equal(rt, np.zeros((1, 1)))


def test_derive_constants_reference(ref_parts):
    subs, _, cands, certs = ref_parts
    c = derive_constants(subs[0], cands[0], certs[0])
    # (1 + 2/0.99 + 0.99/2) * ||sqrt(M) D||^2 with ||D||^2 = 0.01 * 25
    assert c.rho_int_coef == pytest.approx((1 + 2 / 0.99 + 0.99 / 2) * 0.25, rel=1e-12)
    assert c.rho_ext_coef == 0.0
    assert c.psi == pytest.approx(0.0025, abs=1e-12)
    assert c.kappa_hat == 0.98


def test_derive_constants_noiseless():
    rng = np.random.default_rng(2)
    s, cand, cert = random_certified_instance(rng)
    noiseless = LinearSubsystem(
        id=0, A=s.A, B=s.B, D=s.D, F=np.zeros((s.n, 0)), C_ext=s.C_ext
    )
    c = derive_constants(noiseless, cand, cert)
    assert c.psi == 0.0


def test_derive_constants_identity_D():
    s = LinearSubsystem(
        id=0, A=np.zeros((2, 2)), B=np.eye(2), D=np.eye(2), F=np.zeros((2, 1)),
        C_ext=0.1 * np.ones((1, 2)),
    )
    cand = AbstractionCandidate.induced(
        s, P=np.eye(2), Ahat=np.zeros((2, 2)), Bhat=np.eye(2), Dhat=np.eye(2)
    )
    cert = AbstractionCertificate(
        M=np.eye(2), K=np.zeros((2, 2)), P=np.eye(2), Q=np.zeros((2, 2)),
        S=np.zeros((2, 2)), Rtilde=np.eye(2), pi=1.0, kappa_hat=0.5,
    )
    c = derive_constants(s, cand, cert)
    assert c.rho_int_coef == pytest.approx(3.5, abs=1e-14)  # (1 + 2 + 0.5) * 1


def test_psi_smaller_with_noiseless_abstraction():
    # identity abstraction with Fhat = F doubles the trace term (P = I),
    # while Fhat = 0 keeps only the concrete share
    rng = np.random.default_rng(14)
    n = 4
    s = LinearSubsystem(
        id=0, A=0.3 * rng.standard_normal((n, n)), B=rng.standard_normal((n, n)),
        D=rng.standard_normal((n, 1)), F=rng.standard_normal((n, 2)),
        C_ext=rng.standard_normal((1, n)),
    )
    M, K = synthesize_MK(s.A, s.B, s.output_matrix(), pi=0.8, kappa_hat=0.6)
    cert = AbstractionCertificate(
        M=M, K=K, P=np.eye(n), Q=np.zeros((n, n)), S=np.zeros((n, 1)),
        Rtilde=np.eye(n), pi=0.8, kappa_hat=0.6,
    )
    noisy = identity_candidate(s)  # Fhat = F
    quiet = AbstractionCandidate.induced(s, P=np.eye(n), Ahat=s.A, Bhat=s.B, Dhat=s.D)
    psi_noisy = derive_constants(s, noisy, cert).psi
    psi_quiet = derive_constants(s, quiet, cert).psi
    assert psi_noisy == pytest.approx(2 * psi_quiet, rel=1e-12)
    assert psi_quiet < psi_noisy


def test_rho_ext_coefficient():
    rng = np.random.default_rng(3)
    s, cand, cert = random_certified_instance(rng)
    # the synthesized Rtilde matches inputs almost exactly; a shifted one does not
    for c in (cert, dataclasses.replace(cert, Rtilde=cert.Rtilde + 0.1)):
        X = s.B @ c.Rtilde - c.P @ cand.Bhat
        G = X.T @ c.M @ X
        lam = np.linalg.eigvalsh(0.5 * (G + G.T))[-1]
        expected = (1 + 4 / c.pi) * lam
        assert derive_constants(s, cand, c).rho_ext_coef == pytest.approx(expected, rel=1e-12)
    assert expected > 0.1


def test_evaluate_V_examples():
    P = ONES
    M = np.eye(25)
    xhat = np.array([0.7])
    assert evaluate_V(P @ xhat, xhat, M, P) == 0.0
    assert evaluate_V(np.ones(25), np.array([0.0]), M, P) == pytest.approx(25.0)
    assert evaluate_V([3.0], [1.0], [[4.0]], [[1.0]]) == pytest.approx(16.0)


def test_interface_examples(ref_parts):
    subs, _, cands, certs = ref_parts
    cert = certs[0]
    rng = np.random.default_rng(1)
    x = rng.standard_normal(25)
    xhat = rng.standard_normal(1)
    nuhat = rng.standard_normal(1)
    omegahat = rng.standard_normal(1)
    nu = interface(x, xhat, nuhat, omegahat, cert)
    expected = (
        -0.95 * (x - ONES[:, 0] * xhat[0])
        + ONES[:, 0] * xhat[0]
        + ONES[:, 0] * nuhat[0]
        - 0.004 * ONES[:, 0] * omegahat[0]
    )
    assert np.allclose(nu, expected, atol=1e-14)

    # zero lifted error, zero inputs -> Q xhat
    nu0 = interface(ONES[:, 0] * 0.3, [0.3], [0.0], [0.0], cert)
    assert np.allclose(nu0, 0.3 * np.ones(25), atol=1e-15)

    scalar = AbstractionCertificate(
        M=[[1.0]], K=[[-1.0]], P=[[1.0]], Q=[[2.0]], S=[[4.0]], Rtilde=[[3.0]],
        pi=1.0, kappa_hat=0.5,
    )
    assert interface([1.0], [1.0], [1.0], [1.0], scalar)[0] == pytest.approx(9.0)


def test_expected_V_next_drift_free(ref_parts):
    subs, _, cands, certs = ref_parts
    s, cand, cert = subs[0], cands[0], certs[0]
    xhat = np.array([0.4])
    x = cert.P @ xhat
    omega = np.array([0.2])
    nu = interface(x, xhat, [0.0], omega, cert)
    val = expected_V_next(x, xhat, nu, [0.0], omega, omega, s, cand, cert)
    assert val == pytest.approx(0.0025, abs=1e-12)  # exactly psi


def test_expected_V_next_reference_error_form(ref_parts):
    subs, _, cands, certs = ref_parts
    s, cand, cert = subs[0], cands[0], certs[0]
    rng = np.random.default_rng(4)
    for _ in range(20):
        xhat = rng.standard_normal(1)
        e = rng.standard_normal(25)
        x = cert.P @ xhat + e
        omega = rng.standard_normal(1)
        nu = interface(x, xhat, [0.0], omega, cert)
        val = expected_V_next(x, xhat, nu, [0.0], omega, omega, s, cand, cert)
        # A + BK = 0.05 I, so the mean term is 0.05^2 ||e||^2
        assert val == pytest.approx(0.0025 * float(e @ e) + 0.0025, rel=1e-10)
        assert val >= 0.0025 - 1e-15  # never below psi


def test_lower_bound_property(ref_parts):
    subs, _, cands, certs = ref_parts
    s, cand, cert = subs[0], cands[0], certs[0]
    C_full, Chat_full = s.output_matrix(), cand.as_subsystem(s).output_matrix()
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10_000, 25))
    Xh = rng.standard_normal((10_000, 1))
    gaps = np.einsum("ij,ij->i", X @ C_full.T - Xh @ Chat_full.T,
                     X @ C_full.T - Xh @ Chat_full.T)
    E = X - Xh @ cert.P.T
    V = np.einsum("ij,jk,ik->i", E, cert.M, E)
    assert np.all(gaps <= V + 1e-9)


@pytest.mark.parametrize("with_noise", [False, True])
def test_lower_bound_property_random_instances(with_noise):
    rng = np.random.default_rng(7)
    s, cand, cert = random_certified_instance(rng, with_abstract_noise=with_noise)
    C_full, Chat_full = s.output_matrix(), cand.as_subsystem(s).output_matrix()
    X = rng.standard_normal((2000, s.n))
    Xh = rng.standard_normal((2000, cand.nhat))
    gaps = np.einsum("ij,ij->i", X @ C_full.T - Xh @ Chat_full.T,
                     X @ C_full.T - Xh @ Chat_full.T)
    E = X - Xh @ cert.P.T
    V = np.einsum("ij,jk,ik->i", E, cert.M, E)
    scale = np.maximum(1.0, V)
    assert np.all(gaps <= V + 1e-9 * scale)


def test_supermartingale_inequality_pointwise(ref_parts):
    subs, _, cands, certs = ref_parts
    s, cand, cert = subs[0], cands[0], certs[0]
    constants = derive_constants(s, cand, cert)
    rng = np.random.default_rng(8)
    worst = -np.inf
    for _ in range(1000):
        x = rng.standard_normal(25)
        xhat = rng.standard_normal(1)
        nuhat = rng.standard_normal(1)
        omega = rng.standard_normal(1)
        omegahat = rng.standard_normal(1)
        nu = interface(x, xhat, nuhat, omegahat, cert)
        lhs = expected_V_next(x, xhat, nu, nuhat, omega, omegahat, s, cand, cert)
        v = evaluate_V(x, xhat, cert.M, cert.P)
        rhs = expected_decrease_bound(v, constants, omega, omegahat, nuhat)
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-9


def test_mc_consistency_expected_V_next():
    rng = np.random.default_rng(9)
    s, cand, cert = random_certified_instance(rng, with_abstract_noise=True)
    x = rng.standard_normal(s.n)
    xhat = rng.standard_normal(cand.nhat)
    nuhat = rng.standard_normal(cand.mhat)
    omega = rng.standard_normal(s.p)
    omegahat = rng.standard_normal(s.p)
    nu = interface(x, xhat, nuhat, omegahat, cert)
    exact = expected_V_next(x, xhat, nu, nuhat, omega, omegahat, s, cand, cert)

    draws = 100_000
    mean_c = s.A @ x + s.B @ nu + s.D @ omega
    mean_a = cand.Ahat @ xhat + cand.Bhat @ nuhat + cand.Dhat @ omegahat
    e_mean = mean_c - cert.P @ mean_a
    zc = rng.standard_normal((draws, s.q))
    za = rng.standard_normal((draws, cand.Fhat.shape[1]))
    e_plus = e_mean + zc @ s.F.T - za @ (cert.P @ cand.Fhat).T
    v_plus = np.einsum("ij,jk,ik->i", e_plus, cert.M, e_plus)
    se = v_plus.std(ddof=1) / np.sqrt(draws)
    assert abs(v_plus.mean() - exact) <= 5 * se


def test_rtilde_first_order_stationarity():
    rng = np.random.default_rng(10)
    s, cand, cert = random_certified_instance(rng)
    M, B, P, Bhat = cert.M, s.B, cert.P, cand.Bhat

    def objective(R):
        X = B @ R - P @ Bhat
        G = X.T @ M @ X
        return float(np.linalg.eigvalsh(0.5 * (G + G.T))[-1]) if G.size else 0.0

    base = objective(cert.Rtilde)
    for _ in range(100):
        direction = rng.standard_normal(cert.Rtilde.shape)
        direction /= np.linalg.norm(direction)
        assert objective(cert.Rtilde + 1e-3 * direction) >= base - 1e-12
