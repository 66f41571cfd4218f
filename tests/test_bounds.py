import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simcert.bounds import BoundQuery, finite_horizon_bound, psi_hat
from simcert import cli
from simcert.errors import DomainError
from simcert.reference import reference_project


def _case1(v0, a, ph, T):
    return 1.0 - (1.0 - v0 / a) * (1.0 - ph / a) ** T


def _case2(v0, a, ph, kh, T):
    decay = (1.0 - kh) ** T
    return (v0 / a) * decay + (ph / (kh * a)) * (1.0 - decay)


def test_reference_bound_value():
    q = BoundQuery(V0=0.0, alpha_coef=1.0, epsilon=1.0, T=10, psi_hat=0.01, kappa_hat=0.1)
    res = finite_horizon_bound(q)
    assert res.branch == "high_threshold"
    assert res.probability == pytest.approx(1.0 - 0.99**10, abs=1e-15)
    assert res.probability == pytest.approx(0.0956, abs=1e-4)


@pytest.mark.parametrize("epsilon", [1.0, 1e3, 1e5, 1e8])
def test_high_threshold_bound_on_reference_is_exact(epsilon):
    # 1 - (1 - psi_hat/a)**T cancels: once psi_hat/a nears the rounding unit it
    # lost digits (1e5) and then all of them (1e8, where it gave 0 for 1e-17)
    project = reference_project()
    constants = cli._all_constants(project, 1e-9)
    composed = cli._composition(constants, project.topology)[1]
    offset, res = cli._bound(composed, epsilon, 10)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = decimal.Decimal(composed.alpha_coef) * decimal.Decimal(epsilon) ** 2
        exact = 1 - (1 - decimal.Decimal(offset) / a) ** 10
    assert res.branch == "high_threshold"
    assert res.probability == pytest.approx(float(exact), rel=1e-13, abs=0)



def _exact_bound(q, clamp=True):
    """The two-case bound of ``q`` in 50-digit decimal arithmetic, a float clamped
    into [0, 1], or without ``clamp`` the unclamped Decimal.

    With ``r = y = psi_hat/a`` on the high threshold and ``r = kappa_hat`` on the
    low one, and ``t = T log(1 - r)``, the bound is ``(V0/a) exp(t)`` plus
    ``-expm1(t)``, times ``y/kappa_hat`` on the low threshold; ``log(1 - r)`` and
    ``-expm1(t)`` are summed as series where they would cancel (``r, -t < 1e-6``).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        a = D(q.alpha_coef) * D(q.epsilon) ** 2
        V0, ph, kh = (D(v) for v in (q.V0, q.psi_hat, q.kappa_hat))
        high = a >= ph / kh
        r = ph / a if high else kh
        t = q.T * ((1 - r).ln() if r > D("1e-6") else -sum(r**k / k for k in range(1, 12)))
        growth = (1 - t.exp() if -t > D("1e-6")
                  else -sum(t**k / math.factorial(k) for k in range(1, 12)))
        exact = V0 / a * t.exp() + (growth if high else ph / (kh * a) * growth)
        return float(min(max(exact, 0), 1)) if clamp else exact


@pytest.mark.parametrize("epsilon", [1e-160, 1e-200])  # a is subnormal, then 0
@pytest.mark.parametrize("V0, offset, T, limit", [
    (0.0, "reference", 10, 1.0), (0.5, 0.0, 10, 1.0), (0.0, 0.0, 10, 0.0),
    (0.0, "reference", 0, 0.0),
])
def test_underflowing_threshold_gives_the_limit(epsilon, V0, offset, T, limit):
    # a = alpha_coef * epsilon**2 underflows from about epsilon < 1e-162 on the
    # reference network, where the two-case formula divided by zero
    project = reference_project()
    constants = cli._all_constants(project, 1e-9)
    composed = cli._composition(constants, project.topology)[1]
    q = BoundQuery(V0=V0, alpha_coef=composed.alpha_coef, epsilon=epsilon, T=T,
                   psi_hat=composed.psi if offset == "reference" else offset,
                   kappa_hat=composed.kappa_hat)
    res = finite_horizon_bound(q)
    assert res.probability == _exact_bound(q) == limit
    assert res.clamped == (limit == 1.0)


@pytest.mark.parametrize("epsilon", [1.4e154, 1e200, 1e300])
@pytest.mark.parametrize("T", [1, 10, 10**6])
@pytest.mark.parametrize("offset", [0.01, 1e300])
def test_overflowing_threshold_bounds_from_above(epsilon, T, offset):
    # a = alpha_coef * epsilon**2 overflows to inf from about epsilon = 1.4e154 on
    # the reference network, where the bound came out as exactly 0
    project = reference_project()
    composed = cli._composition(cli._all_constants(project, 1e-9), project.topology)[1]
    q = BoundQuery(V0=0.0, alpha_coef=composed.alpha_coef, epsilon=epsilon, T=T,
                   psi_hat=offset, kappa_hat=composed.kappa_hat)
    res = finite_horizon_bound(q)
    exact = _exact_bound(q, clamp=False)
    assert res.branch == "high_threshold" and not res.clamped
    # never below the exact value, above it by a relative 1e-11 or two subnormal steps,
    # and the smallest subnormal where the exact value underflows
    assert decimal.Decimal(res.raw) >= exact > 0
    assert res.raw <= float(exact) * (1 + 1e-11) + 2 * math.ulp(0.0)
    # with no offset and V0 = 0 the bound is still exactly 0
    assert finite_horizon_bound(dataclasses.replace(q, psi_hat=0.0)).raw == 0.0


@pytest.mark.parametrize("offset, least", [(2e-16, 2e-323), (1e-14, 1e-321)])
def test_subnormal_ratio_keeps_the_bound(offset, least):
    # at a = 1e308 the ratio psi_hat / a is subnormal: formed as a float it kept few
    # bits, and the bound came out as 0 (exact 2e-323) and 9.9e-322 (exact 1e-321)
    q = BoundQuery(V0=0.0, alpha_coef=1.0, epsilon=1e154, T=10, psi_hat=offset, kappa_hat=0.5)
    raw = finite_horizon_bound(q).raw
    assert raw >= least and decimal.Decimal(raw) >= _exact_bound(q, clamp=False)


def _log_uniform(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


@settings(max_examples=2000, deadline=None)
@given(V0=st.just(0.0) | _log_uniform(-320, 300), alpha=_log_uniform(-300, 300),
       epsilon=_log_uniform(-160, 160), offset=st.just(0.0) | _log_uniform(-320, 300),
       T=st.integers(0, 10**6),
       kappa_hat=_log_uniform(-300, -1) | st.floats(0, 1, exclude_min=True, exclude_max=True))
# ties y = kappa_hat, where the raised y falls above kappa_hat: the high threshold's
# formula at that y took log1p of -1, or fell below the low threshold's larger value
@example(V0=0.0, alpha=1.0, epsilon=1.0, offset=1 - 2**-52, T=10, kappa_hat=1 - 2**-52)
@example(V0=3.255633e-317, alpha=0.11312156664703327, epsilon=1.0, offset=0.05656078332351665,
         T=10, kappa_hat=0.5)
# horizons past the float range, which count as infinite where T itself enters
@example(V0=0.0, alpha=1.0, epsilon=1e200, offset=0.01, T=10**400, kappa_hat=0.5)
@example(V0=1e-300, alpha=1.0, epsilon=1.0, offset=0.9, T=2**1024 - 1, kappa_hat=0.5)
def test_bound_is_never_below_its_exact_value(V0, alpha, epsilon, offset, T, kappa_hat):
    q = BoundQuery(V0=V0, alpha_coef=alpha, epsilon=epsilon, T=T, psi_hat=offset,
                   kappa_hat=kappa_hat)
    raw = finite_horizon_bound(q).raw
    exact = _exact_bound(q, clamp=False)
    # from x = V0/a >= 1 on the high threshold the raw bound is 1, rounded up, not above
    assert decimal.Decimal(raw) >= min(exact, 1)
    assert raw <= float(exact) * (1 + 1e-11) + 2 * math.ulp(0.0)


def test_zero_horizon():
    q = BoundQuery(V0=0.0, alpha_coef=1.0, epsilon=1.0, T=0, psi_hat=0.01, kappa_hat=0.1)
    assert finite_horizon_bound(q).probability == 0.0
    q = BoundQuery(V0=0.3, alpha_coef=1.0, epsilon=1.0, T=0, psi_hat=0.01, kappa_hat=0.1)
    assert finite_horizon_bound(q).probability == pytest.approx(0.3, abs=1e-15)


def test_branch_boundary_value():
    # at a = psi_hat / kappa_hat with V0 = 0.3 a, T = 5, kappa = 0.2 both
    # branch formulas evaluate to 1 - 0.7 * 0.8**5 = 0.770624
    a, kh, T = 1.0, 0.2, 5
    ph = kh * a
    v0 = 0.3 * a
    assert _case1(v0, a, ph, T) == pytest.approx(0.770624, abs=1e-12)
    assert _case2(v0, a, ph, kh, T) == pytest.approx(0.770624, abs=1e-12)
    res = finite_horizon_bound(
        BoundQuery(V0=v0, alpha_coef=1.0, epsilon=1.0, T=T, psi_hat=ph, kappa_hat=kh)
    )
    assert res.branch == "high_threshold"
    assert res.probability == pytest.approx(0.770624, abs=1e-12)


def test_branch_agreement_random_grid():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        kh = rng.uniform(0.01, 0.99)
        a = rng.uniform(0.1, 10.0)
        ph = kh * a  # boundary
        v0 = rng.uniform(0.0, 2.0) * a
        T = int(rng.integers(0, 200))
        worst = max(worst, abs(_case1(v0, a, ph, T) - _case2(v0, a, ph, kh, T)))
    assert worst <= 1e-12


def test_monotonicity_grid():
    rng = np.random.default_rng(1)
    for _ in range(2500):
        kh = rng.uniform(0.05, 0.95)
        alpha = rng.uniform(0.1, 5.0)
        eps = rng.uniform(0.1, 3.0)
        v0 = rng.uniform(0.0, 5.0)
        ph = rng.uniform(0.0, 1.0)
        T = int(rng.integers(0, 100))

        def bound(v0=v0, eps=eps, ph=ph, T=T):
            return finite_horizon_bound(
                BoundQuery(V0=v0, alpha_coef=alpha, epsilon=eps, T=T,
                           psi_hat=ph, kappa_hat=kh)
            ).probability

        base = bound()
        assert bound(eps=eps * 1.3) <= base + 1e-12          # nonincreasing in eps
        assert bound(v0=v0 + 0.5) >= base - 1e-12            # nondecreasing in V0
        assert bound(ph=ph + 0.2) >= base - 1e-12            # nondecreasing in psi_hat
        assert bound(T=T + 7) >= base - 1e-12                # nondecreasing in T


def test_low_threshold_T_limit():
    q = BoundQuery(V0=0.4, alpha_coef=1.0, epsilon=1.0, T=1_000_000,
                   psi_hat=0.5, kappa_hat=0.2)  # a=1 < 0.5/0.2
    res = finite_horizon_bound(q)
    assert res.branch == "low_threshold"
    assert res.raw == pytest.approx(0.5 / (0.2 * 1.0), abs=1e-9)
    assert res.probability == 1.0  # clamped


def test_low_threshold_tiny_kappa_keeps_offset():
    # (psi_hat / (kappa_hat a)) (1 - (1 - kappa_hat)^T) -> T psi_hat / a as kappa_hat -> 0
    q = BoundQuery(V0=0.0, alpha_coef=1.0, epsilon=1.0, T=10, psi_hat=0.05, kappa_hat=1e-20)
    res = finite_horizon_bound(q)
    assert res.branch == "low_threshold"
    assert res.probability == pytest.approx(10 * 0.05, rel=1e-12)


def test_bound_vanishes_for_large_epsilon():
    probs = [
        finite_horizon_bound(
            BoundQuery(V0=0.2, alpha_coef=1.0, epsilon=eps, T=20,
                       psi_hat=0.05, kappa_hat=0.3)
        ).probability
        for eps in (1.0, 10.0, 100.0, 1e4, 1e200)  # 1e200 squared overflows to inf
    ]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert probs[-1] < 1e-6


def test_infinite_horizon_matches_zero_offset_limit():
    for v0, alpha, eps in [(0.0, 1.0, 1.0), (0.5, 1.0, 0.5), (5.0, 2.0, 1.0)]:
        inf_b = min(v0 / (alpha * eps**2), 1.0)  # the unbounded-horizon supermartingale bound
        fin = finite_horizon_bound(
            BoundQuery(V0=v0, alpha_coef=alpha, epsilon=eps, T=10**6,
                       psi_hat=0.0, kappa_hat=0.5)
        )
        assert inf_b == pytest.approx(fin.probability, abs=1e-12)


def test_psi_hat_examples():
    assert psi_hat(0.0, 0.0, 0.01) == pytest.approx(0.01)
    assert psi_hat(2.0, 3.0, 1.0) == pytest.approx(19.0)
    assert psi_hat(0.0, 0.0, 0.0) == 0.0
    assert psi_hat(2.0, 1e200, 1.0) == float("inf")
    # with no external gain the abstract input does not enter, however large
    assert psi_hat(0.0, 1e155, 0.01) == psi_hat(0.0, 0.0, 0.01) == 0.01
    assert psi_hat(0.0, float("inf"), 0.0) == 0.0


@pytest.mark.parametrize("rho_ext, nuhat_sup, psi", [
    (0.1, 0.3, 0.7), (3.0, 1e-5, 1e-20), (0.7, 1e150, 0.3), (2.0, 3.0, 1.0),
    (1e40, 1e-170, 0.0),  # nuhat_sup**2 underflows to 0
    (1.4954350870919408, 1.0964125470911845e154, 0.0),  # the largest float, but exactly above
])
def test_psi_hat_is_the_least_float_above_the_exact_offset(rho_ext, nuhat_sup, psi):
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.traps[decimal.Inexact] = 5000, True
        D = decimal.Decimal
        exact = D(rho_ext) * D(nuhat_sup) ** 2 + D(psi)
    offset = psi_hat(rho_ext, nuhat_sup, psi)
    assert D(math.nextafter(offset, 0.0)) < exact <= D(offset)


def test_domain_errors():
    with pytest.raises(DomainError):
        BoundQuery(V0=0.0, alpha_coef=1.0, epsilon=0.0, T=1, psi_hat=0.0, kappa_hat=0.5)
    with pytest.raises(DomainError):
        BoundQuery(V0=0.0, alpha_coef=1.0, epsilon=1.0, T=1, psi_hat=0.0, kappa_hat=1.5)
    with pytest.raises(DomainError):
        BoundQuery(V0=-1.0, alpha_coef=1.0, epsilon=1.0, T=1, psi_hat=0.0, kappa_hat=0.5)
    with pytest.raises(DomainError):
        BoundQuery(V0=0.0, alpha_coef=1.0, epsilon=1.0, T=-3, psi_hat=0.0, kappa_hat=0.5)


def test_clamping_flags():
    res = finite_horizon_bound(
        BoundQuery(V0=5.0, alpha_coef=1.0, epsilon=1.0, T=3, psi_hat=0.01, kappa_hat=0.5)
    )
    assert res.raw > 1.0
    assert res.probability == 1.0
    assert res.clamped


@pytest.mark.parametrize("field", ["V0", "alpha_coef", "epsilon", "psi_hat", "kappa_hat"])
def test_nan_inputs_rejected(field):
    args = dict(V0=0.0, alpha_coef=1.0, epsilon=1.0, T=1, psi_hat=0.0, kappa_hat=0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            BoundQuery(**{**args, field: bad})
