import dataclasses
import decimal
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    certified_network,
    deviation_covariance,
    empirical_supermartingale_check,
    fresh_python,
    interface,
    omega_slices,
    python_run,
    random_certified_instance,
    recorded_run,
    step,
)

from simcert import montecarlo
from simcert.bounds import BoundQuery, finite_horizon_bound
from simcert.errors import DimensionMismatch
from simcert.model import LinearSubsystem, Topology
from simcert.montecarlo import (
    RunConfig,
    _PairSimulator,
    noise_stream,
    simulate_pair,
    violation_probability,
)
from simcert.project import save_project
from simcert.reference import (
    reference_candidates,
    reference_certificates,
    reference_project,
    reference_subsystems,
)
from simcert.spsf import AbstractionCandidate, AbstractionCertificate


def test_step_examples(ref_parts):
    subs, *_ = ref_parts
    s = subs[0]
    zero = step(s, np.zeros(25), np.zeros(25), [0.0], [0.0])
    assert np.array_equal(zero, np.zeros(25))
    kicked = step(s, np.zeros(25), np.zeros(25), [1.0], [0.0])
    assert np.allclose(kicked, 0.1 * np.ones(25), atol=1e-15)
    v = np.arange(25.0)
    assert np.array_equal(step(s, v, np.zeros(25), [0.0], [0.0]), v)


def _noiseless_reference(ref_parts):
    subs, topo, cands, certs = ref_parts
    quiet = [
        LinearSubsystem(
            id=s.id, A=s.A, B=s.B, D=s.D, F=np.zeros((s.n, 1)), C_ext=s.C_ext,
            C_int=dict(s.C_int),
        )
        for s in subs
    ]
    return quiet, topo, [cands[i] for i in range(4)], [certs[i] for i in range(4)]


def test_noiseless_matched_start_zero_deviation(ref_parts):
    quiet, topo, cands, certs = _noiseless_reference(ref_parts)
    cfg = RunConfig(horizon=8, trials=5, seed=1)
    samples = simulate_pair(quiet, topo, cands, certs, cfg)
    assert samples.shape == (cfg.trials,)
    assert np.all(samples == 0.0)


def _run_impulse(subs, topo, cands, certs, cfg, impulse):
    """``(sup, y, yhat)`` of one trial of ``run_block`` on noise that is ``impulse``
    (the rows ``[w; what]``) at step 0 and zero after it."""
    sim = _PairSimulator(subs, topo, cands, certs)
    noise = np.zeros((cfg.horizon, sim.width - sim.w.start, sim.block))
    noise[0, :, 0] = impulse
    shape = (sim.block, cfg.horizon + 1)
    outputs = np.empty((*shape, len(sim.y))), np.empty((*shape, len(sim.yh)))
    sup = np.zeros(1)
    sim.run_block(range(1), cfg, noise, np.empty((2, sim.width, sim.block)), sup, outputs)
    return sup[0], outputs[0][0], outputs[1][0]


def test_geometric_decay_scalar_pair():
    s = LinearSubsystem(id=0, A=[[0.9]], B=[[1.0]], D=np.zeros((1, 0)),
                        F=np.ones((1, 1)), C_ext=[[1.0]])
    cand = AbstractionCandidate.induced(
        s, P=[[1.0]], Ahat=[[0.9]], Bhat=[[1.0]], Dhat=np.zeros((1, 0))
    )
    cert = AbstractionCertificate(
        M=[[1.0]], K=[[-0.4]], P=[[1.0]], Q=[[0.0]], S=np.zeros((1, 0)),
        Rtilde=[[1.0]], pi=0.5, kappa_hat=0.5,
    )
    cfg = RunConfig(horizon=7, trials=1, seed=0)
    sup, y, yh = _run_impulse([s], Topology(1), [cand], [cert], cfg, [1.0])
    devs = np.linalg.norm(y - yh, axis=1)
    # a unit kick at step 0, then the error recursion e+ = (A + BK) e with A + BK = 0.5
    assert devs[:2].tolist() == [0.0, 1.0]
    for k in range(1, 7):
        assert devs[k + 1] == pytest.approx(0.5 * devs[k], rel=1e-12)
    assert sup == pytest.approx(1.0)


def test_determinism_same_seed(ref_parts):
    subs, topo, cands, certs = ref_parts
    cands = [cands[i] for i in range(4)]
    cfg = RunConfig(horizon=5, trials=20, seed=77)
    a = recorded_run(subs, topo, cands, [certs[i] for i in range(4)], cfg)
    b = recorded_run(subs, topo, cands, [certs[i] for i in range(4)], cfg)
    assert len(a[0]) == len(b[0]) == cfg.trials
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_noise_moments():
    n = 1_000_000
    draws = noise_stream(20240809, 0, 0, abstract=False, out=np.empty(n))
    assert abs(draws.mean()) <= 4 / np.sqrt(n)
    assert abs(draws.var() - 1.0) <= 5 * np.sqrt(2.0 / n)


def test_stream_isolation():
    a = noise_stream(42, 3, 1, abstract=False, out=np.empty(1000))
    b = noise_stream(42, 3, 1, abstract=True, out=np.empty(1000))
    c = noise_stream(42, 4, 1, abstract=False, out=np.empty(1000))
    assert not set(a.tolist()) & set(b.tolist())
    assert not set(a.tolist()) & set(c.tolist())
    # identical keys reproduce the identical stream
    again = noise_stream(42, 3, 1, abstract=False, out=np.empty(1000))
    assert np.array_equal(a, again)


@pytest.mark.parametrize("abstract", [False, True])
def test_noise_stream_is_the_side_stream_at_the_trial_counter(abstract):
    # one Philox key per (seed, subsystem, side); the trial picks the counter range
    seed, sid = 20261018, 3
    side = np.random.SeedSequence(seed, spawn_key=(sid, int(abstract)))
    for trial in (0, 1, 255, 256, 10**6):
        expected = np.random.Generator(np.random.Philox(side, counter=[0, trial, 0, 0]))
        got = noise_stream(seed, trial, sid, abstract, np.empty(50))
        assert np.array_equal(got, expected.standard_normal(50))
    plain = np.random.Generator(np.random.Philox(side))
    assert np.array_equal(noise_stream(seed, 0, sid, abstract, np.empty(50)),
                          plain.standard_normal(50))
    # the last trial's counter word must not pass through a float
    last = np.random.Generator(np.random.Philox(side, counter=(2**64 - 1) << 64))
    assert np.array_equal(noise_stream(seed, 2**64 - 1, sid, abstract, np.empty(50)),
                          last.standard_normal(50))


def test_noise_stream_side_flag_forms_agree():
    draws = [noise_stream(5, 7, 2, flag, np.empty(20)) for flag in (True, 1, np.True_)]
    assert all(np.array_equal(draws[0], d) for d in draws[1:])


@pytest.mark.parametrize("trial", [-1, 2**64])
def test_noise_stream_rejects_trial_out_of_range(trial):
    with pytest.raises(ValueError, match="trial"):
        noise_stream(0, trial, 0, abstract=False, out=np.empty(1))


def test_noise_stream_ignores_earlier_draws():
    # a side's generator is reused, so each call must start at its own counter
    # with an empty buffer: lengths off a multiple of 4 leave a part-used Philox
    # buffer behind, and a trial drawn again must repeat its bits
    calls = [(3, 0, 1, False, 1), (3, 0, 1, False, 3), (3, 5, 1, False, 5),
             (3, 0, 1, True, 4), (3, 5, 1, False, 50), (9, 5, 1, False, 3),
             (3, 5, 1, True, 1), (3, 0, 1, False, 50), (3, 5, 1, False, 5),
             (9, 2**64 - 1, 0, True, 3), (9, 5, 1, False, 4), (3, 1, 1, False, 5)]
    for seed, trial, sid, abstract, n in calls:
        side = np.random.SeedSequence(seed, spawn_key=(sid, int(abstract)))
        # counter (0, trial, 0, 0) as one integer: a list would pass 2**64 - 1 through a float
        fresh = np.random.Generator(np.random.Philox(side, counter=trial << 64))
        got = noise_stream(seed, trial, sid, abstract, np.empty(n))
        assert np.array_equal(got, fresh.standard_normal(n))


def test_noise_stream_is_thread_safe():
    # two threads drawing at once, on one side or on two sides of one seed,
    # get exactly the serial draws
    seed = 11
    jobs = [(trial, 1 + 37 * (trial % 5)) for trial in range(400)]
    for sides in (((2, True), (2, True)), ((2, True), (2, False))):
        serial = [[noise_stream(seed, t, *side, np.empty(n)) for t, n in jobs] for side in sides]
        results = [[None] * len(jobs) for _ in range(2)]
        start = threading.Barrier(2)

        def work(k):
            start.wait()
            # one thread in order and one in reverse, so they draw different trials at once
            for i in range(len(jobs))[:: 1 - 2 * k]:
                t, n = jobs[i]
                results[k][i] = noise_stream(seed, t, *sides[k], np.empty(n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for got, want in zip(results, serial):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_failed_draw_leaves_the_side_exact():
    # a side's state record is reused: an out that numpy refuses after the
    # record is assigned must not leave a half-positioned generator behind
    seed, sid, abstract = 13, 1, False
    side = np.random.SeedSequence(seed, spawn_key=(sid, int(abstract)))
    read_only = np.empty(7)
    read_only.flags.writeable = False
    bad = [(np.empty(7, dtype=np.float32), TypeError),
           (np.empty(14)[::2], ValueError),
           (read_only, ValueError)]
    for trial, (out, error) in enumerate(bad):
        noise_stream(seed, trial, sid, abstract, np.empty(3))  # leaves a part-used buffer
        with pytest.raises(error):
            noise_stream(seed, trial, sid, abstract, out)
        for nxt in (trial, trial + 1):
            fresh = np.random.Generator(np.random.Philox(side, counter=nxt << 64))
            got = noise_stream(seed, nxt, sid, abstract, np.empty(7))
            assert np.array_equal(got, fresh.standard_normal(7))


def test_noise_stream_bits_are_pinned():
    # literal draws: a numpy change to Philox or its normal sampler fails here
    assert noise_stream(0, 0, 0, False, np.empty(5)).tolist() == [
        1.2918689310096432, -0.22764034777211475, 0.8700550434598191,
        -1.2051051590528938, -0.6533087226018734]
    assert noise_stream(7, 2**64 - 1, 3, True, np.empty(5)).tolist() == [
        -0.24603495785211038, -0.07281647852798152, -0.4171743554890813,
        0.8536237570882546, -0.9916711923951388]


def _numpy_blas() -> str:
    """The name of the BLAS that numpy was built with, or ``unknown``."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        return "unknown"


def test_reference_csv_agrees_across_blas_kernels(tmp_path):
    # the CSV's bits depend on the BLAS kernel, whose summation order the stepping
    # products follow; on every kernel the values agree to a few ulps and the
    # violation counts are equal
    blas = _numpy_blas()
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS, whose kernel OPENBLAS_CORETYPE picks")
    net = tmp_path / "net.json"
    save_project(reference_project(), net)
    runs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        csv = tmp_path / "run.csv"
        done = python_run("-m", "simcert.cli", "simulate", "--project", str(net), "--trials",
                          "2000", "--horizon", "10", "--seed", "0", "--csv", str(csv), **kernel)
        assert done.returncode == 0, done.stderr
        runs.append(np.loadtxt(csv, delimiter=",", skiprows=1))
    np.testing.assert_allclose(runs[1], runs[0], rtol=1e-9, atol=0)
    for rows in runs:
        sup = rows[:, -1].reshape(2000, 11).max(axis=1)  # the deviation column, per trial
        counts = [violation_probability(sup, eps).violations for eps in (1.0, 0.1, 0.08)]
        assert counts == [0, 97, 758]


def test_side_keys_derived_once_per_side(ref_parts, monkeypatch):
    # a key and a generator are built once per noisy side and process, not per
    # trial, while every trial still builds one stream per noisy side
    subs, topo, cands, certs = ref_parts
    cands = [cands[i] for i in range(4)]
    noisy_sides = sum(1 for s in subs if s.q > 0) + sum(1 for c in cands if c.Fhat.shape[1])
    assert noisy_sides > 0
    seed_sequence, philox, stream = np.random.SeedSequence, np.random.Philox, montecarlo.noise_stream
    built, generators, streams = [], [], []

    def counting_seed_sequence(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    def counting_philox(*args, **kwargs):
        generators.append(args)
        return philox(*args, **kwargs)

    def counting_stream(*args, **kwargs):
        streams.append(args)
        return stream(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    monkeypatch.setattr(np.random, "Philox", counting_philox)
    monkeypatch.setattr(montecarlo, "noise_stream", counting_stream)
    cfg = RunConfig(horizon=4, trials=300, seed=8191)
    samples = simulate_pair(subs, topo, cands, [certs[i] for i in range(4)], cfg)
    assert len(samples) == cfg.trials
    assert len(built) <= noisy_sides
    assert len(generators) <= noisy_sides
    assert len(streams) == cfg.trials * noisy_sides
    # a second run in the same process reuses every side's generator and record
    del built[:], generators[:], streams[:]
    again = simulate_pair(subs, topo, cands, [certs[i] for i in range(4)], cfg)
    assert np.array_equal(again, samples)
    assert not built and not generators
    assert len(streams) == cfg.trials * noisy_sides


@pytest.mark.parametrize("field, value, error", [
    ("seed", -1, ValueError), ("seed", 1.5, TypeError), ("trials", 2.5, TypeError),
    ("trials", 0, ValueError), ("horizon", 3.0, TypeError), ("horizon", -1, ValueError),
])
def test_run_config_rejects_what_a_run_cannot_use(field, value, error):
    # unchecked, a negative seed fails only at the first noisy draw, inside numpy,
    # and a noiseless network never draws
    settings = dict(horizon=3, trials=2, seed=0) | {field: value}
    with pytest.raises(error, match=field):
        RunConfig(**settings)


def test_run_config_takes_integer_types():
    cfg = RunConfig(horizon=np.int64(3), trials=np.uint8(2), seed=2**70)
    assert (cfg.horizon, cfg.trials, cfg.seed) == (3, 2, 2**70)


def test_violation_probability_examples():
    zero = violation_probability(np.zeros(100), 1.0)
    assert zero.estimate == 0.0
    assert zero.upper95 == pytest.approx(1 - 0.05 ** (1 / 100), rel=1e-9)
    assert violation_probability(np.full(10, 2.0), 1.0).estimate == 1.0
    assert violation_probability(np.array([0.5, 1.5]), 1.0).estimate == 0.5


def test_non_finite_deviation_counts_as_violation():
    # a diverging run overflows to inf, then inf - inf gives nan; neither is
    # "within epsilon"
    est = violation_probability(np.array([np.nan, np.inf, 0.0, 2.0]), 1.0)
    assert (est.violations, est.trials) == (3, 4)


def _cp_upper(x, n):
    return violation_probability((np.arange(n) < x) * 2.0, 1.0).upper95


def _binomial_tail(n, x, p):
    """Exact ``P(Bin(n, p) <= x)`` at the float ``p``, summed by term ratios in
    60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 60, -999_999_999, 999_999_999
        p = decimal.Decimal(p)
        term = total = (1 - p) ** n
        for k in range(x):
            term = term * (n - k) / (k + 1) * p / (1 - p)
            total += term
        return total


# the exact quantile q has tail 0.05: the bound is never below it, and less than 1e-12 above it
CP_GRID = [(n, x) for n in (1, 2, 3, 7, 29, 30, 100, 301, 1000, 10_000)
           for x in sorted({0, 1, n // 3, n // 2, n - 1} - {n})]


@pytest.mark.parametrize("n, x", CP_GRID + [(10**6, 1), (10**6, 2)])
def test_upper_bound_is_the_exact_quantile_rounded_up(n, x):
    upper = _cp_upper(x, n)
    assert _binomial_tail(n, x, upper) <= decimal.Decimal("0.05")
    assert _binomial_tail(n, x, upper * (1 - 1e-12)) > decimal.Decimal("0.05")


# at n = 10**6 and x = 1 or 2, scipy's value is itself 1.6e-12 and 6.3e-12 above
# the exact quantile; the decimal oracle covers those two
@pytest.mark.parametrize("n, x", [(10**5, x) for x in (0, 1, 33_333, 50_000, 99_999)]
                         + [(10**6, x) for x in (0, 333_333, 500_000, 999_999)])
def test_upper_bound_matches_scipy_at_large_n(n, x):
    from scipy.special import betaincinv

    assert _cp_upper(x, n) == pytest.approx(betaincinv(x + 1, n - x, 0.95), rel=1e-12)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(n=st.integers(1, 2000), data=st.data())
def test_upper_bound_is_monotone_and_in_range(n, data):
    x = data.draw(st.integers(0, n))
    upper = _cp_upper(x, n)
    assert x / n <= upper <= 1.0
    if x < n:
        assert _cp_upper(x + 1, n) >= upper
    assert _cp_upper(x, n + 1) <= upper


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, simcert; print('scipy.stats' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_import_leaves_numpy_random_unloaded(tmp_path):
    if fresh_python("import sys, numpy; print('numpy.random' in sys.modules)").strip() == "True":
        pytest.skip("this numpy loads numpy.random with numpy itself")
    path = tmp_path / "net.json"
    save_project(reference_project(), path)
    code = ("import sys, simcert; simcert.load_project(sys.argv[1]); "
            "print('numpy.random' in sys.modules)")
    assert fresh_python(code, str(path)).strip() == "False"


def _naive_pair_trial(subs, topo, cands, certs, cfg, trial, trajectories=False):
    """Independent oracle: explicit per-subsystem routing and stepping from zero
    states with a zero abstract input.

    Returns the supremum deviation, and with ``trajectories`` also the stacked
    concrete and abstract outputs of every step.
    """
    abs_subs = [c.as_subsystem(s) for s, c in zip(subs, cands)]
    xs = [np.zeros(s.n) for s in subs]
    xhs = [np.zeros(a.n) for a in abs_subs]
    nuhats = [np.zeros(a.m) for a in abs_subs]
    noises = [
        noise_stream(cfg.seed, trial, s.id, abstract=False, out=np.empty((cfg.horizon, s.q)))
        for s in subs
    ]
    noises_hat = [
        noise_stream(cfg.seed, trial, a.id, abstract=True, out=np.empty((cfg.horizon, a.q)))
        for a in abs_subs
    ]
    sup = 0.0
    ys, yhs = [], []
    for k in range(cfg.horizon + 1):
        y = np.concatenate([s.C_ext @ xs[i] for i, s in enumerate(subs)])
        yh = np.concatenate([a.C_ext @ xhs[i] for i, a in enumerate(abs_subs)])
        ys.append(y)
        yhs.append(yh)
        sup = max(sup, float(np.linalg.norm(y - yh)))
        if k == cfg.horizon:
            break
        omegas = [np.zeros(s.p) for s in subs]
        omegahats = [np.zeros(a.p) for a in abs_subs]
        for (src, tgt), rows in omega_slices(subs, topo).items():
            omegas[tgt][rows] = subs[src].C_int[tgt] @ xs[src]
            omegahats[tgt][rows] = abs_subs[src].C_int[tgt] @ xhs[src]
        new_x, new_xh = [], []
        for i, s in enumerate(subs):
            nu = interface(xs[i], xhs[i], nuhats[i], omegahats[i], certs[i])
            new_x.append(step(s, xs[i], nu, omegas[i], noises[i][k]))
            new_xh.append(step(abs_subs[i], xhs[i], nuhats[i], omegahats[i], noises_hat[i][k]))
        xs, xhs = new_x, new_xh
    return (sup, np.array(ys), np.array(yhs)) if trajectories else sup


def test_simulate_matches_naive_oracle(ref_parts):
    subs, topo, cands, certs = ref_parts
    cands = [cands[i] for i in range(4)]
    certs_list = [certs[i] for i in range(4)]
    cfg = RunConfig(horizon=7, trials=4, seed=99)
    fast = simulate_pair(subs, topo, cands, certs_list, cfg)
    for t in range(4):
        naive = _naive_pair_trial(subs, topo, cands, certs_list, cfg, t)
        assert fast[t] == pytest.approx(naive, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("seed", [2101, 2104])
def test_simulate_matches_naive_oracle_heterogeneous(seed):
    # mixed state/abstract dimensions exercise the block offsets
    subs, topo, cands, certs, _ = certified_network(seed)
    cfg = RunConfig(horizon=6, trials=3, seed=seed)
    fast = simulate_pair(subs, topo, cands, certs, cfg)
    for t in range(3):
        naive = _naive_pair_trial(subs, topo, cands, certs, cfg, t)
        assert fast[t] == pytest.approx(naive, rel=1e-12, abs=1e-14)


def test_blocked_simulation_matches_oracle_across_block_boundary():
    # abstract noise on some subsystems and q = 0 on the others (concrete
    # q = 0 on the last), and trials on both sides of the first block
    # boundary; the second block holds only two rows
    subs, topo, cands, certs, _ = certified_network(2104)
    rng = np.random.default_rng(17)
    subs[-1] = dataclasses.replace(subs[-1], F=np.zeros((subs[-1].n, 0)))
    for i in range(0, len(subs), 2):
        noisy = 0.2 * rng.standard_normal((cands[i].nhat, 2))
        cands[i] = dataclasses.replace(cands[i], Fhat=noisy)
    assert {c.Fhat.shape[1] for c in cands} == {0, 2}
    block = _PairSimulator(subs, topo, cands, certs).block
    cfg = RunConfig(horizon=6, trials=block + 2, seed=31)
    sup, outputs, abstract_outputs = first = recorded_run(subs, topo, cands, certs, cfg)
    assert len(sup) == block + 2
    shape = (block + 2, cfg.horizon + 1)
    assert outputs.shape[:2] == abstract_outputs.shape[:2] == shape
    for t in (0, block - 2, block - 1, block, block + 1):
        naive = _naive_pair_trial(subs, topo, cands, certs, cfg, t)
        assert sup[t] == pytest.approx(naive, rel=1e-12, abs=1e-14)
        # the abstract noise moves xhat, so Q xhat, S omegahat and Dhat omegahat enter
        assert np.abs(abstract_outputs[t]).max() > 0
    again = recorded_run(subs, topo, cands, certs, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))



def _random_pair_network(rng, dims, rows):
    """Random subsystems with state sizes ``dims``, each ``(source, target)`` key of
    ``rows`` an edge carrying that many internal-output rows, and two-state noisy
    abstractions.  The certificates have the right shapes but certify nothing."""
    p = [sum(k for (_, t), k in rows.items() if t == i) for i in range(len(dims))]
    subs, cands, certs = [], [], []
    for i, n in enumerate(dims):
        s = LinearSubsystem(
            id=i, A=0.5 * rng.standard_normal((n, n)) / np.sqrt(n), B=rng.standard_normal((n, 2)),
            D=0.3 * rng.standard_normal((n, p[i])), F=0.1 * rng.standard_normal((n, 1)),
            C_ext=rng.standard_normal((1, n)),
            C_int={t: 0.5 * rng.standard_normal((k, n)) for (j, t), k in rows.items() if j == i},
        )
        cand = AbstractionCandidate.induced(
            s, P=rng.standard_normal((n, 2)), Ahat=0.3 * rng.standard_normal((2, 2)),
            Bhat=rng.standard_normal((2, 2)), Dhat=0.3 * rng.standard_normal((2, p[i])),
            Fhat=0.1 * rng.standard_normal((2, 1)),
        )
        certs.append(AbstractionCertificate(
            M=np.eye(n), K=0.1 * rng.standard_normal((2, n)), P=cand.P,
            Q=0.1 * rng.standard_normal((2, 2)), S=0.1 * rng.standard_normal((2, p[i])),
            Rtilde=rng.standard_normal((2, 2)), pi=1.0, kappa_hat=0.5,
        ))
        subs.append(s)
        cands.append(cand)
    return subs, Topology.from_pairs(subs, list(rows)), cands, certs


def test_wide_internal_outputs_match_oracle():
    # two-row internal outputs, a source feeding two targets, and a one-state
    # source whose internal-output blocks have two rows each
    rng = np.random.default_rng(29)
    rows = {(0, 1): 2, (0, 2): 2, (1, 0): 2, (2, 1): 1}
    subs, topo, cands, certs = _random_pair_network(rng, [1, 3, 2], rows)
    cfg = RunConfig(horizon=6, trials=3, seed=5)
    res_sup, outputs, abstract_outputs = recorded_run(subs, topo, cands, certs, cfg)
    for t in range(cfg.trials):
        sup, ys, yhs = _naive_pair_trial(subs, topo, cands, certs, cfg, t, trajectories=True)
        assert outputs[t] == pytest.approx(ys, rel=1e-12, abs=1e-14)
        assert abstract_outputs[t] == pytest.approx(yhs, rel=1e-12, abs=1e-14)
        assert res_sup[t] == pytest.approx(sup, rel=1e-12, abs=1e-14)


def test_step_blocks_read_no_neighbour_state():
    # a subsystem reads its neighbours only through their routed internal
    # outputs, so the 40-state neighbours of a ring add one column each
    rng = np.random.default_rng(3)
    subs, topo, cands, certs = _random_pair_network(
        rng, [5, 40, 40, 40], {(i, (i + 1) % 4): 1 for i in range(4)}
    )
    sim = _PairSimulator(subs, topo, cands, certs)
    concrete = [(rows, cols) for rows, cols, _ in sim.step_blocks if rows.stop <= sim.n_tot]
    abstract = [(rows, cols) for rows, cols, _ in sim.step_blocks if rows.start >= sim.n_tot]
    assert len(concrete) == len(abstract) == 4
    for (_, cols), (_, hat_cols), s, c in zip(concrete, abstract, subs, cands):
        assert len(cols) <= s.n + s.p + c.nhat + c.Dhat.shape[1] + s.q
        assert len(hat_cols) <= c.nhat + c.Dhat.shape[1] + c.Fhat.shape[1]


def test_trials_are_a_prefix_of_a_longer_run(ref_parts):
    # every block is stepped at full width, so a trial's bits depend only on
    # the configuration and its index, not on how many trials the run has
    subs, topo, cands, certs = ref_parts
    cands = [cands[i] for i in range(4)]
    certs = [certs[i] for i in range(4)]

    def run(trials):
        return recorded_run(subs, topo, cands, certs, RunConfig(horizon=10, trials=trials, seed=3))

    longer = run(1000)
    for trials in (400, 257):
        shorter = run(trials)
        assert len(shorter[0]) == trials
        # sup, then the concrete and the abstract outputs
        for short, long in zip(shorter, longer):
            assert np.array_equal(short, long[:trials])


def test_abstract_noise_and_recording_match_oracle():
    # abstract noise on every candidate, recorded trajectories and a noiseless
    # concrete side, checked row by row
    subs, topo, cands, certs, _ = certified_network(2101, abstract_noise=True)
    subs[0] = dataclasses.replace(subs[0], F=np.zeros((subs[0].n, 0)))
    cfg = RunConfig(horizon=6, trials=3, seed=41)
    res_sup, res_outputs, res_abstract_outputs = recorded_run(subs, topo, cands, certs, cfg)
    assert len(res_sup) == cfg.trials
    for t in range(cfg.trials):
        sup, ys, yhs = _naive_pair_trial(subs, topo, cands, certs, cfg, t, trajectories=True)
        outputs, abstract_outputs = res_outputs[t], res_abstract_outputs[t]
        assert outputs.shape == ys.shape and abstract_outputs.shape == yhs.shape
        for k in range(cfg.horizon + 1):
            assert outputs[k] == pytest.approx(ys[k], rel=1e-12, abs=1e-14)
            assert abstract_outputs[k] == pytest.approx(yhs[k], rel=1e-12, abs=1e-14)
        assert res_sup[t] == pytest.approx(sup, rel=1e-12, abs=1e-14)
        devs = np.linalg.norm(outputs - abstract_outputs, axis=1)
        assert res_sup[t] == devs.max()


def _reference_ring(N):
    """Ring ``i -> i+1 mod N`` of copies of the reference subsystem and its abstraction."""
    sub = reference_subsystems()[0]
    cand = reference_candidates()[0]
    cert = reference_certificates()[0]
    (row,) = sub.C_int.values()
    subs = [
        LinearSubsystem(id=i, A=sub.A, B=sub.B, D=sub.D, F=sub.F, C_ext=sub.C_ext,
                        C_int={(i + 1) % N: row})
        for i in range(N)
    ]
    topo = Topology.from_pairs(subs, [(i, (i + 1) % N) for i in range(N)])
    cands = [
        AbstractionCandidate.induced(s, P=cand.P, Ahat=cand.Ahat, Bhat=cand.Bhat, Dhat=cand.Dhat)
        for s in subs
    ]
    return subs, topo, cands, [cert] * N


@pytest.mark.parametrize("network", ["reference", "heterogeneous"])
def test_recording_leaves_sup_unchanged(ref_parts, network):
    # recorded and unrecorded runs reduce each step's deviations on one path;
    # 300 trials span two blocks
    if network == "reference":
        subs, topo, cands, certs = ref_parts
        cands, certs = [cands[i] for i in range(4)], [certs[i] for i in range(4)]
    else:
        subs, topo, cands, certs, _ = certified_network(2104)
    cfg = RunConfig(horizon=9, trials=300, seed=13)
    plain = simulate_pair(subs, topo, cands, certs, cfg)
    recorded, outputs, _ = recorded_run(subs, topo, cands, certs, cfg)
    assert outputs.shape[:2] == (300, 10)
    assert plain.tobytes() == recorded.tobytes()


def _horizon_growth(ref_parts, trials: int) -> tuple[int, int]:
    """``(traced peak growth from T = 10 to 400, q_tot + qhat_tot)`` of a reference run."""
    subs, topo, cands, certs = ref_parts
    cands, certs = [cands[i] for i in range(4)], [certs[i] for i in range(4)]
    sim = _PairSimulator(subs, topo, cands, certs)

    def peak(T):
        tracemalloc.start()
        try:
            simulate_pair(subs, topo, cands, certs, RunConfig(horizon=T, trials=trials, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    long = peak(400)  # first, so one-time allocations count against the longer run
    return long - peak(10), sim.width - sim.w.start


def test_run_memory_grows_with_horizon_only_through_noise(ref_parts):
    # deviations are reduced as the steps run, so of a block's arrays only
    # the noise block, (T, q_tot, 256), grows with the horizon
    growth, q_tot = _horizon_growth(ref_parts, 256)
    assert growth <= 1.5 * (400 - 10) * q_tot * 256 * 8


def test_single_trial_run_holds_one_column_of_noise(ref_parts):
    # a run of one trial draws (T, q_tot, 1): its noise is not sized to a whole block
    growth, q_tot = _horizon_growth(ref_parts, 1)
    assert growth <= 1.5 * (400 - 10) * q_tot * 8


def test_step_operators_grow_with_edges():
    # each row block stores only the columns it reads, so a ring twice as long
    # stores exactly twice the entries; dense stepping would store four times
    def stored(N):
        subs, topo, cands, certs = _reference_ring(N)
        sim = _PairSimulator(subs, topo, cands, certs)
        return sum(L.size for _, _, L in sim.step_blocks + sim.output_blocks)

    assert stored(32) == 2 * stored(16)


def test_setup_memory_grows_with_edges():
    # row blocks are built from each subsystem and its in-edges over local
    # columns, so set-up memory about doubles with the ring; keeping dense
    # (N n)^2 closed-loop or routing matrices would quadruple it
    def peak(N):
        subs, topo, cands, certs = _reference_ring(N)
        tracemalloc.start()
        try:
            _PairSimulator(subs, topo, cands, certs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    large = peak(64)  # first, so one-time allocations count against the larger ring
    assert large <= 2.2 * peak(32)


def _deviation_run(network, ref_parts, trials, T):
    """Recorded deviations ``y - yhat`` of a ``trials``-trial run, shaped
    ``(trials, T+1, r)``, and their exact covariances from the matrices alone."""
    if network == "reference":
        subs, topo, cands, certs = ref_parts
        cands, certs = [cands[i] for i in range(4)], [certs[i] for i in range(4)]
    else:
        seed, noisy = network
        subs, topo, cands, certs, _ = certified_network(seed, abstract_noise=noisy)
    cov = deviation_covariance(subs, topo, cands, certs, T)
    sup, outputs, abstract_outputs = recorded_run(
        subs, topo, cands, certs, RunConfig(horizon=T, trials=trials, seed=7))
    return outputs - abstract_outputs, sup, cov


# reference, or (certified_network seed, abstract noise)
NETWORKS = {"reference": "reference", "random-900": (900, False), "random-2104": (2104, False),
            "abstract-noise-2101": (2101, True), "abstract-noise-905": (905, True)}


@pytest.mark.parametrize("network", NETWORKS.values(), ids=NETWORKS.keys())
def test_deviation_second_moments_match_exact_covariance(ref_parts, network):
    # the exact covariance comes from the matrices, not from any noise stream, so
    # a keying defect that an oracle drawing through noise_stream shares shows here
    n = 20_000
    dy, _, cov = _deviation_run(network, ref_parts, n, T=6)
    assert np.array_equal(dy[:, 0], np.zeros_like(dy[:, 0]))
    var = np.diagonal(cov, axis1=1, axis2=2)[1:]
    assert np.all(var > 0)
    moment = (dy[:, 1:] ** 2).mean(axis=0)
    # a zero-mean Gaussian's sample second moment has standard error sqrt(2/n) var
    assert np.all(np.abs(moment - var) <= 5 * np.sqrt(2 / n) * var)


@pytest.mark.parametrize("network", ["reference", (2101, True)],
                         ids=["reference", "abstract-noise-2101"])
def test_trials_are_independent_across_block_edges(ref_parts, network):
    n = 20_000
    dy, sup, cov = _deviation_run(network, ref_parts, n, T=6)
    u = dy[:, -1] / np.sqrt(np.diagonal(cov[-1]))
    for lag in (1, 255, 256, 257):
        corr = (u[:-lag] * u[lag:]).mean(axis=0)
        assert np.all(np.abs(corr) <= 5 / np.sqrt(n)), (lag, corr)
    assert len(np.unique(sup)) == n


@pytest.mark.parametrize("seed", range(900, 920))
def test_bound_soundness_randomized_networks(seed):
    """Deviation-bound soundness on randomized certified interconnections."""
    subs, topo, cands, certs, composed = certified_network(seed)
    T = 10
    # place the threshold where the analytic bound is informative (~0.18)
    epsilon = float(np.sqrt(composed.psi * T / (0.2 * composed.alpha_coef)))
    analytic = finite_horizon_bound(
        BoundQuery(V0=0.0, alpha_coef=composed.alpha_coef, epsilon=epsilon,
                   T=T, psi_hat=composed.psi, kappa_hat=composed.kappa_hat)
    )
    cfg = RunConfig(horizon=T, trials=500, seed=seed)
    samples = simulate_pair(subs, topo, cands, certs, cfg)
    est = violation_probability(samples, epsilon)
    assert est.upper95 <= analytic.probability


def test_empirical_supermartingale_reference(ref_parts):
    subs, _, cands, certs = ref_parts
    result = empirical_supermartingale_check(
        subs[0], cands[0], certs[0], points=40, draws_per_point=2000, seed=12
    )
    assert result.max_gap_se <= 5.0
    assert result.worst_slack <= max(1e-9, 5.0 * result.worst_slack_stderr)


def test_empirical_supermartingale_noiseless_exact():
    rng = np.random.default_rng(31)
    s, cand, cert = random_certified_instance(rng)
    quiet = LinearSubsystem(id=0, A=s.A, B=s.B, D=s.D, F=np.zeros((s.n, 0)), C_ext=s.C_ext)
    result = empirical_supermartingale_check(
        quiet, cand, cert, points=25, draws_per_point=10, seed=3
    )
    assert result.max_gap_se == 0.0  # degenerate draws equal the exact expectation
    assert result.worst_slack <= 1e-9


def test_simulate_pair_rejects_bad_wiring(ref_parts):
    subs, topo, cands, certs = ref_parts
    cands = [cands[i] for i in range(4)]
    certs = [certs[i] for i in range(4)]
    cfg = RunConfig(horizon=2, trials=1, seed=0)
    with pytest.raises(DimensionMismatch, match="counts differ"):
        simulate_pair(subs, topo, cands[:3], certs, cfg)


def test_abstract_internal_inputs_enter_concrete_step():
    # with noise matrices F = I and Fhat = I, an impulse at step 0 puts both
    # networks in arbitrary states, so the next step routes a nonzero omegahat
    # into the refined concrete input, with Q xhat, and through a nonzero Dhat
    # into the abstract step
    subs, topo, cands, certs, _ = certified_network(2101)
    kicked = [dataclasses.replace(s, F=np.eye(s.n)) for s in subs]
    cands = [dataclasses.replace(c, Fhat=np.eye(c.nhat), Dhat=c.Dhat + 0.5) for c in cands]
    abs_subs = [c.as_subsystem(s) for s, c in zip(subs, cands)]
    rng = np.random.default_rng(5)
    xs = [rng.standard_normal(s.n) for s in subs]
    xhs = [rng.standard_normal(a.n) for a in abs_subs]
    cfg = RunConfig(horizon=2, trials=1, seed=0)
    _, y, yh = _run_impulse(kicked, topo, cands, certs, cfg, np.concatenate(xs + xhs))

    omegas = [np.zeros(s.p) for s in subs]
    omegahats = [np.zeros(a.p) for a in abs_subs]
    for (src, tgt), rows in omega_slices(subs, topo).items():
        omegas[tgt][rows] = subs[src].C_int[tgt] @ xs[src]
        omegahats[tgt][rows] = abs_subs[src].C_int[tgt] @ xhs[src]
    expected, expected_hat = [], []
    for i, (s, a) in enumerate(zip(kicked, abs_subs)):
        nuhat = np.zeros(a.m)
        nu = interface(xs[i], xhs[i], nuhat, omegahats[i], certs[i])
        expected.append(s.C_ext @ step(s, xs[i], nu, omegas[i], np.zeros(s.q)))
        expected_hat.append(a.C_ext @ step(a, xhs[i], nuhat, omegahats[i], np.zeros(a.q)))
    assert np.allclose(y[2], np.concatenate(expected), rtol=1e-12, atol=1e-14)
    assert np.allclose(yh[2], np.concatenate(expected_hat),
                       rtol=1e-12, atol=1e-14)
