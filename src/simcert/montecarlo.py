"""Coupled Monte Carlo simulation of a concrete interconnection and its abstraction.

Each trial runs the concrete network and its abstraction side by side from
zero states: the internal inputs are routed from the respective internal
outputs, the abstract external input is zero, and the concrete input is refined
through the per-subsystem interface functions.  (The analytic bound also covers
a nonzero abstract input; no run simulates one.)  Noise comes from the
counter-based Philox generator: each ``(seed, subsystem id, concrete/abstract)``
side has one key, and a trial's draws are the counter range that its index
selects within that side's stream.  Each side caches one generator, one state
record and one lock; a trial's call rewrites only the record's counter and
assigns it, so the bits are those of a fresh generator there, and drawing is
thread-safe.  Trials are stepped in blocks of a fixed width, so a trial's bits
are a function of the run configuration, its trial index, numpy's build and the
BLAS kernel: the first ``t`` trials of a longer run equal a ``t``-trial run.  A
run returns its per-trial supremum deviations, trial ``t`` in row ``t``;
:func:`violation_probability` reduces them to the empirical violation frequency
and its exact one-sided confidence bound.
"""

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .errors import DimensionMismatch, SchemaError
from .model import LinearSubsystem, Topology, _offsets
from .project import RunDefaults
from .spsf import AbstractionCandidate, AbstractionCertificate, check_fit

__all__ = [
    "ViolationEstimate",
    "noise_stream",
    "simulate_pair",
    "violation_probability",
]


@functools.lru_cache(maxsize=4096)
def _side_generator(seed: int, subsystem_id: int, abstract: bool):
    """What one (seed, subsystem, side) caches, built once: its Philox generator,
    the state record that positions it (key, counter slot, empty output buffer)
    and the lock that a call holds while it positions and draws."""
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(subsystem_id, int(abstract)))))
    key = tuple(int(k) for k in gen.bit_generator.state["state"]["key"])
    # an empty output buffer, as a fresh Philox starts; a call sets only the counter
    record = {"bit_generator": "Philox", "state": {"counter": None, "key": key},
              "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    # a lock of its own: a draw takes the generator's lock, which need not be reentrant
    return gen, record, threading.Lock()


def noise_stream(seed: int, trial: int, subsystem_id: int, abstract: bool, out: np.ndarray
                 ) -> np.ndarray:
    """Fill ``out`` with the standard normals of one (trial, subsystem, side) and return it.

    The draws are the side's counter-based Philox stream, keyed by
    ``SeedSequence(seed, spawn_key=(subsystem_id, int(abstract)))``, from counter
    ``(0, trial, 0, 0)``: each trial owns ``2**64`` counter blocks of its side's
    stream, so distinct trials and sides give statistically independent
    streams, and trial 0 starts the side's plain keyed stream.  A side caches
    its generator, its state record and its lock; under the lock, each call
    writes the trial's counter into the record and assigns the record, which
    positions the generator there with an empty output buffer.  The bits equal
    a fresh ``Philox``'s at that counter, whatever was drawn before, and
    concurrent calls are thread-safe.  ``trial`` must satisfy ``0 <= trial < 2**64``.
    """
    trial = operator.index(trial)
    if not 0 <= trial < 2**64:
        raise ValueError(f"trial must be in [0, 2**64): {trial}")
    gen, record, lock = _side_generator(seed, subsystem_id, bool(abstract))
    with lock:
        record["state"]["counter"] = (0, trial, 0, 0)
        gen.bit_generator.state = record
        return gen.standard_normal(out=out)


def _row_block(rows: slice, terms) -> tuple[slice, np.ndarray, np.ndarray]:
    """``(rows, cols, L)``: a row block of an operator over only the columns it reads.

    ``terms`` lists ``(start, M)`` pairs, each adding ``M`` to the global
    columns ``start : start + M.shape[1]``, in order; two terms' column ranges
    are equal or disjoint.  ``L`` is built over the union of those columns in
    ascending order, and columns that sum to zero are dropped.
    """
    cols = np.unique(np.concatenate([np.arange(j, j + M.shape[1]) for j, M in terms]))
    L = np.zeros((rows.stop - rows.start, len(cols)))
    for j, M in terms:
        at = int(np.searchsorted(cols, j))
        L[:, at : at + M.shape[1]] += M
    keep = L.any(axis=0)
    return rows, cols[keep], np.ascontiguousarray(L[:, keep])


def _apply(blocks, z: np.ndarray, out: np.ndarray) -> None:
    """``out[rows] = L @ z[cols]`` for every row block, trials as columns."""
    for rows, cols, L in blocks:
        np.matmul(L, z[cols], out=out[rows])


class _PairSimulator:
    """Row-blocked closed-loop operators of the coupled concrete/abstract pair.

    Substituting the interface function, with a zero abstract input, into the
    subsystem recursions leaves, per step, a linear map of the stacked pair
    column ``z = [x; xhat; h; hhat; w; what]`` (states, outputs, concrete and
    abstract noise) to the next ``[x; xhat]``.  ``h`` holds each subsystem's
    full output ``[C_ext_j; C_int_j of each out-edge] x_j`` and ``hhat`` the
    abstraction's, which is the candidates wired by the concrete topology's own
    pairs (their output blocks are ``C P``, so each omega slice is the concrete
    one).  Both maps are one
    row block per subsystem and side: an output block reads its own state, and
    a step block its own state and noise and the internal-output rows routed to
    it, never a neighbour's state, so set-up and a step grow with
    ``sum_i n_i (n_i + internal-input rows + ...)``.
    :meth:`run_block` iterates the maps for a block of trials, one per column.
    """

    def __init__(self, subsystems, topo, candidates, certs):
        candidates, certs = tuple(candidates), tuple(certs)
        if not (len(subsystems) == len(candidates) == len(certs)):
            raise DimensionMismatch("subsystem, candidate and certificate counts differ")
        subs = tuple(subsystems)
        for s, cand, cert in zip(subs, candidates, certs):
            check_fit(s, cand, **vars(cert))
        abs_subs = tuple(c.as_subsystem(s) for s, c in zip(subs, candidates))
        in_edges = model.assemble_interconnection(subs, topo)

        self.n_tot = sum(s.n for s in subs)
        self.q_dims = [s.q for s in subs]
        self.qhat_dims = [a.q for a in abs_subs]
        self.ids = [s.id for s in subs]
        # column ranges of z
        self.x = slice(0, self.n_tot)
        self.xh = slice(self.n_tot, self.n_tot + sum(a.n for a in abs_subs))
        # first column of each subsystem's block in every part of z
        x_at = _offsets(s.n for s in subs)
        xh_at = [self.xh.start + j for j in _offsets(a.n for a in abs_subs)]
        # h, then hhat: per subsystem one block over its own state, and per
        # side the row of z where each edge's internal output starts
        sent = [[] for _ in subs]  # per source, its out-edges, which both sides share
        for e, _ in (edge for edges in in_edges for edge in edges):
            sent[e.source].append(e)
        self.output_blocks, edge_at, at = [], [], self.xh.stop
        for side, starts in ((subs, x_at), (abs_subs, xh_at)):
            edge_at.append({})
            for s, j, out in zip(side, starts, sent):
                H = np.vstack([s.C_ext, *(s.C_int[e.target] for e in out)])
                self.output_blocks.append((slice(at, at + len(H)), slice(j, j + s.n), H))
                at += s.r
                for e in out:
                    edge_at[-1][e], at = at, at + len(s.C_int[e.target])
        y = [np.arange(rows.start, rows.start + s.r)
             for (rows, _, _), s in zip(self.output_blocks, (*subs, *abs_subs))]
        self.y, self.yh = np.concatenate(y[: len(subs)]), np.concatenate(y[len(subs) :])
        self.w = slice(at, at + sum(self.q_dims))
        self.wh = slice(self.w.stop, self.w.stop + sum(self.qhat_dims))
        self.width = self.wh.stop
        w_at = [self.w.start + j for j in _offsets(self.q_dims)]
        wh_at = [self.wh.start + j for j in _offsets(self.qhat_dims)]
        omega, omegahat = edge_at
        # stepped in place: a block gathers its columns before it writes its state rows, which
        # only it reads, but for xhat_i, also read by concrete block i, listed just before it
        self.step_blocks = []
        for i, (s, a, c) in enumerate(zip(subs, abs_subs, certs)):
            edges = [e for e, _ in in_edges[i]]
            BS = s.B @ c.S
            # x_i+ = A_i x_i + D_i omega_i + B_i nu_i + F_i w_i with the refined input
            # nu_i = K_i (x_i - P_i xhat_i) + Q_i xhat_i + S_i omegahat_i
            self.step_blocks.append(_row_block(slice(x_at[i], x_at[i] + s.n), [
                (x_at[i], s.A),
                *((omega[e], s.D[:, e.start : e.stop]) for e in edges),
                (x_at[i], s.B @ c.K),
                (xh_at[i], s.B @ (c.Q - c.K @ c.P)),
                *((omegahat[e], BS[:, e.start : e.stop]) for e in edges),
                (w_at[i], s.F),
            ]))
            # xhat_i+ = Ahat_i xhat_i + Dhat_i omegahat_i + Fhat_i what_i
            self.step_blocks.append(_row_block(slice(xh_at[i], xh_at[i] + a.n), [
                (xh_at[i], a.A),
                *((omegahat[e], a.D[:, e.start : e.stop]) for e in edges),
                (wh_at[i], a.F),
            ]))
        # trials per block: a step makes one call per row block, so a fixed
        # count keeps the call overhead per trial from growing with the
        # network, while a block's memory grows only with the pair column.
        # Every block is stepped at this width, the last one padded with zero
        # columns: a column's product then does not depend on how many trials
        # share its block.
        self.block = 256

    def _noise(self, cfg: RunDefaults, trials: range, out: np.ndarray) -> None:
        """Write the draws of a block of trials into ``out``, ``(T, q_tot + qhat_tot, c)``
        with ``c >= len(trials)``, like the rows ``[w; what]`` of ``z``.

        Every trial draws its own substreams, whatever block it runs in, into
        its row of one side's buffer; the columns past the block's trials are
        zero.  A side with ``q == 0`` draws nothing and builds no stream.
        """
        cols, T = len(trials), cfg.horizon
        out[:, :, cols:] = 0.0
        sides = [(sid, False) for sid in self.ids] + [(sid, True) for sid in self.ids]
        dims = self.q_dims + self.qhat_dims
        buffer = np.empty(cols * T * max(dims))  # every side's draws in turn
        for (sid, abstract), start, q in zip(sides, _offsets(dims), dims):
            if q:
                draws = buffer[: cols * T * q].reshape(cols, T, q)
                for row, trial in zip(draws, trials):
                    noise_stream(cfg.seed, trial, sid, abstract, row)
                out[:, start : start + q, :cols] = draws.transpose(1, 2, 0)

    @np.errstate(over="ignore", invalid="ignore")  # a diverging run's deviation is non-finite
    def run_block(self, trials: range, cfg: RunDefaults, noise: np.ndarray, z: np.ndarray,
                  sup: np.ndarray, outputs: tuple | None = None) -> None:
        """Step ``trials`` (at most :attr:`block`) together from zero states, one per column,
        on ``noise`` shaped like :meth:`_noise` writes it and the pair column ``z``,
        ``(width, block)``, stepped in place, folding each step's deviations into ``sup``,
        the block's rows, as it is taken, and its outputs into ``outputs = (y, yh)``, each
        ``(c, T+1, r)``. The noise rows of ``z`` past ``noise``'s ``c`` columns stay zero."""
        T, cols = cfg.horizon, len(trials)
        z.fill(0.0)
        for k in range(T + 1):
            if k:
                z[self.w.start :, : noise.shape[2]] = noise[k - 1]
                _apply(self.step_blocks, z, z)
            _apply(self.output_blocks, z, z)
            # the whole width, so that a column's sum does not depend on the trial count
            y, yh = z[self.y], z[self.yh]
            np.maximum(sup, np.linalg.norm(y - yh, axis=0)[:cols], out=sup)
            if outputs is not None:
                outputs[0][:cols, k], outputs[1][:cols, k] = y[:, :cols].T, yh[:, :cols].T


def simulate_pair(
    subsystems: Sequence[LinearSubsystem],
    topology: Topology,
    candidates: Sequence[AbstractionCandidate],
    certificates: Sequence[AbstractionCertificate],
    cfg: RunDefaults,
    each_block=None,
) -> np.ndarray:
    """Run all trials of the coupled pair; return their ``(trials,)`` supremum deviations.

    ``candidates`` and ``certificates`` are in subsystem order; the abstract
    network is the candidates wired by ``topology``.  The run reads ``horizon``,
    ``trials`` and ``seed`` of ``cfg``, a checked :class:`~simcert.project.RunDefaults`;
    its ``epsilon`` is for :func:`violation_probability`.  Both networks start from
    zero states, and the abstract input is zero.  Concrete and abstract noises are
    fully independent.  For a fixed config, numpy build and BLAS kernel the
    results are bitwise-reproducible: every trial consumes only its own substreams, and
    trials are stepped in blocks of a fixed size.  ``each_block(trials, y, yh)``, if given,
    gets each block's ``range`` of trials and their concrete and abstract outputs,
    ``(len(trials), T+1, r)`` views of a buffer the next block reuses.  A candidate or
    certificate that does not fit its subsystem raises first, by :func:`~simcert.spsf.check_fit`.
    """
    sim = _PairSimulator(subsystems, topology, candidates, certificates)
    n, T, b = cfg.trials, cfg.horizon, sim.block
    # every array is sized before the first step (numpy: ValueError past the address space)
    try:
        sup = np.zeros(n)  # run_block folds each step's deviations into it
        # a block's noise, pair column and, for a consumer, outputs, reused by the next block
        c = min(n, b)  # noise and output columns: a run of fewer trials than a block holds fewer
        noise, pair = np.empty((T, sim.width - sim.w.start, c)), np.empty((sim.width, b))
        outputs = None if each_block is None else (
            np.empty((c, T + 1, len(sim.y))), np.empty((c, T + 1, len(sim.yh))))
    except (MemoryError, ValueError) as exc:
        raise SchemaError(f"trials={n} and horizon={T} cannot be allocated: {exc}") from None
    for start in range(0, n, b):
        trials = range(n)[start : start + b]
        sim._noise(cfg, trials, noise)
        sim.run_block(trials, cfg, noise, pair, sup[start : start + b], outputs)
        if outputs is not None:
            each_block(trials, outputs[0][: len(trials)], outputs[1][: len(trials)])
    return sup


@dataclass(frozen=True)
class ViolationEstimate:
    """Empirical exceedance frequency with a one-sided 95% upper bound."""

    violations: int
    trials: int
    estimate: float
    upper95: float


def violation_probability(sup: np.ndarray, epsilon: float) -> ViolationEstimate:
    """Fraction of trials whose supremum deviation in ``sup`` is ``>= epsilon`` or
    non-finite, plus its exact (Clopper-Pearson) one-sided 95% upper confidence
    bound, rounded up."""
    n = len(sup)
    if not n:
        raise ValueError("sup must be nonempty")
    x = int(np.count_nonzero(~(sup < epsilon)))
    return ViolationEstimate(violations=x, trials=n, estimate=x / n, upper95=_upper95(x, n))


_U = 2.0**-53  # unit roundoff of a double
# ln k! - ln(sqrt(2 pi k) (k/e)**k) for k < 16, correctly rounded (Loader 2000)
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(k: int) -> float:
    """Loader's ``ln k! - ln(sqrt(2 pi k) (k/e)**k)``, to within ``u`` absolute."""
    if k < 16:
        return _STIRLERR[k]
    kk = k * k  # the Stirling series to its k**-9 term; the next is below 1.1e-16
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k


def _bd0(x: int, m: float) -> tuple[float, float]:
    """Loader's deviance ``x ln(x/m) + m - x`` and a bound on its absolute error,
    counting a relative error ``u`` in ``m`` itself."""
    d = x - m
    if abs(d) < 0.1 * (x + m):  # d is exact here; the series' terms share a sign
        v = d / (x + m)
        s, ej, v2 = d * v, 2 * x * v, v * v
        for j in range(3, 1000, 2):
            ej *= v2
            if s + ej / j == s:
                break
            s += ej / j
        return s, _U * (32 * s + abs(d))
    t = x * math.log(x / m)
    return t - d, _U * (x + 3 * abs(t) + 4 * abs(d) + abs(t - d))


def _binom_cdf(x: int, n: int, p: float) -> tuple[float, float, float]:
    """``P(Bin(n, p) <= x)``, its derivative in ``p`` and a bound on its relative
    error (barring underflow), for ``1 <= x <= n - 2``, ``(x + 2) / (n + 3) <= p < 1``:
    Loader's saddle-point pmf at ``x``, then the smaller terms by their ratios."""
    q = 1.0 - p
    b1, e1 = _bd0(x, n * p)
    b2, e2 = _bd0(n - x, n * q)
    lc = _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x) - b1 - b2
    t = math.exp(lc) * math.sqrt(n / (2 * math.pi * x * (n - x)))
    # n*q also carries q's rounding; the sum for lc, exp, sqrt and products add 12u
    eta = e1 + e2 + _U * (abs(n - x - n * q) + 4 * (b1 + b2) + 12)
    f, df, k = t, -(n - x) / q * t, x
    while k:
        r = k * q / ((n - k + 1) * p)
        t *= r
        f += t
        k -= 1
        # ratios fall with k, so the terms left sum to at most t r / (1 - r)
        if t * r <= (1 - r) * _U * f:
            break
    # term x - j is off by (5j)u at most, the sum by one u per term, the remainder u
    return f, df, eta + _U * (6 * (x - k + 1) + 1)


def _upper95(x: int, n: int) -> float:
    """The 0.95-quantile of Beta(x + 1, n - x), rounded up by less than 1e-13 relative.

    That quantile is the ``p`` with ``P(Bin(n, p) <= x) = 0.05``. Safeguarded
    Newton steps on ``ln P`` (log-concave in ``p``) bracket it, and a ``p`` is
    accepted only if the computed tail plus its error bound is at most 0.05.
    """
    if x == n:
        return 1.0
    if x == 0 or x == n - 1:
        # (1 - p)**n = 0.05 and p**n = 0.95 in closed form, to within 3 ulps
        up = -math.expm1(math.log(0.05) / n) if x == 0 else math.exp(math.log1p(-0.05) / n)
        for _ in range(4):
            up = math.nextafter(up, 1.0)
        return up
    # below (x + 2) / (n + 3) the tail exceeds 0.19, so the quantile lies above it
    lo = p = (x + 2) / (n + 3)
    hi = 1.0
    for _ in range(100):
        f, df, eta = _binom_cdf(x, n, p)
        e = eta + 16 * _U  # also the float 0.05, the product and the comparison
        lo, hi = (lo, p) if f * (1 + e) <= 0.05 else (p, hi)
        # aim 2e below the cut, so that the step lands on the accepted side
        nxt = p - math.log(f * (1 + 3 * e) / 0.05) * f / df if f else lo
        if hi - lo <= 1e-14 * hi or p == hi and p - nxt <= 1e-14 * p:
            break
        w = (hi - lo) / 16
        p = nxt if lo < nxt < hi else lo + w if nxt <= lo else hi - w
    return hi
