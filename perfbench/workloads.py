"""Seeded inputs, operations and output checks of the benchmark's workloads.

Every input is generated from the workload seed through simcert's public API
and written to the run's work directory before timing starts; the program
sees only those files and its argv.  An operation (op) is one ``simcert``
command run in-process through ``simcert.cli.main`` with its output captured,
or one library call where no command does the work (certificate synthesis on
random systems).  A workload repeats the same cycle of ops, so every output
must repeat exactly and every per-cycle count must too.
"""

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import simcert
from simcert import cli, reference, spsf
from simcert.project import SCHEMA_VERSION

# Text the program must print.  A missing line fails the op.
PAPER_PASS = "all constants reproduced"
SOUND_PASS = "soundness: PASS"
MISMATCH = "MISMATCH"
VIOLATION_PREFIX = "empirical violation estimate:"


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs ``FULL``, its smoke test ``TOY``."""

    paper_trials: int = 10_000
    ring_n: int = 64
    ring_trials: int = 500
    csv_trials: int = 2_000
    horizon: int = 10
    synth_systems: int = 200
    synth_max_n: int = 25


FULL = Sizes()
TOY = Sizes(
    paper_trials=50, ring_n=6, ring_trials=50, csv_trials=50, synth_systems=6, synth_max_n=5
)


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` does the work, ``check`` returns an error or None.

    ``kind`` is 'cli' for a command and 'lib' for a library call; ``work`` is
    what the op contributes to the workload's rate (trials, or one synthesis
    attempt), 0 when it contributes nothing.
    """

    label: str
    kind: str
    work: int
    call: Callable[[], object]
    check: Callable[[object], str | None]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``simcert <argv>`` in-process; returns the exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _line(text: str, prefix: str) -> str | None:
    return next((ln for ln in text.splitlines() if ln.startswith(prefix)), None)


def ring_project(n: int, trials: int, horizon: int, seed: int) -> simcert.ProjectFile:
    """Ring ``i -> i+1 mod n`` of copies of the bundled reference subsystem.

    Each copy keeps the reference candidate and certificate, so every
    certificate passes and the composition stays feasible at any ``n``.
    """
    sub = reference.reference_subsystems()[0]
    cand = reference.reference_candidates()[0]
    cert = reference.reference_certificates()[0]
    (row,) = sub.C_int.values()
    subs = tuple(
        simcert.LinearSubsystem(
            id=i, A=sub.A, B=sub.B, D=sub.D, F=sub.F, C_ext=sub.C_ext, C_int={(i + 1) % n: row}
        )
        for i in range(n)
    )
    topology = simcert.Topology.from_pairs(subs, [(i, (i + 1) % n) for i in range(n)])
    candidates = {
        s.id: simcert.AbstractionCandidate.induced(
            s, P=cand.P, Ahat=cand.Ahat, Bhat=cand.Bhat, Dhat=cand.Dhat
        )
        for s in subs
    }
    return simcert.ProjectFile(
        schema_version=SCHEMA_VERSION,
        subsystems=subs,
        topology=topology,
        candidates=candidates,
        certificates={i: cert for i in range(n)},
        run=simcert.RunDefaults(horizon=horizon, trials=trials, seed=seed, epsilon=1.0),
    )


@dataclass(frozen=True)
class SynthesisCase:
    system: simcert.LinearSubsystem
    candidate: simcert.AbstractionCandidate
    pi: float
    kappa_hat: float


def synthesis_cases(seed: int, count: int, max_n: int) -> list[SynthesisCase]:
    """Random systems with ``n <= max_n`` states; even cases have a square ``B``.

    Square ``B`` takes synthesis through the shrinkage path, the others
    through the Riccati (DARE) path.  The candidate is the system itself
    (``P = I``), so a returned ``(M, K)`` must pass every condition.
    """
    rng = np.random.default_rng([seed, 7])
    cases = []
    for case in range(count):
        n = int(rng.integers(1, max_n + 1))
        m = n if case % 2 == 0 else int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((int(rng.integers(1, 4)), n))
        pi = float(rng.uniform(0.2, 2.0))
        kappa_hat = float(rng.uniform(0.05, 0.95))
        s = simcert.LinearSubsystem(
            id=0, A=A, B=B, D=rng.standard_normal((n, 1)),
            F=0.1 * rng.standard_normal((n, 1)), C_ext=C,
        )
        cand = simcert.AbstractionCandidate.induced(
            s, P=np.eye(n), Ahat=s.A, Bhat=s.B, Dhat=s.D, Fhat=s.F
        )
        cases.append(SynthesisCase(s, cand, pi, kappa_hat))
    return cases


class Workload:
    """Inputs and op cycle of one workload.

    ``setup_file`` is the project a fresh interpreter loads when set-up time
    is measured (None: import only).  ``noise_dims`` maps a noise-stream key
    ``2 * subsystem + abstract`` to that side's noise dimension.
    ``memory_bound`` ops keep wall-clock times (see ``bench``).
    """

    name = ""
    memory_bound = False
    setup_file: Path | None = None
    noise_dims: dict[int, int] = {}

    def __init__(self, workdir: Path, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self._first: dict[str, object] = {}

    def untimed(self) -> list[Op]:
        """Ops run once before timing starts."""
        return []

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def same(self, key: str, value) -> str | None:
        """Error unless ``value`` equals the first value seen under ``key``."""
        first = self._first.setdefault(key, value)
        return None if value == first else f"{key} differs between repeats: {value!r} != {first!r}"

    def simulation_check(self, key: str, rc: int, out: str, *required: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        for text in (SOUND_PASS, *required):
            if text not in out:
                return f"output lacks {text!r}"
        line = _line(out, VIOLATION_PREFIX)
        if line is None:
            return "output lacks the violation line"
        return self.same(key, line)

    @staticmethod
    def noise_dims_of(project: simcert.ProjectFile) -> dict[int, int]:
        dims = {}
        for s in project.subsystems:
            dims[2 * s.id] = s.q
            dims[2 * s.id + 1] = project.candidate_for(s.id).Fhat.shape[1]
        return dims


class PaperMC(Workload):
    """``paper-example`` Monte Carlo on the bundled 4 x 25-state ring."""

    name = "paper-mc"

    def __init__(self, workdir, seed, sizes):
        super().__init__(workdir, seed, sizes)
        self.noise_dims = self.noise_dims_of(reference.reference_project())
        self.argv = ["paper-example", "--trials", str(sizes.paper_trials), "--seed", str(seed)]

    def _check(self, result) -> str | None:
        rc, out = result
        if MISMATCH in out:
            return f"output reports a {MISMATCH}"
        return self.simulation_check("violation line", rc, out, PAPER_PASS)

    def cycle(self, index):
        return [Op("paper-example", "cli", self.sizes.paper_trials,
                   lambda: run_cli(self.argv), self._check)]


class Ring64(Workload):
    """``simulate`` on a ring of ``ring_n`` reference subsystems.

    Each step multiplies the dense ``(N n)^2`` matrix, 20 MB at N = 64, so the
    op is bound by memory bandwidth and feels about half of the speed probe's
    swing.  Over ten seeds its wall-clock spread was 5%, its probe-scaled
    spread 13%: scaling would add noise.
    """

    name = "ring-64"
    memory_bound = True

    def __init__(self, workdir, seed, sizes):
        super().__init__(workdir, seed, sizes)
        project = ring_project(sizes.ring_n, sizes.ring_trials, sizes.horizon, seed)
        self.setup_file = workdir / "ring64.json"
        simcert.save_project(project, self.setup_file)
        self.noise_dims = self.noise_dims_of(project)
        self.argv = [
            "simulate", "--project", str(self.setup_file), "--trials", str(sizes.ring_trials),
            "--horizon", str(sizes.horizon), "--seed", str(seed),
        ]

    def _check(self, result) -> str | None:
        return self.simulation_check("violation line", *result)

    def cycle(self, index):
        return [Op("simulate", "cli", self.sizes.ring_trials,
                   lambda: run_cli(self.argv), self._check)]


class RefCSV(Workload):
    """``simulate --csv`` on the reference network: recording and the CSV write.

    One untimed ``--workers 2`` run fixes the expected CSV digest, so every
    timed run must also match across worker counts.
    """

    name = "ref-csv"

    def __init__(self, workdir, seed, sizes):
        super().__init__(workdir, seed, sizes)
        project = reference.reference_project()
        self.setup_file = workdir / "ref.json"
        simcert.save_project(project, self.setup_file)
        self.noise_dims = self.noise_dims_of(project)
        self.csv = workdir / "out.csv"
        self.argv = [
            "simulate", "--project", str(self.setup_file), "--trials", str(sizes.csv_trials),
            "--horizon", str(sizes.horizon), "--seed", str(seed), "--csv", str(self.csv),
        ]

    def _run(self, extra: list[str]):
        self.csv.unlink(missing_ok=True)
        rc, out = run_cli(self.argv + extra)
        digest = hashlib.sha256(self.csv.read_bytes()).hexdigest() if self.csv.exists() else None
        return rc, out, digest

    def _check(self, result) -> str | None:
        rc, out, digest = result
        error = self.simulation_check("violation line", rc, out)
        if error is None and digest is None:
            error = "no CSV written"
        return error or self.same("CSV sha256", digest)

    def untimed(self):
        return [Op("simulate --workers 2", "cli", 0, lambda: self._run(["--workers", "2"]),
                   self._check)]

    def cycle(self, index):
        return [Op("simulate", "cli", self.sizes.csv_trials, lambda: self._run([]), self._check)]


class Certify(Workload):
    """Synthesis on random systems, then abstract/check/compose/bound on the ring."""

    name = "certify"

    def __init__(self, workdir, seed, sizes):
        super().__init__(workdir, seed, sizes)
        project = ring_project(sizes.ring_n, sizes.ring_trials, sizes.horizon, seed)
        self.setup_file = workdir / "ring64.json"
        simcert.save_project(project, self.setup_file)
        self.output = workdir / "tmp.json"
        self.cases = synthesis_cases(seed, sizes.synth_systems, sizes.synth_max_n)

    @staticmethod
    def _synthesize(case: SynthesisCase):
        s = case.system
        try:
            M, K = spsf.synthesize_MK(
                s.A, s.B, s.output_matrix(), case.pi, case.kappa_hat, tol=1e-9
            )
        except simcert.Infeasible:
            return None  # an honest outcome, not a failure
        cert = simcert.AbstractionCertificate(
            M=M, K=K, P=np.eye(s.n), Q=np.zeros((s.m, s.n)), S=np.zeros((s.m, s.p)),
            Rtilde=np.eye(s.m), pi=case.pi, kappa_hat=case.kappa_hat,
        )
        return spsf.check_conditions(s, case.candidate, cert, tol=1e-9)

    @staticmethod
    def _synth_check(report) -> str | None:
        if report is None or report.passed:
            return None
        return "synthesized certificate fails check_conditions:\n" + report.render()

    def _cmd(self, label: str, argv: list[str], required: str, repeat_prefix: str | None = None):
        def check(result) -> str | None:
            rc, out = result
            if rc != 0:
                return f"{label}: exit code {rc}"
            if required not in out:
                return f"{label}: output lacks {required!r}"
            if repeat_prefix is not None:
                return self.same(f"{label} line", _line(out, repeat_prefix))
            return None

        return Op(label, "cli", 0, lambda: run_cli(argv), check)

    def cycle(self, index):
        ring = str(self.setup_file)
        sub = (self.seed + index) % self.sizes.ring_n
        ops = [
            Op("synthesize", "lib", 1, lambda case=case: self._synthesize(case), self._synth_check)
            for case in self.cases
        ]
        return ops + [
            self._cmd("abstract", ["abstract", "--project", ring, "--subsystem", str(sub),
                                   "--output", str(self.output)], "certificate written to"),
            self._cmd("check", ["check", "--project", ring], "result: all certificates pass"),
            self._cmd("compose", ["compose", "--project", ring], "composed:",
                      "spectral radius"),
            self._cmd("bound", ["bound", "--project", ring, "--epsilon", "1",
                                "--horizon", str(self.sizes.horizon)], "closeness:", "P(sup"),
        ]


WORKLOADS = {w.name: w for w in (PaperMC, Ring64, RefCSV, Certify)}
