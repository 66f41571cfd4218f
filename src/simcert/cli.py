"""Command-line front end.

Commands
--------
``simcert check``         validate every certificate in a project
``simcert abstract``      complete a certificate for one subsystem
``simcert compose``       run the network gain test and compose constants
``simcert bound``         evaluate the finite-horizon deviation bound
``simcert simulate``      Monte Carlo validation of the bound
``simcert paper-example`` end-to-end regression on the bundled reference network

Exit codes: 0 success, 1 analytic or soundness failure, 2 input/schema error.

The project file format is documented in :mod:`simcert.project`.
"""

import argparse
import dataclasses
import functools
import math
import os
import sys
import time
import warnings
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

import numpy as np

from . import bounds, montecarlo, reference, smallgain, spsf
from .errors import Infeasible, PreconditionViolated, SchemaError, SimcertError
from .model import Topology
from .project import (
    ProjectFile, RunDefaults, check_output, load_project, open_output, save_project, write_json,
)

__all__ = [
    "main",
    "entry",
    "cmd_check",
    "cmd_abstract",
    "cmd_compose",
    "cmd_bound",
    "cmd_simulate",
    "cmd_paper_example",
]


# The project-to-guarantee pipeline, one pass shared by compose, bound, simulate
# and paper-example: _all_constants (checked constants) -> _composition (gain
# test, mu and composed constants, or the infeasible report) -> _bound.


def _per_certificate(fn, project: ProjectFile, ids, *rest) -> dict:
    """``fn(s, candidate, certificate, *rest)`` by id, called once per kind, with the objects
    of its first id among ``ids``: every id of a kind shares that result."""
    kinds, results = project.kinds, {}  # a kind -> its result
    for sid in ids:
        if kinds[sid] not in results:
            results[kinds[sid]] = fn(project.subsystems[sid], project.candidate_for(sid),
                                     project.certificate_for(sid), *rest)
    return {sid: results[kinds[sid]] for sid in ids}


def _all_constants(
    project: ProjectFile, tol: float, reports: dict | None = None
) -> list[spsf.SpsfConstants]:
    """Constants of every certificate, derived only once all pass their check.

    The bound holds only for certificates that satisfy their conditions, so a
    failing certificate stops the pipeline before any guarantee is formed.
    ``reports`` passes on the checks already made at ``tol``, keyed by id.
    """
    ids = [s.id for s in project.subsystems]
    if reports is None:
        reports = _per_certificate(spsf.check_conditions, project, ids, tol)
    failed = [sid for sid in ids if not reports[sid].passed]
    for sid in failed:
        report = reports[sid]
        reasons = [c.name for c in report.checks if not c.passed] + list(report.violations)
        print(f"certificate of subsystem {sid} fails its pre-check: {'; '.join(reasons)}")
    if failed:
        raise PreconditionViolated("a certificate fails its conditions; no guarantee printed")
    return list(_per_certificate(spsf.derive_constants, project, ids).values())


def _composition(constants, topology: Topology, show: bool = False):
    """``(radius of Lambda^-1 Delta, composed certificate)``; ``show`` prints the stage.

    For every caller, a radius >= 1 prints one ``composition INFEASIBLE`` line
    and raises :class:`Infeasible`.
    """
    gains = smallgain.build_gains(constants, topology)
    radius = gains.radius
    if show:
        for name, m in (("Lambda", gains.Lambda), ("Delta", gains.Delta)):
            print(f"{name} =\n{np.array2string(m, precision=4, suppress_small=True)}")
        print(f"spectral radius of Lambda^-1 Delta: {radius:.6f}")
    if radius >= 1.0:
        print("composition INFEASIBLE: spectral radius >= 1")
        raise Infeasible(f"spectral radius {radius:.6f} >= 1; no valid mu exists")
    composed = smallgain.compose(constants, gains, smallgain.find_mu(gains))
    if show:
        print("mu =", np.array2string(composed.mu, precision=6))
        print(f"composed: alpha_coef={composed.alpha_coef:.6g} kappa_hat={composed.kappa_hat:.6g} "
              f"rho_ext={composed.rho_ext_coef:.6g} psi={composed.psi:.6g}")
    return radius, composed


def _bound(composed, epsilon: float, horizon: int, nuhat_sup: float = 0.0):
    """Offset ``psi_hat`` and the finite-horizon bound from zero initial states."""
    offset = bounds.psi_hat(composed.rho_ext_coef, nuhat_sup, composed.psi)
    query = bounds.BoundQuery(
        V0=0.0,
        alpha_coef=composed.alpha_coef,
        epsilon=epsilon,
        T=horizon,
        psi_hat=offset,
        kappa_hat=composed.kappa_hat,
    )
    return offset, bounds.finite_horizon_bound(query)


def _prob(p: float, closeness: bool = False) -> str:
    """The bound ``p`` on a probability, or with ``closeness`` the bound ``1 - p``, for print.

    The exact value (``1 - Decimal(p)``, not ``1.0 - p``) is rounded once to 4
    significant digits, outward: ``p`` up and ``1 - p`` down, so no printed
    digit claims more than was computed.  Below 1e-4 it is printed in e-notation.
    """
    if closeness:  # 1 - p >= 0; copy_abs only drops the sign of 1 - 1 rounded down, -0
        d = Context(prec=4, rounding=ROUND_FLOOR).subtract(1, Decimal(p)).copy_abs()
    else:
        d = Context(prec=4, rounding=ROUND_CEILING).plus(Decimal(p))
    return f"{d:.3e}" if 0 < d < Decimal("1e-4") else f"{d:.{3 - d.adjusted()}f}"


def cmd_check(args) -> int:
    """Check every certificate; 0 iff all conditions hold at ``--tol``."""
    project = load_project(args.project)
    if not project.certificates:
        raise SchemaError("project contains no certificates to check")
    ids = sorted(project.certificates)
    return _print_reports(project, _per_certificate(spsf.check_conditions, project, ids, args.tol))


def _print_reports(project: ProjectFile, reports: dict) -> int:
    """Print each certificate's condition report; 0 iff all pass."""
    kinds, all_pass = project.kinds, True
    # reports cover every certificate, so the first id of each kind: one render per kind
    texts = {sid: report.render() for sid, report in reports.items() if kinds[sid] == sid}
    for sid, report in reports.items():
        print(f"subsystem {sid}:")
        print(texts[kinds[sid]])
        if sid in project.notes:
            print(f"note: {project.notes[sid]}")
        print()
        all_pass &= report.passed
    print("result: " + ("all certificates pass" if all_pass else "certificate check FAILED"))
    return 0 if all_pass else 1


def cmd_abstract(args) -> int:
    """Complete and store the certificate for one subsystem.

    Reuses the certificate the load derived when the project stores one,
    with any new ``--pi`` and ``--kappa-hat`` (``Q``, ``S`` and the
    input-matching gain depend on neither); otherwise synthesizes ``M``/``K``
    for them and completes the certificate.  Writes to ``--output``, by default
    the project file itself.
    """
    project = load_project(args.project)
    sub_id, pi, kappa_hat, tol = args.subsystem, args.pi, args.kappa_hat, args.tol
    output = args.output or args.project
    check_output(output)
    if not 0 <= sub_id < len(project.subsystems):
        raise SchemaError(f"unknown subsystem {sub_id}")
    s = project.subsystems[sub_id]
    cand = project.candidate_for(sub_id)
    existing = project.certificates.get(sub_id)
    if pi is None:
        pi = existing.pi if existing else None
    if kappa_hat is None:
        kappa_hat = existing.kappa_hat if existing else None
    if pi is None or kappa_hat is None:
        raise SchemaError("no existing certificate: --pi and --kappa-hat are required")

    if existing is not None:
        cert = dataclasses.replace(existing, pi=pi, kappa_hat=kappa_hat)
    else:
        M, K = spsf.synthesize_MK(s.A, s.B, s.output_matrix(), pi, kappa_hat, tol=tol)
        cert = spsf.solve_structural(s, cand, M, K, pi, kappa_hat)
    report = spsf.check_conditions(s, cand, cert, tol)

    print(f"subsystem {sub_id}:")
    print(report.render())
    if not report.passed:
        print("certificate does NOT pass; not written", file=sys.stderr)
        return 1
    constants = spsf.derive_constants(s, cand, cert)
    print(
        f"constants: kappa_hat={constants.kappa_hat:.6g} "
        f"rho_int={constants.rho_int_coef:.6g} rho_ext={constants.rho_ext_coef:.6g} "
        f"psi={constants.psi:.6g}"
    )

    updated = dataclasses.replace(project, certificates={**project.certificates, sub_id: cert})
    save_project(updated, output)
    print(f"certificate written to {output}")
    return 0


def cmd_compose(args) -> int:
    """Run the gain test and print the composed certificate constants."""
    project = load_project(args.project)
    output = args.output
    if output is not None:
        check_output(output)
    constants = _all_constants(project, args.tol)
    radius, composed = _composition(constants, project.topology, show=True)
    if output is not None:
        doc = {
            "mu": [float(v) for v in composed.mu],
            "alpha_coef": composed.alpha_coef,
            "kappa_hat": composed.kappa_hat,
            "rho_ext_coef": composed.rho_ext_coef,
            "psi": composed.psi,
            "spectral_radius": radius,
            "constituents": [
                {"subsystem": i, **dataclasses.asdict(c)} for i, c in enumerate(constants)
            ],
        }
        write_json(doc, output)
        print(f"composed certificate written to {output}")
    return 0


def cmd_bound(args) -> int:
    """Evaluate the deviation bound for zero initial states."""
    project = load_project(args.project)
    epsilon, horizon = args.epsilon, args.horizon
    constants = _all_constants(project, args.tol)
    _, composed = _composition(constants, project.topology)
    offset, result = _bound(composed, epsilon, horizon, args.nuhat_sup)
    print(f"psi_hat = {offset:.6g}  branch = {result.branch}  clamped = {result.clamped}")
    print(f"P(sup deviation >= {epsilon:g} within T={horizon}) <= {_prob(result.probability)}")
    print(f"closeness: deviation stays below {epsilon:g} with probability >= "
          f"{_prob(result.probability, closeness=True)}")
    return 0


def cmd_simulate(args) -> int:
    """Monte Carlo soundness check of the analytic bound.

    Fails (exit 1) when the one-sided 95% upper confidence bound of the
    empirical violation frequency exceeds the analytic bound, unless no
    violation was seen: then too few trials were run to test the bound.
    """
    project = load_project(args.project)
    # run settings are input: they are checked before any certificate is
    run = _run_settings(args, project.run)
    if args.csv is not None:
        check_output(args.csv)
    constants = _all_constants(project, args.tol)
    return _simulate(project, constants, run, args.csv)


def _simulate(project: ProjectFile, constants, run: RunDefaults, csv_path) -> int:
    """:func:`cmd_simulate` from the project's checked constants."""
    trials, seed, horizon, epsilon = run.trials, run.seed, run.horizon, run.epsilon
    _, composed = _composition(constants, project.topology)
    _, analytic = _bound(composed, epsilon, horizon)

    subs = project.subsystems
    run_trials = functools.partial(
        montecarlo.simulate_pair, subs, project.topology,
        [project.candidate_for(s.id) for s in subs], [project.certificate_for(s.id) for s in subs],
        montecarlo.RunConfig(horizon=horizon, trials=trials, seed=seed),
    )
    if csv_path is None:
        sup = run_trials()
    else:
        sup = _write_csv(csv_path, run_trials)
        print(f"trajectories written to {csv_path}")
    est = montecarlo.violation_probability(sup, epsilon)

    p = analytic.probability
    print(f"trials={trials} seed={seed} horizon={horizon} epsilon={epsilon:g}")
    print(f"empirical violation estimate: {est.estimate:.4f} "
          f"({est.violations}/{est.trials}), 95% upper bound {_prob(est.upper95)}")
    print(f"analytic bound: {_prob(p)} (branch {analytic.branch})")
    if est.upper95 <= p:
        print("soundness: PASS (empirical <= analytic)")
        return 0
    if est.violations == 0:
        # with no violation the upper bound is 1 - 0.05**(1/n), which falls
        # below p only from n >= ln(0.05) / ln(1 - p) trials
        need = "no number of trials can confirm a bound of 0"
        if p > 0:
            # that count passes 2**53 once p < 3.3e-16, and the float range once p < 1.7e-308
            n = Decimal(math.log(0.05)) / Decimal(math.log1p(-p))
            need = f"at least {math.ceil(n) if n <= 2**53 else format(n, '.3g')} trials are needed"
        print(f"soundness: INCONCLUSIVE (underpowered: "
              f"0 violations in {est.trials} trials; {need})")
        return 0
    print("soundness: FAIL (alarm)")
    return 1


_CSV_CHUNK = 64  # trials formatted by one ``%`` call


def _write_csv(path, run):
    """Return ``run(each_block)``, writing each block of trials it hands out to ``path``.

    A run that raises leaves no rows at ``path``, since a CSV cut off between chunks reads as
    a complete shorter run: a file is removed, a symlink's file emptied; a device, a FIFO or
    the file stdout writes is kept.
    """
    fh = None
    try:
        with open_output(path) as fh:
            return run(functools.partial(_write_block, fh))
    except BaseException:
        if fh not in (None, sys.stdout) and os.path.isfile(path):  # follows a symlink
            if os.path.islink(path):
                os.truncate(path, 0)
            else:
                os.unlink(path)
        raise


@np.errstate(over="ignore", invalid="ignore")  # a diverging run's deviation is non-finite
def _write_block(fh, trials: range, y: np.ndarray, yh: np.ndarray) -> None:
    """The CSV rows of a block of trials, after the header when the block is the first.

    One row per trial and step; the deviation is computed as the run's supremum is.
    Trials are formatted :data:`_CSV_CHUNK` at a time, each chunk by one ``%`` call
    on one trial's row template repeated.  A cell is ``%s`` of its Python float, its
    ``repr``; a cell whose bits are ``+0.0`` (every ``k = 0`` row, and every ``yhat``
    of a noiseless abstraction) is given as ``"0.0"``, which skips the float formatting.
    """
    steps = y.shape[1]
    if not trials.start:
        header = ["trial", "k", *(f"y{i}" for i in range(y.shape[2])),
                  *(f"yhat{i}" for i in range(yh.shape[2])), "deviation"]
        fh.write(",".join(header) + "\n")
    cells = ",%s" * (y.shape[2] + yh.shape[2] + 1)
    template = "".join(f"%d,{k}{cells}\n" for k in range(steps))
    for at in range(0, len(y), _CSV_CHUNK):
        ys, yhs = y[at : at + _CSV_CHUNK], yh[at : at + _CSV_CHUNK]
        values = np.concatenate([ys, yhs, np.linalg.norm(ys - yhs, axis=2)[:, :, None]], axis=2)
        fields = np.empty((len(ys), steps, 1 + values.shape[2]), dtype=object)
        fields[:, :, 0] = np.arange(trials.start + at, trials.start + at + len(ys))[:, None]
        fields[:, :, 1:] = values  # Python floats
        fields[:, :, 1:][values.view(np.int64) == 0] = "0.0"  # +0.0; -0.0 keeps its float
        fh.write((template * len(ys)) % tuple(fields.ravel().tolist()))


def _check_value(label: str, got: float, expected: float, tol: float, failures: list) -> None:
    ok = abs(got - expected) <= tol
    print(f"  {label}: {got:.10g} (expected {expected:g} +/- {tol:g}) "
          f"{'ok' if ok else 'MISMATCH'}")
    if not ok:
        failures.append(label)


def cmd_paper_example(args) -> int:
    """End-to-end regression on the bundled four-subsystem reference network.

    Checks every derived certificate quantity against the published
    values, and reports the known discrepancy in ``S`` (the published
    ``-0.003*ones`` is inconsistent with the internal-input matching, which
    forces ``-0.004*ones``).  The composition stage uses the published gain
    coefficient 0.88, a valid upper bound for the computed 0.8788.
    """
    t0 = time.perf_counter()
    project = reference.reference_project()
    # --trials and --seed; the horizon and epsilon are the reference ones
    run = _run_settings(args, project.run)
    tol = args.tol
    if args.emit_project is not None:
        save_project(project, args.emit_project)
        print(f"reference project written to {args.emit_project}")
    failures: list[str] = []

    print("== certificate check ==")
    reports = _per_certificate(spsf.check_conditions, project, sorted(project.certificates), tol)
    if _print_reports(project, reports) != 0:
        failures.append("certificate check")

    print("\n== per-subsystem reconstruction ==")
    ones = np.ones((reference.STATE_DIM, 1))
    for s in project.subsystems:
        cert = project.certificate_for(s.id)
        for name, coef in (("Q", 1.0), ("Rtilde", 1.0), ("S", reference.S_RECOMPUTED_COEF)):
            if not np.max(np.abs(getattr(cert, name) - coef * ones)) <= 1e-12:  # NaN fails
                failures.append(f"{name} subsystem {s.id}")
        s_gap = np.max(np.abs(cert.S - reference.S_PUBLISHED_COEF * ones))
        if s.id == 0:
            print("  Q = ones, Rtilde = ones reproduced exactly")
            print(f"  S discrepancy vs published value: {s_gap:.6f} per row "
                  f"(recomputed {reference.S_RECOMPUTED_COEF}, "
                  f"published {reference.S_PUBLISHED_COEF})")
            print(f"  note: {reference.S_NOTE}")

    constants = _all_constants(project, tol, reports)
    exp = reference.EXPECTED
    for name in ("rho_int_coef", "psi", "rho_ext_coef"):
        _check_value(name, getattr(constants[0], name), *exp[name], failures)

    print("\n== composition (published gain coefficients) ==")
    # published kappa_hat and rho_int set the gains; psi and rho_ext are the derived ones
    published = reference.published_constants()
    merged = [
        dataclasses.replace(published, rho_ext_coef=d.rho_ext_coef, psi=d.psi)
        for d in constants
    ]
    radius, composed = _composition(merged, project.topology, show=True)
    _check_value("spectral_radius", radius, *exp["spectral_radius"], failures)
    _check_value("composed kappa_hat", composed.kappa_hat, *exp["composed_kappa_hat"], failures)
    _check_value("composed psi", composed.psi, *exp["composed_psi"], failures)

    print("\n== bound ==")
    _, result = _bound(composed, run.epsilon, run.horizon)
    _check_value("bound", result.probability, *exp["bound"], failures)
    print(f"  closeness >= {_prob(result.probability, closeness=True)} over T={run.horizon}")

    print("\n== simulation ==")
    if _simulate(project, constants, run, None) != 0:
        failures.append("simulation soundness")

    elapsed = time.perf_counter() - t0
    print(f"\ntotal runtime: {elapsed:.2f} s")
    if failures:
        print("UNEXPECTED MISMATCHES: " + ", ".join(failures))
        return 1
    print("reference regression: all constants reproduced "
          "(known S discrepancy flagged above)")
    return 0


def _checked(kind, need: str, ok):
    """An argparse type: ``kind(text)``, an input error unless ``ok`` holds for it."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    parse.__name__ = kind.__name__  # names the type in argparse's "invalid ... value"
    return parse


# --tol and --nuhat-sup (an infinite tolerance would pass any certificate),
# bound --epsilon, abstract --pi and --kappa-hat, and bound --horizon
_nonnegative = _checked(float, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
_positive = _checked(float, "finite and > 0", lambda v: math.isfinite(v) and v > 0)
_fraction = _checked(float, "in (0, 1)", lambda v: 0 < v < 1)
_steps = _checked(int, ">= 0", lambda v: v >= 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simcert",
        description="Certified abstractions of interconnected linear stochastic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name, command, help, project=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=command)
        if project:
            p.add_argument("--project", required=True, help="project JSON file")
        p.add_argument("--tol", type=_nonnegative, default=1e-9, help="condition tolerance")
        return p

    add_common("check", cmd_check, "validate certificates")

    p = add_common("abstract", cmd_abstract, "complete a certificate for one subsystem")
    p.add_argument("--subsystem", type=int, required=True)
    p.add_argument("--pi", type=_positive, default=None)
    p.add_argument("--kappa-hat", type=_fraction, default=None)
    p.add_argument("--output", default=None, help="output project file (default: in place)")

    p = add_common("compose", cmd_compose, "small-gain test and composed constants")
    p.add_argument("--output", default=None,
                   help="also write the composed certificate as JSON")

    p = add_common("bound", cmd_bound, "finite-horizon deviation bound")
    p.add_argument("--epsilon", type=_positive, required=True)
    p.add_argument("--horizon", type=_steps, required=True)
    p.add_argument("--nuhat-sup", type=_nonnegative, default=0.0,
                   help="sup norm of the abstract input trajectory")

    p = add_common("simulate", cmd_simulate, "Monte Carlo validation of the bound")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--workers", type=int, default=1, help="has no effect")
    p.add_argument("--csv", default=None, help="write per-step trajectories to CSV")

    p = add_common("paper-example", cmd_paper_example,
                   "regression on the bundled reference network", project=False)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--emit-project", default=None,
                   help="also write the bundled network as a project file")
    return parser


def _run_settings(args, run: RunDefaults | None) -> RunDefaults:
    """Simulation settings: flags override the project's ``run`` defaults.

    A bad value is an input error whether a flag or the project gives it.
    """
    flags = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunDefaults)
        if getattr(args, f.name, None) is not None
    }
    merged = dataclasses.replace(run or RunDefaults(), **flags)
    if not (
        merged.trials >= 1 and merged.horizon >= 0 and merged.seed >= 0
        and math.isfinite(merged.epsilon) and merged.epsilon > 0
    ):
        raise SchemaError(
            f"run needs seed >= 0, trials >= 1 and horizon >= 0, and a finite epsilon > 0, "
            f"got trials={merged.trials} horizon={merged.horizon} seed={merged.seed} "
            f"epsilon={merged.epsilon}"
        )
    return merged


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The console script: :func:`main`, each warning shown as one ``warning:`` line; a
    reader that closes stdout early ends it with exit 1 and nothing on stderr."""
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            code = main()
            sys.stdout.flush()  # a closed pipe raises here, not in the flush at shutdown
        except BrokenPipeError:  # stdout at devnull, so that flush cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
