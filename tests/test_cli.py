import collections
import copy
import csv
import dataclasses
import functools
import gc
import json
import os
import pickle
import stat
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    certified_network, diverging_project, fresh_python, inline, python_env, python_run,
    recorded_run, ring_document, row_by_row_csv,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simcert.project
from simcert import cli, montecarlo, smallgain, spsf
from simcert.cli import main
from simcert.errors import RankDeficientWarning, SingularGramWarning
from simcert.montecarlo import RunConfig, simulate_pair
from simcert.project import (
    ProjectFile, RunDefaults, load_project, project_from_dict, project_to_dict, save_project,
)
from simcert.reference import reference_project


@pytest.fixture()
def project_path(tmp_path):
    path = tmp_path / "net.json"
    save_project(reference_project(), path)
    return path


def test_check_passes(project_path, capsys):
    assert main(["check", "--project", str(project_path)]) == 0
    out = capsys.readouterr().out
    assert "all certificates pass" in out
    assert "note:" in out


def test_check_bad_kappa_exits_1(project_path, capsys):
    doc = json.loads(project_path.read_text())
    doc["certificates"][0]["kappa_hat"] = 1.2
    project_path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(project_path)]) == 1
    assert "kappa_hat out of (0,1)" in capsys.readouterr().out


def test_malformed_project_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1')
    assert main(["check", "--project", str(path)]) == 2


def test_missing_project_exits_2(tmp_path):
    assert main(["check", "--project", str(tmp_path / "nope.json")]) == 2


def test_check_without_certificates_exits_2(project_path, capsys):
    doc = json.loads(project_path.read_text())
    del doc["certificates"]
    project_path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(project_path)]) == 2
    assert capsys.readouterr().err == "error: project contains no certificates to check\n"


def test_compose_reference(project_path, capsys):
    assert main(["compose", "--project", str(project_path)]) == 0
    out = capsys.readouterr().out
    assert "spectral radius" in out
    assert "kappa_hat=0.101" in out  # derived constants: 0.98 - 0.8788


def test_compose_writes_composed_certificate(project_path, tmp_path, capsys):
    out_path = tmp_path / "composed.json"
    assert main(["compose", "--project", str(project_path),
                 "--output", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["mu"] == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-9)
    assert len(doc["constituents"]) == 4
    # a constituent's output bound is ||y - yhat||**2: it carries no alpha_coef
    assert all("alpha_coef" not in c for c in doc["constituents"])
    assert 0 < doc["kappa_hat"] < 1


@pytest.mark.parametrize("command", [
    ["compose"], ["bound", "--epsilon", "1", "--horizon", "10"], ["simulate", "--trials", "50"],
], ids=lambda command: command[0])
def test_infeasible_network_reported_once(project_path, capsys, command):
    # every command that composes reports a failed gain test with the same line;
    # doubling each D and Dhat doubles the derived S with them, keeps every certificate
    # valid (the internal-input equality is linear in the three) and quadruples rho_int,
    # which depends on D alone: radius 3.586941
    doc = inline(json.loads(project_path.read_text()))
    for group, key in (("subsystems", "D"), ("candidates", "Dhat")):
        for entry in doc[group]:
            entry[key] = [[2 * v for v in row] for row in entry[key]]
    project_path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(project_path)]) == 0
    capsys.readouterr()
    assert main([*command, "--project", str(project_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("composition INFEASIBLE") == 1
    assert "composition INFEASIBLE: spectral radius >= 1\n" in captured.out
    assert "spectral radius 3.586941 >= 1" in captured.err
    for guarantee in ("probability", "analytic bound", "soundness"):
        assert guarantee not in captured.out


def test_bound_reference(project_path, capsys):
    code = main(["bound", "--project", str(project_path),
                 "--epsilon", "1.0", "--horizon", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.09" in out and "closeness" in out
    # the bound 0.0956179 rounds up and the closeness 0.9043821 down, not to nearest
    assert "<= 0.09562\n" in out and ">= 0.9043\n" in out


def test_bound_tiny_probability_is_not_printed_as_zero(project_path, capsys):
    # the bound is 1.0e-11
    argv = ["bound", "--project", str(project_path), "--horizon", "10", "--epsilon", "1e5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "<= 1.000e-11\n" in out and "0.0000" not in out



@pytest.mark.parametrize("epsilon", ["1.4e154", "1e200"])
def test_overflowing_epsilon_keeps_a_positive_bound(project_path, capsys, epsilon):
    # alpha_coef * epsilon**2 overflows from about 1.4e154: the bound came out as 0,
    # printed as "<= 0.000" and "closeness ... >= 1.000"
    project = ["--project", str(project_path), "--epsilon", epsilon]
    assert main(["bound", *project, "--horizon", "10"]) == 0
    out = capsys.readouterr().out
    assert "<= 0.000" not in out and ">= 1.000" not in out and ">= 0.9999\n" in out
    assert main(["simulate", *project, "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "can confirm a bound of 0" not in out and "trials are needed" in out


def test_tiny_offset_keeps_a_positive_bound(project_path, capsys):
    # every F at 1.4e-9 gives psi_hat = 1.96e-16, so at a = 1e308 psi_hat / a is
    # subnormal: as a float ratio it rounded to 0, printed as "<= 0.000"
    doc = inline(json.loads(project_path.read_text()))
    for sub in doc["subsystems"]:
        sub["F"] = [[1.4e-9 for _ in row] for row in sub["F"]]
    project_path.write_text(json.dumps(doc))
    argv = ["bound", "--project", str(project_path), "--epsilon", "1e154", "--horizon", "10"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "psi_hat = 1.96e-16 " in out and "<= 2.471e-323\n" in out and ">= 0.9999\n" in out


def test_nuhat_sup_does_not_enter_without_external_gain(project_path, capsys):
    # rho_ext = 0 on the reference network: 0 * 1e155**2 was 0 * inf, a NaN offset
    bound = ["bound", "--project", str(project_path), "--epsilon", "1", "--horizon", "10"]
    outs = []
    for nuhat_sup in ("0", "1e155"):
        assert main([*bound, "--nuhat-sup", nuhat_sup]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "<= 0.09562\n" in outs[1]


def test_underflowing_epsilon_gives_the_limit(project_path, capsys):
    # alpha_coef * epsilon**2 underflows to 0: the bound is its limit 1, not a ZeroDivisionError
    project = ["--project", str(project_path), "--epsilon", "1e-200"]
    assert main(["bound", *project, "--horizon", "10"]) == 0
    assert "<= 1.000\n" in capsys.readouterr().out
    assert main(["simulate", *project, "--trials", "5"]) == 0
    assert "analytic bound: 1.000 (branch low_threshold)\n" in capsys.readouterr().out


@pytest.mark.parametrize("horizon, epsilon, printed", [
    (10**400, "1", "<= 1.000\n"), (10**400, "1e200", "<= 0.009951\n"),
    (2**1024 - 1, "1", "<= 1.000\n"), (2**1024 - 1, "1e200", "<= 1.798e-94\n"),
], ids=["1e400-1", "1e400-1e200", "2^1024-1-1", "2^1024-1-1e200"])
def test_horizon_past_the_float_range(project_path, capsys, horizon, epsilon, printed):
    # a T that float() cannot convert counts as infinite; at epsilon 1e200 only log T enters
    argv = ["bound", "--project", str(project_path), "--epsilon", epsilon]
    assert main([*argv, "--horizon", str(horizon)]) == 0
    assert printed in capsys.readouterr().out


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(1.0)
@example(5e-324)
@example(1e-4)
@example(1.0 - 2.0**-53)
def test_printed_bounds_round_outward(p):
    upper, lower = cli._prob(p), cli._prob(p, closeness=True)
    # as exact rationals: p rounded up and 1 - p rounded down, by less than one
    # unit in the fourth significant digit
    for text, exact, sign in ((upper, Fraction(p), 1), (lower, 1 - Fraction(p), -1)):
        printed = Decimal(text)
        unit = Fraction(Decimal(1).scaleb(printed.adjusted() - 3))
        assert 0 <= sign * (Fraction(printed) - exact) < unit
        assert ("e" in text) == (0 < printed < Decimal("1e-4"))
        assert text[0].isdigit()  # 1 - 1 rounded down is -0, printed without its sign


def test_bound_domain_error_exits_2(project_path, capsys):
    # a negative epsilon is bad input, not an analytic failure
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--project", str(project_path), "--epsilon", "-1.0", "--horizon", "10"])
    assert exc.value.code == 2
    assert "error: argument --epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--epsilon", "inf"], ["--epsilon", "0"], ["--horizon", "-1"],
    ["--nuhat-sup", "-1"], ["--nuhat-sup", "nan"],
])
def test_bound_bad_flags_exit_2(project_path, capsys, flags):
    # the bad value comes after a good one, so each occurrence is checked
    argv = ["bound", "--project", str(project_path), "--epsilon", "1", "--horizon", "10"]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flags[0]}" in captured.err
    assert "probability" not in captured.out


def test_abstract_rewrites_certificate(project_path, tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code = main([
        "abstract", "--project", str(project_path), "--subsystem", "0",
        "--output", str(out_path),
    ])
    assert code == 0
    updated = load_project(out_path)
    cert = updated.certificates[0]
    assert cert.pi == 0.99 and cert.kappa_hat == 0.98
    # the report carries the structural residuals; no second copy is printed
    out = capsys.readouterr().out
    assert out.startswith("subsystem 0:\ncondition ") and "structural residuals" not in out
    assert out.count("drift match") == 1 and out.count("internal input match") == 1


def test_abstract_synthesizes_when_missing(project_path, tmp_path, capsys):
    doc = json.loads(project_path.read_text())
    del doc["certificates"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    code = main([
        "abstract", "--project", str(bare), "--subsystem", "1",
        "--pi", "0.99", "--kappa-hat", "0.98",
    ])
    assert code == 0
    updated = load_project(bare)
    assert 1 in updated.certificates
    assert main(["check", "--project", str(bare)]) == 0


def test_abstract_requires_pi_when_no_certificate(project_path, tmp_path):
    doc = json.loads(project_path.read_text())
    del doc["certificates"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    assert main(["abstract", "--project", str(bare), "--subsystem", "0"]) == 2


@pytest.mark.parametrize("flags", [
    ["--pi", "inf"], ["--pi", "nan"], ["--pi", "-1"], ["--kappa-hat", "nan"],
    ["--kappa-hat", "1.5"],
])
def test_abstract_bad_synthesis_flags_exit_2(project_path, tmp_path, capsys, flags):
    doc = json.loads(project_path.read_text())
    del doc["certificates"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    argv = ["abstract", "--project", str(bare), "--subsystem", "0",
            "--pi", "0.99", "--kappa-hat", "0.98", "--output", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    assert f"error: argument {flags[0]}" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_simulate_pass(project_path, capsys):
    code = main([
        "simulate", "--project", str(project_path),
        "--trials", "200", "--seed", "7", "--workers", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "analytic bound: 0.0956" in out


def test_simulate_counts_diverging_runs(tmp_path, capsys):
    # at horizon 700 every deviation of this network overflows to nan; each
    # one is a violation, and the overflow raises no numpy warning
    path = tmp_path / "diverging.json"
    save_project(diverging_project(), path)
    assert main(["check", "--project", str(path)]) == 0
    capsys.readouterr()
    argv = ["simulate", "--project", str(path), "--trials", "200", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        main([*argv, "--horizon", "700"])
    assert "empirical violation estimate: 1.0000 (200/200)" in capsys.readouterr().out


def test_compose_solves_one_eigenproblem(project_path, capsys, monkeypatch):
    # one eigensolve gives the gain test's radius and find_mu's weights
    calls = []
    for name in ("eig", "eigvals"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, solve=solve, name=name: calls.append(name) or solve(a))
    assert main(["compose", "--project", str(project_path)]) == 0
    assert calls == ["eig"]
    assert "spectral radius of Lambda^-1 Delta: 0.896" in capsys.readouterr().out


def test_simulate_corrupted_certificate_flagged(project_path, capsys):
    doc = json.loads(project_path.read_text())
    for cert in doc["certificates"]:
        cert["K"] = [[0.0] * 25 for _ in range(25)]  # break the decrease condition
    project_path.write_text(json.dumps(doc))
    code = main(["simulate", "--project", str(project_path), "--trials", "50"])
    out = capsys.readouterr().out
    assert "fails its pre-check" in out
    assert code in (0, 1)  # soundness verdict decides; the flag must appear either way


def test_simulate_csv(project_path, tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code = main([
        "simulate", "--project", str(project_path),
        "--trials", "150", "--horizon", "4", "--csv", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("trial,k,y0")
    assert len(lines) == 1 + 150 * 5  # header + trials * (horizon + 1)


def test_full_workflow_on_custom_project(tmp_path, capsys):
    """abstract -> check -> compose -> bound -> simulate on a hand-written net."""
    n = 3
    import numpy as np

    def sub(i, other):
        return {
            "id": i,
            "A": (0.4 * np.eye(n)).tolist(),
            "B": np.eye(n).tolist(),
            "D": (0.1 * np.ones((n, 1))).tolist(),
            "F": (0.02 * np.ones((n, 1))).tolist(),
            "C_ext": (0.2 * np.ones((1, n))).tolist(),
            "C_int": {str(other): (0.1 * np.ones((1, n))).tolist()},
        }

    doc = {
        "schema_version": 2,
        "subsystems": [sub(0, 1), sub(1, 0)],
        "topology": {"edges": [[0, 1], [1, 0]]},
        "candidates": [
            {"subsystem": i, "P": np.ones((n, 1)).tolist(), "Ahat": [[0.4]],
             "Bhat": [[1.0]], "Dhat": [[0.1]]}
            for i in range(2)
        ],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))

    for i in range(2):
        assert main(["abstract", "--project", str(path), "--subsystem", str(i),
                     "--pi", "0.9", "--kappa-hat", "0.8"]) == 0
    assert main(["check", "--project", str(path)]) == 0
    assert main(["compose", "--project", str(path)]) == 0
    assert main(["bound", "--project", str(path),
                 "--epsilon", "0.5", "--horizon", "10"]) == 0
    assert main(["simulate", "--project", str(path), "--trials", "400",
                 "--seed", "3", "--horizon", "10", "--epsilon", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "all certificates pass" in out
    assert "soundness: PASS" in out


def test_paper_example_smoke(capsys):
    assert main(["paper-example", "--trials", "300"]) == 0
    out = capsys.readouterr().out
    assert "all constants reproduced" in out
    assert "published -0.003" in out


def test_paper_example_emit_project(tmp_path, capsys):
    target = tmp_path / "emitted.json"
    assert main(["paper-example", "--trials", "200",
                 "--emit-project", str(target)]) == 0
    emitted = load_project(target)
    assert len(emitted.subsystems) == 4


def test_bound_nan_epsilon_exits_2(project_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--project", str(project_path), "--epsilon", "nan", "--horizon", "10"])
    assert exc.value.code == 2
    assert "probability" not in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--trials", "0"], ["--horizon", "-1"], ["--seed", "-1"],
    ["--epsilon", "-1"], ["--epsilon", "nan"], ["--epsilon", "0"],
])
def test_simulate_bad_run_flags_exit_2(project_path, capsys, flags):
    assert main(["simulate", "--project", str(project_path), *flags]) == 2
    assert "trials >= 1 and horizon >= 0" in capsys.readouterr().err


def test_simulate_bad_project_run_exits_2(project_path, capsys):
    doc = json.loads(project_path.read_text())
    doc["run"]["trials"] = 0
    project_path.write_text(json.dumps(doc))
    assert main(["simulate", "--project", str(project_path)]) == 2
    assert "trials >= 1 and horizon >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", [0.0, -1.0])
def test_simulate_bad_project_epsilon_exits_2(project_path, capsys, epsilon):
    doc = json.loads(project_path.read_text())
    doc["run"]["epsilon"] = epsilon
    project_path.write_text(json.dumps(doc))
    assert main(["simulate", "--project", str(project_path)]) == 2
    assert "finite epsilon > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--trials", "1000000000000000"],
    ["--trials", "100000000000000000000"],
    ["--trials", "10", "--horizon", "100000000000000"],
    ["--trials", "10", "--horizon", str(10**400)],
], ids=["trials-past-memory", "trials-past-max-dimension", "horizon-past-memory",
        "horizon-past-float-range"])
def test_oversized_run_exits_2(project_path, capsys, flags):
    # each size is past the 128 TiB address space: allocation fails at once
    # under any overcommit setting, before a step is taken
    assert main(["simulate", "--project", str(project_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trials=") and "horizon=" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_paper_example_takes_no_workers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paper-example", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_paper_example_zero_trials_exits_2(capsys):
    assert main(["paper-example", "--trials", "0"]) == 2
    assert "trials >= 1 and horizon >= 0" in capsys.readouterr().err


FAILING_CERTIFICATES = pytest.mark.parametrize(
    "field, value",
    [
        ("K", [[0.0] * 25 for _ in range(25)]),
        ("kappa_hat", 1.2),
        # (A + BK)' M (A + BK) overflows: the check must fail, not raise
        ("K", [[1e308] + [0.0] * 24] + [[0.0] * 25 for _ in range(24)]),
    ],
    ids=["K=0", "kappa_hat=1.2", "K-overflow"],
)


def _break_certificate(path, field, value):
    doc = json.loads(path.read_text())
    doc["certificates"][0][field] = value
    path.write_text(json.dumps(doc))


@FAILING_CERTIFICATES
@pytest.mark.parametrize(
    "command",
    [["compose"], ["bound", "--epsilon", "1", "--horizon", "10"], ["simulate", "--trials", "50"]],
    ids=["compose", "bound", "simulate"],
)
def test_failing_certificate_prints_no_guarantee(project_path, capsys, field, value, command):
    _break_certificate(project_path, field, value)
    assert main([command[0], "--project", str(project_path), *command[1:]]) == 1
    out = capsys.readouterr().out
    assert "certificate of subsystem 0 fails its pre-check" in out
    for guarantee in ("composed:", "probability", "analytic bound", "soundness"):
        assert guarantee not in out


@FAILING_CERTIFICATES
def test_abstract_failing_certificate_not_written(project_path, capsys, field, value):
    _break_certificate(project_path, field, value)
    before = project_path.read_text()
    assert main(["abstract", "--project", str(project_path), "--subsystem", "0"]) == 1
    assert "constants:" not in capsys.readouterr().out
    assert project_path.read_text() == before


def test_abstract_overflowing_gram_exits_1(project_path, tmp_path, capsys):
    # B'MB overflows, so Rtilde is undefined: the command must stop before any
    # factorisation of the non-finite Gram matrix (a pseudo-inverse never returns)
    doc = inline(json.loads(project_path.read_text()))
    doc["subsystems"][0]["B"][0][0] = 1e308
    project_path.write_text(json.dumps(doc))
    output = tmp_path / "out.json"
    argv = ["abstract", "--project", str(project_path), "--subsystem", "0",
            "--output", str(output)]
    with pytest.warns(RankDeficientWarning):  # next to 1e308, the rest of B is negligible
        assert main(argv) == 1
    assert "not finite" in capsys.readouterr().err
    assert not output.exists()


def test_console_script_shows_each_warning_as_one_line(project_path, tmp_path):
    # B with two equal columns: abstract warns twice, and the script printed each
    # warning's source line and "warnings.warn(" after it
    doc = inline(json.loads(project_path.read_text()))
    for row in doc["subsystems"][0]["B"]:
        row[1] = row[0]
    project_path.write_text(json.dumps(doc))
    done = python_run("-m", "simcert.cli", "abstract", "--project", str(project_path),
                      "--subsystem", "0", "--output", str(tmp_path / "out.json"))
    assert done.returncode == 1 and "certificate does NOT pass" in done.stderr
    assert done.stderr.splitlines()[:2] == [
        "warning: B lacks full column rank; returning minimum-norm Q, S",
        "warning: B'MB is singular; using pseudo-inverse",
    ]
    assert "warnings.warn(" not in done.stderr and "Warning:" not in done.stderr


def test_console_script_exits_1_when_stdout_closes(project_path, tmp_path):
    # a reader that left after the first line (`simcert check ... | head -1`) got a
    # BrokenPipeError traceback.  A ring of 2,048 copies prints about 1 MB of reports,
    # past a pipe's capacity, so the run is still writing when the read end closes
    doc, n = project_to_dict(project_from_dict(ring_document(2))), 2048
    (block,) = doc["subsystems"][0]["C_int"].values()
    doc["subsystems"] = [{**doc["subsystems"][0], "id": i, "C_int": {str((i + 1) % n): block}}
                         for i in range(n)]
    doc["topology"]["edges"] = [[i, (i + 1) % n] for i in range(n)]
    for key in ("candidates", "certificates"):
        doc[key] = [{**doc[key][0], "subsystem": i} for i in range(n)]
    path, err = tmp_path / "ring.json", tmp_path / "err.txt"
    path.write_text(json.dumps(doc))
    # and a CSV of 2,000 trials (about 4 MB) written to stdout exited 2 with
    # "error: cannot write /dev/stdout: [Errno 32] Broken pipe"
    csv_argv = ["simulate", "--project", str(project_path), "--trials", "2000",
                "--csv", "/dev/stdout"]
    for argv, first in ((["check", "--project", str(path)], b"subsystem 0:\n"),
                        (csv_argv, b"trial,k,y0,y1,y2,y3,yhat0,yhat1,yhat2,yhat3,deviation\n")):
        with open(err, "w") as stderr:
            run = subprocess.Popen([sys.executable, "-m", "simcert.cli", *argv],
                                   stdout=subprocess.PIPE, stderr=stderr, env=python_env())
            assert run.stdout.readline() == first
            run.stdout.close()
            assert run.wait(timeout=120) == 1, argv
        assert err.read_text() == "", argv


def test_simulate_underpowered_is_inconclusive(project_path, capsys):
    assert main(["simulate", "--project", str(project_path), "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "(0/5)" in out
    # 1 - 0.05**(1/n) <= 0.0956 needs n >= ln(0.05) / ln(1 - 0.0956) = 29.8
    assert "soundness: INCONCLUSIVE (underpowered" in out and "at least 30 trials" in out


@pytest.mark.parametrize("epsilon, count", [("1e150", "3.00e+301"), ("1e154", "3.00e+309")])
def test_simulate_tiny_bound_is_inconclusive(project_path, capsys, epsilon, count):
    # past 2**53 the trial count is printed to three digits; past the float range
    # (a bound below 1.7e-308) it must not overflow
    argv = ["simulate", "--project", str(project_path), "--trials", "50", "--epsilon", epsilon]
    assert main(argv) == 0
    lines = [s for s in capsys.readouterr().out.splitlines() if "INCONCLUSIVE" in s]
    assert len(lines) == 1 and lines[0].endswith(f"at least {count} trials are needed)")


def test_simulate_zero_bound_is_inconclusive(project_path, capsys):
    # from zero initial states nothing can deviate within zero steps
    code = main(["simulate", "--project", str(project_path), "--trials", "5",
                 "--horizon", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "analytic bound: 0.000 (" in out
    assert "no number of trials can confirm a bound of 0" in out


def test_csv_deviation_matches_sup_deviation(ref_project, tmp_path):
    subs = ref_project.subsystems
    cands = [ref_project.candidate_for(s.id) for s in subs]
    certs = [ref_project.certificate_for(s.id) for s in subs]
    run = functools.partial(simulate_pair, subs, ref_project.topology, cands, certs,
                            RunConfig(horizon=10, trials=500, seed=0))
    path = tmp_path / "traj.csv"
    sup = cli._write_csv(path, run)
    worst: dict[int, float] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            trial = int(row["trial"])
            worst[trial] = max(worst.get(trial, 0.0), float(row["deviation"]))
    assert len(sup) == 500
    assert worst == dict(enumerate(sup.tolist()))


def _noisy_reference() -> ProjectFile:
    """The reference project with abstract noise ``Fhat = 0.01``: no ``yhat`` cell is 0."""
    project = reference_project()
    cands = {sid: dataclasses.replace(c, Fhat=np.array([[0.01]]))
             for sid, c in project.candidates.items()}
    certs = {sid: spsf.solve_structural(s, cands[sid], c.M, c.K, c.pi, c.kappa_hat)
             for (sid, c), s in zip(project.certificates.items(), project.subsystems)}
    return dataclasses.replace(project, candidates=cands, certificates=certs)


def _run(project, trials, horizon, seed=0):
    """The run's arguments of :func:`simulate_pair`, in order."""
    subs = project.subsystems
    return (subs, project.topology, [project.candidate_for(s.id) for s in subs],
            [project.certificate_for(s.id) for s in subs],
            RunConfig(horizon=horizon, trials=trials, seed=seed))


def _assert_csv_matches_oracle(run, outputs, abstract_outputs, tmp_path):
    """The CSV that ``cli._write_csv`` writes of ``run`` is the oracle's of its outputs."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_csv(got, run)
    with np.errstate(over="ignore", invalid="ignore"):
        row_by_row_csv(want, outputs, abstract_outputs)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "noisy, trials, horizon",
    [(False, 300, 10), (True, 300, 10), (False, 5, 0), (True, 1, 3), (False, 63, 2),
     (False, 64, 2), (True, 65, 2), (False, 257, 1)],
)
def test_csv_bytes_equal_row_by_row_writer(ref_project, tmp_path, noisy, trials, horizon):
    args = _run(_noisy_reference() if noisy else ref_project, trials, horizon)
    _, outputs, abstract_outputs = recorded_run(*args)
    _assert_csv_matches_oracle(functools.partial(simulate_pair, *args), outputs,
                               abstract_outputs, tmp_path)


def test_csv_special_values_equal_row_by_row_writer(tmp_path):
    cells = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05, 123.0, -2.5]
    rng = np.random.default_rng(7)
    outputs = rng.choice(cells, size=(70, 3, 3))
    abstract = rng.choice(cells, size=(70, 3, 3))
    outputs[0], abstract[0] = 0.0, -0.0  # deviation 0.0 from signed zeros
    def run(each_block):  # one block of 70 trials: two full chunks and a short one
        each_block(range(70), outputs, abstract)

    _assert_csv_matches_oracle(run, outputs, abstract, tmp_path)
    text = (tmp_path / "got.csv").read_text()
    for cell in ("0.0", "-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "1e-05", "123.0"):
        assert f",{cell}," in text or f",{cell}\n" in text


def test_unallocatable_csv_run_leaves_no_file(project_path, tmp_path, capsys):
    # the CSV is opened before the run allocates its arrays; the failed run removes it
    path = tmp_path / "out.csv"
    argv = ["simulate", "--project", str(project_path), "--trials", "1000000000000000",
            "--csv", str(path)]
    assert main(argv) == 2
    assert "cannot be allocated" in capsys.readouterr().err
    assert not path.exists()


def test_csv_write_error_in_second_block_leaves_no_file(project_path, tmp_path, capsys,
                                                        monkeypatch):
    # a CSV cut off at a block's end reads as a complete shorter run
    path, sizes = tmp_path / "out.csv", []
    write = cli._write_block

    def full_disk(fh, trials, y, yh):
        if trials.start:
            sizes.append(path.stat().st_size)
            raise OSError(28, "No space left on device")
        write(fh, trials, y, yh)

    monkeypatch.setattr(cli, "_write_block", full_disk)
    assert main(["simulate", "--project", str(project_path), "--trials", "300",
                 "--csv", str(path)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert sizes[0] > 0 and not path.exists()


@pytest.mark.parametrize("symlink", [False, True], ids=["file", "symlink"])
def test_interrupted_csv_run_leaves_no_file(project_path, tmp_path, monkeypatch, symlink):
    # a regular file that the writer opened is removed; through a symlink, the link
    # stays and its target is emptied
    path, target, sizes = tmp_path / "out.csv", tmp_path / "target.csv", []
    if symlink:
        target.write_text("")
        path.symlink_to(target)
    stream = montecarlo.noise_stream

    def interrupted(seed, trial, *args):
        if trial == 256:  # the second block's first draw, after the first block's rows
            sizes.append(path.stat().st_size)
            raise KeyboardInterrupt
        return stream(seed, trial, *args)

    monkeypatch.setattr(montecarlo, "noise_stream", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--project", str(project_path), "--trials", "300", "--csv", str(path)])
    assert sizes[0] > 0
    if symlink:
        assert path.is_symlink() and target.is_file() and target.stat().st_size == 0
    else:
        assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_csv_to_full_device_exits_2_and_keeps_the_device(project_path, capsys):
    assert main(["simulate", "--project", str(project_path), "--trials", "300",
                 "--csv", "/dev/full"]) == 2
    assert "cannot write /dev/full" in capsys.readouterr().err
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


def test_csv_run_memory_does_not_grow_with_trials(project_path, tmp_path, capsys):
    # rows are written block by block as the run goes, so ten times the trials
    # add only the (trials,) supremum array: whole-run trajectories would add
    # 2 * 2304 * (T+1) * 4 doubles, 1.6 MB
    argv = ["simulate", "--project", str(project_path), "--csv", str(tmp_path / "out.csv")]

    def peak(trials):
        tracemalloc.start()
        try:
            assert main([*argv, "--trials", str(trials)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(256)  # warm-up: caches and one-time allocations
    assert peak(2560) - peak(256) < 0.25 * 2**20


def test_csv_of_diverging_run_warns_nothing(tmp_path, capsys):
    # the CSV's deviations overflow as the run's do, under the same errstate
    path, out = tmp_path / "diverging.json", tmp_path / "div.csv"
    save_project(diverging_project(), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--project", str(path), "--trials", "20", "--seed", "1",
                     "--horizon", "700", "--csv", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="") as fh:
        values = [cell for row in list(csv.reader(fh))[1:] for cell in row[2:]]
    assert {v for v in values if not np.isfinite(float(v))} == {"nan", "inf", "-inf"}


@pytest.mark.parametrize(
    "command, flag",
    [
        (["compose", "--project", "{project}"], "--output"),
        (["abstract", "--project", "{project}", "--subsystem", "1"], "--output"),
        (["paper-example", "--trials", "30"], "--emit-project"),
        (["simulate", "--project", "{project}", "--trials", "30"], "--csv"),
    ],
    ids=["compose", "abstract", "paper-example", "simulate"],
)
def test_unwritable_output_exits_2(project_path, tmp_path, capsys, command, flag):
    target = tmp_path / "missing" / "x"
    argv = [a.format(project=project_path) for a in command] + [flag, str(target)]
    before = project_path.read_text()
    assert main(argv) == 2
    assert any(line.startswith("error: cannot write") for line in capsys.readouterr().err.splitlines())
    assert not target.parent.exists()
    assert project_path.read_text() == before


def _must_not_run(*args, **kwargs):
    raise AssertionError("work done before the output path was checked")


@pytest.mark.parametrize("target", ["missing/x", "."], ids=["no-directory", "is-a-directory"])
@pytest.mark.parametrize(
    "command, flag",
    [
        (["compose"], "--output"),
        (["abstract", "--subsystem", "1"], "--output"),
        (["simulate", "--trials", "10000"], "--csv"),
    ],
    ids=["compose", "abstract", "simulate"],
)
def test_unwritable_output_fails_before_work(
    project_path, tmp_path, capsys, monkeypatch, command, flag, target
):
    for module, name in [(spsf, "check_conditions"), (spsf, "synthesize_MK"),
                         (smallgain, "compose"), (montecarlo, "simulate_pair")]:
        monkeypatch.setattr(module, name, _must_not_run)
    before = sorted(tmp_path.iterdir())
    argv = [command[0], "--project", str(project_path), *command[1:], flag, str(tmp_path / target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {tmp_path / target}")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


def test_rejected_inputs_raise_no_runtime_warning(project_path, tmp_path, capsys):
    # overflowing certificates and Gram matrices are rejected without numpy's
    # "overflow/invalid value encountered" on stderr
    overflow_K = [[1e308] + [0.0] * 24] + [[0.0] * 25 for _ in range(24)]
    commands = [["compose"], ["bound", "--epsilon", "1", "--horizon", "10"],
                ["simulate", "--trials", "50"], ["abstract", "--subsystem", "0"]]
    broken = tmp_path / "broken.json"
    broken.write_text(project_path.read_text())
    _break_certificate(broken, "K", overflow_K)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        for command in commands:
            assert main([command[0], "--project", str(broken), *command[1:]]) == 1
        doc = inline(json.loads(project_path.read_text()))
        doc["subsystems"][0]["B"][0][0] = 1e308
        project_path.write_text(json.dumps(doc))
        assert main(["abstract", "--project", str(project_path), "--subsystem", "0"]) == 1
    assert "not finite" in capsys.readouterr().err
    assert [w.category for w in seen] == [RankDeficientWarning]  # the intended one stays


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_tolerance_must_be_finite_and_nonnegative(project_path, capsys, tol):
    # with K = 0 the certificate fails; an infinite tolerance used to pass it
    _break_certificate(project_path, "K", [[0.0] * 25 for _ in range(25)])
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--project", str(project_path), "--epsilon", "1", "--horizon", "10",
              "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --tol" in captured.err
    assert "probability" not in captured.out


@pytest.mark.parametrize("command", [
    ["check"], ["abstract", "--subsystem", "0"], ["compose"],
    ["bound", "--epsilon", "1", "--horizon", "10"], ["simulate"], ["paper-example"],
], ids=lambda command: command[0])
def test_every_command_rejects_degree_mode(project_path, capsys, command):
    # every edge gain is rho_int of its target, whatever the fan-in: there is no mode
    project = [] if command[0] == "paper-example" else ["--project", str(project_path)]
    with pytest.raises(SystemExit) as exc:
        main([*command, *project, "--degree-mode", "in_degree"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree-mode" in capsys.readouterr().err


def test_run_settings_are_checked_before_certificates(project_path, capsys):
    _break_certificate(project_path, "kappa_hat", 1.2)
    assert main(["simulate", "--project", str(project_path), "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert "trials >= 1 and horizon >= 0" in captured.err
    assert "fails its pre-check" not in captured.out


SCIPY_MODULES = "json.dumps([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"

# Commands that check, compose and bound stored certificates need only numpy,
# and so do the Monte Carlo commands and their confidence bound.
CERTIFICATE_COMMANDS = f"""
import contextlib, io, json, sys
from simcert import cli
project, output = sys.argv[1:]
for argv in (["check"], ["compose"], ["bound", "--epsilon", "1", "--horizon", "10"],
             ["abstract", "--subsystem", "0", "--output", output],
             ["simulate", "--trials", "50"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([argv[0], "--project", project, *argv[1:]]) == 0, argv
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["paper-example", "--trials", "50"]) == 0
print({SCIPY_MODULES})
"""


def test_certificate_commands_load_no_scipy(project_path, tmp_path):
    out = fresh_python(CERTIFICATE_COMMANDS, str(project_path), str(tmp_path / "out.json"))
    assert json.loads(out) == []
    assert (tmp_path / "out.json").exists()


# Synthesis needs numpy alone, also on the Riccati path.
SCIPY_USERS = f"""
import contextlib, io, json, sys
import numpy as np
from simcert import cli, spsf
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["simulate", "--project", sys.argv[1], "--trials", "50"]) == 0
assert "95% upper bound" in out.getvalue()
# B is not square, so K comes from the scaled Riccati equation
A = np.array([[1.1, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.3]])
M, K = spsf.synthesize_MK(A, np.array([[0.0], [0.0], [1.0]]), np.eye(3), 0.1, 0.1)
assert M.shape == (3, 3) and K.shape == (1, 3)
print({SCIPY_MODULES})
"""


def test_moved_scipy_imports_resolve(project_path):
    assert json.loads(fresh_python(SCIPY_USERS, str(project_path))) == []


# Identical subsystems share one derivation, check and constant set.  Each field a
# result may read, by the list of the document that holds it; "C_int" is the ring row.
RING_FIELDS = {
    "subsystems": ("A", "B", "D", "F", "C_ext", "C_int"),
    "candidates": ("P", "Ahat", "Bhat", "Dhat", "Fhat"),
    "certificates": ("M", "K", "pi", "kappa_hat"),
}


def _certificate_bits(c: spsf.AbstractionCertificate) -> list:
    arrays = (c.M, c.K, c.P, c.Q, c.S, c.Rtilde)
    return [(a.shape, a.tobytes()) for a in arrays] + [repr(c.pi), repr(c.kappa_hat)]


@pytest.mark.parametrize(
    "group, field", [(group, field) for group, names in RING_FIELDS.items() for field in names]
)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(sid=st.integers(0, 3), at=st.integers(0, 10**6), up=st.booleans())
def test_distinct_subsystems_are_never_merged(group, field, sid, at, up):
    # one entry of one copy moved by one ulp gives that copy its own results, and
    # every copy's results equal those of direct per-subsystem calls, float for float
    doc = ring_document(4)
    holder = doc[group][sid]
    if field == "C_int":
        holder, field = holder["C_int"], next(iter(holder["C_int"]))
    toward = np.inf if up else -np.inf
    if isinstance(holder[field], list):
        rows = holder[field]
        i, j = divmod(at % (len(rows) * len(rows[0])), len(rows[0]))
        rows[i][j] = float(np.nextafter(rows[i][j], toward))
    else:
        holder[field] = float(np.nextafter(holder[field], toward))

    project = project_from_dict(doc)
    reports = cli._per_certificate(spsf.check_conditions, project, range(4), 1e-9)
    constants = cli._all_constants(project, 1e-9, reports)
    for k, (s, entry) in enumerate(zip(project.subsystems, doc["certificates"])):
        cand = project.candidates[k]
        direct = spsf.solve_structural(
            s, cand, np.array(entry["M"]), np.array(entry["K"]), entry["pi"], entry["kappa_hat"]
        )
        assert _certificate_bits(project.certificates[k]) == _certificate_bits(direct)
        assert repr(reports[k]) == repr(spsf.check_conditions(s, cand, direct, 1e-9))
        assert repr(constants[k]) == repr(spsf.derive_constants(s, cand, direct))
    others = [k for k in range(4) if k != sid]
    for results in (project.certificates, reports, constants):
        assert all(results[sid] is not results[k] for k in others)
        assert results[others[0]] is results[others[1]] is results[others[2]]
    # the copies hold one candidate object, unless the moved entry is the candidate's
    cands = project.candidates
    assert cands[others[0]] is cands[others[1]] is cands[others[2]]
    assert (cands[sid] is not cands[others[0]]) == (group == "candidates")

    # one certificate object held by every copy: still one result per distinct input
    cert = project.certificates[others[0]]
    held = dataclasses.replace(project, certificates=dict.fromkeys(range(4), cert))
    reports = cli._per_certificate(spsf.check_conditions, held, range(4), 1e-9)
    constants = cli._per_certificate(spsf.derive_constants, held, range(4))
    for k, s in enumerate(project.subsystems):
        assert repr(reports[k]) == repr(spsf.check_conditions(s, project.candidates[k], cert, 1e-9))
        assert repr(constants[k]) == repr(spsf.derive_constants(s, project.candidates[k], cert))
    if group != "certificates":
        assert all(reports[sid] is not reports[k] for k in others)


def test_each_distinct_subsystem_is_analysed_once_per_load_and_command(
    tmp_path, capsys, monkeypatch
):
    # nothing is kept between loads or commands: a second one repeats the work
    path = tmp_path / "ring.json"
    doc = ring_document(8)
    path.write_text(json.dumps(doc))
    calls = collections.Counter()
    for name in ("compute_Rtilde", "check_conditions", "derive_constants"):
        fn = getattr(spsf, name)
        monkeypatch.setattr(spsf, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    load_project(path)
    assert calls == {"compute_Rtilde": 1}
    load_project(path)
    assert calls == {"compute_Rtilde": 2}

    # copy 5 with its noise doubled is a second distinct subsystem
    doc["subsystems"][5]["F"] = [[2 * v for v in row] for row in doc["subsystems"][5]["F"]]
    path.write_text(json.dumps(doc))
    for run in (1, 2):
        calls.clear()
        assert main(["check", "--project", str(path)]) == 0
        assert calls == {"compute_Rtilde": 2, "check_conditions": 2}
    calls.clear()
    assert main(["compose", "--project", str(path)]) == 0
    assert calls == {"compute_Rtilde": 2, "check_conditions": 2, "derive_constants": 2}
    assert "result: all certificates pass" in capsys.readouterr().out


def test_every_call_is_keyed_by_identity(tmp_path, monkeypatch):
    # the load and each command key every call, by the ids of its arrays and the bits
    # of its floats, never by the bytes of a matrix
    keys = []
    key = spsf._input_key
    monkeypatch.setattr(spsf, "_input_key", lambda *a: keys.append(key(*a)) or keys[-1])
    subs, topo, cands, certs, _ = certified_network(7)
    path = tmp_path / "distinct.json"
    save_project(ProjectFile(2, tuple(subs), topo, dict(enumerate(cands)),
                             dict(enumerate(certs)), run=RunDefaults()), path)
    assert main(["compose", "--project", str(path)]) == 0
    # four distinct subsystems: a derivation at load, a check and a constant set each
    assert len(keys) == len(set(keys)) == 3 * len(subs) == 12
    assert all(type(x) is int or (type(x) is bytes and len(x) == 8) for k in keys for x in k)

    # copies that differ in F keep one M array: each copy is keyed, and gets its own
    # certificate, report and constants
    doc = ring_document(4)
    for k, s in enumerate(doc["subsystems"]):
        s["F"] = [[(k + 1) * v for v in row] for row in s["F"]]
    path.write_text(json.dumps(doc))
    keys.clear()
    project = load_project(path)
    assert len(keys) == len(set(keys)) == 4
    assert len({id(c.M) for c in project.certificates.values()}) == 1
    assert len({id(c) for c in project.certificates.values()}) == 4
    keys.clear()
    assert main(["compose", "--project", str(path)]) == 0  # its load, checks and constants
    assert len(keys) == len(set(keys)) == 12


def _indexed_ring(n: int) -> dict:
    """``ring_document(n)`` as its version 3 save: every copy's fields name the same arrays."""
    return project_to_dict(project_from_dict(ring_document(n)))


@pytest.mark.parametrize("group, pos, field, value, message", [
    ("subsystems", 37, "C_int", lambda doc: {"37": doc["subsystems"][37]["C_int"]["38"]},
     "subsystems[37]: C_int contains self block 37"),
    ("certificates", 40, "subsystem", lambda doc: 39,
     "certificates[39] and certificates[40] both name subsystem 39"),
    ("certificates", 50, "K", lambda doc: doc["subsystems"][0]["C_ext"],  # a 1x25 array
     "certificates[50].K is 1x25, expected 25x25 (m x n)"),
], ids=["self-block", "subsystem-named-twice", "K-of-another-shape"])
def test_per_copy_checks_name_the_copy(tmp_path, capsys, group, pos, field, value, message):
    # a copy whose entry repeats an earlier one resolves through the load's memo, yet
    # what can differ between copies is still checked entry by entry
    doc = _indexed_ring(64)
    doc[group][pos][field] = value(doc)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--project", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_each_distinct_indexed_entry_is_resolved_once_per_load(monkeypatch):
    # a repeated certificate entry skips its shape check and derivation; copies that
    # differ in F are distinct subsystems, and each derives its own certificate
    doc = ring_document(64)
    copies = _indexed_ring(64)
    for k, s in enumerate(doc["subsystems"]):
        s["F"] = [[(k + 1) * v for v in row] for row in s["F"]]
    distinct = project_to_dict(project_from_dict(doc))
    calls = collections.Counter()
    shapes, rtilde = simcert.project._check_shapes, spsf.compute_Rtilde
    monkeypatch.setattr(simcert.project, "_check_shapes",
                        lambda where, *a: calls.update([where.split("[")[0]]) or shapes(where, *a))
    monkeypatch.setattr(spsf, "compute_Rtilde",
                        lambda *a: calls.update(["compute_Rtilde"]) or rtilde(*a))
    project_from_dict(copies)
    assert calls == {"candidates": 1, "certificates": 1, "compute_Rtilde": 1}
    calls.clear()
    certificates = project_from_dict(distinct).certificates
    assert calls == {"candidates": 1, "certificates": 64, "compute_Rtilde": 64}
    assert len({id(c) for c in certificates.values()}) == 64


def test_indexed_ring_prints_and_saves_what_the_inline_ring_does(tmp_path, capsys, monkeypatch):
    # the load's memo changes no printed number and no saved byte; the copies share
    # one report, which check renders once and abstract once
    renders, render = [], spsf.ConditionReport.render
    monkeypatch.setattr(spsf.ConditionReport, "render",
                        lambda self: renders.append(self) or render(self))
    inline_doc = ring_document(64)
    results = {}
    for name, doc in (("inline", inline_doc), ("indexed", _indexed_ring(64))):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}_out.json"
        path.write_text(json.dumps(doc))
        printed, rendered = [], []
        for argv in (["check"], ["compose"], ["bound", "--epsilon", "1", "--horizon", "10"],
                     ["abstract", "--subsystem", "5", "--output", str(out)]):
            renders.clear()
            assert main([argv[0], "--project", str(path), *argv[1:]]) == 0
            printed.append(capsys.readouterr().out.replace(str(out), "OUT"))
            rendered.append(len(renders))
        assert rendered == [1, 0, 0, 1]
        results[name] = printed, out.read_bytes()
    assert results["inline"] == results["indexed"]

    # a save keys each array object once, by its bytes: 10 on the ring's 64 copies
    class Counted(np.ndarray):
        def tobytes(self, *args):
            keyed.append(self)
            return super().tobytes(*args)

    def counted(a):  # one counting view per array object; the view keeps its array alive
        return views.setdefault(id(a), a.view(Counted))

    keyed, views = [], {}
    project = project_from_dict(inline_doc)
    for obj in {id(o): o for o in (*project.subsystems, *project.candidates.values(),
                                   *project.certificates.values())}.values():
        for name, value in vars(obj).items():
            if isinstance(value, np.ndarray):
                object.__setattr__(obj, name, counted(value))
            elif name == "C_int":
                object.__setattr__(obj, name, {j: counted(m) for j, m in value.items()})
    doc = project_to_dict(project)
    assert len(keyed) == len({id(a) for a in keyed}) == len(doc["arrays"]) == 10
    assert doc == _indexed_ring(64)


def test_key_parts_live_and_die_with_their_object():
    # an object names its arrays and floats once; a copy, pickle or replacement of it is
    # another object and names its own, and the names never keep an object alive
    project = project_from_dict(ring_document(2))
    s, cand, cert = project.subsystems[0], project.candidates[0], project.certificates[0]
    key = spsf._input_key(s, cand, cert, 1e-9)
    assert spsf._input_key(s, cand, cert, 1e-9) == key
    for twin in (copy.copy(cert), pickle.loads(pickle.dumps(cert)),
                 dataclasses.replace(cert, pi=0.5)):
        assert twin not in spsf._key_parts
        named = tuple(id(v) if isinstance(v, np.ndarray) else struct.pack("d", v)
                      for v in vars(twin).values())
        assert spsf._input_key(s, cand, twin, 1e-9) == key[:11] + named + key[-1:]
    ref = weakref.ref(cert)
    del project, cert, twin
    gc.collect()
    assert ref() is None


def test_copies_hold_one_array_per_matrix():
    project = project_from_dict(ring_document(4))
    # identical candidate entries are one object, inline (version 2) or indexed (version 3)
    inline_v2 = {**ring_document(4), "schema_version": 2}
    for doc in (inline_v2, project_to_dict(project)):
        cands = list(project_from_dict(doc).candidates.values())
        assert all(c is cands[0] for c in cands)
    groups = [
        (project.subsystems, ("A", "B", "D", "F", "C_ext")),
        (list(project.candidates.values()), ("P", "Ahat", "Bhat", "Dhat", "Fhat")),
        (list(project.certificates.values()), ("M", "K", "P", "Q", "S", "Rtilde")),
    ]
    for objs, names in groups:
        for name in names:
            arrays = [getattr(o, name) for o in objs]
            assert all(a is arrays[0] for a in arrays), name
            assert not arrays[0].flags.writeable
    rows = [next(iter(s.C_int.values())) for s in project.subsystems]
    assert all(r is rows[0] for r in rows)
    # an absent Fhat is one array per nhat too
    doc = ring_document(4)
    for c in doc["candidates"]:
        del c["Fhat"]
    fhats = [c.Fhat for c in project_from_dict(doc).candidates.values()]
    assert fhats[0].shape == (1, 0) and all(f is fhats[0] for f in fhats)


def test_output_blocks_are_keyed_in_stacked_order():
    # with C_ext unlike the ring row, the last copy stacks [row; C_ext] and the others
    # [C_ext; row]: the same two arrays, but another output map, so another input
    doc = ring_document(4)
    for s in doc["subsystems"]:
        s["C_ext"] = [[2 * v for v in row] for row in s["C_ext"]]
    project = project_from_dict(doc)
    reports = cli._per_certificate(spsf.check_conditions, project, range(4), 1e-9)
    assert reports[0] is reports[1] is reports[2] and reports[3] is not reports[0]
    for k, s in enumerate(project.subsystems):
        cand, cert = project.candidates[k], project.certificates[k]
        assert repr(reports[k]) == repr(spsf.check_conditions(s, cand, cert, 1e-9))


def test_negative_zero_copy_keeps_its_own_array(tmp_path):
    # -0.0 == 0.0, so equal nested lists would merge this copy; its bits differ, so its
    # arrays, certificate and report are its own
    doc = ring_document(4)
    M = doc["certificates"][2]["M"]
    i, j = next((i, j) for i, row in enumerate(M) for j, v in enumerate(row) if v == 0.0)
    assert not np.signbit(M[i][j])
    M[i][j] = -0.0
    assert doc["certificates"][2]["M"] == doc["certificates"][0]["M"]
    project = project_from_dict(doc)
    certs = project.certificates
    assert np.signbit(certs[2].M[i, j]) and not np.signbit(certs[0].M[i, j])
    assert certs[2].M is not certs[0].M and certs[2] is not certs[0]
    assert certs[0] is certs[1] is certs[3]
    reports = cli._per_certificate(spsf.check_conditions, project, range(4), 1e-9)
    assert reports[2] is not reports[0] and reports[0] is reports[1] is reports[3]
    assert all(r.passed for r in reports.values())

    # a save keeps the sign: the copy reads back with its own array
    path = tmp_path / "ring.json"
    save_project(project, path)
    again = load_project(path).certificates
    assert np.signbit(again[2].M[i, j]) and again[2].M is not again[0].M


def test_non_utf8_project_exits_2(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b'{"schema_version": 2, "note": "\xd0\x00\xff"}')
    assert main(["check", "--project", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path} is not valid JSON: 'utf-8' codec can't decode" in err


def test_deeply_nested_project_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["check", "--project", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path} is not valid JSON: maximum recursion depth exceeded" in err


def test_derivation_warning_comes_once_per_distinct_subsystem():
    doc = ring_document(6)
    for s in doc["subsystems"]:
        for row in s["B"]:
            row[1] = row[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        project_from_dict(doc)
    assert [type(w.message) for w in caught] == [RankDeficientWarning, SingularGramWarning]
