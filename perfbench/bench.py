"""Closed-loop measurement of one workload and its metrics.

One client runs the workload's op cycle again and again; the next op starts
only when the previous one has ended.  Untraced runs give the end-to-end
metrics.  Traced runs alternate untraced and traced cycles and give the
per-layer metrics, counted per cycle.

On a shared host the speed of a core swings by up to 1.8x for tens of
seconds at a time, which no median over one run absorbs.  Interpreter-bound
work feels the swing fully, work bound by memory bandwidth about half of it.
A fixed interpreter-bound kernel is therefore timed before and after every
cycle and every set-up probe, and the time of interpreter-bound work is
reported in reference seconds: measured seconds times ``REFERENCE_S / kernel
seconds``, the time the work would take on a core where the kernel takes
``REFERENCE_S``.  Set-up time is always scaled; a workload's op times are
scaled unless the workload declares its ops memory-bound.  Wall-clock figures
are printed beside the scaled ones.
"""

import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from spans import LAYERS, Tracer
from workloads import FULL, WORKLOADS, Op, Sizes

END_TO_END_UNITS = {"work_per_s": "1/s", "cmd_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "montecarlo.noise.calls": "count",
    "montecarlo.noise.self_s": "s",
    "montecarlo.noise.useful_ratio": "ratio",
    "montecarlo.simulate.self_s": "s",
    "montecarlo.reduce.self_s": "s",
    "montecarlo.trials": "count",
    "cli.self_s": "s",
    "project.load.calls": "count",
    "project.load.self_s": "s",
    "project.save.calls": "count",
    "project.save.self_s": "s",
    "model.assemble.calls": "count",
    "model.assemble.self_s": "s",
    "spsf.synth.calls": "count",
    "spsf.synth.self_s": "s",
    "spsf.synth.certified_ratio": "ratio",
    "spsf.check.calls": "count",
    "spsf.check.self_s": "s",
    "spsf.constants.calls": "count",
    "spsf.constants.self_s": "s",
    "spsf.structural.calls": "count",
    "spsf.structural.self_s": "s",
    "smallgain.calls": "count",
    "smallgain.self_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "reference.self_s": "s",
    "trace.overhead_s": "s",
}

REFERENCE_S = 0.03  # nominal duration of one reference-kernel pass
MIN_CYCLES = 3  # untraced cycles of an untraced run
MIN_TRACED = 2  # traced and untraced cycles each, in a traced run
SETUP_REPEATS = 3

# Run in a fresh interpreter: the time to import simcert and load the project.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import simcert
if len(sys.argv) > 2:
    simcert.load_project(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


@dataclass(frozen=True)
class OpRecord:
    cycle: int
    label: str
    kind: str
    work: int
    wall: float
    error: str | None


@dataclass(frozen=True)
class Cycle:
    """One pass over the workload's ops; ``scale`` turns its seconds into reference seconds."""

    index: int
    traced: bool
    wall: float
    scale: float
    ops: list[OpRecord]


class SpeedProbe:
    """Times a fixed interpreter-bound kernel that tracks the current speed of the core.

    The kernel mixes what simcert's Python loops spend their time on: Philox
    stream construction, draws and 25 x 25 products.  It calls nothing in
    simcert, so no change to the program can move it.
    """

    def __init__(self):
        self.matrix = np.full((25, 25), 0.03)
        self.last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        x = np.zeros(25)
        for i in range(2000):
            g = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(i,))))
            x = self.matrix @ x + g.standard_normal(25)
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Reference-second scale for the interval since the previous call."""
        before, self.last = self.last, self.measure()
        return REFERENCE_S / ((before + self.last) / 2)


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": blas_threads,
    }


def measure_setup(src: Path, project_file: Path | None, repeats: int,
                  probe: SpeedProbe) -> list[tuple[float, float]]:
    """(seconds, scale) of fresh interpreters importing simcert and loading the project."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(src)]
    if project_file is not None:
        argv.append(str(project_file))
    times = []
    probe.scale()
    for _ in range(repeats):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append((float(done.stdout.strip().splitlines()[-1]), probe.scale()))
    return times


def run_op(op: Op, cycle: int, tracer: Tracer | None) -> OpRecord:
    t0 = time.perf_counter()
    try:
        value = tracer.root(op.kind, op.call) if tracer else op.call()
        error = None
    except Exception:  # a crashing op is a failed op; the run goes on
        value, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    if error is None:
        error = op.check(value)
    return OpRecord(cycle, op.label, op.kind, op.work, wall, error)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return None
    ranked = sorted(samples)
    k = len(ranked) - 11
    return 100.0 * (k + 1) / len(ranked), ranked[k]


def end_to_end(cycles: list[Cycle], setup: list[tuple[float, float]],
               scaled: bool = True) -> dict[str, float]:
    """The metrics in reference seconds, or in wall seconds with ``scaled=False``."""
    rates, cmd_s = [], []
    for c in cycles:
        scale = c.scale if scaled else 1.0
        work = [r for r in c.ops if r.work]
        rates.append(sum(r.work for r in work) / (scale * sum(r.wall for r in work)))
        cmds = [r.wall for r in c.ops if r.kind == "cli"]
        cmd_s.append(scale * sum(cmds) / len(cmds))
    return {
        "work_per_s": statistics.median(rates),
        "cmd_s.p50": statistics.median(cmd_s),
        "setup_s": statistics.median(t * (k if scaled else 1.0) for t, k in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(tracer: Tracer, cycles: list[Cycle], noise_dims: dict[int, int],
              problems: list[str]) -> dict[str, float]:
    """Per-cycle layer counts and self times (medians over the traced cycles)."""
    t = tracer.table()
    traced = [c for c in cycles if c.traced]
    op_cycle = np.array([c.index for c in cycles for _ in c.ops], dtype=np.int64)
    span_cycle = op_cycle[t["op"]]
    code = {name: i for i, name in enumerate(tracer.layers)}

    per_cycle: dict[str, list[float]] = {}
    for c in traced:
        in_cycle = span_cycle == c.index
        row: dict[str, float] = {}
        for layer in LAYERS:
            sel = in_cycle & (t["layer"] == code[layer])
            row[f"{layer}.calls"] = int(sel.sum())
            row[f"{layer}.self_s"] = c.scale * float(t["self"][sel].sum())
        noise = in_cycle & (t["layer"] == code["montecarlo.noise"])
        useful = int(sum(1 for k in t["extra"][noise] if noise_dims.get(int(k), 0) > 0))
        row["montecarlo.noise.useful"] = useful
        sims = in_cycle & (t["layer"] == code["montecarlo.simulate"])
        row["montecarlo.trials"] = int(t["extra"][sims].sum())
        synth = in_cycle & (t["layer"] == code["spsf.synth"])
        row["spsf.synth.ok"] = int(t["ok"][synth].sum())
        roots = in_cycle & (t["layer"] == code["cli"])
        row["cli.self_s"] = c.scale * float(t["self"][roots].sum())
        for key, value in row.items():
            per_cycle.setdefault(key, []).append(value)

        # every stream that feeds noise must be built; q == 0 streams may be skipped
        useful_sides = sum(1 for q in noise_dims.values() if q > 0)
        if useful != row["montecarlo.trials"] * useful_sides:
            problems.append(f"cycle {c.index}: {useful} noise streams with q > 0, expected "
                            f"{row['montecarlo.trials']} trials x {useful_sides} sides")

    for key, values in per_cycle.items():
        if not key.endswith("self_s") and len(set(values)) > 1:
            problems.append(f"{key} differs between cycles: {values}")

    def count(key):
        return per_cycle[key][0]

    out = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_s"):
            out[name] = statistics.median(per_cycle[name])
        elif name.endswith(".calls"):
            out[name] = count(name)
    noise_calls = count("montecarlo.noise.calls")
    synth_calls = count("spsf.synth.calls")
    out["montecarlo.noise.useful_ratio"] = (
        count("montecarlo.noise.useful") / noise_calls if noise_calls else 0.0
    )
    out["montecarlo.trials"] = count("montecarlo.trials")
    out["spsf.synth.certified_ratio"] = count("spsf.synth.ok") / synth_calls if synth_calls else 0.0
    out["trace.overhead_s"] = statistics.median(
        c.scale * c.wall for c in traced
    ) - statistics.median(c.scale * c.wall for c in cycles if not c.traced)
    return {name: out[name] for name in PER_LAYER_UNITS}


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, root: Path, src: Path,
                 blas_threads: int, sizes: Sizes = FULL, setup_repeats: int = SETUP_REPEATS,
                 out=sys.stdout) -> dict:
    """Measure one workload and return the result object the benchmark prints last."""
    workdir = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](workdir, seed, sizes)
        probe = SpeedProbe()
        setup = [] if trace else measure_setup(src, workload.setup_file, setup_repeats, probe)
        records = [run_op(op, -1, None) for op in workload.untimed()]
        tracer = Tracer() if trace else None
        cycles: list[Cycle] = []
        op_count = 0
        gc.collect()
        probe.scale()
        start = time.perf_counter()
        while True:
            done_traced = sum(c.traced for c in cycles)
            done_plain = len(cycles) - done_traced
            if trace:
                enough = min(done_plain, done_traced) >= MIN_TRACED
            else:
                enough = done_plain >= MIN_CYCLES
            if enough and time.perf_counter() - start >= seconds:
                break
            traced = trace and len(cycles) % 2 == 1
            index = len(cycles)
            if traced:
                tracer.install()
            ops = []
            t0 = time.perf_counter()
            try:
                for op in workload.cycle(index):
                    if traced:
                        tracer.op = op_count
                    ops.append(run_op(op, index, tracer if traced else None))
                    op_count += 1
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            gc.collect()
            scale = 1.0 if workload.memory_bound else probe.scale()
            cycles.append(Cycle(index, traced, wall, scale, ops))
        records += [r for c in cycles for r in c.ops]

        problems: list[str] = []
        if trace:
            metrics = per_layer(tracer, cycles, workload.noise_dims, problems)
            raw = None
            units = PER_LAYER_UNITS
            spans_dir = root / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            tracer.save(spans_dir / f"spans-{name}-seed{seed}.npz")
        else:
            metrics = end_to_end(cycles, setup)
            raw = end_to_end(cycles, setup, scaled=False)
            units = END_TO_END_UNITS
        failed = [r for r in records if r.error]
        report(out, name, seed, records, failed, problems, cycles, setup, metrics, raw, units)
        return {
            "correct": not failed and not problems,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(out, name, seed, records, failed, problems, cycles, setup, metrics, raw,
           units) -> None:
    """Human-readable summary: every metric by name and unit, wall-clock beside it."""
    p = functools.partial(print, file=out)
    walls = sorted(c.wall for c in cycles)
    p(f"workload {name}  seed {seed}  cycles {len(cycles)}  ops {len(records)}  cycle wall "
      f"min/median/max {walls[0]:.4g}/{statistics.median(walls):.4g}/{walls[-1]:.4g} s")
    p(f"  failed_ratio = {len(failed) / len(records):.6g}  ({len(failed)}/{len(records)} ops)")
    for r in failed[:5]:
        p(f"  FAILED {r.label} (cycle {r.cycle}): {r.error}")
    for msg in problems[:5]:
        p(f"  PROBLEM {msg}")
    if raw is None:
        for k, v in metrics.items():
            p(f"  {k} = {v:.6g} {units[k]}")
        return
    alias = "synth_per_s" if name == "certify" else "trials_per_s"
    p(f"  {alias} (work_per_s) = {metrics['work_per_s']:.6g} 1/s  "
      f"[wall clock {raw['work_per_s']:.6g}]")
    cmds = [c.scale * r.wall for c in cycles for r in c.ops if r.kind == "cli"]
    p(f"  cmd_s.p50 = {metrics['cmd_s.p50']:.6g} s  [wall clock {raw['cmd_s.p50']:.6g}]  "
      f"(median over {len(cycles)} cycles of the mean command time; {len(cmds)} commands)")
    t = tail(cmds)
    if t is None:
        p(f"  cmd_s.tail = n/a  (needs >= 11 commands, have {len(cmds)})")
    else:
        p(f"  cmd_s.tail = {t[1]:.6g} s  (p{t[0]:.4g} of {len(cmds)} commands)")
    p(f"  setup_s = {metrics['setup_s']:.6g} s  [wall clock {raw['setup_s']:.6g}]  "
      f"(median of {len(setup)} fresh interpreters)")
    p(f"  peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    p("raw " + json.dumps(raw))
