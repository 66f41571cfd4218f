"""simcert benchmark: closed-loop Monte Carlo and certification workloads.

Run from the root of a source checkout (simcert is imported from ``src/``):

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an ``env`` line before
it records the interpreter, libraries, CPU and the BLAS thread count.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy loads: steadier than the default pool on
# a small shared machine, and never more threads than cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("paper-mc", "ring-64", "ref-csv", "certify")


def import_simcert() -> None:
    """Import simcert from this checkout's ``src/``, and from nowhere else."""
    if not (SRC / "simcert" / "__init__.py").is_file():
        sys.exit(f"error: no simcert sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import simcert

    if Path(simcert.__file__).resolve().parent != SRC / "simcert":
        sys.exit(f"error: imported simcert from {simcert.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if args.workload == "all":
        rc = 0
        for name in NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(cmd, check=False).returncode)
        return rc

    # Pin to one core: the speed probe then times the core the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_simcert()
    import bench

    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                root=ROOT, src=SRC, blas_threads=BLAS_THREADS)
    print("env " + json.dumps(bench.environment(BLAS_THREADS), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
