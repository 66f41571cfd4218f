"""Smoke test of the benchmark at toy size.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at toy size and checks that each run
is correct and emits every metric BENCHMARK.json names, with its unit.  Then
it corrupts one expected output and checks that every op is counted failed.
"""

import io
import json
import sys

import run  # fixes the BLAS thread count before numpy loads


def _run(bench, workloads, name: str, trace: bool, out) -> dict:
    return bench.run_workload(
        name, seed=5, seconds=0, trace=trace, root=run.ROOT, src=run.SRC,
        blas_threads=run.BLAS_THREADS, sizes=workloads.TOY, setup_repeats=1, out=out,
    )


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_simcert()
    import bench
    import workloads

    for name in run.NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            text = io.StringIO()
            result = _run(bench, workloads, name, trace, text)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{name} trace={trace}: metrics {got} != {expected}"
            assert result["correct"] and result["failed"] == 0, text.getvalue()
            assert result["attempted"] >= 1
            print(f"smoke: {name} trace={int(trace)} ok ({result['attempted']} ops)")

    workloads.PAPER_PASS = "a line the program never prints"
    text = io.StringIO()
    result = _run(bench, workloads, "paper-mc", False, text)
    assert not result["correct"], text.getvalue()
    assert result["failed"] == result["attempted"] >= 1, result
    assert "failed_ratio = 1 " in text.getvalue(), text.getvalue()
    print(f"smoke: corrupted expectation counted ({result['failed']}/{result['attempted']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
