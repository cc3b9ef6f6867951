"""Run sepfeti benchmark workloads and print their metrics.

Usage, from the repository root::

    python3 benchmark/run.py --workload lshape-desk --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1       # every workload in turn

A run builds the workload's problem from the seeded config, solves it and
compares the solution with the workload's oracle, over and over until
``--seconds`` have passed, and reports medians over those passes (see
``Runner.run`` in ``harness.py`` for when a pass rebuilds its problem). It
checks every output; an operation (one solve or one oracle call) whose call
raises or whose output fails a check counts as failed, and the run goes on.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics: the traced iterations record spans around the library's
public functions (see ``spans.py``), and ``trace.overhead_s`` is the traced
``arr.solve_s`` minus the untraced solve time. Human-readable lines come
first; the last line of standard output is the JSON result. The full result
with its environment record, and in traced runs the spans, go to
``.bench_out/`` in the repository root.

The package is imported from ``src/`` of the same checkout; without those
sources the run exits with code 2 and prints no result.
"""

import json
import os
import sys
from pathlib import Path

# Pin the numeric libraries to one thread before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    src = ROOT / "src"
    if not (src / "sepfeti" / "__init__.py").is_file():
        fail(f"no sepfeti sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import sepfeti

    if Path(sepfeti.__file__).resolve().parent != src / "sepfeti":
        fail(f"imported sepfeti from {sepfeti.__file__}, not from {src}")
    import harness

    return harness.main(spec)


if __name__ == "__main__":
    sys.exit(main())
