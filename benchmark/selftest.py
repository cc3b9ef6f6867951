"""Self-test of the benchmark harness.

Runs each workload twice in traced mode with the same seed and the shortest
run length (one untraced and one traced iteration), then checks that

* the exact counts below are identical between the two runs, and
* in the dumped spans of each run, every span under ``arr_run`` lies inside
  its parent, no self time is negative, the self times add up to the
  ``arr_run`` duration, and that duration is the reported ``arr.solve_s``.

Usage, from the repository root::

    python3 benchmark/selftest.py [workload ...]

Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import check_spans  # noqa: E402

EXACT_COUNTS = (
    "arr.sweeps",
    "arr.sweep_cap_hits",
    "arr.energy_calls",
    "feti.pcpg_iters",
    "feti.local_solve_calls",
    "problems.mode_bytes",
    "reference.mc_samples",
)
SEED = 7


def traced_run(workload: str) -> tuple[dict, list]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "0", "--trace", "1",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    spans_file = HERE.parent / ".bench_out" / f"{workload}-seed{SEED}-trace1-spans.json"
    return result, json.loads(spans_file.read_text())


def check_workload(workload: str) -> list[str]:
    problems = []
    runs = [traced_run(workload) for _ in range(2)]
    for k, (result, spans) in enumerate(runs, start=1):
        if not result["correct"]:
            problems.append(f"run {k}: {result['failed']} operations failed")
        problems += [f"run {k}: {p}" for p in check_spans(spans)]
        roots = [s for s in spans if s[0] == "arr.solve"]
        reported = result["metrics"]["arr.solve_s"]["value"]
        if len(roots) != 1 or abs(roots[0][2] - roots[0][1] - reported) > 1e-9:
            problems.append(f"run {k}: arr.solve_s {reported} is not the traced arr_run span")
    first, second = (r["metrics"] for r, _ in runs)
    for name in EXACT_COUNTS:
        a, b = first[name]["value"], second[name]["value"]
        if a != b:
            problems.append(f"{name}: {a} then {b}")
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in names:
        problems = check_workload(workload)
        print(f"{workload}: {'PASS' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
