"""Benchmark loop, checks and reporting; started through ``run.py``."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from sepfeti import arr, problems, reference, stats
from spans import Tracer
from workloads import WORKLOADS, energy_problems, nonfinite, threshold_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
RUN_PY = HERE / "run.py"
ORACLE_SHARE = 0.3  # largest share of a run that re-timing a fixed oracle may take
SETUP_SHARE = 0.2  # largest share of a run that rebuilding a problem may take
MIN_SETUPS = 3  # builds in an untraced run, whatever they cost
ORACLE_SAMPLE_S = 0.25  # shortest stretch of calls behind one ``oracle_s`` sample


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(str(ROOT / ".git" / ref))
    if commit:
        return commit
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level} {kind}"] = _read(f"{index}/size")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# one workload


class Operations:
    """Attempted/failed bookkeeping; a failure is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, what: str, fn):
        """Run ``fn`` and return its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")
            print(f"benchmark: {what} raised\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def judge(self, what: str, found: list[str]) -> None:
        """Count the last attempt as failed when its checks found problems."""
        if found:
            self.failures.append(f"{what}: " + "; ".join(found))
            print(f"benchmark: {what} failed: {found}", file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else 0.0


def sub_seed(seed: int, k: int) -> int:
    """Solver seed of pass ``k`` of a run with workload seed ``seed``.

    Each pass solves from its own initial factors, so a run's medians
    average over initial factors instead of resting on one draw: the seed
    moves interface and local-solve iteration counts by tens of percent.
    """
    return 1000 * seed + k


class Runner:
    """One workload and seed: the oracle, then timed pipeline passes."""

    def __init__(self, workload, seed: int, tracer: Tracer | None) -> None:
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.ops = Operations()
        self.setup_times: list[float] = []
        self.oracle_times: list[float] = []
        self.oracle_spent = 0.0

    def tracing(self, on: bool):
        return self.tracer.installed() if on else contextlib.nullcontext()

    def build(self, cfg: dict):
        """``problems.build_from_config``, timed as one ``setup_s`` sample."""
        t0 = perf_counter()
        problem = problems.build_from_config(cfg)
        self.setup_times.append(perf_counter() - t0)
        return problem

    def oracle(self, problem, timings: list[float] | None = None, report: bool = True):
        """One timed reference solve: (report, n_samples, (mean, std)), or
        None on failure. The call's time goes to ``timings`` (default:
        ``oracle_times``). Without ``report`` the report is None: re-timing
        calls skip it. The Monte-Carlo samples depend on the workload seed
        only."""
        timings = self.oracle_times if timings is None else timings
        w = self.w
        kind = f"{w.oracle} oracle"

        def call():
            t0 = perf_counter()
            if w.oracle == "sg":
                sol = reference.solve_monolithic_sg(problem)
                mean, std, n = sol.mean(), sol.std(), 0
            else:
                acc = reference.monte_carlo_reference(
                    problem, n_samples=w.mc_samples, seed=[self.seed, 0x0AC1E]
                )
                mean, std, n = acc.mean, acc.std, acc.n_samples
            seconds = perf_counter() - t0
            self.oracle_spent += seconds
            timings.append(seconds)
            out = stats.report_reference(problem, mean, std, label=w.oracle) if report else None
            return out, n, (mean, std)

        out = self.ops.attempt(kind, call)
        if out is not None:
            rep, n, (mean, std) = out
            found = nonfinite(oracle_mean=mean, oracle_std=std)
            if rep is not None:
                found += nonfinite(report_mean=rep.mean, report_std=rep.std)
            if w.oracle == "mc" and n != w.mc_samples:
                found.append(f"oracle used {n} samples, not {w.mc_samples}")
            self.ops.judge(kind, found)
        return out

    def fixed_oracle(self, traced: bool):
        """The oracle computed once, before the timed passes. Returns its
        problem, the oracle and, when traced, its layer summary. Building
        its problem is one more operation."""
        problem = self.ops.attempt(
            "oracle setup", lambda: self.build(self.w.config(self.seed))
        )
        if problem is None:
            return None, None, {}
        with self.tracing(traced):
            mark = self.tracer.mark() if traced else 0
            out = self.oracle(problem)
            layers = self.tracer.summary(mark) if traced else {}
        return problem, out, layers

    def iteration(self, oracle, k: int, built=None) -> dict:
        """(Build,) (oracle,) solve, report, compare: pipeline pass ``k``.
        Given a ``built`` problem, the pass solves that problem under pass
        ``k``'s config instead of building it again: the build reads no
        solver setting, so the problem is the one a build would give."""
        w = self.w
        cfg = w.config(sub_seed(self.seed, k))
        row: dict = {}

        def solve():
            if built is None:
                problem = self.build(cfg)
                row["setup_s"] = self.setup_times[-1]
            else:
                problem = dataclasses.replace(built, config=cfg)
            ref = self.oracle(problem) if w.oracle_in_loop else oracle
            t0 = perf_counter()
            solution, trace = arr.arr_run(problem)
            row["solve_s"] = perf_counter() - t0
            report = stats.report_separated(problem, solution)
            return problem, solution, trace, report, ref

        out = self.ops.attempt("solve", solve)
        if out is None:
            return row
        problem, solution, trace, report, oracle = out
        row["problem"] = problem
        found = nonfinite(
            u1=solution.u1, u2=solution.u2, lam=solution.lam,
            phi1=solution.phi1, phi2=solution.phi2,
            mean=report.mean, std=report.std,
        )
        found += energy_problems(trace)
        if oracle is None:
            found.append("no oracle to compare against")
        else:
            ref, n_samples, _ = oracle
            metrics = stats.error_metrics(report, ref)
            row["eps_mean"], row["eps_std"] = metrics.eps_mean, metrics.eps_std
            found += threshold_problems(w, metrics, ref, n_samples)
        self.ops.judge("solve", found)

        last = trace.ranks[-1]
        max_sweeps = int(cfg["solver"]["max_sweeps"])
        row.update({
            "problems.modes": sum(len(s.K_modes) for s in problem.sub),
            "problems.mode_bytes": sum(
                K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
                for s in problem.sub for K in s.K_modes
            ),
            "arr.sweeps": len(trace.sweeps),
            "arr.sweep_cap_hits": sum(r.n_sweeps == max_sweeps for r in trace.ranks),
            "arr.rank": solution.rank,
            "arr.converged": int(trace.converged),
            "arr.eps_res": last.eps_res,
            "arr.eps_res_se": last.eps_res_se,
        })
        return row

    def retime_oracle(self, problem, oracle) -> None:
        """One ``oracle_s`` sample: the mean time of calls repeated for at
        least ``ORACLE_SAMPLE_S``, so that a cheap oracle's sample spans
        more than the machine's short speed swings. Every call must
        reproduce the first call's moments."""
        timings: list[float] = []
        start = perf_counter()
        while not timings or perf_counter() - start < ORACLE_SAMPLE_S:
            again = self.oracle(problem, timings, report=False)
            if again is None:
                return
            if not all(map(np.array_equal, again[2], oracle[2])):
                self.ops.judge("oracle", ["a repeated call gave other moments"])
        self.oracle_times.append(statistics.fmean(timings))

    def run(self, seconds: float, traced_mode: bool) -> tuple[list[dict], dict]:
        """Pipeline passes until ``seconds`` have passed since the run began,
        the fixed oracle included; no pass or oracle sample starts that
        would end past that time, once the run has its least passes.

        In traced mode the passes come in untraced/traced pairs on the same
        inputs, and each builds its problem. An untraced pass builds its
        problem while the run has fewer than ``MIN_SETUPS`` builds or builds
        have taken less than ``SETUP_SHARE`` of it, and otherwise solves the
        last problem built. An untraced run with a fixed oracle re-times it
        after a pass while its calls have taken less than ``ORACLE_SHARE``
        of the run. So ``setup_s``, ``solve_s`` and ``oracle_s`` are each
        medians of samples spread over the whole run. Returns the per-pass
        rows and the fixed oracle's layer summary."""
        t_run = perf_counter()
        deadline = t_run + seconds
        oracle, oracle_layers, built = None, {}, None
        fixed = not self.w.oracle_in_loop
        if fixed:
            built, oracle, oracle_layers = self.fixed_oracle(traced_mode)
        rows: list[dict] = []
        pass_times: list[float] = []
        min_passes = 2 if traced_mode else 1
        while len(rows) < min_passes or (
            perf_counter() + _median(pass_times) < deadline
        ):
            k = len(rows)
            traced = traced_mode and k % 2 == 1
            elapsed = perf_counter() - t_run
            rebuild = (
                traced_mode or built is None
                or len(self.setup_times) < MIN_SETUPS
                or sum(self.setup_times) < SETUP_SHARE * elapsed
            )
            if rebuild:
                built = None  # free the last problem before building the next
            t0 = perf_counter()
            with self.tracing(traced):
                mark = self.tracer.mark() if traced else 0
                row = self.iteration(oracle, k // 2 if traced_mode else k, built)
                if traced:
                    row.update(self.tracer.summary(mark))
            row["pass_s"] = perf_counter() - t0
            pass_times.append(row["pass_s"])
            built = row.pop("problem", built)
            row["traced"] = traced
            rows.append(row)
            if (
                fixed and not traced_mode and oracle is not None
                and built is not None and self.oracle_times
                and self.oracle_spent < ORACLE_SHARE * (perf_counter() - t_run)
                and perf_counter() + self.oracle_times[-1] < deadline
            ):
                self.retime_oracle(built, oracle)
        return rows, oracle_layers


def end_to_end(runner: Runner, rows: list[dict]) -> dict:
    def median_of(name):
        return _median([r[name] for r in rows if name in r])

    return {
        "setup_s": _median(runner.setup_times),
        "solve_s": median_of("solve_s"),
        "oracle_s": _median(runner.oracle_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eps_mean": median_of("eps_mean"),
        "eps_std": median_of("eps_std"),
    }


def per_layer(rows: list[dict], oracle_layers: dict, units: dict[str, str]) -> dict:
    """Medians over the traced passes, plus the fixed oracle's share once.
    Counts (of calls, iterations or bytes) come from the first traced pass,
    whose inputs depend on the workload seed alone, so they repeat exactly
    between runs."""
    traced = [r for r in rows if r["traced"]]
    out = {}
    for name, unit in units.items():
        values = [r[name] for r in traced if name in r]
        if unit in ("count", "B"):
            values = values[:1]
        out[name] = _median(values) + oracle_layers.get(name, 0)
    sweeps = out["arr.sweeps"]
    out["arr.sweep_s"] = out["arr.solve_s"] / sweeps if sweeps else 0.0
    out["stats.eps_mean"] = _median([r["eps_mean"] for r in traced if "eps_mean" in r])
    out["stats.eps_std"] = _median([r["eps_std"] for r in traced if "eps_std" in r])
    untraced = [r["solve_s"] for r in rows if not r["traced"] and "solve_s" in r]
    out["trace.overhead_s"] = out["arr.solve_s"] - _median(untraced)
    return out


def run_one(args, spec: dict) -> int:
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, Tracer() if args.trace else None)
    rows, oracle_layers = runner.run(args.seconds, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values = per_layer(rows, oracle_layers, wanted)
    else:
        values = end_to_end(runner, rows)
    ops = runner.ops
    failed = len(ops.failures)
    env = environment(args.workload, args.seed, args.seconds, args.trace)

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(rows)} passes, "
        f"{ops.attempted} operations, {failed} failed"
    )
    for name, unit in wanted.items():
        value = values[name]
        print(f"{name:28s} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    if not args.trace:
        for name in ("eps_mean", "eps_std"):
            print(f"{name:28s} {values[name]:.6g} 1")
    print(f"{'failed_ratio':28s} {failed / max(ops.attempted, 1):.6g} 1")
    print("# environment " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": env,
        "metrics": values,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "passes": rows,
        "oracle_times": runner.oracle_times,
    }
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(runner.tracer.spans) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in wanted.items()},
    }))
    return 0


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one after another, so that each
    reports its own peak memory."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in names:
        cmd = [
            sys.executable, str(RUN_PY), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({
        "correct": status == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return status


def main(spec: dict, argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmark/run.py", description="Run sepfeti benchmark workloads."
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args, spec)
