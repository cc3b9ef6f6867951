"""Command-line interface: solve, build references, compare, export meshes.

Numeric imports happen inside the command handlers so that ``--threads`` can
pin the BLAS/OpenMP thread-count environment variables first (effective when
the process has not loaded the numeric libraries yet, e.g. via the console
script). All data files are written deterministically — fixed key order,
``repr`` floats — so reruns with identical inputs are byte-identical; wall
times live only in ``manifest.json``.

Exit codes: 0 success, 1 I/O failure, 2 invalid configuration or usage,
3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _set_threads(n: int | None) -> None:
    if n is None:
        return
    for var in _THREAD_VARS:
        os.environ[var] = str(int(n))


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    if args.config is not None:
        return json.loads(Path(args.config).read_text())
    from . import problems

    return problems.profile_config(args.profile)


def _build_problem(args: argparse.Namespace):
    from . import problems

    return problems.build_from_config(_load_config(args))


def _dump_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_manifest(
    out: Path,
    command: str,
    timings: dict[str, float],
    outputs: list[str],
) -> None:
    import numpy
    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "elapsed_seconds": {k: round(v, 3) for k, v in timings.items()},
        "outputs": outputs,
    }
    (out / "manifest.json").write_text(_dump_json(manifest))


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    _set_threads(args.threads)
    from . import arr, stats

    t0 = perf_counter()
    problem = _build_problem(args)
    t_build = perf_counter() - t0

    t0 = perf_counter()
    solution, trace = arr.arr_run(
        problem, eps=args.eps, r_max=args.rank_max, seed=args.seed
    )
    t_solve = perf_counter() - t0

    report = stats.report_separated(problem, solution, label="separated")
    out = _out_dir(args)
    (out / "solution.json").write_text(solution.to_json() + "\n")
    (out / "trace.csv").write_text(trace.to_csv())
    (out / "moments.csv").write_text(report.to_csv())
    last = trace.ranks[-1]
    summary = {
        "converged": trace.converged,
        "rank": solution.rank,
        "eps_res": last.eps_res,
        "eps_res_se": last.eps_res_se,
        "n_sweeps_total": len(trace.sweeps),
        "report": json.loads(report.to_json()),
        "config": problem.config,
    }
    (out / "summary.json").write_text(_dump_json(summary))
    _write_manifest(
        out,
        "run",
        {"build": t_build, "solve": t_solve},
        ["solution.json", "trace.csv", "moments.csv", "summary.json"],
    )
    print(
        f"run: converged={trace.converged} rank={solution.rank} "
        f"eps_res={last.eps_res:.3e} -> {out}"
    )
    return EXIT_OK


def _cmd_reference(args: argparse.Namespace) -> int:
    _set_threads(args.threads)
    from . import reference, stats

    t0 = perf_counter()
    problem = _build_problem(args)
    t_build = perf_counter() - t0

    t0 = perf_counter()
    if args.method == "sg":
        sg = reference.solve_monolithic_sg(problem, p=args.order)
        mean, std = sg.mean(), sg.std()
        extra: dict[str, Any] = {"method": "sg", "basis_terms": len(sg.idx_set)}
    else:
        acc = reference.monte_carlo_reference(
            problem, n_samples=args.samples, seed=args.seed
        )
        mean, std = acc.mean, acc.std
        extra = {"method": "mc", "n_samples": acc.n_samples, "seed": args.seed}
    t_solve = perf_counter() - t0

    report = stats.report_reference(
        problem, mean, std, label=args.method, metadata=extra
    )
    out = _out_dir(args)
    (out / "moments.csv").write_text(report.to_csv())
    summary = {
        "report": json.loads(report.to_json()),
        "config": problem.config,
        **extra,
    }
    (out / "summary.json").write_text(_dump_json(summary))
    _write_manifest(
        out,
        "reference",
        {"build": t_build, "solve": t_solve},
        ["moments.csv", "summary.json"],
    )
    print(f"reference: method={args.method} dofs={report.mean.size} -> {out}")
    return EXIT_OK


def _read_moments(path: Path):
    import numpy as np

    from . import stats

    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != 3:
        raise ValueError(f"{path} is not a dof,mean,std table")
    return stats.MomentReport(
        label=path.stem, mean=table[:, 1], std=table[:, 2], probe={}, metadata={}
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import stats

    candidate = _read_moments(Path(args.candidate))
    ref = _read_moments(Path(args.reference))
    metrics = stats.error_metrics(candidate, ref)
    payload = {
        "candidate": str(args.candidate),
        "reference": str(args.reference),
        "eps_mean": metrics.eps_mean,
        "eps_std": metrics.eps_std if metrics.std_defined else None,
        "std_defined": metrics.std_defined,
    }
    text = _dump_json(payload)
    if args.out is not None:
        Path(args.out).write_text(text)
    eps_std = f"{metrics.eps_std:.6e}" if metrics.std_defined else "undefined"
    print(f"compare: eps_mean={metrics.eps_mean:.6e} eps_std={eps_std}")
    return EXIT_OK


def _cmd_mesh_export(args: argparse.Namespace) -> int:
    problem = _build_problem(args)
    subs = []
    for i in range(2):
        mesh = problem.sub[i].mesh
        subs.append(
            {
                "nodes": mesh.nodes.tolist(),
                "triangles": mesh.triangles.tolist(),
                "dirichlet_nodes": problem.dirichlet_nodes[i].tolist(),
                "floating": problem.sub[i].floating,
                "n_free_dofs": problem.sub[i].n_dofs,
            }
        )
    payload = {
        "kind": problem.kind,
        "ncomp": problem.ncomp,
        "interface": problem.interface_coords.tolist(),
        "subdomains": subs,
    }
    out = _out_dir(args)
    (out / "mesh.json").write_text(_dump_json(payload))
    print(f"mesh-export: {problem.kind} -> {out}")
    return EXIT_OK


def _add_problem_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON config file (full or partial overlay)")
    group.add_argument(
        "--profile",
        help="named built-in configuration (lshape, lshape-desk, beam, beam-desk)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepfeti",
        description=(
            "Low-rank separated-representation solver for linear PDEs on two "
            "coupled sub-domains with high-dimensional random inputs"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="solve with the alternating rank-update algorithm"
    )
    _add_problem_source(run)
    run.add_argument("--out-dir", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override solver.seed")
    run.add_argument(
        "--eps", type=float, default=None, help="override the residual target"
    )
    run.add_argument(
        "--rank-max", type=int, default=None, help="override the rank cap"
    )
    run.add_argument(
        "--threads", type=int, default=None, help="pin BLAS/OpenMP thread count"
    )
    run.set_defaults(func=_cmd_run)

    ref = commands.add_parser(
        "reference", help="monolithic reference statistics (Galerkin or Monte Carlo)"
    )
    _add_problem_source(ref)
    ref.add_argument("--out-dir", required=True, help="output directory")
    ref.add_argument(
        "--method", choices=("sg", "mc"), default="sg", help="reference solver"
    )
    ref.add_argument(
        "--order", type=int, default=None, help="combined-basis total degree (sg)"
    )
    ref.add_argument(
        "--samples", type=int, default=10_000, help="number of realizations (mc)"
    )
    ref.add_argument("--seed", type=int, default=0, help="sampling seed (mc)")
    ref.add_argument(
        "--threads", type=int, default=None, help="pin BLAS/OpenMP thread count"
    )
    ref.set_defaults(func=_cmd_reference)

    cmp_ = commands.add_parser(
        "compare", help="relative moment errors between two moments.csv files"
    )
    cmp_.add_argument("--candidate", required=True, help="candidate moments.csv")
    cmp_.add_argument("--reference", required=True, help="reference moments.csv")
    cmp_.add_argument("--out", default=None, help="write the metrics as JSON here")
    cmp_.set_defaults(func=_cmd_compare)

    mesh = commands.add_parser(
        "mesh-export", help="dump meshes, interface and constraints as JSON"
    )
    _add_problem_source(mesh)
    mesh.add_argument("--out-dir", required=True, help="output directory")
    mesh.set_defaults(func=_cmd_mesh_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON config: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # ConfigError and the basis-size guard both derive from ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        from .feti import SolverError

        if isinstance(exc, SolverError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        raise


if __name__ == "__main__":
    sys.exit(main())
