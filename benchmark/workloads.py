"""Benchmark workloads and the checks applied to their outputs.

Every workload is a built-in profile with a solver table overlaid. The
overlays fix the amount of work a solve does, so that a run's timings
measure the code rather than the seed: ``sweep_tol = 0`` makes every rank
run exactly ``max_sweeps`` sweeps, and each workload's residual target lies
below what its rank cap reaches on the seed commit, so every solve runs to
the rank cap. The workload seed still sets the random initial factors, the
Monte-Carlo residual samples and the Monte-Carlo oracle samples.

README.md records why each workload is here and which layers it stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sepfeti import problems


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    solver: dict = field(default_factory=dict)
    oracle: str = "sg"  # "sg": combined-basis Galerkin; "mc": Monte Carlo
    mc_samples: int = 0
    oracle_in_loop: bool = False  # False: computed once, before the timed passes
    criterion: int | None = None  # acceptance criterion whose thresholds apply

    def config(self, seed: int) -> dict:
        cfg = problems.profile_config(self.profile)
        cfg["solver"].update(self.solver, seed=int(seed))
        return cfg


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lshape-desk",
            profile="lshape-desk",
            solver={"eps": 1e-2, "rank_max": 10, "max_sweeps": 3, "sweep_tol": 0.0},
            oracle="sg",
            criterion=1,
        ),
        Workload(
            name="beam-full-r3",
            profile="beam",
            solver={"rank_max": 3, "max_sweeps": 2, "sweep_tol": 0.0, "n_mc_residual": 2000},
            oracle="mc",
            mc_samples=100,
        ),
        Workload(
            name="lshape-full-r1",
            profile="lshape",
            solver={
                "rank_max": 1, "max_sweeps": 1, "sweep_tol": 0.0, "det_update": "pcpg",
            },
            oracle="mc",
            mc_samples=100,
        ),
        Workload(
            name="beam-desk-mc",
            profile="beam-desk",
            solver={"eps": 1e-2, "rank_max": 10, "max_sweeps": 2, "sweep_tol": 0.0},
            oracle="mc",
            mc_samples=2000,
            oracle_in_loop=True,
            criterion=2,
        ),
    )
}

# Criteria 1 and 2 of the acceptance suite.
EPS_MEAN_MAX = 1e-2
EPS_STD_MAX = 5e-2
ENERGY_SLACK = 1e-12


def energy_problems(trace) -> list[str]:
    """Energy increases beyond criterion 3's relative slack on an
    ``ArrTrace``: within a sweep (deterministic update, whole sweep) and
    across sweeps and rank increments.

    Criterion 3's other condition, that the multiplier update does not lower
    the energy, is not checked here: on PCPG sweeps it misses the 1e-12
    slack by up to ~1e-9 relative, within the interface solver's 1e-8
    tolerance, and the acceptance suite applies it to direct-route runs only.
    """
    out = []
    for rec in trace.sweeps:
        slack = ENERGY_SLACK * max(1.0, abs(rec.pi_before))
        where = f"rank {rec.rank} sweep {rec.sweep}"
        if rec.pi_u_new_lam_old > rec.pi_before + slack:
            out.append(f"{where}: deterministic update raised the energy")
        if rec.pi_after > rec.pi_before + slack:
            out.append(f"{where}: sweep raised the energy")
    energies = [rec.pi_after for rec in trace.sweeps]
    for k, (a, b) in enumerate(zip(energies, energies[1:]), start=2):
        if b > a + ENERGY_SLACK * max(1.0, abs(a)):
            out.append(f"sweep {k}: energy rose across sweeps")
    return out


def nonfinite(**arrays) -> list[str]:
    return [
        f"{name} has non-finite entries"
        for name, value in arrays.items()
        if not np.all(np.isfinite(value))
    ]


def threshold_problems(workload: Workload, metrics, ref, n_samples: int) -> list[str]:
    """Criterion 1 (exact oracle) or criterion 2 (MC oracle, thresholds net
    of three Monte-Carlo standard errors) on one compare result."""
    if workload.criterion is None:
        return []
    if not metrics.std_defined:
        return ["oracle std field is zero; eps_std undefined"]
    eps_mean, eps_std = metrics.eps_mean, metrics.eps_std
    if workload.criterion == 2:
        eps_mean -= 3.0 * np.linalg.norm(ref.std / math.sqrt(n_samples)) / np.linalg.norm(
            ref.mean
        )
        eps_std -= 3.0 / math.sqrt(2.0 * n_samples)
    out = []
    if not eps_mean < EPS_MEAN_MAX:
        out.append(f"criterion {workload.criterion}: eps_mean {eps_mean:.3e} >= {EPS_MEAN_MAX}")
    if not eps_std < EPS_STD_MAX:
        out.append(f"criterion {workload.criterion}: eps_std {eps_std:.3e} >= {EPS_STD_MAX}")
    return out
