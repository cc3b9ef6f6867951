"""Second-order statistics of separated solutions and comparison metrics.

The separated format makes first and second moments available in closed
form (no sampling): with u(x, xi) = sum_l u^l phi1^l(xi1) phi2^l(xi2) and
orthonormal polynomial bases,

    E[u]      = sum_l u^l phi1^l_0 phi2^l_0,
    E[u u]    = sum_{l,m} u^l u^m (phi1^l . phi1^m)(phi2^l . phi2^m).

Everything else here (the probe point's dofs, moment reports, relative-error
metrics) supports comparing a separated solution against a monolithic
reference on the same merged dof numbering.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .arr import SeparatedSolution
from .problems import ConfigError, CoupledProblem


def separated_mean(solution: SeparatedSolution) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean field of each sub-domain (basis coordinate 0 is constant)."""
    w = solution.phi1[:, 0] * solution.phi2[:, 0]
    return w @ solution.u1, w @ solution.u2


def separated_variance(solution: SeparatedSolution) -> tuple[np.ndarray, np.ndarray]:
    """Exact pointwise variance of each sub-domain field.

    Tiny negative values from round-off in the second-moment/mean-square
    cancellation are clipped to zero with a ``RuntimeWarning``.
    """
    gram = (solution.phi1 @ solution.phi1.T) * (solution.phi2 @ solution.phi2.T)
    means = separated_mean(solution)
    out = []
    for u, mean in zip((solution.u1, solution.u2), means):
        second = np.einsum("lm,lx,mx->x", gram, u, u)
        var = second - mean**2
        if np.any(var < 0.0):
            warnings.warn(
                "negative variance from round-off clipped to zero "
                f"(worst {var.min():.3e})",
                RuntimeWarning,
                stacklevel=2,
            )
            var = np.maximum(var, 0.0)
        out.append(var)
    return out[0], out[1]


def probe_dofs(problem: CoupledProblem) -> tuple[int, np.ndarray]:
    """Locate the configured probe point: (sub-domain index, reduced dof positions).

    The point comes from ``config["stats"]["probe_point"]`` and must coincide
    with a free mesh node; for vector problems all components are returned.
    """
    point = (problem.config.get("stats") or {}).get("probe_point")
    if point is None:
        raise ConfigError("config key stats.probe_point is missing")
    x, y = float(point[0]), float(point[1])
    for side, sub in enumerate(problem.sub):
        nodes = sub.mesh.nodes
        hit = np.where(
            (np.abs(nodes[:, 0] - x) < 1e-9) & (np.abs(nodes[:, 1] - y) < 1e-9)
        )[0]
        if hit.size != 1:
            continue
        dofs = int(hit[0]) * sub.ncomp + np.arange(sub.ncomp)
        pos = np.searchsorted(sub.free_dofs, dofs)
        inside = pos < sub.free_dofs.size
        if not (np.all(inside) and np.array_equal(sub.free_dofs[pos[inside]], dofs)):
            raise ConfigError(f"probe point {point} lies on a constrained node")
        return side, pos.astype(np.intp)
    raise ConfigError(f"probe point {point} matches no mesh node")


@dataclass(frozen=True)
class MomentReport:
    """Mean/std fields on the concatenated [sub-domain 1; sub-domain 2] dofs."""

    label: str
    mean: np.ndarray
    std: np.ndarray
    probe: dict[str, Any]
    metadata: dict[str, Any]

    def to_csv(self) -> str:
        lines = ["dof,mean,std"]
        lines.extend(
            f"{i},{float(m)!r},{float(s)!r}"
            for i, (m, s) in enumerate(zip(self.mean, self.std))
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "label": self.label,
            "n_dofs": int(self.mean.size),
            "mean_l2": float(np.linalg.norm(self.mean)),
            "std_l2": float(np.linalg.norm(self.std)),
            "probe": self.probe,
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True)


def _probe_summary(
    problem: CoupledProblem, mean: np.ndarray, std: np.ndarray
) -> dict[str, Any]:
    side, dofs = probe_dofs(problem)
    offset = 0 if side == 0 else problem.sub[0].n_dofs
    cols = offset + dofs
    point = problem.config["stats"]["probe_point"]
    return {
        "point": [float(point[0]), float(point[1])],
        "side": int(side),
        "mean": [float(mean[c]) for c in cols],
        "std": [float(std[c]) for c in cols],
    }


def report_separated(
    problem: CoupledProblem,
    solution: SeparatedSolution,
    label: str = "separated",
    metadata: dict[str, Any] | None = None,
) -> MomentReport:
    """Moment report of a separated solution via its closed-form statistics."""
    m1, m2 = separated_mean(solution)
    v1, v2 = separated_variance(solution)
    mean = np.concatenate([m1, m2])
    std = np.concatenate([np.sqrt(v1), np.sqrt(v2)])
    meta = {"rank": solution.rank, **(metadata or {})}
    return MomentReport(
        label=label,
        mean=mean,
        std=std,
        probe=_probe_summary(problem, mean, std),
        metadata=meta,
    )


def report_reference(
    problem: CoupledProblem,
    mean_mono: np.ndarray,
    std_mono: np.ndarray,
    label: str,
    metadata: dict[str, Any] | None = None,
) -> MomentReport:
    """Moment report of fields on the merged dofs, restricted per sub-domain."""
    mean, std = (np.asarray(x, dtype=float) for x in (mean_mono, std_mono))
    n = problem.merged_load.size
    if mean.shape != (n,) or std.shape != (n,):
        raise ValueError(f"reference fields must have {n} entries (merged free dofs)")
    # side 1's dofs keep their numbers (CoupledProblem.merge_map)
    restrict = np.append(np.arange(problem.sub[0].n_dofs), problem.merge_map)
    mean, std = mean[restrict], std[restrict]
    return MomentReport(
        label=label,
        mean=mean,
        std=std,
        probe=_probe_summary(problem, mean, std),
        metadata=dict(metadata or {}),
    )


@dataclass(frozen=True)
class ErrorMetrics:
    """Relative L2 errors of a candidate report against a reference report."""

    eps_mean: float
    eps_std: float
    std_defined: bool


def error_metrics(candidate: MomentReport, reference: MomentReport) -> ErrorMetrics:
    """Relative L2 gaps of mean and std fields, candidate vs reference.

    A reference with (numerically) zero std field — a deterministic problem —
    leaves the std error undefined: ``eps_std`` is NaN and ``std_defined``
    False so callers cannot silently treat it as agreement.
    """
    if candidate.mean.shape != reference.mean.shape:
        raise ValueError(
            f"reports disagree on dof count: {candidate.mean.size} vs "
            f"{reference.mean.size}"
        )
    ref_mean_norm = float(np.linalg.norm(reference.mean))
    if ref_mean_norm == 0.0:
        raise ValueError(
            "reference mean is identically zero; relative errors are undefined"
        )
    eps_mean = float(np.linalg.norm(candidate.mean - reference.mean) / ref_mean_norm)
    ref_std_norm = float(np.linalg.norm(reference.std))
    if ref_std_norm <= 1e-14 * ref_mean_norm:
        return ErrorMetrics(eps_mean=eps_mean, eps_std=float("nan"), std_defined=False)
    eps_std = float(np.linalg.norm(candidate.std - reference.std) / ref_std_norm)
    return ErrorMetrics(eps_mean=eps_mean, eps_std=eps_std, std_defined=True)
