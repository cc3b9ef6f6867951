"""Brute-force reference solvers for validating the separated representation.

Two independent routes to the same limiting object: a Galerkin solve of the
merged single-domain problem in the combined basis over all germ dimensions
(exact projection, small instances only; conjugate gradients by
``feti.pcg`` with a mean-stiffness block preconditioner) and plain Monte
Carlo with one banded deterministic solve per sample on a fixed
bandwidth-reducing ordering (sample mean and standard deviation of the
merged solution, with the sample count).
Agreement of the two — and of the low-rank solver against either — is the
main correctness argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbsv

from .fem2d import SparsePattern, band_index, band_ordering
from .feti import SolverError, block_values, kron_sum, pcg
from .pc_basis import (
    LEGENDRE,
    MultiIndexSet,
    build_index_set,
    eval_multivariate_batch,
    family,
    triple_moment_stack,
)
from .problems import ConfigError, CoupledProblem, as_monolithic

__all__ = [
    "MCAccumulator",
    "MonolithicSGSolution",
    "monte_carlo_reference",
    "solve_monolithic_sg",
]

_SG_SIZE_GUARD = 200_000
_MC_CHUNK = 32  # samples whose matrix values are formed at once


@dataclass(frozen=True)
class MonolithicSGSolution:
    """Galerkin coefficients over the merged dofs in the combined basis.

    Row a of ``coeffs`` is the coefficient vector of combined basis term a;
    row 0 is the solution mean (orthonormal basis).
    """

    idx_set: MultiIndexSet
    coeffs: np.ndarray

    def mean(self) -> np.ndarray:
        return self.coeffs[0]

    def second_moment(self) -> np.ndarray:
        return np.einsum("am,am->m", self.coeffs, self.coeffs)

    def std(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.second_moment() - self.mean() ** 2, 0.0))


def _sg_solve_core(modes, G: np.ndarray, f: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """CG solve of sum_j G_j (x) K_j u = e0 (x) f with a mean-mode block
    preconditioner; returns the (P, M) coefficient block."""
    P = G.shape[1]
    A = kron_sum(modes, block_values(modes, G))
    # drop the blocks and the entries that the stack leaves exactly zero
    A.eliminate_zeros()
    mean = modes.matrix(modes.contract(np.eye(1, G.shape[0]))[0])
    lu = spla.splu(mean.tocsc())
    B = np.zeros((P, f.shape[0]))
    B[0] = f
    return pcg(
        lambda U: (A @ U.ravel()).reshape(U.shape),
        B,
        lambda R: lu.solve(R.T).T,
        tol,
        50 * P + 200,
        "combined-basis solve",
    )[0]


def _guard(n_unknowns: int, n_dofs: int, n_terms: int) -> None:
    if n_unknowns > _SG_SIZE_GUARD:
        raise ConfigError(
            f"combined-basis system size M*P = {n_unknowns} ({n_dofs} dofs x "
            f"{n_terms} basis terms) exceeds the oracle guard {_SG_SIZE_GUARD}"
        )


def solve_monolithic_sg(
    problem: CoupledProblem, p: int | None = None
) -> MonolithicSGSolution:
    """Galerkin projection of the merged single-domain problem.

    The basis is total-degree ``p`` (default: the larger per-germ solution
    order) over all d1 + d2 germ dimensions. Solved by preconditioned CG to
    1e-10; guarded against instances too large for a direct oracle.
    """
    mono = as_monolithic(problem)
    if p is None:
        p = max(problem.idx_solution[0].p, problem.idx_solution[1].p)
    idx = build_index_set(mono.d1 + mono.d2, p)
    _guard(mono.n_free * len(idx), mono.n_free, len(idx))
    fam = family(mono.family_kind)
    G = triple_moment_stack(fam, mono.field_indices, idx).dense()
    coeffs = _sg_solve_core(mono.modes, G, mono.f)
    return MonolithicSGSolution(idx_set=idx, coeffs=coeffs)


@dataclass
class MCAccumulator:
    """Running Monte-Carlo statistics of the merged nodal solution.

    Mean and squared deviations accumulate in the update form that avoids
    cancellation, so identical samples give exactly zero variance.
    """

    n_samples: int
    mean: np.ndarray
    m2: np.ndarray

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.m2, 0.0) / self.n_samples)


def _band_layout(pattern: SparsePattern) -> tuple[np.ndarray, int, np.ndarray]:
    """Reverse Cuthill-McKee ordering of a symmetric ``pattern`` and the LAPACK
    band storage of its permuted matrix with kl = ku = b.

    Returns ``(perm, b, index)``: row k of the permuted matrix is row
    ``perm[k]`` of the original and b is its half-bandwidth. Stored entry e,
    at permuted (i, j), goes to ``index[e] = (3b + 1) j + 2b + i - j`` of a
    zeroed Fortran-order (3b + 1, n) array, so row 2b + i - j of column j as
    ``gbsv`` expects; the first b rows are left for the LU fill.
    """
    perm, inv, b = band_ordering(pattern.n, pattern.rows, pattern.indices)
    return perm, b, band_index(inv[pattern.rows], inv[pattern.indices], 3 * b + 1, 2 * b)


def monte_carlo_reference(
    problem: CoupledProblem,
    n_samples: int,
    seed: int = 0,
) -> MCAccumulator:
    """Per-sample deterministic solves of the merged problem.

    Each seeded germ sample weights the two sub-domains' stacked stiffness
    modes straight into band storage (no re-assembly), and the sample system
    is solved by a banded LU with partial pivoting (LAPACK ``gbsv``) on one
    reverse Cuthill-McKee ordering of the merged pattern, computed once per
    call, so no sample repeats an ordering or a symbolic analysis. A sample
    with n merged free dofs and half-bandwidth b costs O(n b^2). The built-in
    profiles are two structured rectangles with b <= 25: n, b = 72, 6
    (``lshape-desk``), 240, 13 (``beam-desk``), 1 100, 25 (``beam``) and
    1 640, 22 (``lshape``). A mesh whose n b^2 outgrows a sparse LU needs
    another route. Mean and squared deviations accumulate over the samples.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    mono = as_monolithic(problem)
    d = mono.d1 + mono.d2
    fidx = MultiIndexSet(
        d=d,
        p=int(mono.field_indices.sum(axis=1).max(initial=0)),
        indices=mono.field_indices,
    )
    fam = family(mono.family_kind)
    rng = np.random.default_rng(seed)
    if mono.family_kind == LEGENDRE:
        xi = rng.uniform(-1.0, 1.0, (n_samples, d))
    else:
        xi = rng.standard_normal((n_samples, d))
    Psi = eval_multivariate_batch(fam, fidx, xi)
    mean = np.zeros(mono.n_free)
    m2 = np.zeros(mono.n_free)
    merged = mono.modes
    perm, b, band_index = _band_layout(merged)
    # each side's stored entries go straight to their band positions
    side_index = [band_index[pos] for pos in merged.positions]
    f = mono.f[perm]
    u = np.empty(mono.n_free)
    for n in range(n_samples):
        if n % _MC_CHUNK == 0:
            weights = Psi[n : n + _MC_CHUNK]
            values = [
                weights[:, cols] @ side.data
                for side, cols in zip(merged.sides, merged.columns)
            ]
        ab = np.zeros((3 * b + 1, mono.n_free), order="F")
        flat = ab.ravel(order="F")  # a view
        for index, side in zip(side_index, values):
            flat[index] += side[n % _MC_CHUNK]  # no index repeats within a side
        _, _, x, info = dgbsv(b, b, ab, f, overwrite_ab=1)
        if info > 0:
            raise SolverError(
                f"sample system is singular at germ value {xi[n]}: "
                f"zero pivot in column {info} of the banded LU"
            )
        if info < 0:
            raise RuntimeError(f"gbsv rejected its argument {-info}")
        u[perm] = x
        delta = u - mean
        mean += delta / (n + 1)
        m2 += delta * (u - mean)
    return MCAccumulator(n_samples=n_samples, mean=mean, m2=m2)
