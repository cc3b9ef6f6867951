"""Brute-force reference solvers for validating the separated representation.

Two independent routes to the same limiting object on the merged dofs,
both factoring on the direct route's band (``CoupledProblem.primal_layout``
with one factor, by ``feti``'s band writer and unpivoted banded Cholesky):
a Galerkin solve in the combined basis over all germ dimensions (exact,
small instances only; ``feti.pcg`` preconditioned by the mean stiffness's
Cholesky factor) and plain Monte Carlo with one banded solve per sample
(sample mean and standard deviation, with the sample count).
Agreement of the two — and of the low-rank solver against either — is the
main correctness argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .feti import SolverError, block_values, pcg
from .feti import _band_positions, _band_solve, _band_write, _primal_band
from .pc_basis import (
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


def kron_sum(modes, V: np.ndarray) -> sp.csr_matrix:
    """sum_j H[j] (x) K_j as one CSR matrix, from its ``feti.block_values`` V.

    Row (l, i) holds row i of the pattern once per block column l', with
    the values V[l, l'] and the columns shifted by l' n.
    """
    r, n, nnz, rows = V.shape[0], modes.n, modes.indices.size, modes.rows
    start, length = modes.indptr[rows], np.diff(modes.indptr)[rows]
    shift = np.arange(r)[:, None]
    # position of entry p of block (l, l') within block row l
    pos = (r * start + np.arange(nnz) - start + shift * length).ravel()
    data = np.empty((r, r * nnz))
    data[:, pos] = V.reshape(r, r * nnz)
    indices = np.empty(r * nnz, dtype=np.int64)
    indices[pos] = (shift * n + modes.indices).ravel()
    indptr = np.append((shift * r * nnz + r * modes.indptr[:-1]).ravel(), r * r * nnz)
    return sp.csr_matrix((data.ravel(), np.tile(indices, r), indptr), shape=(r * n, r * n))


def _sg_solve_core(modes, G: np.ndarray, f: np.ndarray, mean_solve, tol=1e-10) -> np.ndarray:
    """CG solve of sum_j G_j (x) K_j u = e0 (x) f, preconditioned by
    ``mean_solve`` (K_0^{-1} on (P, M) blocks); returns the (P, M) block."""
    P = G.shape[1]
    A = kron_sum(modes, block_values(modes, G))
    # drop the blocks and the entries that the stack leaves exactly zero
    A.eliminate_zeros()
    B = np.zeros((P, f.shape[0]))
    B[0] = f
    return pcg(
        lambda U: (A @ U.ravel()).reshape(U.shape),
        B,
        mean_solve,
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
    lay = problem.primal_layout
    mean_modes = [sub.modes.contract(np.eye(1, sub.modes.n_modes)) for sub in problem.sub]
    mean_solve = _band_solve(lay, _primal_band(lay, mean_modes), "mean stiffness")
    coeffs = _sg_solve_core(mono.modes, G, mono.f, mean_solve)
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


def monte_carlo_reference(
    problem: CoupledProblem,
    n_samples: int,
    seed: int = 0,
) -> MCAccumulator:
    """Per-sample deterministic solves of the merged problem.

    Each seeded germ sample weights each sub-domain's stacked stiffness
    modes by its own germ's basis values straight into the upper band of
    the direct route's merged layout (``CoupledProblem.primal_layout``, one
    factor), solved by one banded Cholesky (``feti._band_solve``). The band
    positions, the band and the chunk of sample values are made once per
    call. The sample values come ``_MC_CHUNK`` samples at a time from one
    weighted sum of each side's stack (``ModeStack.contract``): on the
    nodal factorization each sample's nodal field psi @ map, then one
    sparse product, J n_nodes + nnz(N) per sample instead of J nnz. A
    sample with n merged dofs and half-bandwidth b costs O(n b^2) to
    solve: n, b = 72, 6 (``lshape-desk``), 240, 13 (``beam-desk``),
    1 100, 25 (``beam``) and 1 640, 22 (``lshape``). Mean and squared
    deviations accumulate over the samples.

    The Cholesky does not pivot: a sample that is not positive definite
    raises ``SolverError`` naming its germ value (``sepfeti reference``
    exits with code 3). No built-in sample is: the smallest field value over
    200 000 samples per field is 0.60 on ``lshape`` and 16.8 on ``beam``,
    whose affine field is at least 1.88 anywhere on its germ cube.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    d1, d2 = (fld.n_dims for fld in problem.fields)
    rng = np.random.default_rng(seed)
    fam = family(problem.family_kind)
    xi = fam.sample(rng, (n_samples, d1 + d2))
    germs = zip(problem.fields, np.hsplit(xi, [d1]))
    Psi = [eval_multivariate_batch(fam, fld.idx_set, x) for fld, x in germs]
    lay = problem.primal_layout
    positions = list(_band_positions(lay, 1))
    f = problem.merged_load[None]
    mean, m2 = np.zeros(lay.n), np.zeros(lay.n)
    # one band and one chunk of sample values per call, written over by
    # every sample and chunk (fresh arrays would take fresh pages)
    ab = np.empty((lay.b + 1, lay.n), order="F")
    chunk = min(n_samples, _MC_CHUNK)
    values = [np.empty((chunk, sub.modes.indices.size)) for sub in problem.sub]
    for n in range(n_samples):
        if n % _MC_CHUNK == 0:
            for sub, psi, out in zip(problem.sub, Psi, values):
                weights = psi[n : n + _MC_CHUNK]
                sub.modes.contract(weights, out=out[: len(weights)])
        _band_write(ab, positions, [side[n % _MC_CHUNK] for side in values])
        try:
            u = _band_solve(lay, ab, "sample system")(f)[0]
        except SolverError as err:
            raise SolverError(f"{err} (germ value {xi[n]})") from err
        delta = u - mean
        mean += delta / (n + 1)
        m2 += delta * (u - mean)
    return MCAccumulator(n_samples=n_samples, mean=mean, m2=m2)
