"""Random input models for the sub-domain solvers.

Gaussian-covariance fields are reduced by a Karhunen-Loeve (KL) expansion
discretized with the finite-element mass matrix, then expressed as polynomial
chaos coefficient fields: a shifted-lognormal diffusivity driven by Gaussian
germs and an affine Young's modulus driven by uniform germs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem2d import Mesh, mass_matrix
from .pc_basis import (
    HERMITE,
    LEGENDRE,
    MultiIndexSet,
    build_index_set,
)

LOGNORMAL_SHIFTED = "lognormal-shifted"
AFFINE_UNIFORM = "affine-uniform"

_FAMILY_OF_KIND = {LOGNORMAL_SHIFTED: HERMITE, AFFINE_UNIFORM: LEGENDRE}


@dataclass(frozen=True)
class GaussianKernel:
    """Squared-exponential covariance sigma^2 exp(-|x-y|^2 / corr_len^2)."""

    sigma: float
    corr_len: float
    domain: str = ""

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.corr_len <= 0.0:
            raise ValueError("corr_len must be positive")

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """Kernel evaluated at all point pairs, with three n x n arrays."""
        out, dy = (points[:, k, None] - points[None, :, k] for k in (0, 1))
        out *= out
        out += dy * dy
        out /= -self.corr_len**2
        return np.multiply(self.sigma**2, np.exp(out, out=out), out=out)

    def lattice_factors(self, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
        """The kernel on the mesh nodes as its two 1-D factors (sigma^2 E_y, E_x).

        The kernel factors as sigma^2 exp(-dx^2 / l^2) exp(-dy^2 / l^2), and
        node (ix, iy) of a mesh is entry iy (nx + 1) + ix of the lattice
        xs x ys, so ``matrix(mesh.nodes)`` is sigma^2 E_y (x) E_x, with E_x
        (nx + 1 square) and E_y (ny + 1 square) the 1-D factors on the
        lattice coordinates, and C v = (sigma^2 E_y) V E_x^T for v read as
        the (ny + 1, nx + 1) array V.
        """
        xs = mesh.nodes[: mesh.nx + 1, 0]
        ys = mesh.nodes[:: mesh.nx + 1, 1]
        ex, ey = (np.exp(-np.square(t[:, None] - t[None, :]) / self.corr_len**2) for t in (xs, ys))
        return self.sigma**2 * ey, ex


@dataclass(frozen=True)
class KLBasis:
    """Truncated KL expansion: eigenvalues and mass-orthonormal nodal modes."""

    eigenvalues: np.ndarray  # (d,) descending, >= 0
    modes: np.ndarray  # (d, n_nodes)
    mass: sp.spmatrix

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        self.modes.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    def pointwise_variance(self) -> np.ndarray:
        """Var of the truncated Gaussian germ field at each node."""
        return (self.eigenvalues[:, None] * self.modes**2).sum(axis=0)


_LANCZOS_MIN_NODES = 500
"""Smallest mesh, in nodes, whose KL eigenproblem ``discretize_kl`` solves
by implicitly restarted Lanczos (ARPACK) instead of the dense subset driver.

Per call, dense vs Lanczos (on the factored kernel product), on one core
of an Intel Xeon with one BLAS thread (medians of 5 calls above 400 nodes,
of 21 below; the profiles' own kernels and truncations d, and sigma = 0.5,
corr_len = 1/3 on the 0.05 lattice meshes of height 1):

| mesh | n | d | dense | Lanczos |
|---|---|---|---|---|
| full ``lshape``, side 1 | 861 | 4 | 103 ms | 5.9 ms |
| full ``lshape``, side 2 | 861 | 6 | 103 ms | 9.2 ms |
| 1.5 x 1 | 651 | 4 and 6 | 46 and 46 ms | 6.2 and 7.2 ms |
| 1.2 x 1 | 525 | 4 and 6 | 23 and 25 ms | 5.6 and 5.1 ms |
| 1 x 1 | 441 | 4 and 6 | 16 and 16 ms | 4.9 and 4.8 ms |
| full ``beam``, side 1 | 286 | 9 | 6.8 ms | 3.2 ms |
| full ``beam``, side 2 | 286 | 11 | 6.8 ms | 5.5 ms |
| desk profiles | 45 and 66 | 2 | 0.4 to 0.6 ms | 1.7 to 2.8 ms |

Lanczos wins from the full ``beam`` meshes on. The cut stays above them,
so every desk and ``beam`` mesh keeps the dense solve and its bits.
"""


def discretize_kl(kernel: GaussianKernel, mesh: Mesh, n_modes: int) -> KLBasis:
    """Solve the Galerkin eigenproblem (M C M) g = tau M g on mesh nodes.

    Returns the ``n_modes`` largest eigenpairs, eigenvalues descending and
    eigenvectors mass-orthonormal, each with its first entry above 1e-8 of
    its largest magnitude positive (on symmetric meshes the largest entry
    ties with its mirror image at rounding level, so it fixes no sign).

    Only those d pairs are computed, by one of two routes:

    * from ``_LANCZOS_MIN_NODES`` nodes on, when ARPACK's Lanczos basis of
      2d + 1 vectors fits below n and sigma > 0 (a zero operator leaves
      ARPACK no start vector), by ARPACK (``eigsh``, largest algebraic,
      tol = 0) on the operator x -> M (C (M x)) with the mass matrix as the
      inner product, started from the all-ones vector so that reruns repeat
      their bits; C is applied through its lattice factors
      (``GaussianKernel.lattice_factors``) as (sigma^2 E_y) X E_x^T, so each
      step costs O(n (nx + ny)) and no n x n array is formed;
    * otherwise by LAPACK's subset driver on the dense A = M C M (the kernel
      matrix and two sparse-dense products): the O(n^3) reduction to
      tridiagonal form plus O(n^2 d) for the pairs.

    The two routes agree to rounding: eigenvalues within 1e-15 of the
    largest, modes within 1e-13 (``_LANCZOS_MIN_NODES`` gives the times).
    """
    n = mesh.n_nodes
    if not 0 <= n_modes <= n:
        raise ValueError(f"n_modes must lie in [0, {n}], got {n_modes}")
    M = mass_matrix(mesh)
    if n_modes == 0:
        return KLBasis(eigenvalues=np.empty(0), modes=np.empty((0, n)), mass=M)
    if kernel.sigma > 0.0 and n >= _LANCZOS_MIN_NODES and 2 * n_modes + 1 < n:
        ey, ex = kernel.lattice_factors(mesh)
        lattice = (mesh.ny + 1, mesh.nx + 1)

        def apply(x):
            return M @ (ey @ (M @ x).reshape(lattice) @ ex.T).ravel()

        op = spla.LinearOperator((n, n), matvec=apply, dtype=float)
        tau, vecs = spla.eigsh(op, k=n_modes, M=M, which="LA", tol=0, v0=np.ones(n))
    else:
        C = kernel.matrix(mesh.nodes)
        # C is symmetric, so M C M = M (M C)^T: two sparse-dense products
        A = M @ (M @ C).T
        A = 0.5 * (A + A.T)
        tau, vecs = scipy.linalg.eigh(A, M.toarray(), subset_by_index=[n - n_modes, n - 1])
    tau = tau[::-1]
    modes = vecs[:, ::-1].T.copy()
    tol = 1e-12 * max(tau[0], 1.0)
    if tau[-1] < -tol:
        raise ValueError(
            f"requested {n_modes} modes but eigenvalue {n_modes} is negative "
            f"({tau[-1]:.3e})"
        )
    tau = np.clip(tau, 0.0, None)
    size = np.abs(modes)
    first = (size > 1e-8 * size.max(axis=1, keepdims=True)).argmax(axis=1)
    modes[modes[np.arange(n_modes), first] < 0.0] *= -1.0
    return KLBasis(eigenvalues=tau, modes=modes, mass=M)


@dataclass(frozen=True)
class RandomFieldPC:
    """Polynomial-chaos coefficient fields kappa_i(x) plus a constant shift.

    The physical field is ``shift + sum_i coeff_fields[i] * psi_i(xi)`` with
    psi the orthonormal family implied by ``kind``.
    """

    kind: str
    idx_set: MultiIndexSet
    coeff_fields: np.ndarray  # (n_terms, n_nodes)
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in _FAMILY_OF_KIND:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.coeff_fields.shape[0] != len(self.idx_set):
            raise ValueError("one coefficient field per multi-index required")
        self.coeff_fields.flags.writeable = False

    @property
    def family_kind(self) -> str:
        return _FAMILY_OF_KIND[self.kind]

    @property
    def n_dims(self) -> int:
        return self.idx_set.d


def lognormal_pc_coefficients(
    kl: KLBasis, mean_log: float, shift: float, order: int
) -> RandomFieldPC:
    """Hermite coefficients of shift + exp(G) with Gaussian germ G.

    G(x, xi) = mean_log + sum_j sqrt(tau_j) g_j(x) xi_j.  The coefficient on
    multi-index a is exp(mean_log + var[G](x)/2) / sqrt(a!) *
    prod_j (sqrt(tau_j) g_j(x))^{a_j}, kept for all |a|_1 <= order. Each
    row but the first is formed once, from its parent a - e_k with k the
    last dimension in which a is nonzero: c_a = c_{a - e_k} sg_k / sqrt(a_k)
    with sg_k = sqrt(tau_k) g_k. The parent has degree |a| - 1, so it comes
    earlier in the graded order, and one pass over the degrees fills the
    table.
    """
    idx_set = build_index_set(kl.n_modes, order)
    idx = idx_set.indices
    P, d = idx.shape
    sg = np.sqrt(kl.eigenvalues)[:, None] * kl.modes  # (d, n)
    row_of = {a: i for i, a in enumerate(map(tuple, idx.tolist()))}
    k = d - 1 - np.argmax(idx[:, ::-1] > 0, axis=1)
    parent = idx.copy()
    parent[np.arange(P), k] -= 1
    up = np.array([0] + [row_of[a] for a in map(tuple, parent[1:].tolist())])
    # step[m - 1, k] = sg_k / sqrt(m) for every degree m a dimension reaches
    step = sg[None] / np.sqrt(np.arange(1.0, order + 1.0))[:, None, None]
    m = idx[np.arange(P), k] - 1
    coeff = np.empty((P, sg.shape[1]))
    coeff[0] = np.exp(mean_log + kl.pointwise_variance() / 2.0)
    # the first row of each degree
    start = np.searchsorted(idx.sum(axis=1), np.arange(order + 2))
    for g in range(1, order + 1):
        a = slice(start[g], start[g + 1])
        coeff[a] = coeff[up[a]] * step[m[a], k[a]]
    return RandomFieldPC(
        kind=LOGNORMAL_SHIFTED, idx_set=idx_set, coeff_fields=coeff, shift=shift
    )


def affine_uniform_field(kl: KLBasis, mean: float) -> RandomFieldPC:
    """Order-one Legendre field mean + sum_j sqrt(tau_j) g_j(x) xi_j.

    With xi_j ~ U(-1,1) and orthonormal Legendre, E[xi psi_{e_j}] = 1/sqrt(3),
    so the unit-index coefficient is sqrt(tau_j) g_j / sqrt(3).
    """
    idx_set = build_index_set(kl.n_modes, 1)
    n = kl.modes.shape[1]
    coeff = np.zeros((len(idx_set), n))
    coeff[0] = mean
    sg = np.sqrt(kl.eigenvalues)[:, None] * kl.modes
    for row, index in enumerate(idx_set.indices):
        if index.sum() == 1:
            coeff[row] = sg[int(index.argmax())] / math.sqrt(3.0)
    return RandomFieldPC(
        kind=AFFINE_UNIFORM, idx_set=idx_set, coeff_fields=coeff, shift=0.0
    )

