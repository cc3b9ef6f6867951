"""Multivariate orthonormal polynomial-chaos bases and exact moment tensors.

Two univariate families are supported: probabilists' Hermite polynomials
(standard Gaussian weight) and Legendre polynomials (uniform weight on
[-1, 1]), both rescaled to unit second moment so every Gram matrix is the
identity.  Multivariate bases are tensor products over total-degree
multi-index sets; all multivariate expectations used by the solver factor
into products of univariate triple moments E[psi_a psi_b psi_c], computed
by Gauss quadrature. In both families such a moment vanishes unless the
selection rule holds: a + b + c is even and each degree is at most the sum
of the other two. The univariate tensor is set to exactly zero off the rule
(quadrature leaves rounding there), so a multivariate moment is nonzero
only where the rule holds in every dimension.

A Galerkin stack G_j[a, b] = E[psi_{m_j} psi_a psi_b] is stored by its
nonzeros only (``GalerkinStack``): one (J, P*P) CSR matrix whose row j holds
the nonzeros of G_j at columns a P + b, in increasing column order. It is
built by enumerating exactly those nonzeros, one dimension at a time
(``triple_moment_stack``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import hermite_e as npherme
from numpy.polynomial import legendre as npleg

HERMITE = "hermite-gaussian"
LEGENDRE = "legendre-uniform"

_FAMILY_KINDS = (HERMITE, LEGENDRE)

# Maximum index-set cardinality; past this the dense moment tensors and
# coefficient blocks stop being representable, so fail loudly.
_MAX_CARDINALITY = np.iinfo(np.intp).max


class SizeError(ValueError):
    """Requested basis or tensor exceeds representable size."""


@dataclass(frozen=True)
class OrthoPolyFamily:
    """Univariate orthonormal polynomial family tied to a probability measure."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown polynomial family {self.kind!r}")

    def eval_table(self, nmax: int, x: np.ndarray) -> np.ndarray:
        """Values of psi_0..psi_nmax at points x, shape (nmax+1, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((nmax + 1, x.size))
        out[0] = 1.0
        if nmax == 0:
            return out
        if self.kind == HERMITE:
            out[1] = x
            for n in range(1, nmax):
                out[n + 1] = (x * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(n + 1)
        else:
            # Build monic-normalized Legendre P_n first, then scale each row
            # to unit second moment under U(-1, 1): E[P_n^2] = 1/(2n+1).
            out[1] = x
            for n in range(1, nmax):
                out[n + 1] = ((2 * n + 1) * x * out[n] - n * out[n - 1]) / (n + 1)
            scale = np.sqrt(2.0 * np.arange(nmax + 1) + 1.0)
            out *= scale[:, None]
        return out

    def gauss_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n-point Gauss rule with weights normalized to the probability measure."""
        if n < 1:
            raise ValueError("quadrature rule needs at least one node")
        if self.kind == HERMITE:
            nodes, weights = npherme.hermegauss(n)
            weights = weights / math.sqrt(2.0 * math.pi)
        else:
            nodes, weights = npleg.leggauss(n)
            weights = weights / 2.0
        return nodes, weights


HERMITE_GAUSSIAN = OrthoPolyFamily(HERMITE)
LEGENDRE_UNIFORM = OrthoPolyFamily(LEGENDRE)


def family(kind: str) -> OrthoPolyFamily:
    """Look up a family by kind string; an unknown kind raises ``ValueError``."""
    return OrthoPolyFamily(kind)


@dataclass(frozen=True)
class MultiIndexSet:
    """Total-degree multi-index set in fixed graded-lexicographic order."""

    d: int
    p: int
    indices: np.ndarray  # (P, d) integer array, row 0 all zeros

    def __post_init__(self) -> None:
        self.indices.setflags(write=False)

    def __len__(self) -> int:
        return self.indices.shape[0]

    @cached_property
    def factor_rows(self) -> np.ndarray:
        """(m, P) rows of the table of ``eval_multivariate_batch`` whose
        product is each basis function. Entry (k, a) is g d + j, where j is
        the k-th dimension, in increasing order, in which index a has a
        nonzero degree g; past a's last such dimension it is 0 (psi_0 = 1).
        m is the most nonzero degrees of one index, and at least 1."""
        P, d = self.indices.shape
        index, dim = np.nonzero(self.indices)
        count = np.bincount(index, minlength=P)
        rows = np.zeros((max(int(count.max(initial=0)), 1), P), dtype=np.intp)
        k = np.arange(index.size) - (np.cumsum(count) - count)[index]
        rows[k, index] = self.indices[index, dim] * d + dim
        return rows


def build_index_set(d: int, p: int) -> MultiIndexSet:
    """All multi-indices i in N^d with |i| <= p, graded-lexicographically ordered.

    Within each total degree, rows are sorted in decreasing lexicographic
    order of the tuple, so (1,0) precedes (0,1) and the all-zeros index is
    always first.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if p < 0:
        raise ValueError("total degree p must be >= 0")
    card = math.comb(p + d, d)
    if card > _MAX_CARDINALITY:
        raise SizeError(f"index set cardinality {card} exceeds platform integer range")

    rows: list[tuple[int, ...]] = []

    def compositions(total: int, parts: int, prefix: tuple[int, ...]) -> None:
        if parts == 1:
            rows.append(prefix + (total,))
            return
        for lead in range(total, -1, -1):
            compositions(total - lead, parts - 1, prefix + (lead,))

    for degree in range(p + 1):
        compositions(degree, d, ())
    indices = np.array(rows, dtype=np.intp)
    assert indices.shape == (card, d)
    return MultiIndexSet(d=d, p=p, indices=indices)


def eval_multivariate_batch(
    fam: OrthoPolyFamily, idx_set: MultiIndexSet, points: np.ndarray
) -> np.ndarray:
    """Basis values at many points: shape (n_points, P)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != idx_set.d:
        raise ValueError(f"points must have shape (n, {idx_set.d})")
    if fam.kind == LEGENDRE and points.size and np.abs(points).max() > 1.0 + 1e-12:
        raise ValueError("Legendre basis points must lie in [-1, 1]")
    n, d = points.shape
    nmax = int(idx_set.indices.max(initial=0))
    # row g d + j: psi_g at coordinate j of every point (row 0 is psi_0 = 1)
    table = fam.eval_table(nmax, points.T.ravel()).reshape((nmax + 1) * d, n)
    # Each basis function is the product of its factors with a nonzero
    # degree, in dimension order: a factor psi_0 = 1 would leave the bits
    # as they are, so it is skipped. Contiguous (P, n) rows are faster to
    # multiply than transposed ones.
    factors = idx_set.factor_rows
    out = table[factors[0]]
    for rows in factors[1:]:
        out *= table[rows]
    return np.ascontiguousarray(out.T)


def univariate_triple_tensor(fam: OrthoPolyFamily, A: int, B: int, C: int) -> np.ndarray:
    """The (A+1, B+1, C+1) array of exact E[psi_a psi_b psi_c] by Gauss
    quadrature, exactly zero off the selection rule."""
    if min(A, B, C) < 0:
        raise ValueError("tensor caps must be nonnegative")
    n_nodes = math.ceil((A + B + C + 1) / 2)
    nodes, weights = fam.gauss_rule(n_nodes)
    nmax = max(A, B, C)
    table = fam.eval_table(nmax, nodes)  # (nmax+1, n_nodes)
    values = np.einsum(
        "aq,bq,cq,q->abc", table[: A + 1], table[: B + 1], table[: C + 1], weights
    )
    a, b, c = np.arange(A + 1)[:, None, None], np.arange(B + 1)[:, None], np.arange(C + 1)
    rule = ((a + b + c) % 2 == 0) & (np.abs(a - b) <= c) & (c <= a + b)
    return np.where(rule, values, 0.0)


@dataclass(frozen=True)
class GalerkinStack:
    """Matrices G_j[a, b] = E[psi_{m_j} psi_a psi_b] of J modes over P basis
    functions, by their nonzeros.

    ``by_mode`` is a (J, P*P) CSR matrix: row j holds the nonzeros of G_j at
    columns a P + b, in increasing order. The other properties are views of
    it, made once: ``by_pair`` is its (P*P, J) transpose, ``by_entry`` the
    (J, nnz) matrix with entry e of ``by_mode`` in column e, and ``pairs``
    the (a, b) of each entry.
    """

    P: int
    by_mode: sp.csr_matrix

    @cached_property
    def by_pair(self) -> sp.csc_matrix:
        return self.by_mode.T

    @cached_property
    def by_entry(self) -> sp.csr_matrix:
        G = self.by_mode
        return sp.csr_matrix((G.data, np.arange(G.nnz), G.indptr), shape=(G.shape[0], G.nnz))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(self.by_mode.indices, self.P)

    def dense(self) -> np.ndarray:
        """The (J, P, P) array of the matrices."""
        return self.by_mode.toarray().reshape(-1, self.P, self.P)


def _prefix_tree(indices: np.ndarray) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
    """The distinct rows of ``indices`` (N, d) as a tree with one level per
    dimension: the nodes at depth k + 1 are the distinct length-(k + 1) row
    prefixes, in lexicographic order.

    Level k is ``(digit, first, count)``: the last entry of each node's
    prefix, and for each node p of the level above, its children
    ``first[p] : first[p] + count[p]``. Also returns the row of each leaf.
    """
    N, d = indices.shape
    base = int(indices.max(initial=0)) + 1
    node = np.zeros(N, dtype=np.intp)  # each row's node at the current depth
    n_nodes = 1
    levels = []
    for k in range(d):
        key = node * base + indices[:, k]
        present = np.zeros(n_nodes * base, dtype=bool)
        present[key] = True
        rank = np.cumsum(present) - 1
        node = rank[key]
        count = present.reshape(n_nodes, base).sum(axis=1)
        levels.append((np.flatnonzero(present) % base, np.cumsum(count) - count, count))
        n_nodes = int(np.count_nonzero(present))
    if n_nodes < N:
        raise ValueError("multi-index rows must be distinct")
    leaf_row = np.empty(N, dtype=np.intp)
    leaf_row[node] = np.arange(N)
    return levels, leaf_row


def _children(parents: np.ndarray, level: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every (position in ``parents``, child node) pair of one tree level."""
    _, first, count = level
    n = count[parents]
    start = np.cumsum(n) - n
    pos = np.repeat(np.arange(parents.size), n)
    return pos, np.arange(pos.size) + np.repeat(first[parents] - start, n)


def triple_moment_stack(
    fam: OrthoPolyFamily, idx_modes: np.ndarray, idx_set: MultiIndexSet
) -> GalerkinStack:
    """Matrices G[j][a, b] = E[psi_{m_j} psi_a psi_b] over one index set.

    Row m_j of ``idx_modes`` is a coefficient-field multi-index of total
    degree up to twice the order of ``idx_set``: the Galerkin building
    blocks that couple all pairs of basis functions. The mode rows and the
    basis rows are prefix trees; walking the mode tree and the basis tree
    (once for a, once for b) together, one dimension at a time, keeps only
    the triples whose univariate moments so far are all nonzero, so the
    work follows the stack's nonzeros. Each value is the product of its
    univariate moments from the first dimension to the last. The rows of
    ``idx_modes`` must be distinct.
    """
    idx_modes = np.asarray(idx_modes, dtype=np.intp)
    if idx_modes.ndim != 2 or idx_modes.shape[1] != idx_set.d:
        raise ValueError("mode index dimension mismatch")
    J, P = idx_modes.shape[0], len(idx_set)
    p_modes = int(idx_modes.sum(axis=1).max(initial=0))
    tensor = univariate_triple_tensor(fam, p_modes, idx_set.p, idx_set.p)
    (tree_j, row_j), (tree_ab, row_ab) = _prefix_tree(idx_modes), _prefix_tree(idx_set.indices)
    # the surviving node triples at the current depth, and their products
    j = a = b = np.zeros(min(J, 1), dtype=np.intp)
    value = np.ones(j.size)
    for level_j, level_ab in zip(tree_j, tree_ab):
        to_j, j = _children(j, level_j)
        to_a, a = _children(a[to_j], level_ab)
        to_b, b = _children(b[to_j[to_a]], level_ab)
        j, a, src = j[to_a[to_b]], a[to_b], to_j[to_a[to_b]]
        moment = tensor[level_j[0][j], level_ab[0][a], level_ab[0][b]]
        keep = np.flatnonzero(moment)
        j, a, b = j[keep], a[keep], b[keep]
        value = value[src[keep]] * moment[keep]
    j = row_j[j]
    col = row_ab[a] * P + row_ab[b]
    order = np.argsort(j * (P * P) + col)
    indptr = np.zeros(J + 1, dtype=np.intp)
    np.cumsum(np.bincount(j, minlength=J), out=indptr[1:])
    return GalerkinStack(P, sp.csr_matrix((value[order], col[order], indptr), shape=(J, P * P)))
