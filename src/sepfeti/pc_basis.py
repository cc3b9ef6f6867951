"""Multivariate orthonormal polynomial-chaos bases and exact moment tensors.

Two univariate families are supported: probabilists' Hermite polynomials
(standard Gaussian weight) and Legendre polynomials (uniform weight on
[-1, 1]), both rescaled to unit second moment so every Gram matrix is the
identity.  Multivariate bases are tensor products over total-degree
multi-index sets; all multivariate expectations used by the solver factor
into products of univariate triple moments, which are computed once by
Gauss quadrature and cached in a dense tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
    """Look up a family by kind string (accepts the short aliases too)."""
    aliases = {
        "hermite": HERMITE,
        "legendre": LEGENDRE,
        HERMITE: HERMITE,
        LEGENDRE: LEGENDRE,
    }
    try:
        return OrthoPolyFamily(aliases[kind])
    except KeyError:
        raise ValueError(f"unknown polynomial family {kind!r}") from None


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

    @property
    def cardinality(self) -> int:
        return self.indices.shape[0]


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
    nmax = int(idx_set.indices.max(initial=0))
    # Contiguous (P, n) rows are faster to multiply than transposed ones;
    # the dimensions keep their order, so the values keep their bits.
    out = np.ones((len(idx_set), points.shape[0]))
    for j in range(idx_set.d):
        table = fam.eval_table(nmax, points[:, j])  # (nmax+1, n)
        out *= table[idx_set.indices[:, j]]
    return np.ascontiguousarray(out.T)


@dataclass(frozen=True)
class TripleTensor:
    """Dense univariate moment tensor T[a, b, c] = E[psi_a psi_b psi_c]."""

    family: OrthoPolyFamily
    values: np.ndarray  # shape (A+1, B+1, C+1)

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    @property
    def caps(self) -> tuple[int, int, int]:
        return (
            self.values.shape[0] - 1,
            self.values.shape[1] - 1,
            self.values.shape[2] - 1,
        )


def univariate_triple_tensor(
    fam: OrthoPolyFamily, A: int, B: int, C: int
) -> TripleTensor:
    """Exact E[psi_a psi_b psi_c] for a <= A, b <= B, c <= C by Gauss quadrature."""
    if min(A, B, C) < 0:
        raise ValueError("tensor caps must be nonnegative")
    n_nodes = math.ceil((A + B + C + 1) / 2)
    nodes, weights = fam.gauss_rule(n_nodes)
    nmax = max(A, B, C)
    table = fam.eval_table(nmax, nodes)  # (nmax+1, n_nodes)
    values = np.einsum(
        "aq,bq,cq,q->abc", table[: A + 1], table[: B + 1], table[: C + 1], weights
    )
    return TripleTensor(family=fam, values=values)


# entries of one gathered (rows, P, P) chunk of a triple-moment stack
_GATHER_ENTRIES = 1 << 18


def triple_moment_stack(
    fam: OrthoPolyFamily, idx_modes: np.ndarray, idx_set: MultiIndexSet
) -> np.ndarray:
    """Matrices G[j][a, b] = E[psi_{m_j} psi_a psi_b] over one index set.

    Row m_j of ``idx_modes`` is a coefficient-field multi-index of total
    degree up to twice the order of ``idx_set``: the Galerkin building
    blocks that couple all pairs of basis functions. The (J, P, P) result is
    filled in place, a chunk of rows at a time, as a product of one gather
    per dimension from the univariate triple tensor.
    """
    idx_modes = np.asarray(idx_modes, dtype=np.intp)
    if idx_modes.ndim != 2 or idx_modes.shape[1] != idx_set.d:
        raise ValueError("mode index dimension mismatch")
    p_modes = int(idx_modes.sum(axis=1).max(initial=0))
    tensor = univariate_triple_tensor(fam, p_modes, idx_set.p, idx_set.p).values
    P = len(idx_set)
    # per dimension, the tensor slices on the basis pairs: (p_modes + 1, P, P)
    pairs = [tensor[:, c][:, :, c] for c in idx_set.indices.T]
    out = np.empty((idx_modes.shape[0], P, P))
    step = max(1, _GATHER_ENTRIES // (P * P))
    for start in range(0, out.shape[0], step):
        rows = idx_modes[start : start + step]
        block = out[start : start + step]
        np.take(pairs[0], rows[:, 0], axis=0, out=block)
        for k in range(1, idx_set.d):
            block *= pairs[k][rows[:, k]]
    return out
