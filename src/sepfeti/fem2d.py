"""Structured linear-triangle finite elements on axis-aligned rectangles.

Provides meshes whose interface nodes are bit-identical across neighbouring
sub-domain meshes (coordinates are computed from one global integer lattice),
stiffness assembly for scalar diffusion and plane-strain elasticity (all PC
modes of a coefficient at once, kept as the product of their table at the
mesh nodes with one fixed node-to-pattern operator, on the free dofs only:
a clamped sub-domain's fixed dofs never enter it), consistent loads,
Dirichlet elimination as a dof map (-1 at a fixed dof, the free dofs
numbered in order), the interface dofs of both sides and rigid-body modes,
plus the bandwidth-reducing ordering of a sparsity pattern and the positions
of its entries in LAPACK band storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

_SIDES = ("left", "right", "bottom", "top")


class MeshError(ValueError):
    """Raised for invalid mesh requests (non-divisible h, degenerate cells)."""


def _lattice_coords(lo: float, hi: float, h: float) -> np.ndarray:
    """Node coordinates lo..hi in steps of h, taken from the global lattice.

    Both sub-domain meshes evaluate shared coordinates as the same product
    k*h, which keeps interface coordinates bit-identical.
    """
    n = (hi - lo) / h
    n_int = round(n)
    if n_int < 1 or abs(n - n_int) > 1e-9:
        raise MeshError(f"h={h} does not divide side [{lo}, {hi}]")
    k0 = round(lo / h)
    if abs(k0 * h - lo) < 1e-12 * max(1.0, abs(lo)):
        return (k0 + np.arange(n_int + 1)) * h
    return lo + np.arange(n_int + 1) * h


@dataclass
class Mesh:
    """Structured triangulation of one axis-aligned rectangle."""

    nodes: np.ndarray       # (n_nodes, 2)
    triangles: np.ndarray   # (n_tris, 3) CCW
    h: float
    rect: tuple[float, float, float, float]   # (x0, x1, y0, y1)
    nx: int
    ny: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def node_id(self, ix: int, iy: int) -> int:
        return iy * (self.nx + 1) + ix

    def nodes_on_side(self, side: str) -> np.ndarray:
        """Node ids along one rectangle side, ordered by the running coordinate."""
        if side not in _SIDES:
            raise ValueError(f"unknown side {side!r}")
        if side == "left":
            return np.array([self.node_id(0, iy) for iy in range(self.ny + 1)])
        if side == "right":
            return np.array([self.node_id(self.nx, iy) for iy in range(self.ny + 1)])
        if side == "bottom":
            return np.array([self.node_id(ix, 0) for ix in range(self.nx + 1)])
        return np.array([self.node_id(ix, self.ny) for ix in range(self.nx + 1)])

    def side_edge_list(self, side: str) -> np.ndarray:
        nodes = self.nodes_on_side(side)
        return np.stack([nodes[:-1], nodes[1:]], axis=1)


def build_rect_mesh(
    x_range: tuple[float, float], y_range: tuple[float, float], h: float
) -> Mesh:
    """Uniform right-triangle mesh of [x0,x1] x [y0,y1] with spacing h."""
    if h <= 0:
        raise MeshError("mesh size h must be positive")
    xs = _lattice_coords(x_range[0], x_range[1], h)
    ys = _lattice_coords(y_range[0], y_range[1], h)
    nx, ny = xs.size - 1, ys.size - 1
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            a = iy * (nx + 1) + ix
            b = a + 1
            c = b + (nx + 1)
            d = a + (nx + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    mesh = Mesh(
        nodes=nodes,
        triangles=np.array(tris, dtype=np.intp),
        h=h,
        rect=(x_range[0], x_range[1], y_range[0], y_range[1]),
        nx=nx,
        ny=ny,
    )
    _triangle_geometry(mesh)  # validates positive areas
    return mesh


def _triangle_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle shape-function gradients: returns (b, c, area)."""
    pts = mesh.nodes[mesh.triangles]
    x, y = pts[..., 0], pts[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])
    if np.any(area <= 1e-14 * mesh.h**2):
        raise MeshError("degenerate triangle (non-positive area)")
    return b, c, area


def _centroid_values(mesh: Mesh, nodal: np.ndarray | float) -> np.ndarray:
    if np.isscalar(nodal):
        return np.full(mesh.triangles.shape[0], float(nodal))
    nodal = np.asarray(nodal, dtype=float)
    if nodal.shape != (mesh.n_nodes,):
        raise ValueError("nodal field length must match node count")
    return nodal[mesh.triangles].mean(axis=1)


def _nodal_modes(mesh: Mesh, modes: np.ndarray | float) -> np.ndarray:
    """Coefficient modes as a (J, n_nodes) array; a scalar or a single nodal
    field is one mode."""
    modes = np.asarray(modes, dtype=float)
    if modes.ndim == 0:
        modes = np.full(mesh.n_nodes, float(modes))
    modes = np.atleast_2d(modes)
    if modes.ndim != 2 or modes.shape[1] != mesh.n_nodes:
        raise ValueError("nodal field length must match node count")
    return modes


def _stack_modes(
    mesh: Mesh, modes: np.ndarray | float, ke: np.ndarray, dofs: np.ndarray, dof_map: np.ndarray
) -> ModeStack:
    """Stiffness modes sum_e c_j(centroid of e) ke[e] for every coefficient
    mode c_j, on the free dofs of ``dof_map``, as the factorization
    ``data = coeffs @ N`` (``ModeStack``).

    ``ke`` (T, k, k) holds the element matrices for a unit coefficient,
    ``dofs`` (T, k) their dofs among n, and ``dof_map`` (n,) the free dof
    number of each, -1 at a fixed dof. The centroid value is the mean of the
    three vertex values, so mode j's entries are ``c_j @ N`` for one fixed
    sparse (n_nodes, nnz) operator N. Two kinds of pattern entries are
    dropped from N: those whose column of N is zero (on structured meshes,
    up to a quarter of them), so the pattern does not depend on the
    coefficients, and those in a row or column of a fixed dof. Free dofs
    keep their order, so the stack is bit for bit the one on all n dofs
    with the fixed rows and columns taken out.

    The stack keeps the (J, n_nodes) table ``coeffs`` (itself, not a copy)
    and N, so each weighted sum of the modes costs J n_nodes + nnz(N)
    instead of J nnz, and their (J, nnz) product is formed only when asked
    for (``ModeStack.data``). Where that does not pay (``_nodal_pays``: few
    modes, or a small mesh), the build forms the product once and keeps
    the trivial factorization.
    """
    coeffs = _nodal_modes(mesh, modes)
    T, k = dofs.shape
    n = dof_map.size
    keys = np.repeat(dofs, k, axis=1).astype(np.int64) * n + np.tile(dofs, (1, k))
    keys, entry = np.unique(keys, return_inverse=True)
    rows, cols = (dof_map[i] for i in np.divmod(keys, n))
    # each element entry ke[e, a, b] / 3, once per vertex of e
    N = sp.csr_matrix(
        (
            np.tile(ke.reshape(T, k * k) / 3.0, (1, 3)).ravel(),
            (
                np.repeat(mesh.triangles, k * k, axis=1).ravel(),
                np.tile(entry.reshape(T, k * k), (1, 3)).ravel(),
            ),
        ),
        shape=(mesh.n_nodes, keys.size),
    )
    N.data[((rows < 0) | (cols < 0))[N.indices]] = 0.0  # the fixed dofs' entries
    N.eliminate_zeros()  # a zero term leaves every sum of the product as it is
    count = np.bincount(N.indices, minlength=keys.size)
    live = np.flatnonzero(count)
    # N without its dead columns
    basis = sp.csr_matrix(
        (N.data, (np.cumsum(count > 0) - 1)[N.indices], N.indptr),
        shape=(mesh.n_nodes, live.size),
    )
    rows, cols = rows[live], cols[live]
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=np.count_nonzero(dof_map >= 0))))
    stack = ModeStack(indptr.astype(np.int32), cols.astype(np.int32), coeffs, basis)
    if not _nodal_pays(*coeffs.shape, live.size, basis.nnz):
        stack = ModeStack(stack.indptr, stack.indices, None, stack.data)
    return stack


def assemble_diffusion_mode(
    mesh: Mesh, coeff_modes: np.ndarray | float, dof_map: np.ndarray | None = None
) -> ModeStack:
    """Stiffness modes K_j[m,n] = integral of kappa_j grad N_m . grad N_n.

    ``coeff_modes`` holds one nodal field kappa_j per row (a scalar or a
    single field is one mode). Each is interpolated at the triangle
    centroids (one-point rule), making assembly linear in the nodal field.
    The modes are assembled on the free dofs of ``dof_map``
    (``dirichlet_map``; all dofs when None).
    """
    b, c, area = _triangle_geometry(mesh)
    # element matrices (T,3,3) for a unit coefficient
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area
    )[:, None, None]
    if dof_map is None:
        dof_map = np.arange(mesh.n_nodes)
    return _stack_modes(mesh, coeff_modes, ke, mesh.triangles, dof_map)


def _plane_strain_d(nu: float) -> np.ndarray:
    if not 0.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio nu={nu} must lie in (0, 0.5)")
    f = 1.0 / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return f * np.array(
        [
            [1.0 - nu, nu, 0.0],
            [nu, 1.0 - nu, 0.0],
            [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0],
        ]
    )


def assemble_elasticity_mode(
    mesh: Mesh, modulus_modes: np.ndarray | float, nu: float, dof_map: np.ndarray | None = None
) -> ModeStack:
    """Plane-strain CST stiffness modes, one per Young's-modulus mode field
    (a row of ``modulus_modes``; a scalar or a single field is one mode), on
    the free dofs of ``dof_map`` (``dirichlet_map``; all dofs when None)."""
    D = _plane_strain_d(nu)
    b, c, area = _triangle_geometry(mesh)
    T = mesh.triangles.shape[0]
    B = np.zeros((T, 3, 6))
    inv2a = 1.0 / (2.0 * area)
    for i in range(3):
        B[:, 0, 2 * i] = b[:, i] * inv2a
        B[:, 1, 2 * i + 1] = c[:, i] * inv2a
        B[:, 2, 2 * i] = c[:, i] * inv2a
        B[:, 2, 2 * i + 1] = b[:, i] * inv2a
    ke = area[:, None, None] * np.einsum("tki,kl,tlj->tij", B, D, B)
    dofs = np.empty((T, 6), dtype=np.intp)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    if dof_map is None:
        dof_map = np.arange(2 * mesh.n_nodes)
    return _stack_modes(mesh, modulus_modes, ke, dofs, dof_map)


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Consistent scalar mass matrix for linear triangles."""
    _, _, area = _triangle_geometry(mesh)
    me_ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    me = area[:, None, None] * me_ref
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    M = sp.coo_matrix(
        (me.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    ).tocsr()
    M.sum_duplicates()
    return M


def assemble_load(
    mesh: Mesh,
    body: np.ndarray | float | None = None,
    traction: np.ndarray | float | None = None,
    traction_edges: np.ndarray | None = None,
    ncomp: int = 1,
) -> np.ndarray:
    """Consistent load vector from a body force and/or an edge traction.

    Body contributions use the centroid value times area/3 per vertex; edge
    tractions use the trapezoidal rule (t * L/2 at each edge endpoint).
    Scalar problems (ncomp=1) take scalar body/traction data; elasticity
    (ncomp=2) takes 2-vectors.
    """
    f = np.zeros(ncomp * mesh.n_nodes)
    if body is not None:
        _, _, area = _triangle_geometry(mesh)
        if ncomp == 1:
            fc = _centroid_values(mesh, body)
            contrib = (fc * area / 3.0)[:, None].repeat(3, axis=1)
            np.add.at(f, mesh.triangles.ravel(), contrib.ravel())
        else:
            bvec = np.asarray(body, dtype=float).reshape(2)
            for comp in range(2):
                contrib = (bvec[comp] * area / 3.0)[:, None].repeat(3, axis=1)
                np.add.at(f, 2 * mesh.triangles.ravel() + comp, contrib.ravel())
    if traction is not None:
        if traction_edges is None or len(traction_edges) == 0:
            raise ValueError("traction given but no tagged edges to apply it on")
        edges = np.asarray(traction_edges, dtype=np.intp)
        p = mesh.nodes[edges]           # (m, 2, 2)
        lengths = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        if ncomp == 1:
            tval = float(traction)
            contrib = 0.5 * tval * lengths
            np.add.at(f, edges[:, 0], contrib)
            np.add.at(f, edges[:, 1], contrib)
        else:
            tvec = np.asarray(traction, dtype=float).reshape(2)
            for comp in range(2):
                contrib = 0.5 * tvec[comp] * lengths
                np.add.at(f, 2 * edges[:, 0] + comp, contrib)
                np.add.at(f, 2 * edges[:, 1] + comp, contrib)
    return f


def rigid_body_modes(mesh: Mesh, ncomp: int) -> np.ndarray:
    """Orthonormal null-space candidates of the unconstrained operator.

    Elasticity: two translations plus the infinitesimal rotation about the
    mesh centroid. Scalar diffusion: the constant mode.
    """
    n = mesh.n_nodes
    if ncomp == 1:
        return np.full((n, 1), 1.0 / np.sqrt(n))
    center = mesh.nodes.mean(axis=0)
    R = np.zeros((2 * n, 3))
    R[0::2, 0] = 1.0
    R[1::2, 1] = 1.0
    R[0::2, 2] = -(mesh.nodes[:, 1] - center[1])
    R[1::2, 2] = mesh.nodes[:, 0] - center[0]
    Q, _ = np.linalg.qr(R)
    # fix signs so the result is reproducible
    for j in range(Q.shape[1]):
        k = np.argmax(np.abs(Q[:, j]))
        if Q[k, j] < 0:
            Q[:, j] = -Q[:, j]
    return Q


@dataclass(frozen=True, eq=False)
class SparsePattern:
    """A square CSR sparsity pattern."""

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of each stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def matrix(self, values: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with ``values`` on this pattern, sharing their memory."""
        A = sp.csr_matrix((values, self.indices, self.indptr), shape=(self.n, self.n))
        A.data = values  # the constructor copies a row of a larger array
        return A


def band_ordering(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reverse Cuthill-McKee ordering of the symmetric n x n pattern with
    entries (rows, cols), repeats allowed.

    Returns ``(perm, inv, b)``: row k of the permuted matrix is row
    ``perm[k]`` of the original, ``inv`` is the inverse permutation and b
    the half-bandwidth of the permuted pattern.
    """
    perm = reverse_cuthill_mckee(
        sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)),
        symmetric_mode=True,
    )
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    return perm, inv, int(np.abs(inv[rows] - inv[cols]).max(initial=0))


_NODAL_MIN_GAIN = 8.0
"""How many times nnz(N) the J (nnz - n_nodes) multiply-adds that the nodal
factorization saves on each weighted sum must be for ``_stack_modes`` to
keep it (``_nodal_pays``). A nonzero of the sparse N costs from 6 to 19
multiply-adds of the dense products, by the sizes below, and the nodal
form adds a fixed 20 us per call (SciPy's sparse product), which the cut
of 8 leaves to stacks that are small anyway.

Per ``ModeStack.contract`` call with k weight rows, trivial vs nodal
factorization, on one core of an Intel Xeon with one BLAS thread:

| profile | side | J | n_nodes | nnz | nnz(N) | J (nnz - n_nodes) / nnz(N) | k = 1 | k = 100 |
|---|---|---|---|---|---|---|---|---|
| ``lshape-desk`` | 1 | 15 | 45 | 174 | 739 | 2.6 | 1.1 vs 19.7 us | 0.007 vs 0.041 ms |
| ``lshape-desk`` | 2 | 15 | 45 | 154 | 663 | 2.5 | 1.0 vs 19.0 us | 0.007 vs 0.040 ms |
| ``beam-desk`` | 1 | 3 | 66 | 1 250 | 5 100 | 0.7 | 1.7 vs 23.0 us | 0.036 vs 0.161 ms |
| ``beam-desk`` | 2 | 3 | 66 | 1 380 | 5 560 | 0.7 | 1.6 vs 23.9 us | 0.040 vs 0.182 ms |
| full ``beam`` | 1 | 10 | 286 | 6 170 | 25 940 | 2.3 | 8.7 vs 35.8 us | 0.37 vs 0.94 ms |
| full ``beam`` | 2 | 12 | 286 | 6 420 | 26 840 | 2.7 | 8.3 vs 36.4 us | 0.40 vs 0.96 ms |
| full ``lshape`` | 1 | 210 | 861 | 4 078 | 18 435 | 36.7 | 232 vs 58 us | 2.39 vs 1.18 ms |
| full ``lshape`` | 2 | 924 | 861 | 3 978 | 18 055 | 159.5 | 1 077 vs 276 us | 9.3 vs 2.87 ms |

The nearest sides to the cut, full ``beam`` side 2 and full ``lshape``
side 1, lie a factor of 3 and 4.6 from it.
"""


def _nodal_pays(J: int, n_nodes: int, nnz: int, nnz_N: int) -> bool:
    """Whether J modes on ``n_nodes`` nodes and nnz pattern entries, the
    product of a (J, n_nodes) table with a sparse N of nnz(N) nonzeros,
    are cheaper to contract as that product than as its (J, nnz) values."""
    return J * (nnz - n_nodes) > _NODAL_MIN_GAIN * nnz_N


@dataclass(frozen=True, eq=False)
class ModeStack(SparsePattern):
    """J stiffness modes stored once, as the factorization
    ``data = map @ basis``: mode j is ``matrix(data[j])``.

    On the nodal factorization ``map`` is the (J, n_nodes) table of the
    coefficient modes at the mesh nodes and ``basis`` the sparse (n_nodes,
    nnz) operator N of ``_stack_modes``. On the trivial one ``map`` is None,
    standing for the identity I_J, and ``basis`` is the (J, nnz) ``data``.
    Every product with the modes goes through ``nodal`` (weights @ map) or
    ``lift`` (map @ values), so one code path serves both.
    """

    map: np.ndarray | None
    basis: np.ndarray | sp.csr_matrix

    @property
    def n_modes(self) -> int:
        return (self.basis if self.map is None else self.map).shape[0]

    def nodal(self, weights: np.ndarray) -> np.ndarray:
        """``weights`` (k, J) on the rows of ``basis``: weights @ map."""
        return weights if self.map is None else weights @ self.map

    def lift(self, values) -> np.ndarray:
        """``values`` (rows of ``basis``, n), dense or sparse, summed into
        the J modes: map @ values. On the nodal factorization the product
        comes out with each column's J sums contiguous, so it is formed for
        blocks of 32 modes, whose sums stay in cache, each copied into its
        rows of the C-ordered (J, n) result."""
        if self.map is None:
            return values
        out = np.empty((self.n_modes, values.shape[1]))
        for lo in range(0, self.n_modes, 32):
            out[lo : lo + 32] = (values.T @ self.map[lo : lo + 32].T).T
        return out

    def contract(self, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Values of the sums weighted by the rows of ``weights`` (k, J),
        written into ``out`` (k, nnz) when it is given."""
        if sp.issparse(self.basis):  # SciPy's sparse product makes its own array
            values = self.nodal(weights) @ self.basis
            if out is None:
                return values
            out[...] = values
            return out
        return np.matmul(self.nodal(weights), self.basis, out=out)

    @cached_property
    def data(self) -> np.ndarray:
        """The C-ordered (J, nnz) mode values, on the nodal factorization
        formed on first use."""
        return self.lift(self.basis)

    @cached_property
    def views(self) -> list[sp.csr_matrix]:
        return [self.matrix(row) for row in self.data]


@dataclass
class SubdomainProblem:
    """One sub-domain's discrete operators on its free dofs.

    ``iface[k]`` is the dof that interface column k picks: the Boolean
    extractor C has a single 1 at (iface[k], k), so ``C^T u`` is the gather
    ``u[iface]`` and ``C lam`` scatters lam into those dofs.
    """

    mesh: Mesh
    ncomp: int
    modes: ModeStack
    f: np.ndarray
    iface: np.ndarray                  # (M_I,) distinct dof ids
    R: np.ndarray                      # (n_free_dofs, n_rigid) orthonormal, possibly 0 cols
    floating: bool
    free_dofs: np.ndarray              # original dof ids kept (all when none is fixed)

    @property
    def K_modes(self) -> list[sp.csr_matrix]:
        """The modes as CSR matrices sharing ``modes.data``. The solvers and
        oracles never read them, as on the nodal factorization they form
        the (J, nnz) product; the benchmark harness (mode counts and bytes)
        and the tests do."""
        return self.modes.views

    @property
    def n_dofs(self) -> int:
        return self.f.shape[0]

    @property
    def n_interface(self) -> int:
        return self.iface.size


def make_subdomain_problem(
    mesh: Mesh,
    ncomp: int,
    modes: ModeStack,
    f: np.ndarray,
    iface: np.ndarray,
    dof_map: np.ndarray | None = None,
) -> SubdomainProblem:
    """A sub-domain from its load f and interface dofs ``iface`` on all its
    dofs, and its stiffness modes on the free dofs of ``dof_map``
    (``dirichlet_map``; all dofs when None). f and ``iface`` are taken to
    the free dofs; a sub-domain with no fixed dof floats."""
    n = ncomp * mesh.n_nodes
    if dof_map is None:
        dof_map = np.arange(n, dtype=np.intp)
    keep = np.flatnonzero(dof_map >= 0)
    if modes.n != keep.size:
        raise ValueError("stiffness modes must be assembled on the free dofs")
    floating = keep.size == n
    return SubdomainProblem(
        mesh=mesh,
        ncomp=ncomp,
        modes=modes,
        f=f[keep],
        iface=dof_map[iface],
        R=rigid_body_modes(mesh, ncomp) if floating else np.zeros((keep.size, 0)),
        floating=floating,
        free_dofs=keep,
    )


def dirichlet_map(mesh: Mesh, ncomp: int, nodes: np.ndarray, iface: np.ndarray) -> np.ndarray:
    """The dof map that eliminates the dofs of the tagged nodes: the free
    dofs numbered in order, -1 at a fixed dof (the rule of
    ``problems.PrimalLayout``).

    Homogeneous data only: rows and columns are removed outright. Interface
    dofs must stay free, so eliminating one is an error.
    """
    n = ncomp * mesh.n_nodes
    drop = np.unique(node_dofs(nodes, ncomp))
    if drop.size and (drop.min() < 0 or drop.max() >= n):
        raise ValueError("Dirichlet node outside mesh")
    clash = np.intersect1d(drop, iface)
    if clash.size:
        raise ValueError(
            f"cannot eliminate interface dofs {clash.tolist()}; interface must stay free"
        )
    keep = np.setdiff1d(np.arange(n, dtype=np.intp), drop)
    if keep.size == 0:
        raise ValueError("Dirichlet elimination would remove every dof")
    dof_map = np.full(n, -1, dtype=np.intp)
    dof_map[keep] = np.arange(keep.size)
    return dof_map


def node_dofs(nodes: np.ndarray, ncomp: int) -> np.ndarray:
    """The dofs of the nodes, components fastest."""
    nodes = np.asarray(nodes, dtype=np.intp)
    if ncomp == 1:
        return nodes
    return np.stack([2 * nodes, 2 * nodes + 1], axis=1).ravel()


def interface_nodes(mesh1: Mesh, mesh2: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Matching node ids (same physical point) between the two meshes.

    Matching is exact on coordinates; the lattice construction guarantees
    shared points agree bitwise. Nodes expected on the geometric overlap of
    the two rectangles must all match, otherwise the meshes are non-conforming.
    """
    lookup = {(x, y): i for i, (x, y) in enumerate(map(tuple, mesh2.nodes))}
    ids1, ids2 = [], []
    for i, (x, y) in enumerate(map(tuple, mesh1.nodes)):
        j = lookup.get((x, y))
        if j is not None:
            ids1.append(i)
            ids2.append(j)

    # validate conformity on the rectangle overlap
    x0 = max(mesh1.rect[0], mesh2.rect[0])
    x1 = min(mesh1.rect[1], mesh2.rect[1])
    y0 = max(mesh1.rect[2], mesh2.rect[2])
    y1 = min(mesh1.rect[3], mesh2.rect[3])
    tol = 1e-12 * max(1.0, abs(x1), abs(y1))
    for mesh, matched in ((mesh1, ids1), (mesh2, ids2)):
        on_overlap = np.where(
            (mesh.nodes[:, 0] >= x0 - tol)
            & (mesh.nodes[:, 0] <= x1 + tol)
            & (mesh.nodes[:, 1] >= y0 - tol)
            & (mesh.nodes[:, 1] <= y1 + tol)
        )[0]
        if not set(on_overlap.tolist()) <= set(matched):
            raise ValueError("unmatched interface node: meshes are non-conforming")
    return np.asarray(ids1, dtype=np.intp), np.asarray(ids2, dtype=np.intp)


def build_interface_extractors(
    mesh1: Mesh, ids1: np.ndarray, ids2: np.ndarray, ncomp: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The interface dofs of both sides in one shared column order, from the
    matched node pairs (ids1[k] on ``mesh1``, ids2[k] on the other mesh).

    Columns are ordered by the interface node coordinates (lexicographic in
    (x, y)), components fastest. Returns (iface1, iface2, interface
    coordinates per column-node).
    """
    if ids1.size == 0:
        raise ValueError("meshes share no interface nodes")
    coords = mesh1.nodes[ids1]
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    return node_dofs(ids1[order], ncomp), node_dofs(ids2[order], ncomp), coords[order]
