"""Oracles the suite checks the library against.

No library code calls these, so they live with the tests: pointwise basis
evaluation, batched basis evaluation with every row multiplied in every
dimension, multivariate triple moments and quadrature projection for the
PC basis, the univariate triple tensor by plain quadrature (rounding left
off the selection rule) and the Galerkin stack as the dense product of its
slices, the mode weights and the stochastic-factor matrix by dense
einsum, single-sample and batched field evaluation, batched and
single-sample solution evaluation, a solution read back from its JSON,
probe-point sampling with kernel density estimates and their L1 gap
(criterion 9), the sub-domain swap used by the symmetry tests,
plain-text dumps of a mesh, a KL basis and a PCPG residual history, the
Gaussian kernel by its broadcast formula and the KL eigenproblem solved
for all n pairs by a dense solve, the shifted-lognormal coefficients with
their factorial weights formed row by row, the Boolean extractor matrix of a
sub-domain's interface dofs (the library keeps only the dof list), a
sub-domain's unreduced stiffness modes, load and interface dofs (the
problem keeps only the ones on its free dofs) and the same sub-domain with
its fixed dofs taken out after assembly, by a copy of the mode data, which
the assembly on the free dofs is checked against, the
per-sample sparse solves the Monte-Carlo oracle is checked against and the
pairwise merge of two of its accumulators, stiffness modes assembled one
at a time (a COO assembly per mode, stacked on their shared pattern) and
the one-product assembly with its dead entries taken out of the product
afterwards, to check the one-product assembly against, the reduced modes assembled one
per call and the block operators sum_j H_j (x) K_j as sums of Kronecker
products, which the bands of the direct route and of the local solves are
checked against, a sparse LU solve (SuperLU) that rejects a singular
factor or a non-finite solution, the block saddle system
assembled whole and factored by it, which the banded primal route
of ``feti.direct_saddle_solve`` is checked against, the combined-basis
Galerkin solve of the two-field saddle formulation, which the merged
single-domain oracle is checked against, the Monte-Carlo residual
estimate with every sample's residual formed at full length, which the
span form of ``arr.residual_norm`` is checked against, and the span form
with a fresh design matrix per batch and side, which its in-place design
matrix is checked against bit for bit, the merged
problem matched by node coordinates, which ``problems.as_monolithic`` is
checked against, and small accessors: the merged
stiffness modes as matrices, the merged free dof at a mesh node, a block
operator applied to a factor block, the germ count and the config as JSON.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import gaussian_kde

from sepfeti import arr, fem2d, feti, problems, random_field, reference, stats
from sepfeti import pc_basis as pcb


def eval_multivariate(
    fam: pcb.OrthoPolyFamily, idx_set: pcb.MultiIndexSet, point: np.ndarray
) -> np.ndarray:
    """Tensor-product basis values at one point: entry k = prod_j psi_{i_j}(x_j)."""
    point = np.asarray(point, dtype=float)
    if point.shape != (idx_set.d,):
        raise ValueError(f"point has shape {point.shape}, expected ({idx_set.d},)")
    return pcb.eval_multivariate_batch(fam, idx_set, point[None, :])[0]


def eval_multivariate_batch_all_rows(
    fam: pcb.OrthoPolyFamily, idx_set: pcb.MultiIndexSet, points: np.ndarray
) -> np.ndarray:
    """``pc_basis.eval_multivariate_batch`` with every row multiplied in every
    dimension, by psi_0 = 1 where its degree is 0."""
    nmax = int(idx_set.indices.max(initial=0))
    out = np.ones((len(idx_set), points.shape[0]))
    for j in range(idx_set.d):
        out *= fam.eval_table(nmax, points[:, j])[idx_set.indices[:, j]]
    return np.ascontiguousarray(out.T)


def multivariate_triple_moment(
    idx_a: np.ndarray, idx_b: np.ndarray, idx_c: np.ndarray, tensor: np.ndarray
) -> float:
    """E[psi_a psi_b psi_c] for multivariate indices: product of entries of
    the univariate tensor ``pc_basis.univariate_triple_tensor``."""
    idx_a = np.asarray(idx_a, dtype=np.intp)
    idx_b = np.asarray(idx_b, dtype=np.intp)
    idx_c = np.asarray(idx_c, dtype=np.intp)
    if not (idx_a.shape == idx_b.shape == idx_c.shape):
        raise ValueError("multi-indices must share one dimension count")
    A, B, C = (n - 1 for n in tensor.shape)
    if idx_a.max(initial=0) > A or idx_b.max(initial=0) > B or idx_c.max(initial=0) > C:
        raise pcb.SizeError("multi-index degree exceeds triple tensor caps")
    return float(np.prod(tensor[idx_a, idx_b, idx_c]))


def quadrature_triple_tensor(fam: pcb.OrthoPolyFamily, A: int, B: int, C: int) -> np.ndarray:
    """E[psi_a psi_b psi_c] for a <= A, b <= B, c <= C by the Gauss rule of
    ``pc_basis.univariate_triple_tensor``, keeping the rounding that rule
    leaves where the moment vanishes."""
    nodes, weights = fam.gauss_rule(math.ceil((A + B + C + 1) / 2))
    table = fam.eval_table(max(A, B, C), nodes)
    return np.einsum(
        "aq,bq,cq,q->abc", table[: A + 1], table[: B + 1], table[: C + 1], weights
    )


def dense_triple_moment_stack(
    fam: pcb.OrthoPolyFamily, idx_modes: np.ndarray, idx_set: pcb.MultiIndexSet
) -> np.ndarray:
    """The (J, P, P) Galerkin stack E[psi_{m_j} psi_a psi_b] as the product of
    one quadrature-tensor slice per dimension, multiplied from the first
    dimension to the last."""
    p_modes = int(idx_modes.sum(axis=1).max(initial=0))
    tensor = quadrature_triple_tensor(fam, p_modes, idx_set.p, idx_set.p)
    out = np.ones((idx_modes.shape[0], len(idx_set), len(idx_set)))
    for k, c in enumerate(idx_set.indices.T):
        out *= tensor[idx_modes[:, k]][:, c][:, :, c]
    return out


def mode_weights(phi: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``feti.mode_weights`` by einsum over the dense (J, P, P) stack."""
    return np.einsum("la,jab,mb->jlm", phi, G, phi)


def factor_matrix(G: np.ndarray, C: np.ndarray, S: np.ndarray) -> np.ndarray:
    """``arr._factor_matrix`` by einsum over the dense (J, P, P) stack."""
    r, P = C.shape[1], G.shape[1]
    A = np.einsum("jlm,jab->lamb", C, G)
    A += np.einsum("lm,ab->lamb", S, np.eye(P))
    return A.reshape(r * P, r * P)


def projection_coefficients(
    u, idx_set: pcb.MultiIndexSet, fam: pcb.OrthoPolyFamily, quad_order: int
) -> np.ndarray:
    """Orthonormal PC coefficients E[u psi_i] by tensor-grid Gauss quadrature.

    Parameters
    ----------
    u : callable
        Accepts an (n, d) array of points and returns n values; a scalar
        callable over a single d-vector also works.
    idx_set : MultiIndexSet
        Target basis.
    fam : OrthoPolyFamily
        Family matching the measure of u's argument.
    quad_order : int
        Nodes per dimension; exactness is the caller's responsibility.
    """
    nodes, weights = fam.gauss_rule(quad_order)
    grids = np.meshgrid(*([nodes] * idx_set.d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * idx_set.d), indexing="ij")
    w = np.ones(points.shape[0])
    for g in wgrids:
        w *= g.ravel()
    try:
        vals = np.asarray(u(points), dtype=float)
        if vals.shape != (points.shape[0],):
            raise TypeError
    except TypeError:
        vals = np.array([float(u(pt)) for pt in points])
    basis = pcb.eval_multivariate_batch(fam, idx_set, points)  # (n, P)
    return basis.T @ (w * vals)


def swap_subdomains(problem: problems.CoupledProblem) -> problems.CoupledProblem:
    """Exchange the two sub-domain roles.

    The interface constraint orientation flips, so any multiplier of the
    swapped problem is the negative of the original's.
    """
    cfg = copy.deepcopy(problem.config)
    for group, pairs in (
        ("mesh", [("h1", "h2")]),
        ("field", [("d1", "d2"), ("sigma1", "sigma2"), ("lc1", "lc2")]),
        ("pc", [("p1", "p2")]),
    ):
        for a, b in pairs:
            cfg[group][a], cfg[group][b] = cfg[group][b], cfg[group][a]
    if len(cfg["geometry"]["rects"]) == 2:
        cfg["geometry"]["rects"] = cfg["geometry"]["rects"][::-1]
    return problems.CoupledProblem(
        kind=problem.kind,
        ncomp=problem.ncomp,
        sub=problem.sub[::-1],
        f_full=problem.f_full[::-1],
        dirichlet_nodes=problem.dirichlet_nodes[::-1],
        fields=problem.fields[::-1],
        idx_solution=problem.idx_solution[::-1],
        interface_coords=problem.interface_coords,
        config=cfg,
    )


def sample_field_batch(pc_field: random_field.RandomFieldPC, xi: np.ndarray) -> np.ndarray:
    """Evaluate the field at many germ samples: xi (N, d) -> values (N, n)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if xi.shape[1] != pc_field.n_dims:
        raise ValueError(
            f"xi has {xi.shape[1]} entries, field expects {pc_field.n_dims}"
        )
    psi = pcb.eval_multivariate_batch(pcb.family(pc_field.family_kind), pc_field.idx_set, xi)
    return pc_field.shift + psi @ pc_field.coeff_fields


def sample_field(pc_field: random_field.RandomFieldPC, xi: np.ndarray) -> np.ndarray:
    """Nodal field values for a single germ vector xi of length d."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1:
        raise ValueError("xi must be a vector; use sample_field_batch for batches")
    return sample_field_batch(pc_field, xi[None, :])[0]


def evaluate_separated(
    problem: problems.CoupledProblem,
    solution: arr.SeparatedSolution,
    xi1: np.ndarray,
    xi2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Realizations (u1, u2, lam) at paired germ samples; each row one sample."""
    fam = pcb.family(problem.family_kind)
    a1 = pcb.eval_multivariate_batch(fam, problem.idx_solution[0], np.atleast_2d(xi1))
    a2 = pcb.eval_multivariate_batch(fam, problem.idx_solution[1], np.atleast_2d(xi2))
    c = (a1 @ solution.phi1.T) * (a2 @ solution.phi2.T)
    return c @ solution.u1, c @ solution.u2, c @ solution.lam


def sample_separated(
    problem: problems.CoupledProblem,
    solution: arr.SeparatedSolution,
    xi1: np.ndarray,
    xi2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Both sub-domain fields at a single germ realization (xi1, xi2)."""
    xi1 = np.asarray(xi1, dtype=float).ravel()
    xi2 = np.asarray(xi2, dtype=float).ravel()
    dims = (problem.fields[0].n_dims, problem.fields[1].n_dims)
    if (xi1.size, xi2.size) != dims:
        raise ValueError(
            f"germ dimensions ({xi1.size}, {xi2.size}) do not match the "
            f"problem's ({dims[0]}, {dims[1]})"
        )
    u1, u2, _ = evaluate_separated(problem, solution, xi1[None, :], xi2[None, :])
    return u1[0], u2[0]


def export_mesh(mesh: fem2d.Mesh) -> str:
    """Plain-text mesh dump: nodes, then triangles."""
    lines = [f"# nodes {mesh.n_nodes}"]
    lines += [f"{x!r} {y!r}" for x, y in mesh.nodes]
    lines.append(f"# triangles {mesh.triangles.shape[0]}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles]
    return "\n".join(lines) + "\n"


def pcpg_trace_csv(trace: feti.PcpgTrace) -> str:
    """Plain-text dump of a PCPG residual history, one row per iteration."""
    lines = ["iter,relative_residual"]
    lines += [f"{k},{r!r}" for k, r in enumerate(trace.residuals, start=1)]
    return "\n".join(lines) + "\n"


def solution_from_json(text: str) -> arr.SeparatedSolution:
    """The solution that ``SeparatedSolution.to_json`` wrote."""
    blob = json.loads(text)
    r = int(blob["rank"])

    def grab(key: str, width_key: str) -> np.ndarray:
        return np.asarray(blob[key], float).reshape(r, int(blob[width_key]))

    return arr.SeparatedSolution(
        u1=grab("u1", "m1"),
        u2=grab("u2", "m2"),
        lam=grab("lam", "m_interface"),
        phi1=grab("phi1", "p1_terms"),
        phi2=grab("phi2", "p2_terms"),
    )


def per_sample_solutions(
    problem: problems.CoupledProblem, n_samples: int, seed: int
) -> np.ndarray:
    """The merged solutions (n_samples, n_free) at the germ samples that
    ``reference.monte_carlo_reference`` draws for ``seed``: each sample's
    matrix summed mode by mode on each side, scattered into the merged free
    dofs, and solved by ``spsolve``."""
    mono = problems.as_monolithic(problem)
    d1 = problem.fields[0].n_dims
    d = mono.d1 + mono.d2
    rng = np.random.default_rng(seed)
    if problem.family_kind == pcb.LEGENDRE:
        xi = rng.uniform(-1.0, 1.0, (n_samples, d))
    else:
        xi = rng.standard_normal((n_samples, d))
    fam = pcb.family(problem.family_kind)
    psi = [
        pcb.eval_multivariate_batch(fam, problem.fields[0].idx_set, xi[:, :d1]),
        pcb.eval_multivariate_batch(fam, problem.fields[1].idx_set, xi[:, d1:]),
    ]
    n = mono.n_free
    restrict = (mono.restrict1, mono.restrict2)
    solutions = []
    for s in range(n_samples):
        A = sp.csr_matrix((n, n))
        for side in range(2):
            K = sum(w * K for w, K in zip(psi[side][s], problem.sub[side].K_modes))
            P = sp.csr_matrix(
                (np.ones(K.shape[0]), (restrict[side], np.arange(K.shape[0]))),
                shape=(n, K.shape[0]),
            )
            A = A + P @ K @ P.T
        solutions.append(spla.spsolve(A.tocsc(), mono.f))
    return np.array(solutions)


def merge_accumulators(
    a: reference.MCAccumulator, b: reference.MCAccumulator
) -> reference.MCAccumulator:
    """Statistics of the union of two sample sets, by the pairwise
    combination rule (associative)."""
    na, nb = a.n_samples, b.n_samples
    delta = b.mean - a.mean
    return reference.MCAccumulator(
        n_samples=na + nb,
        mean=a.mean + delta * (nb / (na + nb)),
        m2=a.m2 + b.m2 + delta**2 * (na * nb / (na + nb)),
    )


def kl_to_json(kl: random_field.KLBasis) -> str:
    """Debug export: {"tau": [...], "modes": [[...], ...]}."""
    return json.dumps(
        {"tau": kl.eigenvalues.tolist(), "modes": kl.modes.tolist()},
        sort_keys=True,
    )


def broadcast_kernel_matrix(kernel: random_field.GaussianKernel, points: np.ndarray) -> np.ndarray:
    """The kernel at all point pairs through an (n, n, 2) difference array."""
    diff = points[:, None, :] - points[None, :, :]
    sq = (diff**2).sum(axis=2)
    return kernel.sigma**2 * np.exp(-sq / kernel.corr_len**2)


def dense_kl(
    kernel: random_field.GaussianKernel, mesh: fem2d.Mesh, n_modes: int
) -> random_field.KLBasis:
    """The KL eigenproblem (M C M) g = tau M g solved for all n pairs with
    dense products, the ``n_modes`` largest kept under the library's
    nonnegativity check and sign rule."""
    M = fem2d.mass_matrix(mesh).toarray()
    C = kernel.matrix(mesh.nodes)
    A = M @ C @ M
    A = 0.5 * (A + A.T)
    tau, vecs = scipy.linalg.eigh(A, M)
    tau = tau[::-1]
    vecs = vecs[:, ::-1]
    tol = 1e-12 * max(tau[0], 1.0) if tau.size else 0.0
    n_ok = int((tau >= -tol).sum())
    if n_modes > n_ok:
        raise ValueError(
            f"requested {n_modes} modes but only {n_ok} nonnegative eigenvalues"
        )
    tau = np.clip(tau[:n_modes], 0.0, None)
    modes = vecs[:, :n_modes].T.copy()
    if n_modes:
        size = np.abs(modes)
        first = (size > 1e-8 * size.max(axis=1, keepdims=True)).argmax(axis=1)
        modes[modes[np.arange(n_modes), first] < 0.0] *= -1.0
    return random_field.KLBasis(eigenvalues=tau, modes=modes, mass=fem2d.mass_matrix(mesh))


def lognormal_pc_coefficients_loop(
    kl: random_field.KLBasis, mean_log: float, shift: float, order: int
) -> random_field.RandomFieldPC:
    """``random_field.lognormal_pc_coefficients`` with each multi-index's
    weight 1 / sqrt(i!) formed by its own product of Python factorials."""
    idx_set = pcb.build_index_set(kl.n_modes, order)
    sg = np.sqrt(kl.eigenvalues)[:, None] * kl.modes
    mean_field = np.exp(mean_log + kl.pointwise_variance() / 2.0)
    idx = idx_set.indices
    table = np.empty((order + 1,) + sg.shape)
    table[0] = 1.0
    for k in range(1, order + 1):
        table[k] = table[k - 1] * sg
    powers = np.ones((idx.shape[0], sg.shape[1]))
    for j in range(kl.n_modes):
        powers *= table[idx[:, j], j]
    inv_sqrt_fact = np.array(
        [1.0 / math.sqrt(math.prod(math.factorial(k) for k in row)) for row in idx]
    )
    coeff = mean_field[None, :] * powers * inv_sqrt_fact[:, None]
    return random_field.RandomFieldPC(
        kind=random_field.LOGNORMAL_SHIFTED, idx_set=idx_set, coeff_fields=coeff, shift=shift
    )


def extractor(sub: fem2d.SubdomainProblem) -> sp.csr_matrix:
    """The Boolean interface extractor C of a sub-domain: column k holds a
    single 1, at dof ``sub.iface[k]``."""
    k = np.arange(sub.n_interface)
    return sp.csr_matrix((np.ones(k.size), (sub.iface, k)), shape=(sub.n_dofs, k.size))


def unreduced_subdomain(problem: problems.CoupledProblem, side: int) -> fem2d.SubdomainProblem:
    """Sub-domain ``side`` before Dirichlet elimination: its stiffness modes
    assembled on all its dofs, its unreduced load and its unreduced
    interface dofs (the matched node pairs without the Dirichlet nodes)."""
    meshes = [sub.mesh for sub in problem.sub]
    ids1, ids2 = fem2d.interface_nodes(*meshes)
    free = ~(np.isin(ids1, problem.dirichlet_nodes[0]) | np.isin(ids2, problem.dirichlet_nodes[1]))
    iface = fem2d.build_interface_extractors(meshes[0], ids1[free], ids2[free], problem.ncomp)[side]
    field = problem.fields[side]
    coeffs = field.coeff_fields.copy()
    coeffs[0] += field.shift
    mesh = meshes[side]
    modes = assemble_modes(problem, mesh, coeffs)
    return fem2d.make_subdomain_problem(mesh, problem.ncomp, modes, problem.f_full[side], iface)


def take_entries(stack: fem2d.ModeStack, sel, rows, cols, n: int) -> fem2d.ModeStack:
    """The entries ``sel`` of ``stack``, in row-major order of their new
    ``rows`` and ``cols``, on an n x n pattern, copied out of its data."""
    indptr = np.append(0, np.cumsum(np.bincount(rows[sel], minlength=n)))
    return fem2d.ModeStack(
        indptr.astype(stack.indptr.dtype),
        cols[sel].astype(stack.indices.dtype),
        map=None,
        basis=stack.data.take(sel, axis=1),
    )


def restrict_modes(stack: fem2d.ModeStack, keep: np.ndarray) -> fem2d.ModeStack:
    """The rows and columns ``keep`` of every mode: entry (a, b) of the
    result is entry (keep[a], keep[b])."""
    new = np.full(stack.n, -1, dtype=np.intp)
    new[keep] = np.arange(keep.size)
    rows, cols = new[stack.rows], new[stack.indices]
    sel = np.flatnonzero((rows >= 0) & (cols >= 0))
    return take_entries(stack, sel[np.lexsort((cols[sel], rows[sel]))], rows, cols, keep.size)


def restrict_subdomain(sub: fem2d.SubdomainProblem, nodes: np.ndarray) -> fem2d.SubdomainProblem:
    """An unreduced sub-domain with the dofs of ``nodes`` eliminated after
    assembly: its modes restricted by a copy (``restrict_modes``), its load
    and interface dofs taken to the kept dofs."""
    keep = np.setdiff1d(np.arange(sub.n_dofs), fem2d.node_dofs(nodes, sub.ncomp))
    return fem2d.SubdomainProblem(
        mesh=sub.mesh,
        ncomp=sub.ncomp,
        modes=restrict_modes(sub.modes, keep),
        f=sub.f[keep],
        iface=np.searchsorted(keep, sub.iface),
        R=np.zeros((keep.size, 0)),
        floating=False,
        free_dofs=sub.free_dofs[keep],
    )


def mode_stack_from_modes(modes: list[sp.spmatrix]) -> fem2d.ModeStack:
    """Stack modes assembled on one pattern, without the entries that are
    zero in every mode (on structured meshes, up to a quarter of them)."""
    csr = [sp.csr_matrix(K) for K in modes]
    for K in csr:
        K.sum_duplicates()
        if not (
            K.shape == csr[0].shape
            and np.array_equal(K.indptr, csr[0].indptr)
            and np.array_equal(K.indices, csr[0].indices)
        ):
            raise ValueError("stiffness modes must share one sparsity pattern")
    stack = fem2d.ModeStack(
        csr[0].indptr, csr[0].indices, map=None, basis=np.stack([K.data for K in csr])
    )
    live = np.flatnonzero(stack.data.any(axis=0))
    return take_entries(stack, live, stack.rows, stack.indices, stack.n)


def product_stack_modes(
    mesh: fem2d.Mesh, modes, ke: np.ndarray, dofs: np.ndarray, dof_map: np.ndarray
) -> fem2d.ModeStack:
    """``fem2d._stack_modes`` by the direct (J, nnz) product of the
    coefficient table with N on the live entries of the free dofs, formed
    whole and transposed in blocks of entries, kept as the trivial
    factorization whatever the sizes."""
    coeffs = fem2d._nodal_modes(mesh, modes)
    T, k = dofs.shape
    n = dof_map.size
    keys = np.repeat(dofs, k, axis=1).astype(np.int64) * n + np.tile(dofs, (1, k))
    keys, entry = np.unique(keys, return_inverse=True)
    rows, cols = (dof_map[i] for i in np.divmod(keys, n))
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
    N.data[((rows < 0) | (cols < 0))[N.indices]] = 0.0
    N.eliminate_zeros()
    count = np.bincount(N.indices, minlength=keys.size)
    live = np.flatnonzero(count)
    NT = sp.csc_matrix(
        (N.data, (np.cumsum(count > 0) - 1)[N.indices], N.indptr),
        shape=(live.size, mesh.n_nodes),
    )
    rows, cols = rows[live], cols[live]
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=np.count_nonzero(dof_map >= 0))))
    values = NT @ coeffs.T  # (nnz, J)
    data = np.empty(values.shape[::-1])
    for lo in range(0, live.size, 256):
        data[:, lo : lo + 256] = values[lo : lo + 256].T
    return fem2d.ModeStack(indptr.astype(np.int32), cols.astype(np.int32), map=None, basis=data)


def residual_rows(problem: problems.CoupledProblem, solution, i: int) -> np.ndarray:
    """The rows B of ``arr._residual_operator`` (R_i = y B) before any QR:
    the load, the multiplier scattered with side i's sign, then -K_j U[l]
    by one sparse product per materialised mode, at row j r + l."""
    sub = problem.sub[i]
    U, sign = ((solution.u1, 1.0), (solution.u2, -1.0))[i]
    r, M = U.shape
    lam = np.zeros((r, M))
    lam[:, sub.iface] = sign * solution.lam
    KU = [-(K @ U.T).T for K in sub.K_modes]
    return np.vstack([sub.f[None], lam, *KU])


def take_stack_modes(
    mesh: fem2d.Mesh, modes, ke: np.ndarray, dofs: np.ndarray, dof_map: np.ndarray
) -> fem2d.ModeStack:
    """``fem2d._stack_modes`` by the full product ``coeffs @ N`` on every
    pattern entry of all n dofs, the entries that are zero in every mode
    then taken out of the (F-ordered) product by a strided copy, and the
    fixed dofs of ``dof_map`` last (``restrict_modes``)."""
    coeffs = fem2d._nodal_modes(mesh, modes)
    T, k = dofs.shape
    n = dof_map.size
    keys = np.repeat(dofs, k, axis=1).astype(np.int64) * n + np.tile(dofs, (1, k))
    keys, entry = np.unique(keys, return_inverse=True)
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
    data = coeffs @ N
    live = np.flatnonzero(data.any(axis=0))
    rows, cols = np.divmod(keys[live], n)
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=n)))
    stack = fem2d.ModeStack(
        indptr.astype(np.int32), cols.astype(np.int32), map=None, basis=data.take(live, axis=1)
    )
    return restrict_modes(stack, np.flatnonzero(dof_map >= 0))


def coo_diffusion_mode(mesh: fem2d.Mesh, coeff_mode: np.ndarray | float) -> sp.csr_matrix:
    """Stiffness K[m,n] = integral of kappa_j grad N_m . grad N_n.

    The coefficient mode is interpolated at each triangle centroid
    (one-point rule), making assembly linear in the nodal mode field.
    """
    b, c, area = fem2d._triangle_geometry(mesh)
    kc = fem2d._centroid_values(mesh, coeff_mode)
    # element matrices (T,3,3)
    ke = (kc / (4.0 * area))[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    )
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    K = sp.coo_matrix(
        (ke.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    ).tocsr()
    K.sum_duplicates()
    return K


def coo_elasticity_mode(
    mesh: fem2d.Mesh, modulus_mode: np.ndarray | float, nu: float
) -> sp.csr_matrix:
    """Plane-strain CST stiffness for one Young's-modulus PC mode field."""
    D = fem2d._plane_strain_d(nu)
    b, c, area = fem2d._triangle_geometry(mesh)
    ec = fem2d._centroid_values(mesh, modulus_mode)
    T = mesh.triangles.shape[0]
    B = np.zeros((T, 3, 6))
    inv2a = 1.0 / (2.0 * area)
    for i in range(3):
        B[:, 0, 2 * i] = b[:, i] * inv2a
        B[:, 1, 2 * i + 1] = c[:, i] * inv2a
        B[:, 2, 2 * i] = c[:, i] * inv2a
        B[:, 2, 2 * i + 1] = b[:, i] * inv2a
    ke = (ec * area)[:, None, None] * np.einsum("tki,kl,tlj->tij", B, D, B)
    dofs = np.empty((T, 6), dtype=np.intp)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    n = 2 * mesh.n_nodes
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    return K


def assemble_modes(prob: problems.CoupledProblem, mesh: fem2d.Mesh, coeffs) -> fem2d.ModeStack:
    """The problem's stiffness modes on ``mesh`` for the nodal fields ``coeffs``."""
    if prob.kind == problems.KIND_DIFFUSION:
        return fem2d.assemble_diffusion_mode(mesh, coeffs)
    return fem2d.assemble_elasticity_mode(mesh, coeffs, prob.config["field"]["nu"])


def per_mode_assembly(prob: problems.CoupledProblem, side: int) -> list[sp.csr_matrix]:
    """Reduced stiffness modes assembled one per call, as CSR matrices."""
    mesh = prob.sub[side].mesh
    field = prob.fields[side]
    keep = prob.sub[side].free_dofs
    modes = []
    for j, coeff in enumerate(field.coeff_fields):
        K = assemble_modes(prob, mesh, coeff + field.shift if j == 0 else coeff).views[0]
        modes.append(K[keep][:, keep].tocsr())
    return modes


def kron_reference(H: np.ndarray, modes: list[sp.spmatrix]) -> sp.csr_matrix:
    """sum_j H[j] (x) K_j as a sum of Kronecker products."""
    return sp.csr_matrix(sum(sp.kron(sp.csr_matrix(H[j]), K) for j, K in enumerate(modes)))


def block_operators(ops: feti.BlockOperators) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Khat_1 and Khat_2 of ``ops`` by ``kron_reference`` on the stacked modes."""
    return kron_reference(ops.H1, ops.modes1.views), kron_reference(ops.H2, ops.modes2.views)


def factorize(A: sp.spmatrix, what: str):
    """Sparse LU factor of a structurally symmetric system (saddle systems
    included), with an ordering of A + A^T, returned as its solve; a
    singular factor or a non-finite solution raises ``feti.SolverError``."""
    try:
        lu = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:
        raise feti.SolverError(f"{what} is singular: {err}") from err

    def solve(b: np.ndarray) -> np.ndarray:
        x = lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise feti.SolverError(f"{what} has a non-finite solution (singular system)")
        return x

    return solve


def saddle_solve_superlu(
    ops: feti.BlockOperators,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble and factor the whole block saddle system (small cases only),
    returning (u1, u2, lambda).

    The continuity rows pin the floating side's rigid modes, so the system is
    nonsingular without extra unknowns. A singular system (a zero stochastic
    factor, say) raises ``SolverError``.
    """
    r = ops.rank
    n = r * (ops.M1 + ops.M2 + ops.M_I)
    if n > feti._DIRECT_SIZE_CAP:
        raise feti.SolverError(
            f"direct saddle solve of size {n} exceeds the cap {feti._DIRECT_SIZE_CAP}; "
            "use the interface iteration"
        )
    C1, C2 = (sp.kron(sp.csr_matrix(ops.W), extractor(s)) for s in ops.problem.sub)
    K1hat, K2hat = block_operators(ops)
    A = sp.bmat([[K1hat, None, -C1], [None, K2hat, C2], [-C1.T, C2.T, None]], format="csc")
    b = np.concatenate([ops.fhat1.ravel(), ops.fhat2.ravel(), np.zeros(r * ops.M_I)])
    x = factorize(A, "block saddle system")(b)
    n1, n2 = r * ops.M1, r * ops.M2
    u1 = x[:n1].reshape(r, ops.M1)
    u2 = x[n1 : n1 + n2].reshape(r, ops.M2)
    return u1, u2, x[n1 + n2 :].reshape(r, ops.M_I)


def d_total(problem: problems.CoupledProblem) -> int:
    """Germ dimensions of both sub-domains together."""
    return problem.fields[0].n_dims + problem.fields[1].n_dims


def config_json(problem: problems.CoupledProblem) -> str:
    return json.dumps(problem.config, sort_keys=True)


def apply_Khat(Khat: sp.spmatrix, U: np.ndarray) -> np.ndarray:
    """A block operator such as Khat_1 of ``block_operators`` applied to the
    (r, M) factor block U."""
    return (Khat @ U.ravel()).reshape(U.shape)


def coordinate_matched_monolithic(problem: problems.CoupledProblem) -> problems.MonolithicProblem:
    """``problems.as_monolithic`` by an independent route: the two meshes
    matched again by node coordinates, one global node numbering (side 1's
    nodes first, then side 2's unmatched ones), the free dofs those left by
    both sides' Dirichlet nodes, and the unreduced loads summed on it."""
    m1, m2 = problem.sub[0].mesh, problem.sub[1].mesh
    ncomp = problem.ncomp
    ids1, ids2 = fem2d.interface_nodes(m1, m2)
    n1, n2 = m1.n_nodes, m2.n_nodes
    local2glob2 = np.full(n2, -1, dtype=np.intp)
    local2glob2[ids2] = ids1
    fresh = np.where(local2glob2 < 0)[0]
    local2glob2[fresh] = n1 + np.arange(fresh.size)
    dmap1 = fem2d.node_dofs(np.arange(n1), ncomp)
    dmap2 = fem2d.node_dofs(local2glob2, ncomp)
    n_dofs = ncomp * (n1 + fresh.size)

    d1, d2 = problem.fields[0].n_dims, problem.fields[1].n_dims
    idx1 = problem.fields[0].idx_set.indices
    idx2 = problem.fields[1].idx_set.indices
    field_indices = np.vstack(
        [np.pad(idx1, ((0, 0), (0, d2))), np.pad(idx2[1:], ((0, 0), (d1, 0)))]
    )

    f = np.zeros(n_dofs)
    np.add.at(f, dmap1, problem.f_full[0])
    np.add.at(f, dmap2, problem.f_full[1])
    fixed = np.concatenate(
        [
            fem2d.node_dofs(problem.dirichlet_nodes[0], ncomp),
            dmap2[fem2d.node_dofs(problem.dirichlet_nodes[1], ncomp)],
        ]
    )
    free_glob = np.setdiff1d(np.arange(n_dofs), fixed)

    def restriction(sub: fem2d.SubdomainProblem, dmap: np.ndarray) -> np.ndarray:
        glob = dmap[sub.free_dofs]
        pos = np.searchsorted(free_glob, glob)
        assert (free_glob[pos] == glob).all(), "sub-domain free dof missing from merged system"
        return pos

    restrict = tuple(map(restriction, problem.sub, (dmap1, dmap2)))
    n_free = free_glob.size
    keys = [
        res[stack.rows].astype(np.int64) * n_free + res[stack.indices]
        for stack, res in zip((s.modes for s in problem.sub), restrict)
    ]
    merged = np.unique(np.concatenate(keys))
    rows, cols = np.divmod(merged, n_free)
    J1 = idx1.shape[0]
    modes = problems.MergedModes(
        indptr=np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_free))]),
        indices=cols,
        sides=(problem.sub[0].modes, problem.sub[1].modes),
        positions=(np.searchsorted(merged, keys[0]), np.searchsorted(merged, keys[1])),
        columns=(np.arange(J1), np.append(0, J1 + np.arange(idx2.shape[0] - 1))),
    )
    return problems.MonolithicProblem(
        family_kind=problem.family_kind,
        d1=d1,
        d2=d2,
        field_indices=field_indices,
        modes=modes,
        f=f[free_glob],
        n_free=n_free,
        restrict1=restrict[0],
        restrict2=restrict[1],
    )


def mono_K_modes(mono: problems.MonolithicProblem) -> list[sp.csr_matrix]:
    """The merged stiffness modes as CSR matrices, one per row of
    ``mono.field_indices``."""
    modes = mono.modes
    return [modes.matrix(row) for row in modes.contract(np.eye(len(mono.field_indices)))]


def free_dof_at(
    problem: problems.CoupledProblem,
    mono: problems.MonolithicProblem,
    xy: tuple[float, float],
    comp: int = 0,
    tol: float = 1e-9,
) -> int:
    """Position in the merged free-dof vector of component ``comp`` of the
    mesh node at the point ``xy``, found on the first sub-domain whose mesh
    has that node as a free node."""
    for sub, restrict in zip(problem.sub, (mono.restrict1, mono.restrict2)):
        nodes = sub.mesh.nodes
        hit = np.flatnonzero((np.abs(nodes[:, 0] - xy[0]) < tol) & (np.abs(nodes[:, 1] - xy[1]) < tol))
        if hit.size != 1:
            continue
        dof = int(hit[0]) * sub.ncomp + comp
        pos = int(np.searchsorted(sub.free_dofs, dof))
        if pos < sub.free_dofs.size and sub.free_dofs[pos] == dof:
            return int(restrict[pos])
    raise ValueError(f"no free dof (component {comp}) at {xy}")


@dataclasses.dataclass(frozen=True)
class CoupledSGSolution:
    """Combined-basis coefficients of the two-field saddle formulation."""

    idx_set: pcb.MultiIndexSet
    u1: np.ndarray
    u2: np.ndarray
    lam: np.ndarray


def solve_coupled_sg(problem: problems.CoupledProblem, p: int | None = None) -> CoupledSGSolution:
    """Galerkin projection of the two-field saddle formulation.

    Solves for the coefficients of both sub-domain solutions and the
    interface multiplier in the combined basis; the identity Gram makes the
    coupling blocks I (x) C_i. Sparse direct solve, under the size guard of
    ``reference.solve_monolithic_sg``; a singular system or a non-finite
    solution raises ``SolverError``.
    """
    s1, s2 = problem.sub
    if p is None:
        p = max(problem.idx_solution[0].p, problem.idx_solution[1].p)
    d1 = problem.fields[0].n_dims
    d = d_total(problem)
    idx = pcb.build_index_set(d, p)
    P = len(idx)
    n_unknowns = P * (s1.n_dofs + s2.n_dofs + s1.n_interface)
    reference._guard(n_unknowns, s1.n_dofs + s2.n_dofs + s1.n_interface, P)
    fam = pcb.family(problem.family_kind)
    rows1 = np.pad(problem.fields[0].idx_set.indices, ((0, 0), (0, d - d1)))
    rows2 = np.pad(problem.fields[1].idx_set.indices, ((0, 0), (d1, 0)))
    G1 = pcb.triple_moment_stack(fam, rows1, idx).dense()
    G2 = pcb.triple_moment_stack(fam, rows2, idx).dense()
    B1, B2 = (sp.kron(sp.identity(P, format="csr"), extractor(s)) for s in (s1, s2))
    A11 = reference.kron_sum(s1.modes, feti.block_values(s1.modes, G1))
    A22 = reference.kron_sum(s2.modes, feti.block_values(s2.modes, G2))
    A = sp.bmat([[A11, None, -B1], [None, A22, B2], [-B1.T, B2.T, None]], format="csc")
    rhs = np.zeros(n_unknowns)
    rhs[: s1.n_dofs] = s1.f
    rhs[P * s1.n_dofs : P * s1.n_dofs + s2.n_dofs] = s2.f
    x = factorize(A, "combined-basis saddle system")(rhs)
    n1 = P * s1.n_dofs
    n2 = P * s2.n_dofs
    return CoupledSGSolution(
        idx_set=idx,
        u1=x[:n1].reshape(P, s1.n_dofs),
        u2=x[n1 : n1 + n2].reshape(P, s2.n_dofs),
        lam=x[n1 + n2 :].reshape(P, s1.n_interface),
    )


def residual_norm(
    problem: problems.CoupledProblem,
    solution: arr.SeparatedSolution,
    n_samples: int = 10_000,
    seed=0,
    batch_size: int = 512,
) -> arr.ResidualEstimate:
    """``arr.residual_norm`` by its defining formula: per batch of samples,
    R = f +/- C (c lam) - (Psi (x) c) KU with the stacked mode products
    KU[j, l] = K_j u_l, so every sample's residual is formed at full length
    M. Same samples, seeds and estimator as the library's."""
    loaded = [i for i, s in enumerate(problem.sub) if np.linalg.norm(s.f) > 0.0]
    if not loaded:
        raise ValueError(
            "every sub-domain has zero load; the relative residual is undefined"
        )
    n = int(n_samples)
    rng = np.random.default_rng(seed)
    fam = pcb.family(problem.family_kind)
    xi = arr._sample_germs(problem, n, rng)
    a1 = pcb.eval_multivariate_batch(fam, problem.idx_solution[0], xi[0])
    a2 = pcb.eval_multivariate_batch(fam, problem.idx_solution[1], xi[1])
    c = (a1 @ solution.phi1.T) * (a2 @ solution.phi2.T)
    lam_vals = c @ solution.lam
    signs = {0: 1.0, 1: -1.0}
    factors = (solution.u1, solution.u2)
    per: dict[int, tuple[float, float]] = {}
    for i in loaded:
        sub = problem.sub[i]
        fnorm = float(np.linalg.norm(sub.f))
        U = factors[i]
        C = extractor(sub)
        KU = np.stack([np.asarray((K @ U.T).T) for K in sub.K_modes])
        J, r, M = KU.shape
        KU = KU.reshape(J * r, M)
        sq = np.empty(n)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            Psi = pcb.eval_multivariate_batch(fam, problem.fields[i].idx_set, xi[i][start:stop])
            Z = (Psi[:, :, None] * c[start:stop, None, :]).reshape(stop - start, J * r)
            R = np.tile(sub.f, (stop - start, 1))
            R += signs[i] * (C @ lam_vals[start:stop].T).T
            R -= Z @ KU
            sq[start:stop] = np.einsum("nm,nm->n", R, R)
        m = float(sq.mean())
        if m == 0.0:
            per[i] = (0.0, 0.0)
            continue
        se_m = float(sq.std(ddof=1)) / math.sqrt(n)
        per[i] = (math.sqrt(m) / fnorm, se_m / (2.0 * math.sqrt(m) * fnorm))
    worst = max(per, key=lambda i: per[i][0])
    return arr.ResidualEstimate(
        value=per[worst][0], std_error=per[worst][1], n_samples=n, per_domain=per
    )


def residual_norm_span(
    problem: problems.CoupledProblem,
    solution: arr.SeparatedSolution,
    n_samples: int = 10_000,
    seed=0,
    batch_size: int = 512,
) -> arr.ResidualEstimate:
    """``arr.residual_norm``'s span form with a fresh design matrix
    y = [1, c, Psi (x) c] per batch and loaded side, Psi (x) c formed as a
    (batch, J, r) product and copied in. Same samples, operators, GEMM and
    estimator as the library's."""
    loaded = [i for i, s in enumerate(problem.sub) if np.linalg.norm(s.f) > 0.0]
    n = int(n_samples)
    rng = np.random.default_rng(seed)
    fam = pcb.family(problem.family_kind)
    xi = arr._sample_germs(problem, n, rng)
    operators = {i: arr._residual_operator(problem, solution, i) for i in loaded}
    n_sol = [len(idx) for idx in problem.idx_solution]
    n_field = [len(fld.idx_set) for fld in problem.fields]
    bases = []
    for g in (0, 1):
        needed = [problem.idx_solution[g]]
        if g in operators:
            needed.append(problem.fields[g].idx_set)
        bases.append(max(needed, key=len))
    r = solution.rank
    sq = {i: np.empty(n) for i in loaded}
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        psi = [pcb.eval_multivariate_batch(fam, bases[g], xi[g][start:stop]) for g in (0, 1)]
        c = (psi[0][:, : n_sol[0]] @ solution.phi1.T) * (
            psi[1][:, : n_sol[1]] @ solution.phi2.T
        )
        for i, B in operators.items():
            y = np.empty((stop - start, 1 + r + n_field[i] * r))
            y[:, 0] = 1.0
            y[:, 1 : 1 + r] = c
            Z = psi[i][:, : n_field[i], None] * c[:, None, :]
            y[:, 1 + r :] = Z.reshape(stop - start, -1)
            R = y @ B
            sq[i][start:stop] = np.einsum("nm,nm->n", R, R)
    per: dict[int, tuple[float, float]] = {}
    for i in loaded:
        fnorm = float(np.linalg.norm(problem.sub[i].f))
        m = float(sq[i].mean())
        if m == 0.0:
            per[i] = (0.0, 0.0)
            continue
        se_m = float(sq[i].std(ddof=1)) / math.sqrt(n)
        per[i] = (math.sqrt(m) / fnorm, se_m / (2.0 * math.sqrt(m) * fnorm))
    worst = max(per, key=lambda i: per[i][0])
    return arr.ResidualEstimate(
        value=per[worst][0], std_error=per[worst][1], n_samples=n, per_domain=per
    )


def sample_probe(
    problem: problems.CoupledProblem,
    solution: arr.SeparatedSolution,
    n_samples: int,
    seed: int = 0,
) -> np.ndarray:
    """Monte-Carlo samples of the solution at the probe point.

    Scalar problems return the nodal value; vector problems the displacement
    magnitude at the node.
    """
    side, dofs = stats.probe_dofs(problem)
    rng = np.random.default_rng(seed)
    xi1, xi2 = arr._sample_germs(problem, int(n_samples), rng)
    vals = evaluate_separated(problem, solution, xi1, xi2)[side][:, dofs]
    if vals.shape[1] == 1:
        return vals[:, 0]
    return np.sqrt(np.sum(vals**2, axis=1))


_MIN_KDE_SAMPLES = 32


@dataclasses.dataclass(frozen=True)
class PdfCurve:
    """Gaussian-kernel density on a grid; ``degenerate`` marks a point mass."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    degenerate: bool
    location: float


def pdf_estimate(samples: np.ndarray, grid: np.ndarray | None = None) -> PdfCurve:
    """Silverman-bandwidth kernel density estimate of scalar samples.

    A (numerically) constant sample set cannot be smoothed; it is returned
    as a degenerate curve whose ``location`` carries the point mass.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < _MIN_KDE_SAMPLES:
        raise ValueError(
            f"density estimate needs at least {_MIN_KDE_SAMPLES} samples "
            f"(got {samples.size})"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("density estimate requires finite samples")
    loc = float(samples.mean())
    spread = float(samples.std())
    if spread <= 1e-12 * max(abs(loc), 1e-300):
        pts = np.full(2, loc) if grid is None else np.asarray(grid, dtype=float)
        return PdfCurve(
            grid=pts,
            density=np.zeros_like(pts),
            bandwidth=0.0,
            degenerate=True,
            location=loc,
        )
    kde = gaussian_kde(samples, bw_method="silverman")
    if grid is None:
        lo, hi = samples.min(), samples.max()
        pad = 0.15 * (hi - lo)
        grid = np.linspace(lo - pad, hi + pad, 512)
    else:
        grid = np.asarray(grid, dtype=float)
    return PdfCurve(
        grid=grid,
        density=kde(grid),
        bandwidth=float(np.sqrt(kde.covariance[0, 0])),
        degenerate=False,
        location=loc,
    )


def pdf_l1_gap(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """L1 distance between the kernel density estimates of two sample sets.

    Both estimates are evaluated on one shared grid spanning both sample
    ranges. The value lives in [0, 2]; degenerate (point-mass) inputs give 0
    for coincident masses and the mutually-singular limit 2 otherwise.
    """
    a = np.asarray(samples_a, dtype=float).ravel()
    b = np.asarray(samples_b, dtype=float).ravel()
    ca = pdf_estimate(a)
    cb = pdf_estimate(b)
    if ca.degenerate or cb.degenerate:
        if ca.degenerate and cb.degenerate:
            scale = max(abs(ca.location), abs(cb.location), 1e-300)
            return 0.0 if abs(ca.location - cb.location) <= 1e-12 * scale else 2.0
        return 2.0
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    pad = 0.15 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, 1024)
    fa = pdf_estimate(a, grid=grid).density
    fb = pdf_estimate(b, grid=grid).density
    return float(np.trapezoid(np.abs(fa - fb), grid))
