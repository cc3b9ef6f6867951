"""Block FETI solver for the coupled deterministic update.

For a fixed set of stochastic factors, the deterministic factors of both
sub-domains and the interface multiplier satisfy one saddle system whose
blocks are expectation-weighted sums of the sub-domain stiffness modes:

    Khat_i(l, l') = sum_j H_i[j, l, l'] K_{i,j},   Chat_i = W (x) C_i.

The extractor C_i is Boolean: its column k picks the one dof ``iface[k]``
of sub-domain i (``fem2d.SubdomainProblem``), so Chat_i scatters W lambda
into those dofs and Chat_i^T gathers them, with no matrix stored. Both
sides live in one record, ``BlockOperators``, indexed by side i = 0, 1 as
``problem.sub`` is: every per-sub-domain step (block values, load, scatter,
gather, local solve) is one code path run once per side. Each
sub-domain stores its modes once, on one sparsity pattern, as the
factorization map @ basis of their (J, nnz) values (``fem2d.ModeStack``:
on full ``lshape`` the (J, n_nodes) coefficient table at the mesh nodes
times one sparse node-to-pattern operator, elsewhere the identity times
the values), so the values of all blocks of ``Khat_i`` come from the
(r*r, J) weights times map, then times basis (``block_values``).
The system is solved by one of two routes.

The direct route (``direct_saddle_solve``) drops the multiplier. W is
nonsingular whenever the saddle system is, so the continuity rows mean
C1^T u1[l] = C2^T u2[l] for every factor l; identifying each side-2
interface dof with its side-1 partner leaves a symmetric positive definite
system in the n merged dofs and r factors. Its band, in a rank-interleaved
reverse Cuthill-McKee ordering (half-bandwidth r (b + 1) - 1 for a merged
pattern of half-bandwidth b), is filled straight from the block values and
factored by one banded Cholesky; the multiplier follows from side 1's
interface equilibrium. ``direct_saddle_solve`` gives n and the band width
of each built-in profile. This band writer and Cholesky (``_band_solve``)
are the package's one banded solve; both oracles of ``reference`` run them
on the same merged band with one factor.

The iterative route solves the interface problem

    [ F_I      -R2I ] [lambda]   [ d]
    [ -R2I^T     0  ] [alpha ] = [-e]

with F_I = Chat_1^T Khat_1^{-1} Chat_1 + Chat_2^T Khat_2^+ Chat_2 by a
projected preconditioned conjugate gradient iteration (``pcpg_solve``: the
one CG kernel ``pcg``, which the combined-basis Galerkin oracle of
``reference`` also runs, with the rigid-body projector); the primal factors
follow by back-substitution

    u1 = Khat_1^{-1}(f1 + Chat_1 lambda),
    u2 = Khat_2^{+}(f2 - Chat_2 lambda) + R2hat alpha.

As in classical FETI, each ``Khat_i`` is factored once per deterministic
update, so every interface iteration applies F_I with triangular solves:
the band writer of the direct route fills a band per sub-domain
(``problems.CoupledProblem.local_layouts``), factored by one banded
Cholesky; a floating sub-domain 2 drops its rigid-body pins (a generalized
inverse; projecting its solutions onto the complement of R2hat = I (x) R2
gives the pseudo-inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .fem2d import SparsePattern
from .pc_basis import GalerkinStack, family, triple_moment_stack
from .problems import CoupledProblem, PrimalLayout


class SolverError(RuntimeError):
    """A solve failed: no convergence, a breakdown or a singular system."""


def block_values(modes, H: np.ndarray) -> np.ndarray:
    """Values V[l, l'] of the blocks sum_j H[j, l, l'] K_j on the pattern of
    ``modes`` (a ``ModeStack`` or ``MergedModes``), from one product."""
    J, r, _ = H.shape
    return modes.contract(H.reshape(J, r * r).T).reshape(r, r, -1)


def apply_blocks(
    pattern: SparsePattern, V: np.ndarray, U: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """The rows ``rows`` of the blocks with values V[l, l'] on ``pattern``
    applied to the (r, n) factor block U: one product per stored entry of
    those rows, then a sum over each row's entries (a stiffness pattern
    stores every diagonal, so no row is empty)."""
    lo, length = pattern.indptr[rows], np.diff(pattern.indptr)[rows]
    starts = np.append(0, np.cumsum(length)[:-1])
    e = np.repeat(lo - starts, length) + np.arange(length.sum())
    products = np.einsum("lme,me->le", V[:, :, e], U[:, pattern.indices[e]])
    return np.add.reduceat(products, starts, axis=1)


def mode_weights(phi: np.ndarray, G: GalerkinStack) -> np.ndarray:
    """T[j, l, m] = phi[l] . G[j] phi[m] for (r, P) factors: the r^2
    products phi[l, a] phi[m, b] are formed once per pair (a, b) of the
    stack, and each stored G[j][a, b] adds its value times them to T[j], one
    sparse product of nnz r^2 operations."""
    r = phi.shape[0]
    factors = np.ascontiguousarray(phi.T)
    products = (factors[G.a][:, :, None] * factors[G.b][:, None, :]).reshape(-1, r * r)
    return (G.values_t @ products).reshape(-1, r, r)


def galerkin_mode_matrices(problem: CoupledProblem) -> tuple[GalerkinStack, GalerkinStack]:
    """Per-germ stacks G[j][a,b] = E[psi_j psi_a psi_b], stored by their
    nonzeros (``pc_basis.triple_moment_stack``).

    Row j runs over the coefficient-field multi-indices (degree up to twice
    the solution order, which the quadrature covers exactly); a, b run over
    the solution index set of the same germ.
    """
    fam = family(problem.family_kind)
    G1, G2 = (
        triple_moment_stack(fam, fld.idx_set.indices, idx)
        for fld, idx in zip(problem.fields, problem.idx_solution)
    )
    return G1, G2


@dataclass
class BlockOperators:
    """Weight matrices of the block saddle system, one record for both sides.

    Side i (0 or 1, as in ``problem.sub``) has the (r, r) expectation
    weights ``H[i][j]`` of its stiffness mode j, its own germ's mode weights
    (``mode_weights``) times the other germ's Gram matrix; ``T2`` keeps the
    second germ's mode weights, which the first germ's factor update reads.
    ``W`` weights the coupling blocks and ``fw`` the load. Every side-indexed
    operator reads side i's data from ``problem.sub[i]``: its load
    ``fhat(i)``, ``scatter(i, lam)`` (Chat_i lambda) and ``gather(i, U)``
    (Chat_i^T U). The block values ``V[i]`` and the banded factorization
    behind ``local_solve(i)`` are built on first use, on the band layouts
    that ``problem`` builds once. Only side 2 can float, so ``R2``,
    ``floating`` and ``project_null2`` name it.
    """

    rank: int
    T2: np.ndarray
    H: tuple[np.ndarray, np.ndarray]
    W: np.ndarray
    fw: np.ndarray
    problem: CoupledProblem

    @property
    def R2(self) -> np.ndarray | None:
        s2 = self.problem.sub[1]
        return s2.R if s2.floating else None

    @property
    def floating(self) -> bool:
        return self.problem.sub[1].floating

    def fhat(self, i: int) -> np.ndarray:
        return self.fw[:, None] * self.problem.sub[i].f[None, :]

    @cached_property
    def V(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(block_values(s.modes, H) for s, H in zip(self.problem.sub, self.H))

    def scatter(self, i: int, lam: np.ndarray) -> np.ndarray:
        """Chat_i lambda: the (r, M_i) block that holds W lambda on side i's
        interface dofs.

        It is column-major: the floating side's BLAS products ``B @ R2``
        round according to the memory order of B, and the interface
        iteration's outputs are pinned to this order.
        """
        sub = self.problem.sub[i]
        out = np.zeros((lam.shape[0], sub.n_dofs), order="F")
        out[:, sub.iface] = self.W @ lam
        return out

    def gather(self, i: int, U: np.ndarray) -> np.ndarray:
        """Chat_i^T U: W U on side i's interface dofs."""
        return (self.W @ U)[:, self.problem.sub[i].iface]

    def project_null2(self, U: np.ndarray) -> np.ndarray:
        """Remove the rigid-body content of every second-block factor."""
        if self.R2 is None:
            return U
        return U - (U @ self.R2) @ self.R2.T

    @cached_property
    def _solves(self) -> list:
        return [None, None]

    def local_solve(self, i: int) -> Callable[[np.ndarray], np.ndarray]:
        """Solve with Khat_i, factored on first use; a floating side 2 solves
        with the generalized inverse that is zero at the pins its band drops
        (bordering Khat_2 with I (x) R2 instead would add dense columns to
        the factor)."""
        if self._solves[i] is None:
            lay = self.problem.local_layouts[i]
            what = ("first", "pinned second" if self.floating else "second")[i]
            self._solves[i] = _band_solve(
                lay, _primal_band(lay, (self.V[i],)), f"{what}-block operator",
                dofs=np.flatnonzero(lay.maps[0] >= 0),
            )
        return self._solves[i]


def build_block_operators(
    problem: CoupledProblem,
    phi1: np.ndarray,
    phi2: np.ndarray,
    g_modes: tuple[GalerkinStack, GalerkinStack] | None = None,
) -> BlockOperators:
    """Assemble the expectation weights for the given stochastic factors.

    ``phi1``/``phi2`` hold one row of PC coefficients per rank. Weights:
    H[0][j, l, l'] = E1[psi_j phi1^l phi1^l'] E2[phi2^l phi2^l'] (mirrored
    for H[1]), W[l, l'] = E1[phi1^l phi1^l'] E2[phi2^l phi2^l'], and
    fw[l] = E1[phi1^l] E2[phi2^l]; all exact by orthonormality.
    """
    phi1 = np.atleast_2d(np.asarray(phi1, dtype=float))
    phi2 = np.atleast_2d(np.asarray(phi2, dtype=float))
    if phi1.shape[0] != phi2.shape[0]:
        raise ValueError("factor ranks differ between the two germs")
    if phi1.shape[1] != len(problem.idx_solution[0]) or phi2.shape[1] != len(
        problem.idx_solution[1]
    ):
        raise ValueError("factor coefficient length does not match the basis")
    if g_modes is None:
        g_modes = galerkin_mode_matrices(problem)
    G1, G2 = g_modes
    W1 = phi1 @ phi1.T
    W2 = phi2 @ phi2.T
    T2 = mode_weights(phi2, G2)
    return BlockOperators(
        rank=phi1.shape[0],
        T2=T2,
        H=(mode_weights(phi1, G1) * W2[None], T2 * W1[None]),
        W=W1 * W2,
        fw=phi1[:, 0] * phi2[:, 0],
        problem=problem,
    )


def apply_K1_inverse(ops: BlockOperators, B: np.ndarray) -> np.ndarray:
    """Solve Khat_1 X = B with the cached factorization."""
    return ops.local_solve(0)(B)


def apply_K2_pseudoinverse(
    ops: BlockOperators, B: np.ndarray, check: bool = True
) -> np.ndarray:
    """Particular solution of Khat_2 Y = B with no rigid-body content.

    ``check`` enforces the solvability condition R2hat^T B = 0; internal
    callers disable it and work with the range component of B (Moore-Penrose
    behaviour), which the interface iteration requires for its seed vectors.
    """
    if ops.floating:
        defect = np.linalg.norm(B @ ops.R2)
        if check and defect > 1e-8 * max(np.linalg.norm(B), 1e-300):
            raise SolverError(
                "right-hand side incompatible with the floating sub-domain: "
                f"|R2hat^T b| = {defect:.3e} violates the solvability condition"
            )
        B = ops.project_null2(B)
    return ops.project_null2(ops.local_solve(1)(B))


@dataclass
class PcpgTrace:
    """Relative interface residual per iteration."""

    residuals: list[float]

    @property
    def n_iters(self) -> int:
        return len(self.residuals)


@dataclass
class InterfaceProblem:
    """Implicit interface operator, projector, and preconditioner.

    ``C2I = C2^T R2``, the interface rows of R2, is the interface image of
    the floating side's rigid-body modes, None when no side floats.
    """

    ops: BlockOperators
    precond: Callable[[np.ndarray], np.ndarray]
    C2I: np.ndarray | None = field(init=False, default=None)
    d: np.ndarray = field(init=False)
    e: np.ndarray | None = field(init=False, default=None)
    _SR: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        ops = self.ops
        if ops.floating:
            self.C2I = ops.R2[ops.problem.sub[1].iface]
            SR = np.kron(ops.W @ ops.W, self.C2I.T @ self.C2I)
            try:
                self._SR = scipy.linalg.cho_factor(SR)
            except scipy.linalg.LinAlgError as err:
                raise SolverError(
                    "interface null-space columns are linearly dependent"
                ) from err
            self.e = ops.fhat(1) @ ops.R2
        y2 = apply_K2_pseudoinverse(ops, ops.fhat(1), check=False)
        y1 = apply_K1_inverse(ops, ops.fhat(0))
        self.d = ops.gather(1, y2) - ops.gather(0, y1)

    def _solve_SR(self, A: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self._SR, A.ravel()).reshape(A.shape)

    def apply_F(self, lam: np.ndarray) -> np.ndarray:
        ops = self.ops
        y1 = apply_K1_inverse(ops, ops.scatter(0, lam))
        y2 = apply_K2_pseudoinverse(ops, ops.scatter(1, lam), check=False)
        return ops.gather(0, y1) + ops.gather(1, y2)

    def apply_P(self, lam: np.ndarray) -> np.ndarray:
        """Orthogonal projector onto the complement of range(R2I)."""
        if self.C2I is None:
            return lam
        A = self.ops.W @ lam @ self.C2I
        return lam - self.ops.W @ self._solve_SR(A) @ self.C2I.T

    def lambda_init(self) -> np.ndarray:
        """Feasible start R2I (R2I^T R2I)^{-1} e = the multiplier that makes
        the floating side's load compatible."""
        if self.C2I is None:
            return np.zeros((self.ops.rank, self.ops.problem.sub[0].n_interface))
        return self.ops.W @ self._solve_SR(self.e) @ self.C2I.T

    def alpha_from(self, lam: np.ndarray) -> np.ndarray:
        """Rigid-body amplitudes (R2I^T R2I)^{-1} R2I^T (F lambda - d)."""
        if self.C2I is None:
            return np.zeros((self.ops.rank, 0))
        g = self.ops.W @ (self.apply_F(lam) - self.d) @ self.C2I
        return self._solve_SR(g)


def build_preconditioner(ops: BlockOperators) -> Callable[[np.ndarray], np.ndarray]:
    """Stiffness-scaled interface preconditioner S^{-1}(C^T Khat C summed) S^{-1}.

    S = Chat_1^T Chat_1 + Chat_2^T Chat_2 = 2 W^2 (x) I because each side's
    interface dofs are distinct, so C_i^T C_i = I (each interface dof is
    shared by exactly the two sub-domains). It is the one preconditioner of
    the interface iteration; an unpreconditioned ``InterfaceProblem`` takes
    the identity as ``precond``.
    """
    Winv2 = 0.5 * scipy.linalg.pinvh(ops.W @ ops.W)
    # the interface blocks KI_j = C_i^T K_j C_i are symmetric, so
    # sum_j (W H_j W) A KI_j = W (sum_j H_j (x) KI_j)(W A); with p the
    # interface dofs, KI_j A is the rows p of K_j applied to A placed at p
    sides = [(s.modes, V, s.iface) for s, V in zip(ops.problem.sub, ops.V)]
    W = ops.W

    def apply(lam: np.ndarray) -> np.ndarray:
        A = W @ (Winv2 @ lam)
        S = np.zeros_like(A)
        for modes, V, p in sides:
            U = np.zeros((A.shape[0], modes.n))
            U[:, p] = A
            S += apply_blocks(modes, V, U, p)
        return Winv2 @ (W @ S)

    return apply


def build_interface_problem(ops: BlockOperators) -> InterfaceProblem:
    return InterfaceProblem(ops=ops, precond=build_preconditioner(ops))


def pcg(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    apply_M: Callable[[np.ndarray], np.ndarray],
    eps: float,
    max_iters: int,
    what: str,
    x: np.ndarray | None = None,
    project: Callable[[np.ndarray], np.ndarray] = lambda v: v,
) -> tuple[np.ndarray, list[float]]:
    """Preconditioned conjugate gradients on block vectors, from ``x`` (zero
    when None) until |w| / |b| < eps, with w the residual mapped by the
    orthogonal projector ``project``.

    With the rigid-body projector of the interface problem this is the
    projected iteration (PCPG) of classical FETI; with the identity it is
    plain preconditioned CG. Returns the solution and the relative residual
    after each iteration. Running out of iterations, a residual that is not
    finite or a direction of non-positive curvature raises ``SolverError``
    naming ``what``.
    """
    start = np.zeros_like(b) if x is None else x
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        # no scale for the stopping test: the part of the start that no
        # step changes (steps stay in the range of ``project``), which is
        # a feasible PCPG start itself and the exact solution 0 of plain CG
        return start - project(start), []
    w = project(b if x is None else b - apply_A(x))
    x, p, num_old, residuals = start, None, 0.0, []
    rel = np.linalg.norm(w) / bnorm
    while not rel < eps:
        if not np.isfinite(rel):
            raise SolverError(f"{what} has a non-finite residual ({rel})")
        if len(residuals) >= max_iters:
            raise SolverError(
                f"{what} exceeded {max_iters} iterations (relative residual "
                f"{rel:.3e}, target {eps:.1e}); trace: "
                + ",".join(f"{r:.3e}" for r in residuals[-5:])
            )
        y = project(apply_M(project(w)))
        num = float((y * w).sum())
        p = y if p is None else y + (num / num_old) * p
        Ap = apply_A(p)
        denom = float((p * Ap).sum())
        if denom <= 0.0:
            raise SolverError(
                f"{what} lost positivity (curvature {denom:.3e}, "
                f"relative residual {rel:.3e})"
            )
        gamma = num / denom
        x = x + gamma * p
        w = w - gamma * project(Ap)
        num_old = num
        rel = np.linalg.norm(w) / bnorm
        residuals.append(float(rel))
    return x, residuals


def pcpg_solve(
    ip: InterfaceProblem, eps: float = 1e-8, max_iters: int | None = None
) -> tuple[np.ndarray, PcpgTrace]:
    """Projected preconditioned conjugate gradients on the interface problem,
    from the feasible start: ``pcg`` with the projector ``apply_P``.

    Convergence criterion: |w_k| / |d| < eps with w the projected residual.
    """
    if max_iters is None:
        max_iters = 10 * ip.ops.rank * ip.ops.problem.sub[0].n_interface
    lam, residuals = pcg(
        ip.apply_F, ip.d, ip.precond, eps, max_iters, "interface iteration",
        x=ip.lambda_init(), project=ip.apply_P,
    )
    return lam, PcpgTrace(residuals=residuals)


def recover_primal(
    ip: InterfaceProblem, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Back-substitute the converged multiplier into the primal factors."""
    ops = ip.ops
    u1 = apply_K1_inverse(ops, ops.fhat(0) + ops.scatter(0, lam))
    u2 = apply_K2_pseudoinverse(ops, ops.fhat(1) - ops.scatter(1, lam), check=False)
    alpha = ip.alpha_from(lam)
    if ops.floating:
        u2 = u2 + alpha @ ops.R2.T
    return u1, u2, alpha


_DIRECT_SIZE_CAP = 40_000


def _band_positions(lay: PrimalLayout, r: int) -> Iterator[tuple]:
    """Where each side's block values go in the band of ``lay`` with r
    factors. Unknown (g, l), factor l of band dof g, is number inv[g] r + l,
    so the half-bandwidth is kd = r (b + 1) - 1 and the band is the
    Fortran-order (kd + 1, n r) array of LAPACK upper band storage. Yields
    two ``(s, src, index)`` per side s, whose entries ``src`` of the flat
    (r, r, nnz) block values go to ``index`` of the flat band: every block
    (l, l') of the entries off the diagonal, the blocks l <= l' of those on
    it."""
    kd = r * (lay.b + 1) - 1
    l = np.arange(r)
    up0, up1 = np.triu_indices(r)
    for s, (nnz, ((e, i, j), (d, k))) in enumerate(zip(lay.nnz, lay.upper)):
        # unknown (p, q), p <= q, sits in row kd + p - q of band column q
        src = (r * l[:, None] + l)[:, :, None] * nnz + e
        yield s, src, kd * (r * j + l[:, None] + 1) + r * i + l[:, None, None]
        src = (r * up0 + up1)[:, None] * nnz + d
        yield s, src, kd * (r * k + up1[:, None] + 1) + r * k + up0[:, None]


def _band_write(ab: np.ndarray, positions: Iterable, values: Sequence[np.ndarray]) -> np.ndarray:
    """Overwrite and return the band ``ab``: the sides' blocks, side s with
    the block values ``values[s]``, summed at ``_band_positions``."""
    ab.fill(0.0)
    flat = ab.ravel(order="F")  # a view
    # no position repeats within one side; the sides meet on the interface
    for s, src, index in positions:
        flat[index] += values[s].take(src)
    return ab


def _primal_band(lay: PrimalLayout, values: Sequence[np.ndarray]) -> np.ndarray:
    """The blocks of the sides of ``lay``, side s with the (r, r, nnz)
    block values ``values[s]``, summed on its band of r factors."""
    r = values[0].shape[0]
    ab = np.empty((r * (lay.b + 1), r * lay.n), order="F")
    return _band_write(ab, _band_positions(lay, r), values)


def _band_solve(
    lay: PrimalLayout, ab: np.ndarray, what: str, dofs: np.ndarray | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """One unpivoted banded Cholesky factorization of the filled band ``ab``
    of ``lay`` (overwritten), returned as the solve of (r k, M) blocks, row
    l k + t holding factor l of right-hand side t, whose columns ``dofs`` (all
    when None) are the band dofs; the other columns solve to zero. A band that
    is not positive definite or a non-finite solution raises ``SolverError``
    naming ``what``."""
    r = ab.shape[1] // lay.n
    order = lay.perm if dofs is None else dofs[lay.perm]
    c, info = dpbtrf(ab, overwrite_ab=1)
    if info < 0:
        raise RuntimeError(f"pbtrf rejected its argument {-info}")
    if info > 0:
        raise SolverError(
            f"{what} is not positive definite (leading minor of order {info})"
        )

    def solve(B: np.ndarray) -> np.ndarray:
        x, _ = dpbtrs(c, B[:, order].T.reshape(r * lay.n, -1), overwrite_b=1)
        if not np.isfinite(x).all():
            raise SolverError(f"{what} has a non-finite solution (singular system)")
        X = np.zeros_like(B)
        X[:, order] = x.reshape(-1, B.shape[0]).T
        return X

    return solve


def direct_saddle_solve(ops: BlockOperators) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact solve of the block saddle system through its multiplier-free
    primal form: one banded Cholesky factorization, refused above
    ``_DIRECT_SIZE_CAP`` = 40 000 unknowns r (M1 + M2 + M_I).

    W is nonsingular whenever the saddle system is, so the continuity rows
    say C1^T u1[l] = C2^T u2[l] for every factor l, and each side-2
    interface dof is its side-1 partner (``problems.CoupledProblem.merge_map``;
    its band, ``primal_layout``, is built once per problem).
    What is left is the symmetric positive definite system of the n merged
    dofs and r factors, which ``_primal_band`` writes straight into LAPACK
    band storage and ``pbtrf`` factors: n r unknowns, half-bandwidth
    kd = r (b + 1) - 1, (kd + 1) n r stored values and about n r kd^2 flops.
    Per built-in profile, n and kd are 72 and 7r - 1 (``lshape-desk``), 240 and 14r - 1
    (``beam-desk``), 1 100 and 26r - 1 (``beam``), 1 640 and 23r - 1
    (``lshape``); at r = 10 on ``beam-desk`` that is a 140 x 2 400 band.
    The multiplier follows from side 1's interface equilibrium,
    W lambda = C1^T (Khat_1 u1 - fhat1). Returns (u1, u2, lambda). A
    singular system (a zero stochastic factor, say) raises ``SolverError``.
    """
    s1, s2 = ops.problem.sub
    n = ops.rank * (s1.n_dofs + s2.n_dofs + s1.n_interface)
    if n > _DIRECT_SIZE_CAP:
        raise SolverError(
            f"direct saddle solve of size {n} exceeds the cap {_DIRECT_SIZE_CAP}; "
            'set solver.det_update to "pcpg" for the interface iteration'
        )
    lay = ops.problem.primal_layout
    # the load fw (x) f on the merged dofs
    load = np.outer(ops.fw, ops.problem.merged_load)
    u = _band_solve(lay, _primal_band(lay, ops.V), "block saddle system")(load)
    u1, u2 = u[:, : s1.n_dofs], u[:, lay.maps[1]]
    # side 1's equilibrium at interface dof p1_k: (Khat_1 u1 - fhat1)[p1_k]
    # = (W lambda)[k]
    p1 = s1.iface
    Wlam = apply_blocks(s1.modes, ops.V[0], u1, p1) - np.outer(ops.fw, s1.f[p1])
    return u1, u2, np.linalg.solve(ops.W, Wlam)
