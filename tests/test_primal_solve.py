"""The banded deterministic updates: one banded Cholesky factorization of
the multiplier-free primal system, checked against the whole saddle system
factored by a sparse LU, and the bands of the local solves of the
interface iteration, written by the same band writer."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpbsv

import oracles
from sepfeti import arr, feti, reference


def operators(problem, rank, seed):
    rng = np.random.default_rng(seed)
    phi1 = rng.standard_normal((rank, len(problem.idx_solution[0])))
    phi2 = rng.standard_normal((rank, len(problem.idx_solution[1])))
    return feti.build_block_operators(problem, phi1, phi2)


def assert_matches_reference(ops, rtol=1e-10):
    got = feti.direct_saddle_solve(ops)
    want = oracles.saddle_solve_superlu(ops)
    for name, x, y in zip(("u1", "u2", "lam"), got, want):
        assert x.shape == y.shape, name
        if y.size:
            err = np.abs(x - y).max() / np.abs(y).max()
            assert err <= rtol, f"{name}: relative difference {err:.2e}"
    return got, want


@pytest.mark.parametrize(
    "name, rank",
    [
        ("lshape-desk", 1), ("lshape-desk", 3), ("lshape-desk", 10),
        ("beam-desk", 1), ("beam-desk", 3), ("beam-desk", 10),
        ("lshape", 1), ("lshape", 3),
        ("beam", 1), ("beam", 3),
    ],
)
def test_primal_route_matches_saddle_reference(profile_problem, name, rank):
    ops = operators(profile_problem(name), rank, seed=40 + rank)
    assert ops.floating == name.startswith("beam")
    assert_matches_reference(ops)


def band_order(lay, r, dofs, M):
    """Position in the rank-major order of a block operator on M dofs of
    each band unknown: unknown (g, l), factor l of band dof g, is number
    inv[g] r + l and stands for dof ``dofs[g]`` of factor l."""
    order = np.empty(r * lay.n, dtype=np.intp)
    order[(lay.inv[None, :] * r + np.arange(r)[:, None]).ravel()] = (
        np.arange(r)[:, None] * M + dofs
    ).ravel()
    return order


def unpack(ab, shape):
    """The upper triangle held in LAPACK upper band storage: A[i, j], i <= j,
    sits in row kd + i - j of column j, the diagonal format with offset
    j - i = kd - row."""
    kd = ab.shape[0] - 1
    return sp.dia_matrix((ab, kd - np.arange(kd + 1)), shape=shape).toarray()


@pytest.mark.parametrize("name, rank", [("lshape-desk", 2), ("beam-desk", 3)])
@pytest.mark.parametrize("swap", [False, True])
def test_band_holds_permuted_primal_matrix(profile_problem, name, rank, swap):
    # swap exchanges the two sub-domains, so the other one's dofs are the
    # merged band's first block (on beam-desk, the floating one's)
    problem = profile_problem(name)
    if swap:
        problem = oracles.swap_subdomains(problem)
    ops = operators(problem, rank, seed=48)
    lay, r = problem.primal_layout, rank
    dof1, dof2 = lay.maps
    s1, s2 = problem.sub
    np.testing.assert_array_equal(dof1, np.arange(s1.n_dofs))
    np.testing.assert_array_equal(dof2[s2.iface], s1.iface)
    # the primal matrix in the rank-major order of Khat: each side's dofs
    # mapped to the merged dofs
    Q1 = sp.eye(s1.n_dofs, lay.n, format="csr")
    m2 = s2.n_dofs
    Q2 = sp.csr_matrix((np.ones(m2), (np.arange(m2), dof2)), shape=(m2, lay.n))
    E1, E2 = (sp.kron(sp.identity(r), Q, format="csr") for Q in (Q1, Q2))
    K1hat, K2hat = (reference.kron_sum(s.modes, V) for s, V in zip(problem.sub, ops.V))
    A = E1.T @ K1hat @ E1 + E2.T @ K2hat @ E2
    f = E1.T @ ops.fhat(0).ravel() + E2.T @ ops.fhat(1).ravel()
    order = band_order(lay, r, np.arange(lay.n), lay.n)
    permuted = A[order][:, order]
    ab = feti._primal_band(lay, ops.V)
    kd = ab.shape[0] - 1
    assert kd == r * (lay.b + 1) - 1
    rows, cols = permuted.nonzero()
    assert np.abs(rows - cols).max() <= kd
    np.testing.assert_array_equal(unpack(ab, permuted.shape), sp.triu(permuted).toarray())
    # fw[l] (f1 + f2) against fw[l] f1 + fw[l] f2 on the interface
    rhs = np.outer(ops.fw, ops.problem.merged_load)
    np.testing.assert_allclose(rhs.ravel(), f, rtol=0, atol=1e-15 * np.abs(f).max())

    # the two local bands: each side's Khat, the floating side without the
    # rows and columns of its pinned dofs
    sides = zip(problem.local_layouts, ops.V, ops.H)
    for side, (local, V, H) in enumerate(sides):
        dmap, = local.maps
        kept = np.flatnonzero(dmap >= 0)
        np.testing.assert_array_equal(dmap[kept], np.arange(local.n))
        pinned = side == 1 and ops.floating
        assert dmap.size - kept.size == (ops.R2.shape[1] if pinned else 0)
        if pinned:  # the pins leave the rigid-body modes full rank
            assert np.linalg.matrix_rank(np.delete(ops.R2, kept, axis=0)) == ops.R2.shape[1]
        Khat = oracles.kron_reference(H, oracles.per_mode_assembly(problem, side))
        order = band_order(local, r, kept, dmap.size)
        permuted = Khat[order][:, order]
        ab = feti._primal_band(local, (V,))
        kd = ab.shape[0] - 1
        assert kd == r * (local.b + 1) - 1
        rows, cols = permuted.nonzero()
        assert np.abs(rows - cols).max() <= kd
        want = sp.triu(permuted).toarray()
        np.testing.assert_allclose(
            unpack(ab, permuted.shape), want, rtol=0, atol=1e-13 * np.abs(want).max()
        )


def test_direct_route_bit_for_bit(profile_problem):
    # the factors are LAPACK's one-call banded solve (pbsv) of the band and
    # the load, and the multiplier is side 1's interface rows of Khat_1 u1
    # summed over each row's stored entries in storage order, bit for bit
    for name, rank in (("lshape-desk", 10), ("beam-desk", 3), ("beam", 2)):
        ops = operators(profile_problem(name), rank, seed=50)
        u1, u2, lam = feti.direct_saddle_solve(ops)
        lay = ops.problem.primal_layout
        b = np.outer(ops.fw, ops.problem.merged_load)[:, lay.perm].T.reshape(-1, 1)
        _, x, info = dpbsv(feti._primal_band(lay, ops.V), b)
        assert info == 0
        u = x.reshape(lay.n, rank)[lay.inv].T
        assert np.array_equal(u1, u[:, : ops.problem.sub[0].n_dofs]), name
        assert np.array_equal(u2, u[:, lay.maps[1]]), name
        p1 = ops.problem.sub[0].iface
        m = ops.problem.sub[0].modes
        lo, length = m.indptr[p1], np.diff(m.indptr)[p1]
        starts = np.append(0, np.cumsum(length)[:-1])
        e = np.repeat(lo - starts, length) + np.arange(length.sum())
        Ku = np.einsum("lme,me->le", ops.V[0][:, :, e], u1[:, m.indices[e]])
        Wlam = np.add.reduceat(Ku, starts, axis=1) - np.outer(ops.fw, ops.problem.sub[0].f[p1])
        assert np.array_equal(lam, np.linalg.solve(ops.W, Wlam)), name
        # the same rows of the whole product, to rounding
        np.testing.assert_allclose(
            feti.apply_blocks(m, ops.V[0], u1, np.arange(m.n))[:, p1],
            np.add.reduceat(Ku, starts, axis=1),
            rtol=1e-13, atol=1e-13 * np.abs(Ku).max(),
        )


def test_direct_route_refuses_systems_over_the_size_cap(profile_problem):
    # beam-desk has r (M1 + M2 + MI) = 264 r unknowns: 152 pairs give 40 128.
    # W is already singular from r = 37 (r > P^2 = 36), so the match on the
    # message tells the cap apart from a singular-system SolverError.
    problem = profile_problem("beam-desk")
    rank = 152
    ops = operators(problem, rank, seed=49)
    s1, s2 = problem.sub
    assert rank * (s1.n_dofs + s2.n_dofs + s1.n_interface) == 40_128 > feti._DIRECT_SIZE_CAP
    remedy = 'exceeds the cap 40000; set solver.det_update to "pcpg"'
    with pytest.raises(feti.SolverError, match=remedy):
        feti.direct_saddle_solve(ops)
    rng = np.random.default_rng(49)
    sol = arr.SeparatedSolution.zeros(problem, rank)
    sol.phi1[:] = rng.standard_normal(sol.phi1.shape)
    sol.phi2[:] = rng.standard_normal(sol.phi2.shape)
    with pytest.raises(feti.SolverError, match=remedy):
        arr.deterministic_update(problem, sol, method="direct")
