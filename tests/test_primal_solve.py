"""The direct deterministic update: one banded Cholesky factorization of the
multiplier-free primal system, checked against the whole saddle system
factored by a sparse LU."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from sepfeti import arr, feti, problems


@pytest.fixture(scope="module")
def profile_problem():
    """Built-in profiles by name, each built once for the module."""
    built = {}

    def get(name):
        if name not in built:
            built[name] = problems.build_from_config(problems.profile_config(name))
        return built[name]

    return get


def operators(problem, rank, seed):
    rng = np.random.default_rng(seed)
    phi1 = rng.standard_normal((rank, len(problem.idx_solution[0])))
    phi2 = rng.standard_normal((rank, len(problem.idx_solution[1])))
    return feti.build_block_operators(problem, phi1, phi2)


def assert_matches_reference(ops, rtol=1e-10):
    got = feti.direct_saddle_solve(ops)
    want = oracles.saddle_solve_superlu(ops)
    for name, x, y in zip(("u1", "u2", "lam", "alpha"), got, want):
        assert x.shape == y.shape, name
        if y.size:
            err = np.abs(x - y).max() / np.abs(y).max()
            assert err <= rtol, f"{name}: relative difference {err:.2e}"
    return got, want


def signed(problem):
    """The same problem with the second extractor negated, c1/c2 = -1."""
    s1, s2 = problem.sub
    return dataclasses.replace(problem, sub=(s1, dataclasses.replace(s2, C=-s2.C)))


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


@pytest.mark.parametrize("name", ["lshape-desk", "beam-desk"])
def test_signed_extractor_pair_matches_reference(profile_problem, name):
    flipped = signed(profile_problem(name))
    p2 = flipped.sub[1].C.tocoo().row
    np.testing.assert_array_equal(flipped.primal_layout.scale2[p2], -1.0)
    (u1, u2, _, _), _ = assert_matches_reference(operators(flipped, 3, seed=47))
    C1, C2 = flipped.sub[0].C, flipped.sub[1].C
    np.testing.assert_allclose(
        (C1.T @ u1.T).T, (C2.T @ u2.T).T, rtol=0, atol=1e-12 * np.abs(u1).max()
    )


@pytest.mark.parametrize("name, rank", [("lshape-desk", 2), ("beam-desk", 3)])
@pytest.mark.parametrize("flip", [False, True])
def test_band_holds_permuted_primal_matrix(profile_problem, name, rank, flip):
    problem = profile_problem(name)
    if flip:
        problem = signed(problem)
    ops = operators(problem, rank, seed=48)
    lay, r = problem.primal_layout, rank
    # the primal matrix in the rank-major order of Khat: each side's dofs
    # mapped to the merged dofs, with the side-2 scale
    Q1 = sp.eye(ops.M1, lay.n, format="csr")
    Q2 = sp.csr_matrix((lay.scale2, (np.arange(ops.M2), lay.dof2)), shape=(ops.M2, lay.n))
    E1, E2 = (sp.kron(sp.identity(r), Q, format="csr") for Q in (Q1, Q2))
    A = E1.T @ ops.K1hat @ E1 + E2.T @ ops.K2hat @ E2
    f = E1.T @ ops.fhat1.ravel() + E2.T @ ops.fhat2.ravel()
    # unknown (g, l) is number inv[g] r + l of the band
    order = np.empty(r * lay.n, dtype=np.intp)
    order[(lay.inv[None, :] * r + np.arange(r)[:, None]).ravel()] = np.arange(r * lay.n)
    permuted = A[order][:, order]
    ab, rhs = feti._primal_band(ops)
    kd = ab.shape[0] - 1
    assert kd == r * (lay.b + 1) - 1
    rows, cols = permuted.nonzero()
    assert np.abs(rows - cols).max() <= kd
    # upper band storage: A[i, j], i <= j, sits in row kd + i - j of column j,
    # the diagonal format with offset j - i = kd - row
    unpacked = sp.dia_matrix((ab, kd - np.arange(kd + 1)), shape=permuted.shape)
    np.testing.assert_array_equal(unpacked.toarray(), sp.triu(permuted).toarray())
    # fw[l] (f1 + f2) against fw[l] f1 + fw[l] f2 on the interface
    np.testing.assert_allclose(rhs[:, 0], f[order], rtol=0, atol=1e-15 * np.abs(f).max())


def test_direct_route_refuses_systems_over_the_size_cap(profile_problem):
    # beam-desk has r (M1 + M2 + MI) = 264 r unknowns: 152 pairs give 40 128.
    # W is already singular from r = 37 (r > P^2 = 36), so the match on the
    # message tells the cap apart from a singular-system SolverError.
    problem = profile_problem("beam-desk")
    rank = 152
    ops = operators(problem, rank, seed=49)
    assert rank * (ops.M1 + ops.M2 + ops.M_I) == 40_128 > feti._DIRECT_SIZE_CAP
    with pytest.raises(feti.SolverError, match="exceeds the cap"):
        feti.direct_saddle_solve(ops)
    rng = np.random.default_rng(49)
    sol = arr.SeparatedSolution.zeros(problem, rank)
    sol.phi1[:] = rng.standard_normal(sol.phi1.shape)
    sol.phi2[:] = rng.standard_normal(sol.phi2.shape)
    with pytest.raises(feti.SolverError, match="exceeds the cap"):
        arr.deterministic_update(problem, sol, method="direct")
