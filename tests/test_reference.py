"""Reference solvers: combined-basis Galerkin oracle and Monte Carlo."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from sepfeti import feti, pc_basis, problems, reference


def desk_problem(example="lshape", **field_over):
    name = "lshape-desk" if example == "lshape" else "beam-desk"
    cfg = problems.profile_config(name)
    cfg["field"].update(field_over)
    build = problems.build_example_I if example == "lshape" else problems.build_example_II
    return build(cfg)


def test_sg_core_matches_dense_kronecker():
    # hand-made one-germ instance with two dofs against a dense assembly
    fam = pc_basis.family("hermite-gaussian")
    idx = pc_basis.build_index_set(1, 3)
    K0 = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    K1 = sp.csr_matrix(0.3 * np.array([[1.0, 0.2], [0.2, 1.0]]))
    f = np.array([1.0, 2.0])
    rows = np.array([[0], [1]])
    G = pc_basis.triple_moment_stack(fam, rows, idx).dense()
    dense = np.kron(G[0], K0.toarray()) + np.kron(G[1], K1.toarray())
    b = np.zeros(2 * len(idx))
    b[:2] = f
    expected = np.linalg.solve(dense, b).reshape(len(idx), 2)
    modes = oracles.mode_stack_from_modes([K0, K1])
    got = reference._sg_solve_core(modes, G, f, tol=1e-12)
    np.testing.assert_allclose(got, expected, atol=1e-10 * np.abs(expected).max())


def test_monolithic_sg_deterministic_reduction():
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    sol = reference.solve_monolithic_sg(prob)
    mono = problems.as_monolithic(prob)
    u_det = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    np.testing.assert_allclose(sol.coeffs[0], u_det, rtol=1e-10)
    assert np.abs(sol.coeffs[1:]).max() <= 1e-12 * np.abs(u_det).max()
    np.testing.assert_allclose(sol.mean(), u_det, rtol=1e-10)
    assert np.abs(sol.std()).max() <= 1e-9 * np.abs(u_det).max()


def test_monolithic_sg_size_guard():
    cfg = problems.profile_config("lshape-desk")
    cfg["pc"].update(p1=14, p2=14)
    prob = problems.build_example_I(cfg)
    with pytest.raises(problems.ConfigError, match="exceeds"):
        reference.solve_monolithic_sg(prob)
    with pytest.raises(problems.ConfigError, match="exceeds"):
        oracles.solve_coupled_sg(prob)


@pytest.mark.parametrize("example", ["lshape", "beam"])
def test_coupled_sg_matches_monolithic_restriction(example):
    prob = desk_problem(example=example)
    mono_sol = reference.solve_monolithic_sg(prob)
    coup = oracles.solve_coupled_sg(prob)
    mono = problems.as_monolithic(prob)
    scale = np.abs(mono_sol.coeffs).max()
    np.testing.assert_allclose(
        coup.u1, mono_sol.coeffs[:, mono.restrict1], atol=1e-8 * scale
    )
    np.testing.assert_allclose(
        coup.u2, mono_sol.coeffs[:, mono.restrict2], atol=1e-8 * scale
    )


def test_coupled_sg_lambda_is_interface_flux():
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    coup = oracles.solve_coupled_sg(prob)
    mono = problems.as_monolithic(prob)
    u_det = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    s1 = prob.sub[0]
    u1 = u_det[mono.restrict1]
    flux = s1.C.T @ (s1.K_modes[0] @ u1 - s1.f)
    scale = max(np.abs(flux).max(), 1e-30)
    np.testing.assert_allclose(coup.lam[0], flux, atol=1e-8 * scale)
    assert np.abs(coup.lam[1:]).max() <= 1e-10 * scale


def test_coupled_sg_zero_load():
    prob = desk_problem()
    zero = dataclasses.replace(
        prob,
        sub=tuple(
            dataclasses.replace(s, f=np.zeros_like(s.f)) for s in prob.sub
        ),
    )
    coup = oracles.solve_coupled_sg(zero)
    assert np.abs(coup.u1).max() == 0.0
    assert np.abs(coup.u2).max() == 0.0
    assert np.abs(coup.lam).max() == 0.0


def test_mc_deterministic_case():
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    acc = reference.monte_carlo_reference(prob, n_samples=5, seed=3)
    mono = problems.as_monolithic(prob)
    u_det = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    np.testing.assert_allclose(acc.mean, u_det, rtol=1e-10)
    assert np.abs(acc.std).max() <= 1e-10 * np.abs(u_det).max()


def test_mc_merge_and_se_scaling():
    prob = desk_problem()
    a = reference.monte_carlo_reference(prob, n_samples=500, seed=21)
    b = reference.monte_carlo_reference(prob, n_samples=1500, seed=22)
    m = oracles.merge_accumulators(a, b)
    assert m.n_samples == 2000
    np.testing.assert_allclose(
        m.mean, (500 * a.mean + 1500 * b.mean) / 2000, rtol=1e-12
    )
    c = reference.monte_carlo_reference(prob, n_samples=100, seed=23)
    left = oracles.merge_accumulators(oracles.merge_accumulators(a, b), c)
    right = oracles.merge_accumulators(a, oracles.merge_accumulators(b, c))
    np.testing.assert_allclose(left.mean, right.mean, rtol=1e-13)
    np.testing.assert_allclose(
        left.m2 / left.n_samples + left.mean**2,
        right.m2 / right.n_samples + right.mean**2,
        rtol=1e-13,
    )

    big = reference.monte_carlo_reference(prob, n_samples=2000, seed=24)
    ratio = (np.linalg.norm(big.std) / math.sqrt(big.n_samples)) / (
        np.linalg.norm(a.std) / math.sqrt(a.n_samples)
    )
    assert 0.3 < ratio < 0.75  # four times the samples halves the error


@pytest.fixture(scope="module")
def profile_problem():
    """Built-in profiles by name, each built once for the module."""
    built = {}

    def get(name):
        if name not in built:
            built[name] = problems.build_from_config(problems.profile_config(name))
        return built[name]

    return get


@pytest.mark.parametrize("name", ["lshape-desk", "beam-desk", "lshape", "beam"])
def test_band_layout_holds_rcm_permuted_matrix(profile_problem, name):
    pattern = problems.as_monolithic(profile_problem(name)).modes
    perm, b, index = reference._band_layout(pattern)
    n = pattern.n
    values = np.random.default_rng(4).standard_normal(pattern.indices.size)
    ab = np.zeros((3 * b + 1, n), order="F")
    ab.ravel(order="F")[index] = values
    permuted = pattern.matrix(values)[perm][:, perm]
    rows, cols = permuted.nonzero()
    assert b == np.abs(rows - cols).max()
    # gbsv band storage: A[i, j] sits in row 2b + i - j of column j, which is
    # the diagonal format with offset j - i = 2b - row
    unpacked = sp.dia_matrix((ab, 2 * b - np.arange(3 * b + 1)), shape=(n, n))
    np.testing.assert_array_equal(unpacked.toarray(), permuted.toarray())
    assert np.count_nonzero(ab) == values.size  # nothing outside the matrix


@pytest.mark.parametrize("name", ["beam", "lshape"])
def test_mc_full_profiles_match_per_sample_solves(profile_problem, name):
    problem = profile_problem(name)
    acc = reference.monte_carlo_reference(problem, n_samples=6, seed=5)
    U = oracles.per_sample_solutions(problem, 6, 5)
    mean = U.mean(axis=0)
    assert np.abs(acc.mean - mean).max() <= 1e-11 * np.abs(mean).max()


def test_mc_singular_sample_raises():
    prob = desk_problem()
    zero = dataclasses.replace(
        prob,
        sub=tuple(
            dataclasses.replace(
                s, modes=dataclasses.replace(s.modes, data=np.zeros_like(s.modes.data))
            )
            for s in prob.sub
        ),
    )
    with pytest.raises(feti.SolverError, match="singular"):
        reference.monte_carlo_reference(zero, n_samples=3, seed=1)


def test_mc_vs_sg_cross_oracle():
    prob = desk_problem()
    sg = reference.solve_monolithic_sg(prob)
    acc = reference.monte_carlo_reference(prob, n_samples=10_000, seed=25)
    gap = np.linalg.norm(acc.mean - sg.mean()) / np.linalg.norm(sg.mean())
    assert gap < 0.01
