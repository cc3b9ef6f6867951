"""Alternating solver core: energy, factor updates, residual, outer loop."""

from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from sepfeti import arr, feti, pc_basis, problems


def desk_problem(example="lshape", **field_over):
    name = "lshape-desk" if example == "lshape" else "beam-desk"
    cfg = problems.profile_config(name)
    cfg["field"].update(field_over)
    build = problems.build_example_I if example == "lshape" else problems.build_example_II
    return build(cfg)


def tiny_problem(**field_over):
    """d1 = d2 = 1, p = 1: small enough for full quadrature oracles."""
    cfg = problems.profile_config("lshape-desk")
    cfg["field"].update(d1=1, d2=1)
    cfg["field"].update(field_over)
    cfg["pc"].update(p1=1, p2=1)
    return problems.build_example_I(cfg)


def random_solution(problem, rank, seed, zero_lam=False):
    rng = np.random.default_rng(seed)
    s1, s2 = problem.sub
    sol = arr.SeparatedSolution(
        u1=rng.standard_normal((rank, s1.n_dofs)),
        u2=rng.standard_normal((rank, s2.n_dofs)),
        lam=np.zeros((rank, s1.n_interface))
        if zero_lam
        else rng.standard_normal((rank, s1.n_interface)),
        phi1=rng.standard_normal((rank, len(problem.idx_solution[0]))),
        phi2=rng.standard_normal((rank, len(problem.idx_solution[1]))),
    )
    return arr.normalize_factors(sol)


def constant_factor_solution(problem, u1, u2, lam):
    phi1 = np.zeros((1, len(problem.idx_solution[0])))
    phi2 = np.zeros((1, len(problem.idx_solution[1])))
    phi1[0, 0] = phi2[0, 0] = 1.0
    return arr.SeparatedSolution(
        u1=np.atleast_2d(u1), u2=np.atleast_2d(u2), lam=np.atleast_2d(lam),
        phi1=phi1, phi2=phi2,
    )


def quadrature_energy(problem, sol, n_quad=12):
    """Oracle: evaluate the energy functional on a tensor Gauss grid."""
    fam = pc_basis.family(problem.family_kind)
    x, w = fam.gauss_rule(n_quad)
    idx1, idx2 = problem.idx_solution
    f_idx1 = problem.fields[0].idx_set
    f_idx2 = problem.fields[1].idx_set
    # univariate germs only in the tiny instance
    assert idx1.d == 1 and idx2.d == 1
    t1 = fam.eval_table(max(f_idx1.p, idx1.p), x)
    t2 = fam.eval_table(max(f_idx2.p, idx2.p), x)
    s1, s2 = problem.sub
    K1 = [K.toarray() for K in s1.K_modes]
    K2 = [K.toarray() for K in s2.K_modes]
    C1, C2 = (oracles.extractor(s).toarray() for s in (s1, s2))
    total = 0.0
    for q1, w1 in enumerate(w):
        phi1_val = sol.phi1 @ t1[idx1.indices[:, 0], q1]
        K1x = sum(t1[f_idx1.indices[j, 0], q1] * K1[j] for j in range(len(f_idx1)))
        for q2, w2 in enumerate(w):
            phi2_val = sol.phi2 @ t2[idx2.indices[:, 0], q2]
            K2x = sum(
                t2[f_idx2.indices[j, 0], q2] * K2[j] for j in range(len(f_idx2))
            )
            coeff = phi1_val * phi2_val
            u1 = coeff @ sol.u1
            u2 = coeff @ sol.u2
            lam = coeff @ sol.lam
            val = (
                0.5 * u1 @ K1x @ u1
                - u1 @ s1.f
                + 0.5 * u2 @ K2x @ u2
                - u2 @ s2.f
                + lam @ (C2.T @ u2 - C1.T @ u1)
            )
            total += w1 * w2 * val
    return total


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_solution():
    prob = desk_problem()
    sol = arr.SeparatedSolution.zeros(prob, rank=2)
    rng = np.random.default_rng(0)
    sol.phi1[:] = rng.standard_normal(sol.phi1.shape)
    sol.phi2[:] = rng.standard_normal(sol.phi2.shape)
    assert arr.energy(prob, sol) == 0.0


def test_energy_matches_quadrature_oracle():
    prob = tiny_problem()
    rng = np.random.default_rng(1)
    s1, s2 = prob.sub
    sol = arr.SeparatedSolution(
        u1=rng.standard_normal((2, s1.n_dofs)),
        u2=rng.standard_normal((2, s2.n_dofs)),
        lam=rng.standard_normal((2, s1.n_interface)),
        phi1=rng.standard_normal((2, 2)),
        phi2=rng.standard_normal((2, 2)),
    )
    pi = arr.energy(prob, sol)
    oracle = quadrature_energy(prob, sol)
    assert pi == pytest.approx(oracle, rel=1e-9)


def test_energy_deterministic_minimum_value():
    # at the exact deterministic solution, pi = -1/2 u* K u* (monolithic)
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    mono = problems.as_monolithic(prob)
    u_star = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    expected = -0.5 * u_star @ (oracles.mono_K_modes(mono)[0] @ u_star)
    sol = arr.SeparatedSolution.zeros(prob, rank=1)
    sol.phi1[0, 0] = sol.phi2[0, 0] = 1.0
    upd = arr.deterministic_update(prob, sol, method="direct")
    assert arr.energy(prob, upd) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# stochastic updates


def test_stochastic_update_deterministic_collapses_to_mean():
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    sol = random_solution(prob, rank=2, seed=2)
    new1 = arr.stochastic_update_phi1(prob, sol)
    assert np.abs(new1[:, 1:]).max() < 1e-12 * np.abs(new1).max()
    new2 = arr.stochastic_update_phi2(prob, sol)
    assert np.abs(new2[:, 1:]).max() < 1e-12 * np.abs(new2).max()


def test_stochastic_update_rank_one_vs_galerkin_oracle():
    prob = tiny_problem()
    sol = random_solution(prob, rank=1, seed=3)
    fam = pc_basis.family(prob.family_kind)
    x, w = fam.gauss_rule(20)
    idx1 = prob.idx_solution[0]
    f_idx1 = prob.fields[0].idx_set
    idx2 = prob.idx_solution[1]
    f_idx2 = prob.fields[1].idx_set
    t1 = fam.eval_table(max(f_idx1.p, idx1.p), x)
    t2 = fam.eval_table(max(f_idx2.p, idx2.p), x)
    s1, s2 = prob.sub
    u1, u2 = sol.u1[0], sol.u2[0]
    P1 = len(idx1)

    # E_2 quantities by quadrature
    phi2_vals = sol.phi2[0] @ t2[idx2.indices[:, 0]]  # values at nodes
    e2_gram = float((phi2_vals**2) @ w)
    e2_mean = float(phi2_vals @ w)
    K2x_weight = np.zeros(len(f_idx2))
    for j in range(len(f_idx2)):
        K2x_weight[j] = float((t2[f_idx2.indices[j, 0]] * phi2_vals**2) @ w)
    s_term = sum(
        K2x_weight[j] * (u2 @ (s2.K_modes[j] @ u2)) for j in range(len(f_idx2))
    )

    A = np.zeros((P1, P1))
    basis1 = t1[idx1.indices[:, 0]]  # (P1, q)
    for j in range(len(f_idx1)):
        q1 = u1 @ (s1.K_modes[j] @ u1)
        G_j = (basis1 * t1[f_idx1.indices[j, 0]] * w) @ basis1.T
        A += q1 * e2_gram * G_j
    A += s_term * np.eye(P1)
    b = np.zeros(P1)
    b[0] = (u1 @ s1.f + u2 @ s2.f) * e2_mean
    oracle = np.linalg.solve(A, b)

    new1 = arr.stochastic_update_phi1(prob, sol)
    np.testing.assert_allclose(new1[0], oracle, atol=1e-10 * np.abs(oracle).max())


def test_stochastic_updates_never_increase_energy():
    prob = desk_problem()
    sol = random_solution(prob, rank=2, seed=4, zero_lam=True)
    sol = arr.deterministic_update(prob, sol, method="direct")
    pi0 = arr.energy(prob, sol)
    sol.phi1[:] = arr.stochastic_update_phi1(prob, sol)
    pi1 = arr.energy(prob, sol)
    assert pi1 <= pi0 + 1e-12 * abs(pi0)
    sol.phi2[:] = arr.stochastic_update_phi2(prob, sol)
    pi2 = arr.energy(prob, sol)
    assert pi2 <= pi1 + 1e-12 * abs(pi1)


def test_phi2_update_equals_phi1_on_swapped_problem():
    prob = desk_problem()
    sol = random_solution(prob, rank=2, seed=5)
    swapped = oracles.swap_subdomains(prob)
    sol_swapped = arr.SeparatedSolution(
        u1=sol.u2.copy(), u2=sol.u1.copy(), lam=-sol.lam.copy(),
        phi1=sol.phi2.copy(), phi2=sol.phi1.copy(),
    )
    direct = arr.stochastic_update_phi2(prob, sol)
    via_swap = arr.stochastic_update_phi1(swapped, sol_swapped)
    np.testing.assert_allclose(direct, via_swap, atol=1e-12 * np.abs(direct).max())


def test_degenerate_factors_rejected():
    prob = desk_problem()
    sol = arr.SeparatedSolution.zeros(prob, rank=1)
    sol.phi1[0, 0] = sol.phi2[0, 0] = 1.0
    # zero deterministic factors make the Galerkin system singular
    with pytest.raises(feti.SolverError, match="re-initial"):
        arr.stochastic_update_phi1(prob, sol)


# ---------------------------------------------------------------------------
# deterministic update


def test_deterministic_update_idempotent():
    prob = desk_problem(example="beam")
    sol = random_solution(prob, rank=2, seed=6)
    once = arr.deterministic_update(prob, sol, method="pcpg", pcpg_eps=1e-12)
    twice = arr.deterministic_update(prob, once, method="pcpg", pcpg_eps=1e-12)
    np.testing.assert_allclose(twice.u1, once.u1, atol=1e-9 * np.abs(once.u1).max())
    np.testing.assert_allclose(twice.u2, once.u2, atol=1e-9 * np.abs(once.u2).max())


def test_deterministic_update_continuity():
    prob = desk_problem(example="beam")
    sol = random_solution(prob, rank=2, seed=7)
    upd = arr.deterministic_update(prob, sol, method="pcpg", pcpg_eps=1e-12)
    C1, C2 = (oracles.extractor(s).toarray() for s in prob.sub)
    gap = upd.u2 @ C2 - upd.u1 @ C1
    assert np.abs(gap).max() < 1e-8 * max(np.abs(upd.u1).max(), np.abs(upd.u2).max())


def second_moment(W, U):
    """E[|sum_l U[l] phi1^l phi2^l|^2] for the factor Gram product W."""
    return float(np.sum(W * (U @ U.T)))


@pytest.mark.parametrize("example", ["lshape", "beam"])
def test_interface_violation_after_direct_update_and_on_perturbed_factors(example):
    prob = desk_problem(example=example)
    sol = random_solution(prob, rank=3, seed=31)
    upd = arr.deterministic_update(prob, sol, method="direct")
    W = (upd.phi1 @ upd.phi1.T) * (upd.phi2 @ upd.phi2.T)
    scale = second_moment(W, upd.u1) + second_moment(W, upd.u2)
    assert arr.interface_violation(prob, upd) <= 1e-24 * scale
    # perturbed factors: the dense E|C1^T u1 - C2^T u2|^2 from the Gram matrices
    rng = np.random.default_rng(32)
    moved = arr.SeparatedSolution(
        u1=upd.u1 + 1e-3 * rng.standard_normal(upd.u1.shape),
        u2=upd.u2,
        lam=upd.lam,
        phi1=upd.phi1 + 0.1 * rng.standard_normal(upd.phi1.shape),
        phi2=upd.phi2,
    )
    C1, C2 = (oracles.extractor(s).toarray() for s in prob.sub)
    D = moved.u1 @ C1 - moved.u2 @ C2
    W = (moved.phi1 @ moved.phi1.T) * (moved.phi2 @ moved.phi2.T)
    want = second_moment(W, D)
    assert want > 1e-12 * scale
    assert arr.interface_violation(prob, moved) == pytest.approx(want, rel=1e-12)


def test_proposition_chain_on_sweeps():
    # deterministic update lowers pi for frozen lambda; the multiplier update
    # never lowers it (equality holds when per-factor continuity is exact)
    prob = desk_problem()
    sol = random_solution(prob, rank=1, seed=8, zero_lam=True)
    sol = arr.deterministic_update(prob, sol, method="direct")
    sol.phi1[:] = arr.stochastic_update_phi1(prob, sol)
    sol.phi2[:] = arr.stochastic_update_phi2(prob, sol)
    sol = arr.normalize_factors(sol)

    pi_before = arr.energy(prob, sol)
    upd = arr.deterministic_update(prob, sol, method="direct")
    mixed_u = arr.SeparatedSolution(
        u1=upd.u1, u2=upd.u2, lam=sol.lam, phi1=sol.phi1, phi2=sol.phi2
    )
    mixed_lam = arr.SeparatedSolution(
        u1=sol.u1, u2=sol.u2, lam=upd.lam, phi1=sol.phi1, phi2=sol.phi2
    )
    slack = 1e-12 * abs(pi_before)
    assert arr.energy(prob, mixed_u) <= pi_before + slack
    assert arr.energy(prob, mixed_lam) >= pi_before - slack


def test_factor_matrix_matches_einsum():
    for example in ("lshape", "beam"):
        for G in feti.galerkin_mode_matrices(desk_problem(example)):
            dense = G.dense()
            for r in range(1, 5):
                rng = np.random.default_rng(r)
                C = rng.standard_normal((G.values.shape[1], r, r))
                S = rng.standard_normal((r, r))
                want = oracles.factor_matrix(dense, C, S)
                got = arr._factor_matrix(G, C, S)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


# ---------------------------------------------------------------------------
# stochastic factor CG: full beam at rank 3, where both germs' systems
# (r P = 660 and 1092) pass arr._CG_MIN_SIZE


def beam_cg_state(profile_problem, seed):
    prob = profile_problem("beam")
    assert min(3 * len(idx) for idx in prob.idx_solution) >= arr._CG_MIN_SIZE
    sol = random_solution(prob, rank=3, seed=seed, zero_lam=True)
    return prob, arr.deterministic_update(prob, sol)


def test_factor_blocks_match_einsum(profile_problem):
    r = 3
    for G in feti.galerkin_mode_matrices(profile_problem("beam")):
        rng = np.random.default_rng(G.P)
        C = rng.standard_normal((G.values.shape[1], r, r))
        S = rng.standard_normal((r, r))
        want = oracles.factor_matrix(G.dense(), C, S)
        # the oracle orders the unknowns (l, a), the blocks (a, l)
        want = want.reshape(r, G.P, r, G.P).transpose(1, 0, 3, 2).reshape(r * G.P, -1)
        blocks = arr._factor_blocks(G, C, S)
        got = sp.bsr_matrix((blocks, G.b, G.indptr), shape=(G.P * r, G.P * r)).toarray()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


def test_cg_factor_updates_match_dense_solve(profile_problem):
    prob, sol = beam_cg_state(profile_problem, seed=12)
    dense = [G.dense() for G in feti.galerkin_mode_matrices(prob)]
    U = (sol.u1, sol.u2)
    phi = (sol.phi1, sol.phi2)
    Q = [np.stack([U[i] @ (K @ U[i].T) for K in s.K_modes]) for i, s in enumerate(prob.sub)]
    load = sum(U[i] @ s.f for i, s in enumerate(prob.sub))
    for own, update in ((0, arr.stochastic_update_phi1), (1, arr.stochastic_update_phi2)):
        other = 1 - own
        C = Q[own] * (phi[other] @ phi[other].T)
        S = np.einsum("jlm,jlm->lm", Q[other], oracles.mode_weights(phi[other], dense[other]))
        b = np.zeros_like(phi[own])
        b[:, 0] = load * phi[other][:, 0]
        A = oracles.factor_matrix(dense[own], C, S)
        want = np.linalg.solve(A, b.ravel()).reshape(b.shape)
        got = update(prob, sol)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_cg_factor_updates_never_increase_energy(profile_problem):
    prob, sol = beam_cg_state(profile_problem, seed=4)
    pi0 = arr.energy(prob, sol)
    sol.phi1[:] = arr.stochastic_update_phi1(prob, sol)
    pi1 = arr.energy(prob, sol)
    assert pi1 <= pi0 + 1e-12 * abs(pi0)
    sol.phi2[:] = arr.stochastic_update_phi2(prob, sol)
    pi2 = arr.energy(prob, sol)
    assert pi2 <= pi1 + 1e-12 * abs(pi1)


def test_cg_factor_updates_without_load_give_zeros(profile_problem):
    # no load makes the factor systems' right-hand sides zero: their CG
    # solves return exact zeros, though they start from nonzero factors
    prob, sol = beam_cg_state(profile_problem, seed=12)
    unloaded = dataclasses.replace(
        prob, sub=tuple(dataclasses.replace(s, f=np.zeros_like(s.f)) for s in prob.sub)
    )
    updates = (arr.stochastic_update_phi1, arr.stochastic_update_phi2)
    for update, phi in zip(updates, (sol.phi1, sol.phi2)):
        assert phi.any()
        got = update(unloaded, sol)
        assert got.shape == phi.shape and not got.any()


def test_cg_degenerate_factors_rejected(profile_problem):
    prob = profile_problem("beam")
    sol = arr.SeparatedSolution.zeros(prob, rank=3)
    sol.phi1[:, 0] = sol.phi2[:, 0] = 1.0
    # zero deterministic factors leave the diagonal blocks zero
    with pytest.raises(feti.SolverError, match="re-initial"):
        arr.stochastic_update_phi1(prob, sol)
    with pytest.raises(feti.SolverError, match="re-initial"):
        arr.stochastic_update_phi2(prob, sol)


@pytest.mark.parametrize("name", ["lshape-desk", "beam"])
def test_nonfinite_factor_system_rejected(profile_problem, name):
    # lshape-desk takes the dense solve, the full beam at rank 3 the CG one
    prob = profile_problem(name)
    sol = random_solution(prob, rank=3, seed=13)
    sol.u2[1, 5] = np.nan
    for update in (arr.stochastic_update_phi1, arr.stochastic_update_phi2):
        with pytest.raises(feti.SolverError, match="re-initial"):
            update(prob, sol)


def test_sweep_reuses_are_exact():
    # arr_run takes pi(u_old, lam_new) from pi_before's primal part and the
    # phi1 update's weights T(phi2) from the sweep's block operators
    prob = desk_problem(example="beam")
    sol = random_solution(prob, rank=3, seed=21)
    G = feti.galerkin_mode_matrices(prob)
    ops = feti.build_block_operators(prob, sol.phi1, sol.phi2, G)
    primal, coupling = arr.energy(prob, sol, ops=ops, terms=True)
    assert primal + coupling == arr.energy(prob, sol, ops=ops)
    upd = arr.deterministic_update(prob, sol, ops=ops)
    mixed = arr.SeparatedSolution(
        u1=sol.u1, u2=sol.u2, lam=upd.lam, phi1=sol.phi1, phi2=sol.phi2
    )
    reused = primal + arr._coupling(prob, ops, sol.u1, sol.u2, upd.lam)
    assert reused == arr.energy(prob, mixed, ops=ops)
    np.testing.assert_array_equal(
        arr.stochastic_update_phi1(prob, upd, G, T_other=ops.T2),
        arr.stochastic_update_phi1(prob, upd, G),
    )


def test_arr_sweep_records_equal_direct_energies(monkeypatch):
    # every mixed-factor energy of a SweepRecord, evaluated afresh
    seen = []
    update = arr.deterministic_update

    def recorded(problem, solution, **kwargs):
        out = update(problem, solution, **kwargs)
        seen.append((copy.deepcopy(solution), copy.deepcopy(out), kwargs["ops"]))
        return out

    monkeypatch.setattr(arr, "deterministic_update", recorded)
    # the interface iteration leaves gaps that the coupling terms see
    prob = desk_problem(example="beam")
    prob.config["solver"]["det_update"] = "pcpg"
    _, trace = arr.arr_run(prob, eps=1e-9, r_max=2, seed=6, n_mc_residual=200)
    assert len(seen) == len(trace.sweeps)
    for rec, (sol, upd, ops) in zip(trace.sweeps, seen):
        def mixed(u, lam):
            return arr.SeparatedSolution(
                u1=u.u1, u2=u.u2, lam=lam.lam, phi1=sol.phi1, phi2=sol.phi2
            )

        assert rec.pi_before == arr.energy(prob, sol, ops=ops)
        assert rec.pi_u_new_lam_old == arr.energy(prob, mixed(upd, sol), ops=ops)
        assert rec.pi_u_old_lam_new == arr.energy(prob, mixed(sol, upd), ops=ops)


def test_arr_default_route_stays_direct_at_high_rank():
    # beam-desk has 264 unknowns per rank, so rank 12 solves 3 168: below the
    # size cap the default route is direct at every rank
    prob = desk_problem(example="beam")
    prob.config["solver"].update(max_sweeps=2, sweep_tol=0.0)
    _, trace = arr.arr_run(prob, eps=1e-9, r_max=12, seed=3, n_mc_residual=200)
    assert trace.sweeps[-1].rank == 12
    assert all(rec.pcpg_iters == 0 for rec in trace.sweeps)


def test_arr_call_counts_per_sweep(monkeypatch):
    # per rank: one energy and two mode weights for the first operators; per
    # sweep: two energies and three mode weights (T(phi2) is reused)
    calls = {"energy": 0, "mode_weights": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(arr, "energy", counted("energy", arr.energy))
    weights = counted("mode_weights", feti.mode_weights)
    monkeypatch.setattr(arr, "mode_weights", weights)
    monkeypatch.setattr(feti, "mode_weights", weights)
    _, trace = arr.arr_run(desk_problem(), eps=1e-9, r_max=3, seed=4, n_mc_residual=200)
    ranks, sweeps = len(trace.ranks), len(trace.sweeps)
    assert calls == {"energy": ranks + 2 * sweeps, "mode_weights": 2 * ranks + 3 * sweeps}


# ---------------------------------------------------------------------------
# normalization


def test_normalize_preserves_represented_function():
    prob = desk_problem()
    sol = random_solution(prob, rank=2, seed=9)
    scaled = arr.SeparatedSolution(
        u1=sol.u1.copy(), u2=sol.u2.copy(), lam=sol.lam.copy(),
        phi1=7.0 * sol.phi1, phi2=0.31 * sol.phi2,
    )
    normed = arr.normalize_factors(scaled)
    rng = np.random.default_rng(9)
    xi1 = rng.standard_normal((10, prob.fields[0].n_dims))
    xi2 = rng.standard_normal((10, prob.fields[1].n_dims))
    before = oracles.evaluate_separated(prob, scaled, xi1, xi2)
    after = oracles.evaluate_separated(prob, normed, xi1, xi2)
    for a, b in zip(before, after):
        np.testing.assert_allclose(a, b, atol=1e-12 * max(np.abs(a).max(), 1.0))
    np.testing.assert_allclose(np.linalg.norm(normed.phi1, axis=1), 1.0, rtol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(normed.phi2, axis=1), 1.0, rtol=1e-13)
    # fixed point on already-normalized input
    again = arr.normalize_factors(normed)
    np.testing.assert_array_equal(again.phi1, normed.phi1)
    np.testing.assert_array_equal(again.u1, normed.u1)


def test_normalize_energy_invariant():
    prob = desk_problem()
    sol = random_solution(prob, rank=2, seed=10)
    scaled = arr.SeparatedSolution(
        u1=sol.u1, u2=sol.u2, lam=sol.lam, phi1=3.0 * sol.phi1, phi2=sol.phi2
    )
    pi = arr.energy(prob, scaled)
    pi_n = arr.energy(prob, arr.normalize_factors(scaled))
    assert pi_n == pytest.approx(pi, rel=1e-12)


def test_normalize_zero_factor_degenerate():
    prob = desk_problem()
    sol = arr.SeparatedSolution.zeros(prob, rank=1)
    with pytest.raises(feti.SolverError, match="degenerate"):
        arr.normalize_factors(sol)


# ---------------------------------------------------------------------------
# residual


def exact_deterministic_solution(prob):
    sol = arr.SeparatedSolution.zeros(prob, rank=1)
    sol.phi1[0, 0] = sol.phi2[0, 0] = 1.0
    return arr.deterministic_update(prob, sol, method="direct")


def test_residual_exact_solution_floor():
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    sol = exact_deterministic_solution(prob)
    est = arr.residual_norm(prob, sol, n_samples=2000, seed=11)
    assert est.value <= 1e-9


def test_residual_excludes_unloaded_subdomain():
    prob = desk_problem()
    sol = random_solution(prob, rank=1, seed=12)
    est = arr.residual_norm(prob, sol, n_samples=1000, seed=12)
    assert set(est.per_domain) == {0}


def test_residual_requires_some_load():
    prob = desk_problem()
    sol = random_solution(prob, rank=1, seed=13)
    starved = arr.SeparatedSolution(
        u1=sol.u1, u2=sol.u2, lam=sol.lam, phi1=sol.phi1, phi2=sol.phi2
    )
    import dataclasses

    zero_prob = dataclasses.replace(
        prob,
        sub=(
            dataclasses.replace(prob.sub[0], f=np.zeros_like(prob.sub[0].f)),
            prob.sub[1],
        ),
    )
    with pytest.raises(ValueError, match="load"):
        arr.residual_norm(zero_prob, starved, n_samples=1000, seed=13)


def test_residual_se_scaling():
    prob = desk_problem()
    sol = random_solution(prob, rank=2, seed=14)
    small = arr.residual_norm(prob, sol, n_samples=2000, seed=14)
    big = arr.residual_norm(prob, sol, n_samples=8000, seed=14)
    ratio = big.std_error / small.std_error
    assert 0.3 < ratio < 0.7


@pytest.mark.parametrize(
    "example, rank, compressed",
    [("lshape", 1, True), ("lshape", 4, False), ("beam", 1, True), ("beam", 4, True)],
)
def test_residual_matches_full_length_formula(example, rank, compressed):
    """The span form (a thin-QR factor when the 1 + r + J r spanning vectors
    are fewer than the dofs, the vectors themselves otherwise) against the
    residual formed at full length per sample, and bit for bit against the
    span form with a fresh design matrix per batch and side, through a
    short last batch (3000 samples in batches of 700). lshape-desk loads
    one side, beam-desk both, the second one floating."""
    cfg = problems.profile_config(f"{example}-desk")
    cfg["solver"]["max_sweeps"] = 3
    prob = problems.build_from_config(cfg)
    sol, _ = arr.arr_run(prob, eps=1e-12, r_max=rank, seed=21, n_mc_residual=10)
    for i in (0, 1) if example == "beam" else (0,):
        B = arr._residual_operator(prob, sol, i)
        assert (B.shape[1] < prob.sub[i].n_dofs) == compressed
    got = arr.residual_norm(prob, sol, n_samples=3000, seed=22, batch_size=700)
    want = oracles.residual_norm(prob, sol, n_samples=3000, seed=22, batch_size=700)
    assert got.n_samples == want.n_samples
    assert set(got.per_domain) == set(want.per_domain) == ({0, 1} if example == "beam" else {0})
    pairs = [(got.value, want.value), (got.std_error, want.std_error)]
    pairs += [
        (got.per_domain[i][k], want.per_domain[i][k]) for i in want.per_domain for k in (0, 1)
    ]
    for a, b in pairs:
        assert abs(a - b) <= 1e-12 * abs(b)
    assert got == oracles.residual_norm_span(prob, sol, n_samples=3000, seed=22, batch_size=700)


# ---------------------------------------------------------------------------
# outer loop


def test_arr_deterministic_converges_rank_one():
    for example in ("lshape", "beam"):
        prob = desk_problem(example=example, sigma1=0.0, sigma2=0.0)
        sol, trace = arr.arr_run(prob, eps=1e-8, r_max=3, seed=100)
        assert trace.converged
        assert sol.rank == 1
        assert trace.ranks[-1].eps_res <= 1e-9
        mono = problems.as_monolithic(prob)
        u_mono = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
        rng = np.random.default_rng(0)
        xi1 = rng.standard_normal((20, prob.fields[0].n_dims))
        xi2 = rng.standard_normal((20, prob.fields[1].n_dims))
        if prob.family_kind == "legendre-uniform":
            xi1 = rng.uniform(-1, 1, xi1.shape)
            xi2 = rng.uniform(-1, 1, xi2.shape)
        u1s, u2s, _ = oracles.evaluate_separated(prob, sol, xi1, xi2)
        scale = np.abs(u_mono).max()
        for n in range(20):
            np.testing.assert_allclose(
                u1s[n], u_mono[mono.restrict1], atol=1e-9 * scale
            )
            np.testing.assert_allclose(
                u2s[n], u_mono[mono.restrict2], atol=1e-9 * scale
            )


def test_arr_energy_monotone_and_residual_trend():
    prob = desk_problem()
    sol, trace = arr.arr_run(prob, eps=1e-12, r_max=3, seed=101, n_mc_residual=4000)
    assert not trace.converged  # eps unreachable by construction
    assert sol.rank == 3
    pis = [s.pi_after for s in trace.sweeps]
    for a, b in zip(pis, pis[1:]):
        assert b <= a + 1e-12 * abs(a)
    eps_vals = [r.eps_res for r in trace.ranks]
    ses = [r.eps_res_se for r in trace.ranks]
    for k in range(1, len(eps_vals)):
        assert eps_vals[k] <= eps_vals[k - 1] + 2 * (ses[k] + ses[k - 1])


def test_arr_rerun_bit_identical():
    prob = desk_problem()
    sol_a, _ = arr.arr_run(prob, eps=1e-3, r_max=2, seed=7, n_mc_residual=2000)
    sol_b, _ = arr.arr_run(prob, eps=1e-3, r_max=2, seed=7, n_mc_residual=2000)
    np.testing.assert_array_equal(sol_a.u1, sol_b.u1)
    np.testing.assert_array_equal(sol_a.phi2, sol_b.phi2)


def test_trace_csv_and_solution_json():
    prob = desk_problem()
    sol, trace = arr.arr_run(prob, eps=1e-3, r_max=2, seed=15, n_mc_residual=2000)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "sweep,r,pi,eps_res,pcpg_iters"
    assert len(lines) == len(trace.sweeps) + 1
    blob = json.loads(sol.to_json())
    round_trip = oracles.solution_from_json(sol.to_json())
    assert blob["rank"] == sol.rank
    np.testing.assert_array_equal(round_trip.u1, sol.u1)
    np.testing.assert_array_equal(round_trip.phi2, sol.phi2)
