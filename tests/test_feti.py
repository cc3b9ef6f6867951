"""Block FETI solver: operators, projections, PCPG, and primal recovery."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

import oracles
from sepfeti import feti, pc_basis, problems, reference


def random_factors(problem, rank, seed):
    rng = np.random.default_rng(seed)
    phi1 = rng.standard_normal((rank, len(problem.idx_solution[0])))
    phi2 = rng.standard_normal((rank, len(problem.idx_solution[1])))
    phi1 /= np.linalg.norm(phi1, axis=1, keepdims=True)
    phi2 /= np.linalg.norm(phi2, axis=1, keepdims=True)
    return phi1, phi2


def lshape_ops(rank=2, seed=0, **field_over):
    cfg = problems.profile_config("lshape-desk")
    cfg["field"].update(field_over)
    prob = problems.build_example_I(cfg)
    phi1, phi2 = random_factors(prob, rank, seed)
    return prob, feti.build_block_operators(prob, phi1, phi2), (phi1, phi2)


def beam_ops(rank=2, seed=0, **field_over):
    cfg = problems.profile_config("beam-desk")
    cfg["field"].update(field_over)
    prob = problems.build_example_II(cfg)
    phi1, phi2 = random_factors(prob, rank, seed)
    return prob, feti.build_block_operators(prob, phi1, phi2), (phi1, phi2)


def dense_blockK(H, modes):
    return sum(np.kron(H[j], modes[j].toarray()) for j in range(len(modes)))


def dense_blockC(W, sub):
    return np.kron(W, oracles.extractor(sub).toarray())


def dense_saddle(ops):
    """Oracle: assemble and solve the full block saddle system densely."""
    K1 = dense_blockK(ops.H1, ops.modes1.views)
    K2 = dense_blockK(ops.H2, ops.modes2.views)
    C1, C2 = (dense_blockC(ops.W, s) for s in ops.problem.sub)
    n1, n2 = K1.shape[0], K2.shape[0]
    m = C1.shape[1]
    A = np.zeros((n1 + n2 + m, n1 + n2 + m))
    A[:n1, :n1] = K1
    A[n1 : n1 + n2, n1 : n1 + n2] = K2
    A[:n1, n1 + n2 :] = -C1
    A[n1 : n1 + n2, n1 + n2 :] = C2
    A[n1 + n2 :, :n1] = -C1.T
    A[n1 + n2 :, n1 : n1 + n2] = C2.T
    b = np.concatenate([ops.fhat1.ravel(), ops.fhat2.ravel(), np.zeros(m)])
    x = np.linalg.solve(A, b)
    r = ops.rank
    return (
        x[:n1].reshape(r, -1),
        x[n1 : n1 + n2].reshape(r, -1),
        x[n1 + n2 :].reshape(r, -1),
    )


# ---------------------------------------------------------------------------
# block operator assembly


def test_rank_one_constant_factor_reduces_to_mean():
    prob, _, _ = lshape_ops(rank=1)
    phi1 = np.zeros((1, len(prob.idx_solution[0])))
    phi2 = np.zeros((1, len(prob.idx_solution[1])))
    phi1[0, 0] = phi2[0, 0] = 1.0
    ops = feti.build_block_operators(prob, phi1, phi2)
    expect = np.zeros(len(prob.fields[0].idx_set))
    expect[0] = 1.0
    np.testing.assert_allclose(ops.H1[:, 0, 0], expect, atol=1e-13)
    np.testing.assert_allclose(ops.W, [[1.0]], atol=1e-13)
    np.testing.assert_allclose(ops.fhat1[0], prob.sub[0].f)
    rng = np.random.default_rng(1)
    u = rng.standard_normal((1, ops.M1))
    K1hat, _ = oracles.block_operators(ops)
    np.testing.assert_allclose(
        oracles.apply_Khat(K1hat, u)[0], prob.sub[0].K_modes[0] @ u[0], rtol=1e-12
    )


def test_weights_match_quadrature_oracle():
    cfg = problems.profile_config("lshape-desk")
    cfg["field"].update(d1=1, d2=1)
    cfg["pc"].update(p1=1, p2=1)
    prob = problems.build_example_I(cfg)
    rng = np.random.default_rng(3)
    phi1 = rng.standard_normal((2, 2))
    phi2 = rng.standard_normal((2, 2))
    ops = feti.build_block_operators(prob, phi1, phi2)

    fam = pc_basis.HERMITE_GAUSSIAN
    x, w = fam.gauss_rule(30)
    table = fam.eval_table(2, x)  # germ basis values
    v1 = phi1 @ table[:2]  # factor values at quad points, (r, q)
    v2 = phi2 @ table[:2]
    gram2 = (v2[:, None, :] * v2[None, :, :]) @ w
    for j, row in enumerate(prob.fields[0].idx_set.indices):
        e1 = ((v1[:, None, :] * v1[None, :, :]) * table[row[0]]) @ w
        np.testing.assert_allclose(ops.H1[j], e1 * gram2, atol=1e-10)
    np.testing.assert_allclose(
        ops.W, ((v1[:, None, :] * v1[None, :, :]) @ w) * gram2, atol=1e-10
    )
    np.testing.assert_allclose(ops.fw, (v1 @ w) * (v2 @ w), atol=1e-12)


def test_mode_weights_match_einsum():
    # (2, 1, 3): the modes of degree 3 have no nonzeros
    for kind, (d, p, q) in itertools.product(
        (pc_basis.HERMITE, pc_basis.LEGENDRE), [(2, 2, 4), (4, 3, 6), (9, 3, 1), (2, 1, 3)]
    ):
        idx = pc_basis.build_index_set(d, p)
        modes = pc_basis.build_index_set(d, q).indices
        G = pc_basis.triple_moment_stack(pc_basis.family(kind), modes, idx)
        dense = G.dense()
        for r in range(1, 5):
            phi = np.random.default_rng(r).standard_normal((r, len(idx)))
            want = oracles.mode_weights(phi, dense)
            got = feti.mode_weights(phi, G)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


def test_block_symmetry():
    _, ops, _ = lshape_ops(rank=3, seed=5)
    K1 = dense_blockK(ops.H1, ops.modes1.views)
    np.testing.assert_allclose(K1, K1.T, atol=1e-12 * np.abs(K1).max())


# ---------------------------------------------------------------------------
# block solves


def test_K1_inverse_roundtrip():
    _, ops, _ = lshape_ops(rank=2, seed=7)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, ops.M1))
    K1hat, _ = oracles.block_operators(ops)
    y = feti.apply_K1_inverse(ops, oracles.apply_Khat(K1hat, x))
    np.testing.assert_allclose(y, x, atol=1e-10 * np.abs(x).max())


def test_K1_inverse_dense_oracle():
    _, ops, _ = lshape_ops(rank=2, seed=8)
    rng = np.random.default_rng(8)
    b = rng.standard_normal((2, ops.M1))
    dense = np.linalg.solve(dense_blockK(ops.H1, ops.modes1.views), b.ravel())
    y = feti.apply_K1_inverse(ops, b)
    np.testing.assert_allclose(y.ravel(), dense, atol=1e-9 * np.abs(dense).max())


def test_K2_null_space_annihilated():
    _, ops, _ = beam_ops(rank=2, seed=9)
    K2 = dense_blockK(ops.H2, ops.modes2.views)
    R2hat = np.kron(np.eye(2), ops.R2)
    norm = np.abs(K2).max()
    assert np.abs(K2 @ R2hat).max() < 1e-10 * norm


def test_K2_pseudoinverse_definition_and_svd_oracle():
    _, ops, _ = beam_ops(rank=2, seed=10)
    rng = np.random.default_rng(10)
    _, K2hat = oracles.block_operators(ops)
    b = oracles.apply_Khat(K2hat, rng.standard_normal((2, ops.M2)))  # compatible by range
    y = feti.apply_K2_pseudoinverse(ops, b)
    resid = oracles.apply_Khat(K2hat, y) - b
    assert np.abs(resid).max() < 1e-9 * np.abs(b).max()
    assert np.abs(y @ ops.R2).max() < 1e-9 * np.abs(y).max()
    K2 = dense_blockK(ops.H2, ops.modes2.views)
    y_svd = (np.linalg.pinv(K2, rcond=1e-10) @ b.ravel()).reshape(2, -1)
    np.testing.assert_allclose(y, y_svd, atol=1e-8 * np.abs(y_svd).max())


def test_K2_zero_rhs():
    _, ops, _ = beam_ops(rank=1, seed=11)
    np.testing.assert_array_equal(
        feti.apply_K2_pseudoinverse(ops, np.zeros((1, ops.M2))), 0.0
    )


def test_K2_incompatible_rhs_rejected():
    _, ops, _ = beam_ops(rank=1, seed=12)
    bad = np.tile(ops.R2[:, 0], (1, 1))
    with pytest.raises(feti.SolverError, match="compatib"):
        feti.apply_K2_pseudoinverse(ops, bad)


# ---------------------------------------------------------------------------
# interface problem and projector


def test_projector_identities():
    _, ops, _ = beam_ops(rank=2, seed=13)
    ip = feti.build_interface_problem(ops)
    rng = np.random.default_rng(13)
    lam = rng.standard_normal((2, ops.M_I))
    mu = rng.standard_normal((2, ops.M_I))
    P_lam = ip.apply_P(lam)
    scale = np.abs(lam).max()
    np.testing.assert_allclose(ip.apply_P(P_lam), P_lam, atol=1e-12 * scale)
    lhs = float((P_lam * mu).sum())
    rhs = float((lam * ip.apply_P(mu)).sum())
    assert lhs == pytest.approx(rhs, abs=1e-12 * scale * np.abs(mu).max() * ops.M_I)
    # annihilates the null-space image
    A = rng.standard_normal((2, ops.R2.shape[1]))
    image = ops.W @ A @ ip.C2I.T
    assert np.abs(ip.apply_P(image)).max() < 1e-12 * max(np.abs(image).max(), 1.0)


def test_pcpg_nonfloating_matches_dense_saddle():
    _, ops, _ = lshape_ops(rank=2, seed=14)
    u1_d, u2_d, lam_d = dense_saddle(ops)
    ip = feti.build_interface_problem(ops)
    lam, _ = feti.pcpg_solve(ip, eps=1e-12)
    np.testing.assert_allclose(lam, lam_d, atol=1e-7 * np.abs(lam_d).max())
    u1, u2, alpha = feti.recover_primal(ip, lam)
    np.testing.assert_allclose(u1, u1_d, atol=1e-7 * np.abs(u1_d).max())
    np.testing.assert_allclose(u2, u2_d, atol=1e-7 * np.abs(u2_d).max())
    assert alpha.shape == (2, 0)


def test_pcpg_floating_matches_dense_saddle():
    _, ops, _ = beam_ops(rank=2, seed=15)
    u1_d, u2_d, lam_d = dense_saddle(ops)
    ip = feti.build_interface_problem(ops)
    lam, trace = feti.pcpg_solve(ip, eps=1e-12)
    np.testing.assert_allclose(lam, lam_d, atol=1e-6 * np.abs(lam_d).max())
    u1, u2, alpha = feti.recover_primal(ip, lam)
    np.testing.assert_allclose(u1, u1_d, atol=1e-6 * np.abs(u1_d).max())
    np.testing.assert_allclose(u2, u2_d, atol=1e-6 * np.abs(u2_d).max())
    # alpha is the rigid-body content of the recovered second factor block
    np.testing.assert_allclose(alpha, u2_d @ ops.R2, atol=1e-6 * np.abs(u2_d).max())


def test_block_saddle_residual_invariant():
    for ops in (lshape_ops(rank=2, seed=16)[1], beam_ops(rank=2, seed=16)[1]):
        ip = feti.build_interface_problem(ops)
        lam, _ = feti.pcpg_solve(ip, eps=1e-12)
        u1, u2, _ = feti.recover_primal(ip, lam)
        K1hat, K2hat = oracles.block_operators(ops)
        r1 = oracles.apply_Khat(K1hat, u1) - ops.apply_C1(lam) - ops.fhat1
        r2 = oracles.apply_Khat(K2hat, u2) + ops.apply_C2(lam) - ops.fhat2
        gap = ops.apply_C2T(u2) - ops.apply_C1T(u1)
        scale = max(np.abs(ops.fhat1).max(), np.abs(ops.fhat2).max())
        assert np.abs(r1).max() < 1e-8 * scale
        assert np.abs(r2).max() < 1e-8 * scale
        assert np.abs(gap).max() < 1e-8 * max(np.abs(u1).max(), np.abs(u2).max())


def test_pcpg_nonconvergence_reports_trace():
    _, ops, _ = beam_ops(rank=2, seed=17)
    ip = feti.build_interface_problem(ops)
    with pytest.raises(feti.SolverError) as err:
        feti.pcpg_solve(ip, eps=1e-14, max_iters=1)
    assert "1" in str(err.value)


def test_pcg_zero_rhs_gives_zeros():
    # A x = 0 has the solution 0, from any start, with no application of
    # the operator or the preconditioner
    never = lambda v: pytest.fail("no operator or preconditioner application expected")
    for start in (None, np.ones((2, 3)), np.arange(6.0).reshape(2, 3)):
        x, residuals = feti.pcg(never, np.zeros((2, 3)), never, 1e-8, 10, "test solve", x=start)
        assert residuals == [] and x.shape == (2, 3)
        assert np.array_equal(x, np.zeros((2, 3))) and x is not start
    # the projected iteration keeps the part of its start outside the
    # projector's range, which no step changes: here the first row
    drop_first = lambda v: np.vstack([np.zeros((1, 3)), v[1:]])
    b, start = np.zeros((2, 3)), np.ones((2, 3))
    x, residuals = feti.pcg(never, b, never, 1e-8, 10, "test solve", x=start, project=drop_first)
    assert residuals == [] and np.array_equal(x, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


def test_pcg_indefinite_operator_loses_positivity():
    b = np.ones((2, 3))
    with pytest.raises(feti.SolverError, match="test solve lost positivity"):
        feti.pcg(lambda v: -v, b, lambda v: v, 1e-8, 10, "test solve")


def test_pcg_nonfinite_residual_raises():
    b = np.ones((2, 3))
    nan = lambda v: np.full_like(v, np.nan)
    # from a start, the first residual is already NaN; from zero, the first step
    for kw in ({"x": np.zeros_like(b)}, {}):
        with pytest.raises(feti.SolverError, match="test solve has a non-finite residual"):
            feti.pcg(nan, b, lambda v: v, 1e-8, 10, "test solve", **kw)


def test_pcg_iteration_cap_names_the_caller(monkeypatch):
    _, ops, _ = beam_ops(rank=2, seed=17)
    ip = feti.build_interface_problem(ops)
    with pytest.raises(feti.SolverError, match="interface iteration exceeded 1 iterations"):
        feti.pcpg_solve(ip, eps=1e-14, max_iters=1)

    def capped(apply_A, b, apply_M, eps, max_iters, what, **kw):
        return feti.pcg(apply_A, b, apply_M, eps, 1, what, **kw)

    monkeypatch.setattr(reference, "pcg", capped)
    prob = problems.build_example_I(problems.profile_config("lshape-desk"))
    with pytest.raises(feti.SolverError, match="combined-basis solve exceeded 1 iterations"):
        reference.solve_monolithic_sg(prob)


# ---------------------------------------------------------------------------
# preconditioner


def test_preconditioner_symmetric():
    _, ops, _ = beam_ops(rank=2, seed=19)
    precond = feti.build_preconditioner(ops)
    rng = np.random.default_rng(19)
    a = rng.standard_normal((2, ops.M_I))
    b = rng.standard_normal((2, ops.M_I))
    lhs = float((precond(a) * b).sum())
    rhs = float((a * precond(b)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_preconditioner_deterministic_reduction():
    # rank one, factor = 1: quarter of the summed interface stiffness
    prob, _, _ = lshape_ops(rank=1)
    phi1 = np.zeros((1, len(prob.idx_solution[0])))
    phi2 = np.zeros((1, len(prob.idx_solution[1])))
    phi1[0, 0] = phi2[0, 0] = 1.0
    ops = feti.build_block_operators(prob, phi1, phi2)
    precond = feti.build_preconditioner(ops)
    s1, s2 = prob.sub
    KI = sum(oracles.extractor(s).T @ s.K_modes[0] @ oracles.extractor(s) for s in (s1, s2)).toarray()
    rng = np.random.default_rng(20)
    lam = rng.standard_normal((1, ops.M_I))
    np.testing.assert_allclose(precond(lam)[0], 0.25 * (KI @ lam[0]), rtol=1e-10)


def test_preconditioner_reduces_iterations():
    _, ops, _ = beam_ops(rank=2, seed=21)
    ip_none = feti.InterfaceProblem(ops=ops, precond=lambda lam: lam)
    ip_stiff = feti.build_interface_problem(ops)
    _, tr_none = feti.pcpg_solve(ip_none, eps=1e-8)
    _, tr_stiff = feti.pcpg_solve(ip_stiff, eps=1e-8)
    assert tr_stiff.n_iters <= tr_none.n_iters


# ---------------------------------------------------------------------------
# deterministic limit against the monolithic oracle


def test_deterministic_lshape_matches_monolithic():
    import scipy.sparse.linalg as spla

    cfg = problems.profile_config("lshape-desk")
    cfg["field"].update(sigma1=0.0, sigma2=0.0)
    prob = problems.build_example_I(cfg)
    phi1 = np.zeros((1, len(prob.idx_solution[0])))
    phi2 = np.zeros((1, len(prob.idx_solution[1])))
    phi1[0, 0] = phi2[0, 0] = 1.0
    ops = feti.build_block_operators(prob, phi1, phi2)
    ip = feti.build_interface_problem(ops)
    lam, _ = feti.pcpg_solve(ip, eps=1e-12)
    u1, u2, _ = feti.recover_primal(ip, lam)
    mono = problems.as_monolithic(prob)
    u_mono = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    scale = np.abs(u_mono).max()
    np.testing.assert_allclose(u1[0], u_mono[mono.restrict1], atol=1e-9 * scale)
    np.testing.assert_allclose(u2[0], u_mono[mono.restrict2], atol=1e-9 * scale)


def test_deterministic_beam_alpha_matches_monolithic():
    import scipy.sparse.linalg as spla

    cfg = problems.profile_config("beam-desk")
    cfg["field"].update(sigma1=0.0, sigma2=0.0)
    prob = problems.build_example_II(cfg)
    phi1 = np.zeros((1, len(prob.idx_solution[0])))
    phi2 = np.zeros((1, len(prob.idx_solution[1])))
    phi1[0, 0] = phi2[0, 0] = 1.0
    ops = feti.build_block_operators(prob, phi1, phi2)
    ip = feti.build_interface_problem(ops)
    lam, _ = feti.pcpg_solve(ip, eps=1e-12)
    u1, u2, alpha = feti.recover_primal(ip, lam)
    mono = problems.as_monolithic(prob)
    u_mono = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    scale = np.abs(u_mono).max()
    np.testing.assert_allclose(u1[0], u_mono[mono.restrict1], atol=1e-8 * scale)
    np.testing.assert_allclose(u2[0], u_mono[mono.restrict2], atol=1e-8 * scale)
    np.testing.assert_allclose(
        alpha[0], ops.R2.T @ u_mono[mono.restrict2], atol=1e-8 * scale
    )


def test_zero_load_gives_zero_solution():
    _, ops, _ = beam_ops(rank=2, seed=22)
    ops = dataclasses.replace(ops, f1=np.zeros_like(ops.f1), f2=np.zeros_like(ops.f2))
    ip = feti.build_interface_problem(ops)
    lam, _ = feti.pcpg_solve(ip, eps=1e-10)
    u1, u2, _ = feti.recover_primal(ip, lam)
    assert np.abs(lam).max() < 1e-12
    assert np.abs(u1).max() < 1e-12 and np.abs(u2).max() < 1e-12


def test_direct_route_matches_pcpg():
    for make in (lshape_ops, beam_ops):
        _, ops, _ = make(rank=2, seed=23)
        u1_d, u2_d, lam_d = feti.direct_saddle_solve(ops)
        ip = feti.build_interface_problem(ops)
        lam, _ = feti.pcpg_solve(ip, eps=1e-12)
        u1, u2, alpha = feti.recover_primal(ip, lam)
        np.testing.assert_allclose(lam, lam_d, atol=1e-7 * np.abs(lam_d).max())
        np.testing.assert_allclose(u1, u1_d, atol=1e-7 * np.abs(u1_d).max())
        np.testing.assert_allclose(u2, u2_d, atol=1e-7 * np.abs(u2_d).max())
        if alpha.size:
            alpha_d = u2_d @ ops.R2
            np.testing.assert_allclose(
                alpha, alpha_d, atol=1e-7 * max(np.abs(alpha_d).max(), 1.0)
            )


def test_trace_csv_format():
    _, ops, _ = lshape_ops(rank=1, seed=24)
    ip = feti.build_interface_problem(ops)
    _, trace = feti.pcpg_solve(ip, eps=1e-10)
    lines = oracles.pcpg_trace_csv(trace).strip().split("\n")
    assert lines[0] == "iter,relative_residual"
    assert len(lines) == trace.n_iters + 1
