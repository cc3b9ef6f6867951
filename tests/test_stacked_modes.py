"""Stacked stiffness modes against per-mode references.

Every operator built from a sub-domain's ``ModeStack`` (one pattern, the
(J, nnz) mode values factored as ``map @ basis``) is checked against the
same operator built mode by mode from separately assembled CSR matrices:
the modes themselves, the Kronecker sums sum_j H_j (x) K_j, the factored
local solves, the energy, the stochastic-factor updates, the interface
preconditioner, the merged monolithic modes and the Monte-Carlo oracle.
Both desk problems are covered as built (the trivial factorization), and
``lshape-desk`` also on the nodal factorization that full ``lshape`` is
built on; the beam's second sub-domain floats. The last tests check both
factorizations of all four profiles against the materialised modes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import oracles
from sepfeti import arr, fem2d, feti, problems, reference

PROFILES = ["lshape-desk", "beam-desk"]


def build(name: str, nodal: bool = False) -> problems.CoupledProblem:
    """A profile as built, or with every stack on the nodal factorization."""
    with pytest.MonkeyPatch.context() as patch:
        if nodal:
            patch.setattr(fem2d, "_nodal_pays", lambda *sizes: True)
        return problems.build_from_config(problems.profile_config(name))


@pytest.fixture(
    scope="module",
    params=[(name, False) for name in PROFILES] + [("lshape-desk", True)],
    ids=lambda case: case[0] + ("-nodal" if case[1] else ""),
)
def problem(request):
    name, nodal = request.param
    prob = build(name, nodal)
    assert all((sub.modes.map is not None) == nodal for sub in prob.sub)
    return prob


def random_ops(prob, rank, seed):
    rng = np.random.default_rng(seed)
    phi1 = rng.standard_normal((rank, len(prob.idx_solution[0])))
    phi2 = rng.standard_normal((rank, len(prob.idx_solution[1])))
    return feti.build_block_operators(prob, phi1, phi2)


def rel_diff(A, B) -> float:
    A, B = np.asarray(A), np.asarray(B)
    return float(np.abs(A - B).max() / np.abs(B).max())


def test_stacked_views_equal_per_mode_assembly(problem):
    for side in range(2):
        sub = problem.sub[side]
        expected = oracles.per_mode_assembly(problem, side)
        assert len(sub.K_modes) == len(expected)
        for K, ref in zip(sub.K_modes, expected):
            np.testing.assert_array_equal(K.toarray(), ref.toarray())
            assert np.shares_memory(K.data, sub.modes.data)


def test_mode_stack_rejects_mismatched_patterns():
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    B = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="pattern"):
        oracles.mode_stack_from_modes([A, B])


def test_stacked_assembly_equals_per_mode_coo_assembly(problem):
    coo_mode = (
        oracles.coo_diffusion_mode
        if problem.kind == problems.KIND_DIFFUSION
        else lambda mesh, c: oracles.coo_elasticity_mode(mesh, c, problem.config["field"]["nu"])
    )
    rng = np.random.default_rng(23)
    for side in range(2):
        mesh = problem.sub[side].mesh
        coeffs = rng.standard_normal((5, mesh.n_nodes))
        stack = oracles.assemble_modes(problem, mesh, coeffs)
        ref = oracles.mode_stack_from_modes([coo_mode(mesh, c) for c in coeffs])
        np.testing.assert_array_equal(stack.indptr, ref.indptr)
        np.testing.assert_array_equal(stack.indices, ref.indices)
        for got, expected in zip(stack.data, ref.data):
            assert rel_diff(got, expected) < 1e-14
        # one mode per call gives the rows of the stacked call bit for bit
        for c, K in zip(coeffs, stack.views):
            one = oracles.assemble_modes(problem, mesh, c)
            np.testing.assert_array_equal(one.views[0].toarray(), K.toarray())
        # a scalar is one constant mode
        np.testing.assert_array_equal(
            oracles.assemble_modes(problem, mesh, 2.0).data,
            oracles.assemble_modes(problem, mesh, np.full(mesh.n_nodes, 2.0)).data,
        )


@pytest.mark.parametrize("rank", [1, 3])
def test_kron_sum_equals_kronecker_reference(problem, rank):
    ops = random_ops(problem, rank, seed=rank)
    for modes, V, H, side in ((ops.modes1, ops.V1, ops.H1, 0), (ops.modes2, ops.V2, ops.H2, 1)):
        Khat = reference.kron_sum(modes, V)
        ref = oracles.kron_reference(H, oracles.per_mode_assembly(problem, side))
        assert Khat.has_canonical_format
        assert rel_diff(Khat.toarray(), ref.toarray()) < 1e-13


def test_factored_local_solves_equal_dense_kronecker_solves(problem):
    ops = random_ops(problem, 3, seed=7)
    rng = np.random.default_rng(7)
    K1 = oracles.kron_reference(ops.H1, oracles.per_mode_assembly(problem, 0)).toarray()
    K2 = oracles.kron_reference(ops.H2, oracles.per_mode_assembly(problem, 1)).toarray()
    b1 = rng.standard_normal((3, ops.M1))
    x1 = np.linalg.solve(K1, b1.ravel())
    assert rel_diff(feti.apply_K1_inverse(ops, b1).ravel(), x1) < 1e-10
    b2 = ops.project_null2(rng.standard_normal((3, ops.M2))).ravel()
    if ops.floating:
        # the solution without rigid-body content: K2 bordered by I (x) R2
        R2hat = np.kron(np.eye(3), ops.R2)
        k = R2hat.shape[1]
        bordered = np.block([[K2, R2hat], [R2hat.T, np.zeros((k, k))]])
        x2 = np.linalg.solve(bordered, np.append(b2, np.zeros(k)))[: b2.size]
    else:
        R2hat = np.zeros((b2.size, 0))
        x2 = np.linalg.solve(K2, b2)
    got = feti.apply_K2_pseudoinverse(ops, b2.reshape(3, ops.M2)).ravel()
    assert rel_diff(got, x2) < 1e-10
    assert rel_diff(K2 @ got, b2) < 1e-10
    assert np.abs(R2hat.T @ got).max(initial=0.0) < 1e-12 * np.abs(got).max()


def test_pcpg_update_rejects_zero_factor():
    prob = problems.build_from_config(problems.profile_config("lshape-desk"))
    rng = np.random.default_rng(3)
    phi1 = rng.standard_normal((2, len(prob.idx_solution[0])))
    phi2 = rng.standard_normal((2, len(prob.idx_solution[1])))
    phi1[1] = 0.0
    sol = arr.SeparatedSolution.zeros(prob, rank=2)
    sol.phi1[:], sol.phi2[:] = phi1, phi2
    # the banded local factor meets the zero block first
    with pytest.raises(feti.SolverError, match=r"block operator is not positive definite \(leading minor of order"):
        arr.deterministic_update(prob, sol, method="pcpg")


def test_energy_quadratic_form_equals_assembled_blocks(problem):
    ops = random_ops(problem, 3, seed=17)
    rng = np.random.default_rng(17)
    sol = arr.SeparatedSolution(
        u1=rng.standard_normal((3, ops.M1)),
        u2=rng.standard_normal((3, ops.M2)),
        lam=np.zeros((3, ops.M_I)),
        phi1=np.zeros((3, len(problem.idx_solution[0]))),
        phi2=np.zeros((3, len(problem.idx_solution[1]))),
    )
    quad = 0.0
    for U, H, side in ((sol.u1, ops.H1, 0), (sol.u2, ops.H2, 1)):
        K = oracles.kron_reference(H, oracles.per_mode_assembly(problem, side))
        quad += U.ravel() @ (K @ U.ravel())
    loads = ops.fw @ (sol.u1 @ ops.f1) + ops.fw @ (sol.u2 @ ops.f2)
    assert arr.energy(problem, sol, ops=ops) == pytest.approx(0.5 * quad - loads, rel=1e-12)


def test_stochastic_updates_equal_per_mode_reference(problem):
    r = 3
    rng = np.random.default_rng(19)
    sol = arr.SeparatedSolution(
        u1=rng.standard_normal((r, problem.sub[0].n_dofs)),
        u2=rng.standard_normal((r, problem.sub[1].n_dofs)),
        lam=np.zeros((r, problem.sub[0].n_interface)),
        phi1=rng.standard_normal((r, len(problem.idx_solution[0]))),
        phi2=rng.standard_normal((r, len(problem.idx_solution[1]))),
    )
    stacks = feti.galerkin_mode_matrices(problem)
    G = [stack.dense() for stack in stacks]
    K = [oracles.per_mode_assembly(problem, side) for side in range(2)]
    U, f = (sol.u1, sol.u2), tuple(s.f for s in problem.sub)

    def reference(own, phi_other):
        other = 1 - own
        P = G[own].shape[1]
        Q_own = np.stack([U[own] @ (Kj @ U[own].T) for Kj in K[own]])
        Q_other = np.stack([U[other] @ (Kj @ U[other].T) for Kj in K[other]])
        T_other = np.einsum("la,jab,mb->jlm", phi_other, G[other], phi_other)
        gram = phi_other @ phi_other.T
        A = np.einsum("jlm,lm,jab->lamb", Q_own, gram, G[own])
        diag = np.arange(P)
        A[:, diag, :, diag] += np.einsum("jlm,jlm->lm", Q_other, T_other)
        b = np.zeros((r, P))
        b[:, 0] = (U[own] @ f[own] + U[other] @ f[other]) * phi_other[:, 0]
        return np.linalg.solve(A.reshape(r * P, r * P), b.ravel()).reshape(r, P)

    assert rel_diff(arr.stochastic_update_phi1(problem, sol, stacks), reference(0, sol.phi2)) < 1e-10
    assert rel_diff(arr.stochastic_update_phi2(problem, sol, stacks), reference(1, sol.phi1)) < 1e-10


def test_preconditioner_equals_per_mode_reference(problem):
    ops = random_ops(problem, 3, seed=13)
    Winv2 = 0.5 * scipy.linalg.pinvh(ops.W @ ops.W)
    terms = []
    for H, side in ((ops.H1, 0), (ops.H2, 1)):
        A = np.einsum("ab,jbc,cd->jad", ops.W, H, ops.W)
        C = oracles.extractor(problem.sub[side])
        per_mode = oracles.per_mode_assembly(problem, side)
        terms.append((A, np.stack([(C.T @ K @ C).toarray() for K in per_mode])))

    def reference_apply(lam):
        A = Winv2 @ lam
        B = sum(np.einsum("jlk,km,jmn->ln", Aj, A, KI) for Aj, KI in terms)
        return Winv2 @ B

    precond = feti.build_preconditioner(ops)
    lam = np.random.default_rng(13).standard_normal((3, ops.M_I))
    assert rel_diff(precond(lam), reference_apply(lam)) < 1e-12


def test_merged_modes_equal_scattered_sub_domain_modes(problem):
    mono = problems.as_monolithic(problem)
    n = mono.n_free
    restrict = (mono.restrict1, mono.restrict2)

    def scatter(K, side):
        K = K.tocoo()
        pos = restrict[side]
        return sp.csr_matrix((K.data, (pos[K.row], pos[K.col])), shape=(n, n))

    K1, K2 = (oracles.per_mode_assembly(problem, side) for side in range(2))
    expected = [scatter(K1[0], 0) + scatter(K2[0], 1)]
    expected += [scatter(K, 0) for K in K1[1:]]
    expected += [scatter(K, 1) for K in K2[1:]]
    assert len(oracles.mono_K_modes(mono)) == len(expected)
    for got, ref in zip(oracles.mono_K_modes(mono), expected):
        np.testing.assert_array_equal(got.toarray(), ref.toarray())


def test_monte_carlo_matches_per_sample_solves(problem):
    n_samples, seed = 6, 5
    acc = reference.monte_carlo_reference(problem, n_samples, seed=seed)
    U = oracles.per_sample_solutions(problem, n_samples, seed)
    assert rel_diff(acc.mean, U.mean(axis=0)) < 1e-12
    # the std on the solution's scale: ||std|| is only ~0.1 ||mean|| on the
    # beam, and the two solvers agree to ~1e-12 of the solution per sample
    std_err = np.linalg.norm(acc.std - U.std(axis=0)) / np.linalg.norm(U.mean(axis=0))
    assert std_err < 1e-12


def test_direct_saddle_solve_rejects_zero_factor():
    prob = problems.build_from_config(problems.profile_config("lshape-desk"))
    rng = np.random.default_rng(3)
    phi1 = rng.standard_normal((2, len(prob.idx_solution[0])))
    phi2 = rng.standard_normal((2, len(prob.idx_solution[1])))
    phi1[1] = 0.0
    ops = feti.build_block_operators(prob, phi1, phi2)
    with pytest.raises(feti.SolverError, match=r"saddle system is not positive definite \(leading minor"):
        feti.direct_saddle_solve(ops)


def test_band_solve_rejects_non_finite_solution(problem):
    ops = random_ops(problem, 2, seed=29)
    B = np.zeros((2, ops.M1))
    B[1, 0] = np.nan
    with pytest.raises(feti.SolverError, match="first-block operator has a non-finite solution"):
        feti.apply_K1_inverse(ops, B)
    B = np.zeros((2, ops.M2))
    B[0, -1] = np.nan
    with pytest.raises(feti.SolverError, match="second-block operator has a non-finite solution"):
        feti.apply_K2_pseudoinverse(ops, B, check=False)


# ---------------------------------------------------------------------------
# the two factorizations of a stack, data = map @ basis

FULL_PROFILES = ["lshape-desk", "beam-desk", "lshape", "beam"]

# (J, n_nodes, nnz, nnz(N)) of each side's stack
SIZES = {
    "lshape-desk": ((15, 45, 174, 739), (15, 45, 154, 663)),
    "beam-desk": ((3, 66, 1250, 5100), (3, 66, 1380, 5560)),
    "beam": ((10, 286, 6170, 25940), (12, 286, 6420, 26840)),
    "lshape": ((210, 861, 4078, 18435), (924, 861, 3978, 18055)),
}


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("profile", FULL_PROFILES)
def test_materialised_modes_equal_direct_product(profile_problem, profile, side, monkeypatch):
    # each mode of the stack as built, materialised, against the (J, nnz)
    # product of the coefficient table with N formed whole
    prob = profile_problem(profile)
    sub = prob.sub[side]
    monkeypatch.setattr(fem2d, "_stack_modes", oracles.product_stack_modes)
    dof_map = fem2d.dirichlet_map(sub.mesh, sub.ncomp, prob.dirichlet_nodes[side], sub.iface[:0])
    nu = prob.config["field"]["nu"]
    ref = problems._assemble_modes(sub.mesh, prob.fields[side], prob.kind, nu, dof_map)
    np.testing.assert_array_equal(sub.modes.indptr, ref.indptr)
    np.testing.assert_array_equal(sub.modes.indices, ref.indices)
    assert sub.modes.data.shape == ref.data.shape
    scale = np.abs(ref.data).max(axis=1, keepdims=True)
    assert np.all(np.abs(sub.modes.data - ref.data) <= 1e-14 * scale)


@pytest.mark.parametrize("profile", FULL_PROFILES)
def test_factorization_rule_pinned_by_sizes(profile_problem, profile):
    # nodal on both full lshape sides, trivial on every other side
    nodal = profile == "lshape"
    for sub, sizes in zip(profile_problem(profile).sub, SIZES[profile]):
        J, n_nodes, nnz, nnz_N = sizes
        modes = sub.modes
        assert (modes.n_modes, sub.mesh.n_nodes, modes.indices.size) == (J, n_nodes, nnz)
        assert fem2d._nodal_pays(*sizes) == nodal
        assert (modes.map is not None) == nodal
        if nodal:
            assert modes.map.shape == (J, n_nodes)
            assert modes.basis.shape == (n_nodes, nnz) and modes.basis.nnz == nnz_N
        else:
            assert modes.basis is modes.data


@pytest.mark.parametrize("profile", FULL_PROFILES)
def test_both_factorizations_match_materialised_modes(profile_problem, profile):
    # each profile on the nodal factorization and on the trivial one of its
    # materialised modes: weighted sums, merged weighted sums, Q stacks and
    # the residual operator against products with those modes
    built = profile_problem(profile)
    nodal = build(profile, nodal=True)
    trivial = dataclasses.replace(
        built,
        sub=tuple(
            dataclasses.replace(
                s, modes=fem2d.ModeStack(s.modes.indptr, s.modes.indices, None, s.modes.data)
            )
            for s in built.sub
        ),
    )
    rng = np.random.default_rng(31)
    r = 2
    sol = arr.SeparatedSolution(
        u1=rng.standard_normal((r, built.sub[0].n_dofs)),
        u2=rng.standard_normal((r, built.sub[1].n_dofs)),
        lam=rng.standard_normal((r, built.sub[0].n_interface)),
        phi1=np.zeros((r, len(built.idx_solution[0]))),
        phi2=np.zeros((r, len(built.idx_solution[1]))),
    )
    merged_weights = rng.standard_normal((3, len(problems.as_monolithic(built).field_indices)))
    merged = [problems.as_monolithic(p).modes.contract(merged_weights) for p in (nodal, trivial)]
    assert rel_diff(merged[0], merged[1]) < 1e-13
    for i, U in enumerate((sol.u1, sol.u2)):
        data, views = built.sub[i].modes.data, built.sub[i].K_modes
        W = rng.standard_normal((5, data.shape[0]))
        Q = np.stack([U @ (K @ U.T) for K in views])
        B = oracles.residual_rows(built, sol, i)
        y = rng.standard_normal((7, B.shape[0]))
        for prob in (nodal, trivial):
            modes = prob.sub[i].modes
            assert rel_diff(modes.contract(W), W @ data) < 1e-13
            assert rel_diff(arr._quadratic_forms(modes, U), Q) < 1e-13
            # |y op| = |y B| for every y, whether op is B or its QR triangle
            op = arr._residual_operator(prob, sol, i)
            got = np.linalg.norm(y @ op, axis=1)
            assert rel_diff(got, np.linalg.norm(y @ B, axis=1)) < 1e-12
