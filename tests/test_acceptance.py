"""Acceptance gate: ten end-to-end criteria, one test (pass/fail line) each.

Run ``pytest tests/test_acceptance.py -v`` to get exactly one PASSED/FAILED
line per criterion. Each test also prints its measured numbers, visible with
``-rA`` or on failure.

All tolerances are fixed here:
  1. diffusion desk run vs combined-basis Galerkin oracle, eps_mean < 1e-2,
     eps_std < 5e-2, rank <= 10, wall time < 300 s;
  2. elasticity desk run (floating second sub-domain) vs Monte-Carlo oracle
     with N = 20000, same thresholds net of 3 MC standard errors,
     wall time < 600 s;
  3. every sweep: deterministic update does not increase the energy, the
     multiplier update does not decrease it (1e-12 relative slack); the
     energy trace is non-increasing across sweeps and rank increments;
  4. zero-variance variants converge at rank 1 with residual <= 1e-9 and
     match the monolithic deterministic solve to 1e-9 relative L2;
  5. rigid-body modes annihilated to 1e-10 relative, projector identities to
     1e-12, interface iteration reaches a relative projected residual < 1e-8,
     multiplier matches a dense saddle solve to 1e-8 on small instances;
  6. preconditioned interface iteration counts stay within x2 of their median
     for ranks 1..8 while unpreconditioned counts grow monotonically and
     exceed them at every rank;
  7. basis cardinality exact for d <= 12, p <= 6; Gram identity to 1e-10;
     lognormal coefficients within 3 standard errors of a 1e6-sample MC
     estimate; KL eigenvalue sum within 1% of the total field variance;
  8. closed-form separated mean/std within 3 MC standard errors of sampling
     the same solution; error metrics of a report against itself are zero;
  9. the final-rank std error is strictly below the rank-1 std error, and the
     probe-point density gap shrinks from rank 1 to the final rank;
 10. rerunning any command with identical inputs reproduces every numeric
     output file byte for byte.
"""

from __future__ import annotations

import json
import time
from math import comb

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import oracles
from sepfeti import (
    arr,
    cli,
    fem2d,
    feti,
    pc_basis,
    problems,
    random_field,
    reference,
    stats,
)

# ---------------------------------------------------------------------------
# shared fixtures (module scope: the two desk runs and their oracles feed
# several criteria)


@pytest.fixture(scope="module")
def lshape_problem():
    return problems.build_example_I(problems.profile_config("lshape-desk"))


@pytest.fixture(scope="module")
def beam_problem():
    return problems.build_example_II(problems.profile_config("beam-desk"))


@pytest.fixture(scope="module")
def lshape_run(lshape_problem):
    t0 = time.perf_counter()
    solution, trace = arr.arr_run(lshape_problem, eps=1e-2, r_max=10)
    return solution, trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def beam_run(beam_problem):
    t0 = time.perf_counter()
    solution, trace = arr.arr_run(beam_problem, eps=1e-2, r_max=10)
    return solution, trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def lshape_oracle(lshape_problem):
    sg = reference.solve_monolithic_sg(lshape_problem)
    report = stats.report_reference(
        lshape_problem, sg.mean(), sg.std(), label="galerkin"
    )
    return sg, report


@pytest.fixture(scope="module")
def beam_oracle(beam_problem):
    t0 = time.perf_counter()
    acc = reference.monte_carlo_reference(beam_problem, n_samples=20_000, seed=0)
    secs = time.perf_counter() - t0
    report = stats.report_reference(beam_problem, acc.mean, acc.std, label="mc")
    return acc, report, secs


def unit_factors(problem, rank, seed):
    rng = np.random.default_rng(seed)
    phi1 = rng.standard_normal((rank, len(problem.idx_solution[0])))
    phi2 = rng.standard_normal((rank, len(problem.idx_solution[1])))
    phi1 /= np.linalg.norm(phi1, axis=1, keepdims=True)
    phi2 /= np.linalg.norm(phi2, axis=1, keepdims=True)
    return phi1, phi2


def dense_saddle_multiplier(ops):
    """Oracle: assemble the full block saddle system densely and solve it."""
    K1 = sum(
        np.kron(ops.H1[j], ops.modes1.views[j].toarray())
        for j in range(len(ops.modes1.views))
    )
    K2 = sum(
        np.kron(ops.H2[j], ops.modes2.views[j].toarray())
        for j in range(len(ops.modes2.views))
    )
    C1 = np.kron(ops.W, ops.C1.toarray())
    C2 = np.kron(ops.W, ops.C2.toarray())
    n1, n2, m = K1.shape[0], K2.shape[0], C1.shape[1]
    A = np.zeros((n1 + n2 + m, n1 + n2 + m))
    A[:n1, :n1] = K1
    A[n1 : n1 + n2, n1 : n1 + n2] = K2
    A[:n1, n1 + n2 :] = -C1
    A[n1 : n1 + n2, n1 + n2 :] = C2
    A[n1 + n2 :, :n1] = -C1.T
    A[n1 + n2 :, n1 : n1 + n2] = C2.T
    b = np.concatenate([ops.fhat1.ravel(), ops.fhat2.ravel(), np.zeros(m)])
    x = np.linalg.solve(A, b)
    return x[n1 + n2 :].reshape(ops.rank, -1)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_oracle_equivalence_diffusion(
    lshape_problem, lshape_run, lshape_oracle
):
    solution, _, secs = lshape_run
    _, ref = lshape_oracle
    report = stats.report_separated(lshape_problem, solution)
    metrics = stats.error_metrics(report, ref)
    assert solution.rank <= 10
    assert metrics.eps_mean < 1e-2
    assert metrics.std_defined and metrics.eps_std < 5e-2
    assert secs < 300.0
    print(
        f"[criterion 1] PASS eps_mean={metrics.eps_mean:.3e} "
        f"eps_std={metrics.eps_std:.3e} rank={solution.rank} time={secs:.1f}s"
    )


def test_criterion_02_oracle_equivalence_elasticity(
    beam_problem, beam_run, beam_oracle
):
    solution, _, run_secs = beam_run
    acc, ref, mc_secs = beam_oracle
    assert beam_problem.sub[1].floating
    assert beam_problem.sub[1].R.shape[1] == 3  # two translations + rotation
    report = stats.report_separated(beam_problem, solution)
    metrics = stats.error_metrics(report, ref)
    n = acc.n_samples
    allow_mean = (
        3.0
        * np.linalg.norm(ref.std / np.sqrt(n))
        / np.linalg.norm(ref.mean)
    )
    allow_std = 3.0 / np.sqrt(2.0 * n)
    net_mean = max(0.0, metrics.eps_mean - allow_mean)
    net_std = max(0.0, metrics.eps_std - allow_std)
    assert net_mean < 1e-2
    assert metrics.std_defined and net_std < 5e-2
    assert run_secs + mc_secs < 600.0
    print(
        f"[criterion 2] PASS eps_mean={metrics.eps_mean:.3e} "
        f"(net {net_mean:.3e}) eps_std={metrics.eps_std:.3e} "
        f"(net {net_std:.3e}) time={run_secs + mc_secs:.1f}s"
    )


def test_criterion_03_energy_monotonicity_per_sweep(lshape_run, beam_run):
    n_sweeps = 0
    for _, trace, _ in (lshape_run, beam_run):
        assert trace.sweeps
        n_sweeps += len(trace.sweeps)
        for rec in trace.sweeps:
            slack = 1e-12 * max(1.0, abs(rec.pi_before))
            assert rec.pi_u_new_lam_old <= rec.pi_before + slack
            assert rec.pi_u_old_lam_new >= rec.pi_before - slack
            assert rec.pi_after <= rec.pi_before + slack
        energies = [rec.pi_after for rec in trace.sweeps]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a))
    print(f"[criterion 3] PASS energy monotone over {n_sweeps} sweeps")


def test_criterion_04_deterministic_exactness():
    results = []
    for name, build in (
        ("lshape-desk", problems.build_example_I),
        ("beam-desk", problems.build_example_II),
    ):
        cfg = problems.profile_config(name)
        cfg["field"].update(sigma1=0.0, sigma2=0.0)
        prob = build(cfg)
        solution, trace = arr.arr_run(prob, eps=1e-9, r_max=3)
        assert trace.converged
        assert solution.rank == 1
        assert trace.ranks[0].eps_res <= 1e-9
        mono = problems.as_monolithic(prob)
        u = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
        expect = np.concatenate([u[mono.restrict1], u[mono.restrict2]])
        got = np.concatenate(stats.separated_mean(solution))
        rel = np.linalg.norm(got - expect) / np.linalg.norm(expect)
        assert rel <= 1e-9
        results.append(f"{name}: eps_res={trace.ranks[0].eps_res:.1e} rel={rel:.1e}")
    print(f"[criterion 4] PASS {'; '.join(results)}")


def test_criterion_05_interface_solver_correctness(lshape_problem, beam_problem):
    import scipy.sparse.linalg as sparse_linalg

    # every stiffness mode of the floating side annihilates its rigid modes
    sub2 = beam_problem.sub[1]
    R2 = sub2.R
    for K in sub2.K_modes:
        rel = np.linalg.norm(K @ R2) / (
            sparse_linalg.norm(K) * np.linalg.norm(R2)
        )
        assert rel <= 1e-10

    phi1, phi2 = unit_factors(beam_problem, rank=3, seed=[99, 5])
    ops = feti.build_block_operators(beam_problem, phi1, phi2)
    rng = np.random.default_rng([99, 6])
    probe = rng.standard_normal((3, ops.M2))
    probe_out = np.abs(oracles.apply_Khat(ops.K2hat, probe)).max() / np.abs(probe).max()
    for k in range(R2.shape[1]):
        block = np.tile(R2[:, k], (3, 1))
        out = np.abs(oracles.apply_Khat(ops.K2hat, block)).max()
        assert out <= 1e-10 * probe_out * np.abs(block).max()

    # projector identities on the floating interface problem
    ip = feti.build_interface_problem(ops)
    lam = rng.standard_normal((3, ops.M_I))
    mu = rng.standard_normal((3, ops.M_I))
    scale = np.abs(lam).max()
    P_lam = ip.apply_P(lam)
    np.testing.assert_allclose(ip.apply_P(P_lam), P_lam, atol=1e-12 * scale)
    lhs = float((P_lam * mu).sum())
    rhs = float((lam * ip.apply_P(mu)).sum())
    assert lhs == pytest.approx(rhs, abs=1e-12 * scale * np.abs(mu).max() * ops.M_I)
    null_image = ops.W @ rng.standard_normal((3, R2.shape[1])) @ ip.C2I.T
    assert np.abs(ip.apply_P(null_image)).max() <= 1e-12 * max(
        np.abs(null_image).max(), 1.0
    )

    # the interface iteration reaches its relative projected-residual target
    _, tr = feti.pcpg_solve(ip, eps=1e-8)
    assert tr.residuals[-1] < 1e-8

    # multiplier agrees with a dense saddle solve on both small instances
    rels = []
    for prob in (lshape_problem, beam_problem):
        f1, f2 = unit_factors(prob, rank=3, seed=[99, 5])
        small_ops = feti.build_block_operators(prob, f1, f2)
        assert small_ops.M_I <= 12 and small_ops.rank <= 3
        lam_dense = dense_saddle_multiplier(small_ops)
        lam_pcpg, _ = feti.pcpg_solve(
            feti.build_interface_problem(small_ops), eps=1e-10
        )
        rel = np.abs(lam_pcpg - lam_dense).max() / np.abs(lam_dense).max()
        assert rel <= 1e-8
        rels.append(rel)
    print(
        f"[criterion 5] PASS pcpg_res={tr.residuals[-1]:.1e} "
        f"lambda_rel={max(rels):.1e}"
    )


def test_criterion_06_preconditioner_iteration_trend(beam_problem):
    phi1_all, phi2_all = unit_factors(beam_problem, rank=8, seed=[2024, 6])
    with_precond, without = [], []
    for r in range(1, 9):
        ops = feti.build_block_operators(beam_problem, phi1_all[:r], phi2_all[:r])
        for kind, out in (("stiffness", with_precond), ("none", without)):
            ip = feti.build_interface_problem(ops, preconditioner=kind)
            _, tr = feti.pcpg_solve(ip, eps=1e-8, max_iters=5000)
            out.append(tr.n_iters)
    median = float(np.median(with_precond))
    assert all(median / 2.0 <= k <= 2.0 * median for k in with_precond)
    assert all(b >= a for a, b in zip(without, without[1:]))
    assert without[-1] > without[0]
    assert all(u > p for u, p in zip(without, with_precond))
    print(
        f"[criterion 6] PASS preconditioned={with_precond} "
        f"unpreconditioned={without}"
    )


def test_criterion_07_basis_and_field_unit_suite():
    # total-degree cardinality is the binomial count
    for d in range(1, 13):
        for p in range(0, 7):
            assert len(pc_basis.build_index_set(d, p)) == comb(d + p, p)

    # orthonormality: quadrature Gram equals the identity
    for fam in (pc_basis.HERMITE_GAUSSIAN, pc_basis.LEGENDRE_UNIFORM):
        idx = pc_basis.build_index_set(2, 4)
        x, w = fam.gauss_rule(12)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        points = np.stack([X1.ravel(), X2.ravel()], axis=1)
        weights = np.outer(w, w).ravel()
        psi = pc_basis.eval_multivariate_batch(fam, idx, points)
        gram = psi.T @ (weights[:, None] * psi)
        assert np.abs(gram - np.eye(len(idx))).max() <= 1e-10

    # shifted-lognormal coefficients against a 1e6-sample MC oracle
    mesh = fem2d.build_rect_mesh((0.0, 2.0), (0.0, 1.0), 0.25)
    kernel = random_field.GaussianKernel(sigma=0.5, corr_len=2.0 / 3.0)
    kl = random_field.discretize_kl(kernel, mesh, 2)
    shift = 0.28
    pc = random_field.lognormal_pc_coefficients(
        kl, mean_log=1.0, shift=shift, order=4
    )
    cols = np.array([0, mesh.n_nodes // 2, mesh.n_nodes - 1])
    rng = np.random.default_rng(31415)
    n = 10**6
    xi = rng.standard_normal((n, 2))
    g = np.sqrt(kl.eigenvalues)[:, None] * kl.modes[:, cols]
    kappa = shift + np.exp(1.0 + xi @ g)
    psi = pc_basis.eval_multivariate_batch(pc_basis.HERMITE_GAUSSIAN, pc.idx_set, xi)
    z_max = 0.0
    for i in range(len(pc.idx_set)):
        prod = kappa * psi[:, i : i + 1]
        estimate = prod.mean(axis=0)
        se = prod.std(axis=0) / np.sqrt(n)
        expect = pc.coeff_fields[i, cols] + (shift if i == 0 else 0.0)
        z = np.abs(estimate - expect) / (se + 1e-14)
        assert np.all(z <= 3.0)
        z_max = max(z_max, float(z.max()))

    # eigenvalue sum matches the integrated field variance on a fine mesh
    fine = fem2d.build_rect_mesh((0.0, 1.0), (0.0, 1.0), 1.0 / 16.0)
    kl_full = random_field.discretize_kl(kernel, fine, fine.n_nodes)
    total = kl_full.eigenvalues.sum()
    assert total == pytest.approx(0.25, rel=1e-2)
    print(f"[criterion 7] PASS mc_zmax={z_max:.2f} kl_trace={total:.4f}")


def test_criterion_08_statistics_consistency(
    lshape_problem, lshape_run, beam_problem, beam_run, beam_oracle
):
    n = 50_000
    z_worst = 0.0
    for problem, run in (
        (lshape_problem, lshape_run),
        (beam_problem, beam_run),
    ):
        solution = run[0]
        mean = stats.separated_mean(solution)
        var = stats.separated_variance(solution)
        rng = np.random.default_rng(2468)
        xi1, xi2 = arr._sample_germs(problem, n, rng)
        fields = oracles.evaluate_separated(problem, solution, xi1, xi2)[:2]
        for side, samples in enumerate(fields):
            mc_mean = samples.mean(axis=0)
            mc_std = samples.std(axis=0)
            floor = 1e-12 * max(np.abs(mc_mean).max(), 1.0)
            z_mean = np.abs(mean[side] - mc_mean) / (mc_std / np.sqrt(n) + floor)
            assert np.all(z_mean <= 3.0)
            m2 = mc_std**2
            m4 = ((samples - mc_mean) ** 4).mean(axis=0)
            se_std = np.sqrt(np.maximum(m4 - m2**2, 0.0) / (4.0 * m2 * n))
            z_std = np.abs(np.sqrt(var[side]) - mc_std) / (se_std + floor)
            assert np.all(z_std <= 3.0)
            z_worst = max(z_worst, float(z_mean.max()), float(z_std.max()))

    _, ref_report, _ = beam_oracle
    self_metrics = stats.error_metrics(ref_report, ref_report)
    assert self_metrics.eps_mean == 0.0
    assert self_metrics.eps_std == 0.0
    print(f"[criterion 8] PASS self-MC z_max={z_worst:.2f} self-metrics=(0, 0)")


def test_criterion_09_qualitative_accuracy_trends(
    lshape_problem, lshape_run, lshape_oracle
):
    sg, ref = lshape_oracle
    solution_final = lshape_run[0]
    solution_r1, _ = arr.arr_run(lshape_problem, eps=1e-2, r_max=1)
    assert solution_r1.rank == 1

    eps_std_r1 = stats.error_metrics(
        stats.report_separated(lshape_problem, solution_r1), ref
    ).eps_std
    eps_std_final = stats.error_metrics(
        stats.report_separated(lshape_problem, solution_final), ref
    ).eps_std
    assert eps_std_final < eps_std_r1

    # probe-point density gap against the oracle shrinks with rank
    mono = problems.as_monolithic(lshape_problem)
    point = tuple(lshape_problem.config["stats"]["probe_point"])
    dof = oracles.free_dof_at(lshape_problem, mono, point)
    fam = pc_basis.family(mono.family_kind)
    rng = np.random.default_rng(77)
    n = 4000
    xi = rng.standard_normal((n, mono.d1 + mono.d2))
    ref_samples = pc_basis.eval_multivariate_batch(fam, sg.idx_set, xi) @ sg.coeffs[
        :, dof
    ]
    gap_r1 = oracles.pdf_l1_gap(
        oracles.sample_probe(lshape_problem, solution_r1, n, seed=78), ref_samples
    )
    gap_final = oracles.pdf_l1_gap(
        oracles.sample_probe(lshape_problem, solution_final, n, seed=78), ref_samples
    )
    assert gap_final < gap_r1
    print(
        f"[criterion 9] PASS eps_std {eps_std_r1:.2e} -> {eps_std_final:.2e}; "
        f"pdf_gap {gap_r1:.3f} -> {gap_final:.3f}"
    )


def test_criterion_10_rerun_determinism(tmp_path):
    cfg = problems.profile_config("lshape-desk")
    cfg["solver"].update({"rank_max": 2, "max_sweeps": 3, "n_mc_residual": 300})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run-{tag}"
        assert (
            cli.main(["run", "--config", str(cfg_path), "--out-dir", str(run_dir)])
            == 0
        )
        mc_dir = tmp_path / f"mc-{tag}"
        assert (
            cli.main(
                [
                    "reference",
                    "--config",
                    str(cfg_path),
                    "--method",
                    "mc",
                    "--samples",
                    "50",
                    "--out-dir",
                    str(mc_dir),
                ]
            )
            == 0
        )
    checked = 0
    for name in ("solution.json", "trace.csv", "moments.csv", "summary.json"):
        a = (tmp_path / "run-a" / name).read_bytes()
        b = (tmp_path / "run-b" / name).read_bytes()
        assert a == b, f"run output {name} differs between reruns"
        checked += 1
    for name in ("moments.csv", "summary.json"):
        a = (tmp_path / "mc-a" / name).read_bytes()
        b = (tmp_path / "mc-b" / name).read_bytes()
        assert a == b, f"reference output {name} differs between reruns"
        checked += 1
    print(f"[criterion 10] PASS {checked} output files byte-identical on rerun")
