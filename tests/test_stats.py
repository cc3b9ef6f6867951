"""Closed-form moments, sampling, density estimates, and error metrics."""

from __future__ import annotations

import json

import numpy as np
import pytest

import oracles
from sepfeti import arr, problems, reference, stats


def desk_problem(example="lshape", **field_over):
    name = "lshape-desk" if example == "lshape" else "beam-desk"
    cfg = problems.profile_config(name)
    cfg["field"].update(field_over)
    build = problems.build_example_I if example == "lshape" else problems.build_example_II
    return build(cfg)


def random_solution(problem, rank, seed):
    rng = np.random.default_rng(seed)
    s1, s2 = problem.sub
    sol = arr.SeparatedSolution(
        u1=rng.standard_normal((rank, s1.n_dofs)),
        u2=rng.standard_normal((rank, s2.n_dofs)),
        lam=rng.standard_normal((rank, s1.n_interface)),
        phi1=rng.standard_normal((rank, len(problem.idx_solution[0]))),
        phi2=rng.standard_normal((rank, len(problem.idx_solution[1]))),
    )
    return arr.normalize_factors(sol)


def exact_deterministic_solution(prob):
    sol = arr.SeparatedSolution.zeros(prob, rank=1)
    sol.phi1[0, 0] = sol.phi2[0, 0] = 1.0
    return arr.deterministic_update(prob, sol, method="direct")


def sample_moments(problem, solution, n, seed):
    rng = np.random.default_rng(seed)
    if problem.family_kind == "legendre-uniform":
        xi1 = rng.uniform(-1, 1, (n, problem.fields[0].n_dims))
        xi2 = rng.uniform(-1, 1, (n, problem.fields[1].n_dims))
    else:
        xi1 = rng.standard_normal((n, problem.fields[0].n_dims))
        xi2 = rng.standard_normal((n, problem.fields[1].n_dims))
    u1, u2, _ = oracles.evaluate_separated(problem, solution, xi1, xi2)
    return u1, u2


def test_mean_deterministic_rank_one():
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    sol = exact_deterministic_solution(prob)
    m1, m2 = stats.separated_mean(sol)
    import scipy.sparse.linalg as spla

    mono = problems.as_monolithic(prob)
    u = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    np.testing.assert_allclose(m1, u[mono.restrict1], atol=1e-9 * np.abs(u).max())
    np.testing.assert_allclose(m2, u[mono.restrict2], atol=1e-9 * np.abs(u).max())


def test_mean_linear_in_deterministic_factors():
    prob = desk_problem()
    sol = random_solution(prob, rank=2, seed=1)
    m1, m2 = stats.separated_mean(sol)
    doubled = arr.SeparatedSolution(
        u1=2 * sol.u1, u2=2 * sol.u2, lam=sol.lam, phi1=sol.phi1, phi2=sol.phi2
    )
    d1, d2 = stats.separated_mean(doubled)
    np.testing.assert_allclose(d1, 2 * m1, rtol=1e-14)
    np.testing.assert_allclose(d2, 2 * m2, rtol=1e-14)


def test_moments_match_self_sampling():
    prob = desk_problem()
    sol = random_solution(prob, rank=3, seed=2)
    n = 100_000
    u1, u2 = sample_moments(prob, sol, n, seed=3)
    mean = stats.separated_mean(sol)
    var = stats.separated_variance(sol)
    for side, samples in enumerate((u1, u2)):
        mc_mean = samples.mean(axis=0)
        mc_std = samples.std(axis=0)
        se_mean = mc_std / np.sqrt(n)
        floor = 1e-12 * max(np.abs(mc_mean).max(), 1.0)
        assert np.all(np.abs(mean[side] - mc_mean) <= 3 * se_mean + floor)
        # delta-method SE of the sample std: var(s) ~ (m4 - m2^2)/(4 m2 n);
        # the normal-theory s/sqrt(2n) undercounts for these heavy tails
        m2 = mc_std**2
        m4 = ((samples - mc_mean) ** 4).mean(axis=0)
        se_std = np.sqrt(np.maximum(m4 - m2**2, 0.0) / (4 * m2 * n))
        assert np.all(
            np.abs(np.sqrt(var[side]) - mc_std) <= 4 * se_std + floor
        )


def test_variance_deterministic_zero():
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    sol = exact_deterministic_solution(prob)
    v1, v2 = stats.separated_variance(sol)
    scale = max(np.abs(sol.u1).max(), np.abs(sol.u2).max()) ** 2
    assert np.abs(v1).max() <= 1e-16 * scale
    assert np.abs(v2).max() <= 1e-16 * scale


def test_variance_rank_one_closed_form():
    prob = desk_problem()
    sol = random_solution(prob, rank=1, seed=4)
    v1, _ = stats.separated_variance(sol)
    m1, _ = stats.separated_mean(sol)
    g1 = float(sol.phi1[0] @ sol.phi1[0])
    g2 = float(sol.phi2[0] @ sol.phi2[0])
    expected = sol.u1[0] ** 2 * g1 * g2 - m1**2
    np.testing.assert_allclose(v1, expected, atol=1e-13 * np.abs(expected).max())


def test_variance_negative_roundoff_clipped():
    prob = desk_problem()
    base = random_solution(prob, rank=1, seed=5)
    sol = arr.SeparatedSolution(
        u1=np.vstack([base.u1, -base.u1]),
        u2=np.vstack([base.u2, -base.u2]),
        lam=np.vstack([base.lam, -base.lam]),
        phi1=np.vstack([base.phi1, base.phi1 * (1 + 3e-16)]),
        phi2=np.vstack([base.phi2, base.phi2]),
    )
    with pytest.warns(RuntimeWarning, match="[Nn]egative"):
        v1, v2 = stats.separated_variance(sol)
    assert np.all(v1 >= 0.0)
    assert np.all(v2 >= 0.0)


def test_moments_invariant_under_normalization():
    prob = desk_problem()
    sol = random_solution(prob, rank=2, seed=6)
    scaled = arr.SeparatedSolution(
        u1=sol.u1, u2=sol.u2, lam=sol.lam, phi1=5.0 * sol.phi1, phi2=0.2 * sol.phi2
    )
    m_a = stats.separated_mean(scaled)
    m_b = stats.separated_mean(arr.normalize_factors(scaled))
    v_a = stats.separated_variance(scaled)
    v_b = stats.separated_variance(arr.normalize_factors(scaled))
    for a, b in zip(m_a + v_a, m_b + v_b):
        np.testing.assert_allclose(a, b, atol=1e-12 * max(np.abs(a).max(), 1.0))


def test_sample_separated_unit_factors():
    prob = desk_problem()
    sol = arr.SeparatedSolution.zeros(prob, rank=1)
    sol.phi1[0, 0] = sol.phi2[0, 0] = 1.0
    rng = np.random.default_rng(7)
    sol.u1[:] = rng.standard_normal(sol.u1.shape)
    sol.u2[:] = rng.standard_normal(sol.u2.shape)
    xi1 = rng.standard_normal(prob.fields[0].n_dims)
    xi2 = rng.standard_normal(prob.fields[1].n_dims)
    u1, u2 = oracles.sample_separated(prob, sol, xi1, xi2)
    np.testing.assert_array_equal(u1, sol.u1[0])
    np.testing.assert_array_equal(u2, sol.u2[0])


def test_sample_separated_dimension_mismatch():
    prob = desk_problem()
    sol = random_solution(prob, rank=1, seed=8)
    with pytest.raises(ValueError):
        oracles.sample_separated(prob, sol, np.zeros(7), np.zeros(2))


def test_pdf_estimate_synthetic_normal():
    rng = np.random.default_rng(9)
    curve = oracles.pdf_estimate(rng.standard_normal(20_000))
    assert not curve.degenerate
    mass = np.trapezoid(curve.density, curve.grid)
    mean = np.trapezoid(curve.grid * curve.density, curve.grid)
    second = np.trapezoid(curve.grid**2 * curve.density, curve.grid)
    assert mass == pytest.approx(1.0, abs=0.02)
    assert mean == pytest.approx(0.0, abs=0.05)
    assert second - mean**2 == pytest.approx(1.0, abs=0.1)


def test_pdf_degenerate_spike():
    curve = oracles.pdf_estimate(np.full(2000, 3.25))
    assert curve.degenerate


def test_pdf_requires_enough_samples():
    with pytest.raises(ValueError, match="sample"):
        oracles.pdf_estimate(np.arange(10.0))


def test_pdf_l1_gap_orders_distributions():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(5000)
    near = 0.02 + rng.standard_normal(5000)
    far = 3.0 + rng.standard_normal(5000)
    assert oracles.pdf_l1_gap(a, near) < oracles.pdf_l1_gap(a, far)


def test_error_metrics_self_zero():
    prob = desk_problem()
    acc = reference.monte_carlo_reference(prob, n_samples=200, seed=11)
    ref = stats.report_reference(prob, acc.mean, acc.std, label="mc")
    metrics = stats.error_metrics(ref, ref)
    assert metrics.eps_mean == 0.0
    assert metrics.eps_std == 0.0
    assert metrics.std_defined


def test_error_metrics_deterministic_flags_std():
    prob = desk_problem(sigma1=0.0, sigma2=0.0)
    sol = exact_deterministic_solution(prob)
    rep = stats.report_separated(prob, sol, label="separated")
    acc = reference.monte_carlo_reference(prob, n_samples=3, seed=12)
    ref = stats.report_reference(prob, acc.mean, acc.std, label="mc")
    metrics = stats.error_metrics(rep, ref)
    assert metrics.eps_mean <= 1e-9
    assert not metrics.std_defined
    assert np.isnan(metrics.eps_std)


def test_error_metrics_zero_reference_mean_rejected():
    prob = desk_problem()
    acc = reference.monte_carlo_reference(prob, n_samples=50, seed=13)
    ref = stats.report_reference(prob, acc.mean, acc.std, label="mc")
    zero = stats.MomentReport(
        label="zero",
        mean=np.zeros_like(ref.mean),
        std=np.zeros_like(ref.std),
        probe={},
        metadata={},
    )
    with pytest.raises(ValueError, match="reference"):
        stats.error_metrics(ref, zero)


def test_probe_beam_two_components():
    prob = desk_problem(example="beam")
    side, dofs = stats.probe_dofs(prob)
    assert side == 1
    assert len(dofs) == 2
    sol = random_solution(prob, rank=2, seed=14)
    vals = oracles.sample_probe(prob, sol, n_samples=64, seed=14)
    assert vals.shape == (64,)
    assert np.all(vals >= 0.0)  # displacement magnitude


def test_probe_lshape_scalar():
    prob = desk_problem()
    side, dofs = stats.probe_dofs(prob)
    assert side == 0
    assert len(dofs) == 1
    sol = exact_deterministic_solution(desk_problem(sigma1=0.0, sigma2=0.0))
    vals = oracles.sample_probe(prob, sol, n_samples=32, seed=15)
    assert np.allclose(vals, vals[0])


def test_moment_report_export():
    prob = desk_problem()
    sol = random_solution(prob, rank=2, seed=16)
    rep = stats.report_separated(prob, sol, label="separated")
    s1, s2 = prob.sub
    assert rep.mean.shape == (s1.n_dofs + s2.n_dofs,)
    assert np.all(rep.std >= 0.0)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "dof,mean,std"
    assert len(lines) == rep.mean.size + 1
    summary = json.loads(rep.to_json())
    assert summary["label"] == "separated"
    assert "probe" in summary and "mean_l2" in summary
