"""Karhunen-Loeve discretization and polynomial-chaos coefficient fields."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import oracles
from sepfeti import fem2d, pc_basis, problems, random_field


def unit_mesh(h=0.25):
    return fem2d.build_rect_mesh((0.0, 1.0), (0.0, 1.0), h)


def make_kl(sigma=0.5, corr_len=2.0 / 3.0, d=4, h=0.25, rect=None):
    rect = rect or ((0.0, 1.0), (0.0, 1.0))
    mesh = fem2d.build_rect_mesh(*rect, h)
    kernel = random_field.GaussianKernel(sigma=sigma, corr_len=corr_len)
    return random_field.discretize_kl(kernel, mesh, d), mesh


# ---------------------------------------------------------------------------
# KL discretization


def test_kernel_validation():
    with pytest.raises(ValueError):
        random_field.GaussianKernel(sigma=-1.0, corr_len=1.0)
    with pytest.raises(ValueError):
        random_field.GaussianKernel(sigma=1.0, corr_len=0.0)


def test_zero_variance_limit():
    kl, _ = make_kl(sigma=0.0, d=3, h=0.5)
    np.testing.assert_allclose(kl.eigenvalues, 0.0, atol=1e-14)


def test_eigenvalues_descending_nonnegative():
    kl, _ = make_kl(d=8)
    tau = kl.eigenvalues
    assert (tau >= 0).all()
    assert (np.diff(tau) <= 1e-14).all()


def test_mass_orthonormal_modes():
    kl, mesh = make_kl(sigma=0.7, corr_len=1.0 / 3.0, d=6)
    M = fem2d.mass_matrix(mesh)
    gram = kl.modes @ (M @ kl.modes.T)
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)


def test_trace_identity():
    # sum of all eigenvalues approximates sigma^2 * area(D)
    mesh = unit_mesh(1.0 / 16.0)
    kl, _ = make_kl(sigma=0.5, corr_len=2.0 / 3.0, d=mesh.n_nodes, h=1.0 / 16.0)
    assert kl.eigenvalues.sum() == pytest.approx(0.25, rel=0.01)


def test_long_correlation_limit():
    # l -> infinity: rank-one kernel, tau_1 -> sigma^2 * area, g_1 -> const
    kl, _ = make_kl(sigma=0.8, corr_len=1e3, d=2, h=0.25)
    assert kl.eigenvalues[0] == pytest.approx(0.64, rel=1e-3)
    assert kl.eigenvalues[1] < 1e-4 * kl.eigenvalues[0]
    np.testing.assert_allclose(kl.modes[0], 1.0, atol=1e-3)


def test_mode_count_limit():
    mesh = unit_mesh(0.5)
    kernel = random_field.GaussianKernel(sigma=1.0, corr_len=1.0)
    with pytest.raises(ValueError):
        random_field.discretize_kl(kernel, mesh, mesh.n_nodes + 1)


class SignedKernel(random_field.GaussianKernel):
    """An indefinite "kernel": the identity with its last rows negated."""

    def matrix(self, points):
        signs = np.ones(len(points))
        signs[-3:] = -1.0
        return np.diag(signs)


def test_negative_eigenvalue_guard_matches_dense_count():
    mesh = unit_mesh(0.5)
    kernel = SignedKernel(sigma=1.0, corr_len=1.0)
    n_ok = mesh.n_nodes - 3
    for route in (random_field.discretize_kl, oracles.dense_kl):
        assert (route(kernel, mesh, n_ok).eigenvalues > 0.0).all()
        with pytest.raises(ValueError, match="negative"):
            route(kernel, mesh, n_ok + 1)


def test_sign_convention_reproducible():
    kl1, _ = make_kl(d=5)
    kl2, _ = make_kl(d=5)
    np.testing.assert_array_equal(kl1.modes, kl2.modes)
    # the first entry above 1e-8 of the largest magnitude is positive
    size = np.abs(kl1.modes)
    first = (size > 1e-8 * size.max(axis=1, keepdims=True)).argmax(axis=1)
    assert (kl1.modes[np.arange(5), first] > 0).all()


def profile_kernel(profile, side):
    """A profile's config and side ``side``'s mesh and kernel."""
    cfg = problems.profile_config(profile)
    rect = problems._two_rects(cfg)[side - 1]
    mesh = fem2d.build_rect_mesh(*rect, float(cfg["mesh"][f"h{side}"]))
    fld = cfg["field"]
    kernel = random_field.GaussianKernel(
        sigma=float(fld[f"sigma{side}"]), corr_len=float(fld[f"lc{side}"])
    )
    return cfg, mesh, kernel


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("profile", ["lshape-desk", "beam-desk", "lshape", "beam"])
def test_leading_pairs_match_dense_solve(profile, side):
    # every sub-domain mesh and KL truncation of the four profiles
    cfg, mesh, kernel = profile_kernel(profile, side)
    d = int(cfg["field"][f"d{side}"])
    kl = random_field.discretize_kl(kernel, mesh, d)
    ref = oracles.dense_kl(kernel, mesh, d)
    tau1 = ref.eigenvalues[0]
    assert np.abs(kl.eigenvalues - ref.eigenvalues).max() <= 1e-13 * tau1
    # signed: both drivers meet the sign rule on the same entry
    assert np.abs(kl.modes - ref.modes).max() <= 1e-10
    gram = kl.modes @ (kl.mass @ kl.modes.T)
    assert np.abs(gram - np.eye(d)).max() <= 1e-12


def above_cut_mesh():
    """The smallest 0.05-lattice rectangle of height 1 on the Lanczos route."""
    mesh = fem2d.build_rect_mesh((0.0, 1.2), (0.0, 1.0), 0.05)
    assert mesh.n_nodes >= random_field._LANCZOS_MIN_NODES
    return mesh


def forbid(monkeypatch, module, name):
    """Make ``module.name`` raise, so that a call shows which route ran."""

    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(module, name, fail)


@pytest.mark.parametrize("fit_limit", [False, True], ids=["d1", "fit-limit"])
def test_lanczos_route_matches_dense_solve(fit_limit, monkeypatch):
    # a short correlation length keeps all 261 leading eigenvalues well
    # above rounding (tau_261 / tau_1 ~ 1e-3), so every mode is defined
    mesh = above_cut_mesh()
    n = mesh.n_nodes
    d = (n - 2) // 2 if fit_limit else 1
    assert 2 * d + 1 < n  # ARPACK's basis fits
    kernel = random_field.GaussianKernel(sigma=0.5, corr_len=0.1)
    ref = oracles.dense_kl(kernel, mesh, d)
    forbid(monkeypatch, scipy.linalg, "eigh")
    kl = random_field.discretize_kl(kernel, mesh, d)
    tau1 = ref.eigenvalues[0]
    assert np.abs(kl.eigenvalues - ref.eigenvalues).max() <= 1e-13 * tau1
    # signed: both meet the sign rule on the same entry; the trailing modes
    # of the fit limit sit at relative eigenvalue gaps near 1e-3
    assert np.abs(kl.modes - ref.modes).max() <= (1e-8 if fit_limit else 1e-10)
    gram = kl.modes @ (kl.mass @ kl.modes.T)
    assert np.abs(gram - np.eye(d)).max() <= 1e-12


def test_dense_route_beyond_fit_limit(monkeypatch):
    # 2d + 1 = n leaves ARPACK no room: the subset driver takes the call
    mesh = above_cut_mesh()
    d = (mesh.n_nodes - 1) // 2
    assert 2 * d + 1 >= mesh.n_nodes
    kernel = random_field.GaussianKernel(sigma=0.5, corr_len=0.1)
    ref = oracles.dense_kl(kernel, mesh, d)
    forbid(monkeypatch, scipy.sparse.linalg, "eigsh")
    kl = random_field.discretize_kl(kernel, mesh, d)
    assert np.abs(kl.eigenvalues - ref.eigenvalues).max() <= 1e-13 * ref.eigenvalues[0]


@pytest.mark.parametrize("profile", ["lshape-desk", "beam-desk", "beam"])
def test_dense_route_below_cut(profile, monkeypatch):
    # every desk and full beam mesh stays on the subset driver
    forbid(monkeypatch, scipy.sparse.linalg, "eigsh")
    prob = problems.build_from_config(problems.profile_config(profile))
    assert max(sub.mesh.n_nodes for sub in prob.sub) < random_field._LANCZOS_MIN_NODES


LATTICES = [
    f"{profile}-{side}"
    for profile in ("lshape-desk", "beam-desk", "lshape", "beam")
    for side in (1, 2)
]


@pytest.mark.parametrize("lattice", LATTICES + ["525-node"])
def test_lattice_factors_apply_kernel_matrix(lattice):
    # every sub-domain lattice of the four profiles and the 525-node mesh:
    # C = sigma^2 E_y (x) E_x, so (sigma^2 E_y) V E_x^T is the dense kernel
    # product up to rounding
    if lattice == "525-node":
        mesh, kernel = above_cut_mesh(), random_field.GaussianKernel(sigma=0.5, corr_len=0.1)
    else:
        profile, side = lattice.rsplit("-", 1)
        _, mesh, kernel = profile_kernel(profile, int(side))
    ey, ex = kernel.lattice_factors(mesh)
    assert ey.shape == (mesh.ny + 1,) * 2 and ex.shape == (mesh.nx + 1,) * 2
    C = kernel.matrix(mesh.nodes)
    v = np.random.default_rng(mesh.n_nodes).standard_normal(mesh.n_nodes)
    got = (ey @ v.reshape(mesh.ny + 1, mesh.nx + 1) @ ex.T).ravel()
    bound = 1e-15 * np.linalg.norm(C, 2) * np.linalg.norm(v)
    assert np.abs(got - C @ v).max() <= bound


def test_lanczos_route_forms_no_kernel_matrix(monkeypatch):
    # full lshape, side 2, on the factored product alone: no n x n array
    # (test_leading_pairs_match_dense_solve checks the pairs)
    cfg, mesh, kernel = profile_kernel("lshape", 2)
    d = int(cfg["field"]["d2"])
    forbid(monkeypatch, random_field.GaussianKernel, "matrix")
    n = mesh.n_nodes
    assert n >= random_field._LANCZOS_MIN_NODES
    tracemalloc.start()
    try:
        kl = random_field.discretize_kl(kernel, mesh, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kl.modes.shape == (d, n)
    assert peak < n * n * 8


def test_zero_variance_above_cut():
    # sigma = 0 on the full lshape mesh: the zero operator would give ARPACK
    # a zero start vector, so the subset driver takes the call
    _, mesh, _ = profile_kernel("lshape", 1)
    kernel = random_field.GaussianKernel(sigma=0.0, corr_len=0.5)
    kl = random_field.discretize_kl(kernel, mesh, 4)
    np.testing.assert_array_equal(kl.eigenvalues, 0.0)
    gram = kl.modes @ (kl.mass @ kl.modes.T)
    assert np.abs(gram - np.eye(4)).max() <= 1e-12


def test_lshape_rebuild_repeats_bits_across_kl_calls():
    # ARPACK carries its random state from call to call; the fixed start
    # vector keeps a rebuild's Lanczos KL modes, and so its fields and
    # stiffness modes, bit for bit
    cfg = problems.profile_config("lshape")
    first = problems.build_from_config(cfg)
    kernel = random_field.GaussianKernel(sigma=0.3, corr_len=0.5)
    random_field.discretize_kl(kernel, above_cut_mesh(), 3)
    second = problems.build_from_config(cfg)
    for side in range(2):
        assert first.sub[side].mesh.n_nodes >= random_field._LANCZOS_MIN_NODES
        np.testing.assert_array_equal(
            first.fields[side].coeff_fields, second.fields[side].coeff_fields
        )
        np.testing.assert_array_equal(first.sub[side].modes.data, second.sub[side].modes.data)


def test_kernel_matrix_equals_broadcast_formula():
    mesh = fem2d.build_rect_mesh((0.0, 2.0), (0.0, 1.0), 0.1)
    kernel = random_field.GaussianKernel(sigma=0.5, corr_len=2.0 / 3.0)
    np.testing.assert_array_equal(
        kernel.matrix(mesh.nodes), oracles.broadcast_kernel_matrix(kernel, mesh.nodes)
    )


def test_zero_modes_is_empty():
    kl, mesh = make_kl(d=0, h=0.5)
    assert kl.eigenvalues.shape == (0,)
    assert kl.modes.shape == (0, mesh.n_nodes)
    assert kl.n_modes == 0


def test_all_modes_match_dense_solve():
    mesh = unit_mesh(0.25)
    kernel = random_field.GaussianKernel(sigma=0.5, corr_len=2.0 / 3.0)
    kl = random_field.discretize_kl(kernel, mesh, mesh.n_nodes)
    ref = oracles.dense_kl(kernel, mesh, mesh.n_nodes)
    assert kl.modes.shape == (mesh.n_nodes, mesh.n_nodes)
    np.testing.assert_allclose(kl.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-13 * ref.eigenvalues[0])


def test_kl_json_export():
    kl, _ = make_kl(d=3, h=0.5)
    blob = json.loads(oracles.kl_to_json(kl))
    assert set(blob) == {"tau", "modes"}
    assert len(blob["tau"]) == 3
    assert len(blob["modes"]) == 3
    assert len(blob["modes"][0]) == kl.modes.shape[1]


# ---------------------------------------------------------------------------
# shifted-lognormal coefficients


def constant_unit_kl(h=0.5):
    """KL basis with a single flat mode on the unit square: tau=1, g=1."""
    mesh = unit_mesh(h)
    return (
        random_field.KLBasis(
            eigenvalues=np.array([1.0]),
            modes=np.ones((1, mesh.n_nodes)),
            mass=fem2d.mass_matrix(mesh),
        ),
        mesh,
    )


def test_lognormal_single_mode_analytic():
    # exp(xi) with xi ~ N(0,1): Hermite coefficients e^{1/2} / sqrt(i!)
    kl, _ = constant_unit_kl()
    pc = random_field.lognormal_pc_coefficients(kl, mean_log=0.0, shift=0.0, order=2)
    expected = [math.e**0.5, math.e**0.5, math.e**0.5 / math.sqrt(2.0)]
    assert pc.idx_set.indices.tolist() == [[0], [1], [2]]
    for row, value in zip(pc.coeff_fields, expected):
        np.testing.assert_allclose(row, value, rtol=1e-13)


def test_lognormal_coefficients_vs_mc():
    # Monte-Carlo oracle: kappa_i = E[exp(xi) psi_i(xi)]
    kl, _ = constant_unit_kl()
    pc = random_field.lognormal_pc_coefficients(kl, mean_log=0.0, shift=0.0, order=2)
    rng = np.random.default_rng(42)
    xi = rng.standard_normal(10**6)
    table = pc_basis.HERMITE_GAUSSIAN.eval_table(2, xi)
    kappa = np.exp(xi)
    for i in range(3):
        prod = kappa * table[i]
        est = prod.mean()
        se = prod.std() / math.sqrt(xi.size)
        assert abs(est - pc.coeff_fields[i, 0]) < 3 * se


def test_lognormal_mean_coefficient_pointwise():
    kl, _ = make_kl(sigma=0.5, corr_len=2.0 / 3.0, d=4)
    pc = random_field.lognormal_pc_coefficients(kl, mean_log=1.0, shift=0.28, order=6)
    var_g = (kl.eigenvalues[:, None] * kl.modes**2).sum(axis=0)
    np.testing.assert_allclose(pc.coeff_fields[0], np.exp(1.0 + var_g / 2.0), rtol=1e-12)
    assert pc.shift == 0.28
    assert pc.kind == "lognormal-shifted"


def test_lognormal_power_table_matches_float_powers():
    # the coefficients against float powers and factorials, entry by entry
    kl, _ = make_kl(sigma=0.5, corr_len=1.0 / 3.0, d=6)
    pc = random_field.lognormal_pc_coefficients(kl, mean_log=1.0, shift=0.28, order=6)
    idx = pc.idx_set.indices
    sg = np.sqrt(kl.eigenvalues)[:, None] * kl.modes
    powers = np.prod(sg[None, :, :] ** idx[:, :, None], axis=1)
    fact = np.array([math.prod(math.factorial(k) for k in row) for row in idx])
    mean_field = np.exp(1.0 + kl.pointwise_variance() / 2.0)
    expected = mean_field * powers / np.sqrt(fact)[:, None]
    assert len(pc.idx_set) == 924
    np.testing.assert_allclose(pc.coeff_fields, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("case", ["lshape-1", "lshape-2", "order-22"])
def test_lognormal_coefficients_match_row_products(case):
    # each row formed from its parent against the powers and factorials
    # formed row by row: the full lshape index sets (d = 4 and 6, order 6)
    # and an order past 20, where 22! overflows int64
    if case == "order-22":
        kl, _ = make_kl(sigma=0.5, corr_len=2.0 / 3.0, d=2)
        args, size = (kl, 0.3, 0.0, 22), 276
    else:
        side = int(case[-1])
        cfg, mesh, kernel = profile_kernel("lshape", side)
        fld = cfg["field"]
        kl = random_field.discretize_kl(kernel, mesh, int(fld[f"d{side}"]))
        order = 2 * int(cfg["pc"][f"p{side}"])
        args, size = (kl, float(fld["mean"]), float(fld["shift"]), order), (210, 924)[side - 1]
    pc = random_field.lognormal_pc_coefficients(*args)
    ref = oracles.lognormal_pc_coefficients_loop(*args)
    assert len(pc.idx_set) == size
    scale = np.abs(ref.coeff_fields).max()
    np.testing.assert_allclose(pc.coeff_fields, ref.coeff_fields, rtol=0, atol=1e-15 * scale)


def test_lognormal_zero_field():
    kl, _ = make_kl(sigma=0.0, d=3, h=0.5)
    pc = random_field.lognormal_pc_coefficients(kl, mean_log=0.7, shift=0.0, order=4)
    np.testing.assert_allclose(pc.coeff_fields[0], math.exp(0.7), rtol=1e-13)
    assert np.abs(pc.coeff_fields[1:]).max() < 1e-14


def test_lognormal_reconstruction_statistics():
    # sampled moments of the truncated series match the analytic lognormal
    # moments within 3 standard errors plus the truncation remainder
    kl, mesh = make_kl(sigma=0.4, corr_len=2.0 / 3.0, d=2)
    order = 4
    pc = random_field.lognormal_pc_coefficients(kl, mean_log=0.2, shift=0.1, order=order)
    node = mesh.n_nodes // 2
    rng = np.random.default_rng(7)
    xi = rng.standard_normal((10**5, 2))
    vals = oracles.sample_field_batch(pc, xi)[:, node]

    v = float((kl.eigenvalues * kl.modes[:, node] ** 2).sum())
    mean_exact = 0.1 + math.exp(0.2 + v / 2.0)
    var_exact = (math.exp(v) - 1.0) * math.exp(2 * 0.2 + v)
    # variance captured by terms of total degree <= order
    var_trunc_gap = math.exp(2 * 0.2 + v) * (
        math.exp(v) - sum(v**k / math.factorial(k) for k in range(order + 1))
    )

    se_mean = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - mean_exact) < 3 * se_mean + 1e-12
    dev = (vals - vals.mean()) ** 2
    se_var = dev.std() / math.sqrt(vals.size)
    assert abs(vals.var() - var_exact) < 3 * se_var + var_trunc_gap


# ---------------------------------------------------------------------------
# affine-uniform coefficients


def test_affine_zero_sample_is_mean():
    kl, _ = make_kl(sigma=35.0, corr_len=2.0 / 3.0, d=5)
    pc = random_field.affine_uniform_field(kl, mean=100.0)
    vals = oracles.sample_field(pc, np.zeros(5))
    np.testing.assert_allclose(vals, 100.0, rtol=1e-13)
    assert pc.kind == "affine-uniform"
    assert pc.shift == 0.0


def test_affine_order_one_exact():
    kl, _ = make_kl(sigma=35.0, corr_len=2.0 / 3.0, d=4)
    pc = random_field.affine_uniform_field(kl, mean=100.0)
    rng = np.random.default_rng(11)
    xi = rng.uniform(-1.0, 1.0, 4)
    direct = 100.0 + (np.sqrt(kl.eigenvalues)[:, None] * kl.modes * xi[:, None]).sum(0)
    np.testing.assert_allclose(oracles.sample_field(pc, xi), direct, rtol=1e-12)
    ones = oracles.sample_field(pc, np.ones(4))
    direct1 = 100.0 + (np.sqrt(kl.eigenvalues)[:, None] * kl.modes).sum(0)
    np.testing.assert_allclose(ones, direct1, rtol=1e-12)


def test_affine_positive_for_beam_parameters():
    kl, _ = make_kl(
        sigma=35.0, corr_len=2.0 / 3.0, d=9, h=0.1, rect=((0.0, 2.5), (0.0, 1.0))
    )
    pc = random_field.affine_uniform_field(kl, mean=100.0)
    rng = np.random.default_rng(0)
    xi = rng.uniform(-1.0, 1.0, (10**4, 9))
    vals = oracles.sample_field_batch(pc, xi)
    assert vals.min() > 0.0


def test_affine_variance_vs_mc():
    kl, mesh = make_kl(sigma=2.0, corr_len=0.5, d=4)
    pc = random_field.affine_uniform_field(kl, mean=10.0)
    rng = np.random.default_rng(5)
    xi = rng.uniform(-1.0, 1.0, (2 * 10**5, 4))
    vals = oracles.sample_field_batch(pc, xi)
    var_formula = (kl.eigenvalues[:, None] * kl.modes**2).sum(0) / 3.0
    np.testing.assert_allclose(vals.var(axis=0), var_formula, rtol=0.02)


# ---------------------------------------------------------------------------
# sampling plumbing


def test_sample_dim_mismatch():
    kl, _ = make_kl(d=3, h=0.5)
    pc = random_field.affine_uniform_field(kl, mean=1.0)
    with pytest.raises(ValueError):
        oracles.sample_field(pc, np.zeros(2))


def test_hermite_zero_point_keeps_even_terms():
    kl, _ = constant_unit_kl()
    pc = random_field.lognormal_pc_coefficients(kl, mean_log=0.0, shift=0.05, order=2)
    # psi_0(0)=1, psi_1(0)=0, psi_2(0)=-1/sqrt(2)
    expect = 0.05 + math.e**0.5 * (1.0 - 0.5)
    np.testing.assert_allclose(
        oracles.sample_field(pc, np.zeros(1)), expect, rtol=1e-12
    )


def test_lognormal_samples_exceed_shift():
    kl, _ = make_kl(sigma=0.5, corr_len=2.0 / 3.0, d=4)
    pc = random_field.lognormal_pc_coefficients(kl, mean_log=1.0, shift=0.28, order=6)
    rng = np.random.default_rng(9)
    xi = rng.standard_normal((200, 4))
    vals = oracles.sample_field_batch(pc, xi)
    assert vals.min() > 0.0
