"""Benchmark problem builders and the merged single-domain view."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from sepfeti import arr, feti, problems, reference, stats


def lshape_desk(**field_over):
    cfg = problems.profile_config("lshape-desk")
    cfg["field"].update(field_over)
    return problems.build_example_I(cfg)


def beam_desk(**field_over):
    cfg = problems.profile_config("beam-desk")
    cfg["field"].update(field_over)
    return problems.build_example_II(cfg)


# ---------------------------------------------------------------------------
# configuration plumbing


def test_unknown_key_rejected():
    with pytest.raises(problems.ConfigError, match="nonsense"):
        problems.build_example_I({"field": {"nonsense": 1}})
    with pytest.raises(problems.ConfigError, match="typo"):
        problems.build_example_I({"typo": {}})


def test_bad_values_rejected():
    with pytest.raises(problems.ConfigError, match="sigma1"):
        lshape_desk(sigma1=-2.0)
    with pytest.raises(problems.ConfigError, match="split"):
        problems.build_example_II({"geometry": {"rects": [[[0, 4], [0, 1]]], "split": 9.0}})
    with pytest.raises(problems.ConfigError):
        problems.profile_config("no-such-profile")


@pytest.mark.parametrize("route", ["auto", "drect"])
def test_unknown_det_update_rejected(route):
    cfg = problems.profile_config("beam-desk")
    cfg["solver"]["det_update"] = route
    with pytest.raises(problems.ConfigError, match=r'solver\.det_update.*"direct".*"pcpg"'):
        problems.build_from_config(cfg)


@pytest.mark.parametrize("key", ["pcpg_tol", "preconditioner"])
def test_removed_solver_keys_rejected(key):
    with pytest.raises(problems.ConfigError, match=f"solver.{key}"):
        problems.build_example_I({"solver": {key: 1}})


def test_kind_mismatch_rejected():
    with pytest.raises(problems.ConfigError):
        problems.build_example_I({"field": {"kind": "affine-uniform"}})


# ---------------------------------------------------------------------------
# Example I structure


def test_lshape_default_dimensions():
    cfg = problems.profile_config("lshape")
    prob = problems.build_example_I({"mesh": {"h1": 0.25, "h2": 0.25}})
    assert cfg["field"]["d1"] == 4 and cfg["field"]["d2"] == 6
    assert oracles.d_total(prob) == 10
    assert len(prob.idx_solution[0]) == 35  # |indices(4, 3)|
    assert len(prob.idx_solution[1]) == 84  # |indices(6, 3)|
    assert prob.family_kind == "hermite-gaussian"
    assert prob.kind == problems.KIND_DIFFUSION


def test_lshape_desk_counts():
    prob = lshape_desk()
    s1, s2 = prob.sub
    assert s1.n_dofs == 40
    assert s2.n_dofs == 36
    assert s1.n_interface == 4 and s2.n_interface == 4
    assert not s1.floating and not s2.floating
    # body load only on the first box (f=10 over area 2)
    assert prob.f_full[0].sum() == pytest.approx(20.0, rel=1e-12)
    assert not s2.f.any()


def test_lshape_interface_excludes_shared_corner():
    prob = lshape_desk()
    # the corner (2, 1) is Dirichlet in both boxes, so it may not be carried
    # as an interface column
    assert not np.any(
        (np.abs(prob.interface_coords[:, 0] - 2.0) < 1e-12)
        & (np.abs(prob.interface_coords[:, 1] - 1.0) < 1e-12)
    )
    assert prob.interface_coords.shape == (4, 2)


def _node_at(mesh, xy):
    return int(np.flatnonzero((mesh.nodes == xy).all(axis=1))[0])


@pytest.mark.parametrize("name", ["lshape-desk", "beam-desk", "lshape", "beam", "one-sided"])
def test_interface_dofs_pair_one_node_and_component(profile_problem, one_sided_config, name):
    if name == "one-sided":
        prob = problems.build_from_config(one_sided_config)
    else:
        prob = profile_problem(name)
    nc, coords = prob.ncomp, prob.interface_coords
    for s in prob.sub:
        assert np.unique(s.iface).size == s.n_interface == nc * len(coords)
        assert s.iface.min() >= 0 and s.iface.max() < s.n_dofs
        C = oracles.extractor(s)
        np.testing.assert_array_equal((C.T @ C).toarray(), np.eye(s.n_interface))
        # column k is component k % nc of the k // nc-th interface node
        node, comp = np.divmod(s.free_dofs[s.iface], nc)
        np.testing.assert_array_equal(s.mesh.nodes[node], np.repeat(coords, nc, axis=0))
        np.testing.assert_array_equal(comp, np.tile(np.arange(nc), len(coords)))
    # the coupling blocks (W (x) C_i) lam = C_i (W lam) and their transposes
    rng = np.random.default_rng(5)
    ops = feti.build_block_operators(
        prob, *(rng.standard_normal((3, len(idx))) for idx in prob.idx_solution)
    )
    lam = rng.standard_normal((3, ops.problem.sub[0].n_interface))
    for i, s in enumerate(prob.sub):
        C = oracles.extractor(s)
        U = rng.standard_normal((3, s.n_dofs))
        assert np.array_equal(ops.scatter(i, lam), (C @ (ops.W @ lam).T).T)
        assert np.array_equal(ops.gather(i, U), (C.T @ (ops.W @ U).T).T)


@pytest.mark.parametrize("name", ["lshape-desk", "beam-desk", "lshape", "beam"])
def test_profile_dirichlet_nodes_are_the_walls(profile_problem, name):
    prob = profile_problem(name)
    m1, m2 = (s.mesh for s in prob.sub)
    if name.startswith("lshape"):
        walls = (m1.nodes_on_side("right"), m2.nodes_on_side("right"))
    else:
        walls = (m1.nodes_on_side("left"), np.array([], dtype=np.intp))
    for nodes, wall in zip(prob.dirichlet_nodes, walls):
        np.testing.assert_array_equal(nodes, wall)


def test_one_sided_dirichlet_interface_node_fixed_on_both_sides(one_sided_config):
    prob = problems.build_from_config(one_sided_config)
    for s, nodes in zip(prob.sub, prob.dirichlet_nodes):
        corner = _node_at(s.mesh, (2.0, 1.0))
        assert corner in nodes
        assert corner not in s.free_dofs and corner not in s.free_dofs[s.iface]
    s1, s2 = prob.sub
    assert (s1.n_interface, s2.n_dofs) == (4, 71)
    mono = problems.as_monolithic(prob)
    assert mono.n_free == s1.n_dofs + s2.n_dofs - s1.n_interface
    # criterion 1's thresholds against the combined-basis Galerkin oracle
    solution, _ = arr.arr_run(prob, eps=1e-2, r_max=10)
    sg = reference.solve_monolithic_sg(prob)
    metrics = stats.error_metrics(
        stats.report_separated(prob, solution),
        stats.report_reference(prob, sg.mean(), sg.std(), label="galerkin"),
    )
    assert solution.rank <= 10
    assert metrics.eps_mean < 1e-2
    assert metrics.std_defined and metrics.eps_std < 5e-2


def test_lshape_sigma_zero_deterministic():
    prob = lshape_desk(sigma1=0.0, sigma2=0.0)
    for side in range(2):
        tail = prob.fields[side].coeff_fields[1:]
        assert np.abs(tail).max() < 1e-14
        for K in prob.sub[side].K_modes[1:]:
            assert abs(K).max() < 1e-12


def test_mode_count_matches_field_terms():
    prob = lshape_desk()
    for side in range(2):
        assert len(prob.sub[side].K_modes) == len(prob.fields[side].idx_set)
        # coefficient order is twice the solution order
        assert prob.fields[side].idx_set.p == 2 * prob.idx_solution[side].p


def test_rebuild_from_echo_bit_identical():
    first = lshape_desk()
    second = problems.build_example_I(first.config)
    assert oracles.config_json(first) == oracles.config_json(second)
    for side in range(2):
        a, b = first.sub[side], second.sub[side]
        np.testing.assert_array_equal(a.f, b.f)
        for Ka, Kb in zip(a.K_modes, b.K_modes):
            np.testing.assert_array_equal(Ka.toarray(), Kb.toarray())
        np.testing.assert_array_equal(
            first.fields[side].coeff_fields, second.fields[side].coeff_fields
        )


# ---------------------------------------------------------------------------
# Example II structure


def test_beam_default_dimensions():
    cfg = problems.profile_config("beam")
    assert cfg["field"]["d1"] == 9 and cfg["field"]["d2"] == 11
    assert cfg["field"]["nu"] == 0.3
    prob = beam_desk()
    assert prob.kind == problems.KIND_ELASTICITY
    assert prob.ncomp == 2
    assert not prob.sub[0].floating
    assert prob.sub[1].floating
    assert prob.sub[1].R.shape[1] == 3


def test_beam_desk_interface_dofs():
    prob = beam_desk()
    assert prob.sub[0].n_interface == 12  # 6 shared nodes x 2 components
    assert prob.interface_coords.shape == (6, 2)
    total = prob.f_full[0][1::2].sum() + prob.f_full[1][1::2].sum()
    assert total == pytest.approx(-0.1 * 4.0, rel=1e-12)


def _dense_saddle_solve(prob):
    """Oracle: deterministic coupled solve via one dense saddle system."""
    s1, s2 = prob.sub
    K1 = s1.K_modes[0].toarray()
    K2 = s2.K_modes[0].toarray()
    C1, C2 = (oracles.extractor(s).toarray() for s in (s1, s2))
    n1, n2, m = K1.shape[0], K2.shape[0], C1.shape[1]
    # the continuity rows pin any floating modes, so no extra unknowns
    A = np.zeros((n1 + n2 + m, n1 + n2 + m))
    A[:n1, :n1] = K1
    A[n1 : n1 + n2, n1 : n1 + n2] = K2
    A[:n1, n1 + n2 :] = -C1
    A[n1 : n1 + n2, n1 + n2 :] = C2
    A[n1 + n2 :, :n1] = -C1.T
    A[n1 + n2 :, n1 : n1 + n2] = C2.T
    b = np.concatenate([s1.f, s2.f, np.zeros(m)])
    x = np.linalg.solve(A, b)
    return x[:n1], x[n1 : n1 + n2], x[n1 + n2 :]


def test_beam_sigma_zero_matches_monolithic():
    prob = beam_desk(sigma1=0.0, sigma2=0.0)
    u1, u2, lam = _dense_saddle_solve(prob)
    mono = problems.as_monolithic(prob)
    u_mono = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    np.testing.assert_allclose(u1, u_mono[mono.restrict1], atol=1e-10 * np.abs(u_mono).max())
    np.testing.assert_allclose(u2, u_mono[mono.restrict2], atol=1e-10 * np.abs(u_mono).max())
    # tip deflection probe exists at the far bottom corner
    assert u_mono[oracles.free_dof_at(prob, mono, (4.0, 0.0), comp=1)] < 0.0


def test_beam_reaction_resultant():
    # clamp reaction balances the applied traction: R = (0, +0.1*length)
    prob = beam_desk(sigma1=0.0, sigma2=0.0)
    u1, _, lam = _dense_saddle_solve(prob)
    full = oracles.unreduced_subdomain(prob, 0)
    u1_full = np.zeros(full.n_dofs)
    u1_full[prob.sub[0].free_dofs] = u1
    r = full.K_modes[0] @ u1_full - full.f
    clamped = np.setdiff1d(np.arange(full.n_dofs), prob.sub[0].free_dofs)
    # interface tractions do not act on the clamped wall
    assert not np.isin(full.iface, clamped).any()
    assert r[clamped][0::2].sum() == pytest.approx(0.0, abs=1e-9)
    assert r[clamped][1::2].sum() == pytest.approx(0.4, rel=1e-9)
    assert np.abs(r[prob.sub[0].free_dofs] - (oracles.extractor(prob.sub[0]) @ lam)).max() < 1e-9


def test_lshape_sigma_zero_matches_monolithic():
    prob = lshape_desk(sigma1=0.0, sigma2=0.0)
    u1, u2, _ = _dense_saddle_solve(prob)
    mono = problems.as_monolithic(prob)
    u_mono = spla.spsolve(oracles.mono_K_modes(mono)[0].tocsc(), mono.f)
    scale = np.abs(u_mono).max()
    np.testing.assert_allclose(u1, u_mono[mono.restrict1], atol=1e-9 * scale)
    np.testing.assert_allclose(u2, u_mono[mono.restrict2], atol=1e-9 * scale)


# ---------------------------------------------------------------------------
# monolithic merge


@pytest.mark.parametrize("name", ["lshape-desk", "beam-desk", "lshape", "beam", "one-sided"])
def test_merge_matches_coordinate_matched_reference(profile_problem, one_sided_config, name):
    # the merge read off the interface dof lists against the meshes matched
    # again by node coordinates, array for array
    if name == "one-sided":
        prob = problems.build_from_config(one_sided_config)
    else:
        prob = profile_problem(name)
    got, want = problems.as_monolithic(prob), oracles.coordinate_matched_monolithic(prob)
    assert got.n_free == want.n_free
    for field in ("restrict1", "restrict2", "f", "field_indices"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert np.array_equal(got.modes.indptr, want.modes.indptr)
    assert np.array_equal(got.modes.indices, want.modes.indices)
    for field in ("positions", "columns"):
        for x, y in zip(getattr(got.modes, field), getattr(want.modes, field), strict=True):
            assert np.array_equal(x, y), field


def test_monolithic_dof_count():
    prob = lshape_desk()
    mono = problems.as_monolithic(prob)
    s1, s2 = prob.sub
    assert mono.n_free == s1.n_dofs + s2.n_dofs - s1.n_interface
    assert mono.field_indices.shape[1] == oracles.d_total(prob)
    assert len(oracles.mono_K_modes(mono)) == (
        len(prob.fields[0].idx_set) + len(prob.fields[1].idx_set) - 1
    )


def test_monolithic_mean_mode_spd():
    mono = problems.as_monolithic(lshape_desk())
    np.linalg.cholesky(oracles.mono_K_modes(mono)[0].toarray())


def test_monolithic_load_merge():
    prob = beam_desk()
    mono = problems.as_monolithic(prob)
    # -0.1 * length 4, minus the clamped corner's trapezoid share 0.01
    assert mono.f[1::2].sum() == pytest.approx(-0.39, rel=1e-12)


def test_monolithic_field_embedding():
    prob = lshape_desk()
    mono = problems.as_monolithic(prob)
    d1 = prob.fields[0].n_dims
    emb = mono.field_indices
    assert not emb[0].any()
    j1 = len(prob.fields[0].idx_set) - 1
    assert not emb[1 : 1 + j1, d1:].any()
    assert not emb[1 + j1 :, :d1].any()


def test_swap_subdomains_roundtrip():
    prob = lshape_desk()
    swapped = oracles.swap_subdomains(prob)
    assert swapped.sub[0] is prob.sub[1]
    assert swapped.config["field"]["d1"] == prob.config["field"]["d2"]
    back = oracles.swap_subdomains(swapped)
    assert oracles.config_json(back) == oracles.config_json(prob)
