"""Finite-element building blocks: meshes, assembly, loads, interface extraction."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from sepfeti import fem2d


def unit_square(h=0.5):
    return fem2d.build_rect_mesh((0.0, 1.0), (0.0, 1.0), h)


# ---------------------------------------------------------------------------
# meshes


def test_unit_square_counts():
    mesh = unit_square(0.5)
    assert mesh.n_nodes == 9
    assert mesh.triangles.shape[0] == 8


def test_non_divisible_h_rejected():
    with pytest.raises(fem2d.MeshError):
        fem2d.build_rect_mesh((0.0, 1.0), (0.0, 1.0), 0.3)


def test_positive_areas_and_conforming_sides():
    mesh = unit_square(0.25)
    _, _, area = fem2d._triangle_geometry(mesh)
    assert (area > 0).all()
    assert np.isclose(area.sum(), 1.0)
    assert len(mesh.nodes_on_side("left")) == 5
    assert len(mesh.side_edge_list("bottom")) == 4


def test_lshape_interface_node_count():
    # two rectangles overlapping on the segment [1,2] x {1}, h = 1/20
    m1 = fem2d.build_rect_mesh((0.0, 2.0), (0.0, 1.0), 1.0 / 20.0)
    m2 = fem2d.build_rect_mesh((1.0, 2.0), (1.0, 3.0), 1.0 / 20.0)
    ids1, ids2 = fem2d.interface_nodes(m1, m2)
    assert ids1.size == 21
    np.testing.assert_array_equal(m1.nodes[ids1], m2.nodes[ids2])


def test_beam_interface_dof_count():
    m1 = fem2d.build_rect_mesh((0.0, 2.5), (0.0, 1.0), 0.1)
    m2 = fem2d.build_rect_mesh((2.5, 5.0), (0.0, 1.0), 0.1)
    iface1, iface2, coords = fem2d.build_interface_extractors(
        m1, *fem2d.interface_nodes(m1, m2), ncomp=2
    )
    assert iface1.shape == iface2.shape == (22,)
    assert iface1.max() < 2 * m1.n_nodes and iface2.max() < 2 * m2.n_nodes
    assert coords.shape == (11, 2)


def test_nonconforming_interface_rejected():
    m1 = fem2d.build_rect_mesh((0.0, 1.0), (0.0, 1.0), 0.5)
    m2 = fem2d.build_rect_mesh((1.0, 2.0), (0.0, 1.0), 0.25)
    with pytest.raises(ValueError, match="unmatched"):
        fem2d.interface_nodes(m1, m2)


# ---------------------------------------------------------------------------
# diffusion assembly


def test_constant_null_space_pure_neumann():
    mesh = unit_square(0.25)
    K = fem2d.assemble_diffusion_mode(mesh, 1.0).views[0]
    assert np.abs(K @ np.ones(mesh.n_nodes)).max() < 1e-12


def test_linear_exactness_dirichlet_strip():
    # u = x is reproduced exactly by linear triangles for -u'' = 0
    mesh = unit_square(0.25)
    K = fem2d.assemble_diffusion_mode(mesh, 1.0).views[0]
    x = mesh.nodes[:, 0]
    left = mesh.nodes_on_side("left")
    right = mesh.nodes_on_side("right")
    fixed = np.concatenate([left, right])
    free = np.setdiff1d(np.arange(mesh.n_nodes), fixed)
    rhs = -K[free][:, fixed] @ x[fixed]
    u_free = spla.spsolve(K[free][:, free].tocsc(), rhs)
    np.testing.assert_allclose(u_free, x[free], atol=1e-12)


def test_coefficient_linearity():
    mesh = unit_square(0.5)
    K1 = fem2d.assemble_diffusion_mode(mesh, 1.0).views[0]
    K2 = fem2d.assemble_diffusion_mode(mesh, 2.0).views[0]
    np.testing.assert_allclose(K2.toarray(), 2.0 * K1.toarray(), atol=1e-14)


def test_mode_symmetry():
    mesh = unit_square(0.25)
    rng = np.random.default_rng(0)
    field = rng.uniform(0.5, 2.0, mesh.n_nodes)
    K = fem2d.assemble_diffusion_mode(mesh, field).views[0]
    assert abs(K - K.T).max() < 1e-12 * abs(K).max()


# ---------------------------------------------------------------------------
# elasticity assembly


def test_rigid_modes_in_null_space():
    mesh = unit_square(0.25)
    K = fem2d.assemble_elasticity_mode(mesh, 100.0, 0.3).views[0]
    R = fem2d.rigid_body_modes(mesh, ncomp=2)
    norm = abs(K).max()
    assert np.abs(K @ R).max() < 1e-10 * norm
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)


def test_rigid_mode_counts_via_svd():
    mesh = unit_square(0.5)
    K = fem2d.assemble_elasticity_mode(mesh, 1.0, 0.3).views[0].toarray()
    svals = np.linalg.svd(K, compute_uv=False)
    assert (svals < 1e-10 * svals[0]).sum() == 3
    Kd = fem2d.assemble_diffusion_mode(mesh, 1.0).views[0].toarray()
    svals = np.linalg.svd(Kd, compute_uv=False)
    assert (svals < 1e-10 * svals[0]).sum() == 1
    assert fem2d.rigid_body_modes(mesh, 1).shape == (mesh.n_nodes, 1)


def test_uniaxial_patch_hand_stress():
    # linear displacement u = (eps*x, 0): interior equilibrium and the
    # energy must match the hand-computed plane-strain stress state.
    mesh = unit_square(0.25)
    E, nu, eps = 200.0, 0.3, 1e-3
    K = fem2d.assemble_elasticity_mode(mesh, E, nu).views[0]
    u = np.zeros(2 * mesh.n_nodes)
    u[0::2] = eps * mesh.nodes[:, 0]
    r = K @ u
    boundary = set()
    for side in ("left", "right", "bottom", "top"):
        boundary.update(mesh.nodes_on_side(side).tolist())
    interior = [n for n in range(mesh.n_nodes) if n not in boundary]
    idofs = np.array([[2 * n, 2 * n + 1] for n in interior]).ravel()
    assert np.abs(r[idofs]).max() < 1e-10 * abs(K).max() * eps

    c = E / ((1 + nu) * (1 - 2 * nu))
    sxx = c * (1 - nu) * eps
    energy = sxx * eps * 1.0  # sigma : strain * area
    assert u @ (K @ u) == pytest.approx(energy, rel=1e-10)


def test_nu_out_of_range():
    mesh = unit_square(0.5)
    with pytest.raises(ValueError):
        fem2d.assemble_elasticity_mode(mesh, 1.0, 0.5)


# ---------------------------------------------------------------------------
# the mode stack of the built-in profiles

PROFILES = ["lshape-desk", "beam-desk", "lshape", "beam"]


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("profile", PROFILES)
def test_mode_stack_equals_take_assembly(profile_problem, profile, side, monkeypatch):
    # every sub-domain mesh of the four profiles, with its own coefficient
    # modes: the dead entries dropped from N before the product give the
    # pattern and the values of the product taken afterwards, bit for bit
    prob = profile_problem(profile)
    mesh, field = prob.sub[side].mesh, prob.fields[side]
    coeffs = field.coeff_fields.copy()
    coeffs[0] += field.shift
    stack = oracles.assemble_modes(prob, mesh, coeffs)
    monkeypatch.setattr(fem2d, "_stack_modes", oracles.take_stack_modes)
    ref = oracles.assemble_modes(prob, mesh, coeffs)
    assert stack.data.shape == ref.data.shape
    np.testing.assert_array_equal(stack.indptr, ref.indptr)
    np.testing.assert_array_equal(stack.indices, ref.indices)
    np.testing.assert_array_equal(stack.data, ref.data)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("profile", PROFILES)
def test_free_dof_stack_equals_restricted_full_stack(profile_problem, profile, side):
    # each sub-domain is assembled on its free dofs alone: bit for bit its
    # assembly on all dofs with the fixed rows and columns copied out after
    prob = profile_problem(profile)
    sub, nodes = prob.sub[side], prob.dirichlet_nodes[side]
    full = oracles.unreduced_subdomain(prob, side)
    ref = oracles.restrict_subdomain(full, nodes) if nodes.size else full
    for got, want in (
        (sub.modes.indptr, ref.modes.indptr),
        (sub.modes.indices, ref.modes.indices),
        (sub.modes.data, ref.modes.data),
        (sub.f, ref.f),
        (sub.iface, ref.iface),
        (sub.free_dofs, ref.free_dofs),
        (sub.R, ref.R),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert sub.floating == ref.floating == (nodes.size == 0)


@pytest.mark.parametrize("profile", PROFILES)
def test_mode_stack_data_c_contiguous(profile_problem, profile):
    for sub in profile_problem(profile).sub:
        data = sub.modes.data
        assert data.dtype == np.float64
        assert data.flags.c_contiguous


def test_zero_coefficient_keeps_pattern():
    # the pattern comes from the element matrices, not from the values
    mesh = unit_square(0.25)
    for assemble in (
        fem2d.assemble_diffusion_mode,
        lambda m, c: fem2d.assemble_elasticity_mode(m, c, 0.3),
    ):
        unit, zero = assemble(mesh, 1.0), assemble(mesh, 0.0)
        np.testing.assert_array_equal(zero.indptr, unit.indptr)
        np.testing.assert_array_equal(zero.indices, unit.indices)
        assert not zero.data.any()


# ---------------------------------------------------------------------------
# loads


def test_zero_body_load():
    mesh = unit_square(0.5)
    assert not fem2d.assemble_load(mesh, body=0.0).any()


def test_body_load_total():
    mesh = unit_square(0.25)
    f = fem2d.assemble_load(mesh, body=10.0)
    assert f.sum() == pytest.approx(10.0, rel=1e-12)


def test_traction_resultant():
    mesh = fem2d.build_rect_mesh((0.0, 5.0), (0.0, 1.0), 0.25)
    edges = mesh.side_edge_list("top")
    f = fem2d.assemble_load(
        mesh, traction=(0.0, -0.1), traction_edges=edges, ncomp=2
    )
    assert f[1::2].sum() == pytest.approx(-0.5, rel=1e-12)
    assert f[0::2].sum() == pytest.approx(0.0, abs=1e-15)


def test_traction_without_edges_rejected():
    mesh = unit_square(0.5)
    with pytest.raises(ValueError, match="tagged"):
        fem2d.assemble_load(mesh, traction=1.0, traction_edges=None)


def test_mass_matrix_total_area():
    mesh = unit_square(0.25)
    M = fem2d.mass_matrix(mesh)
    assert M.sum() == pytest.approx(1.0, rel=1e-12)
    ones = np.ones(mesh.n_nodes)
    assert ones @ (M @ ones) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Dirichlet elimination and extractors


def _two_square_problems(h=0.5, ncomp=1):
    m1 = fem2d.build_rect_mesh((0.0, 1.0), (0.0, 1.0), h)
    m2 = fem2d.build_rect_mesh((1.0, 2.0), (0.0, 1.0), h)
    iface1, iface2, _ = fem2d.build_interface_extractors(
        m1, *fem2d.interface_nodes(m1, m2), ncomp=ncomp
    )
    if ncomp == 1:
        K1 = fem2d.assemble_diffusion_mode(m1, 1.0)
        K2 = fem2d.assemble_diffusion_mode(m2, 1.0)
        f1 = fem2d.assemble_load(m1, body=1.0)
        f2 = fem2d.assemble_load(m2, body=1.0)
    else:
        K1 = fem2d.assemble_elasticity_mode(m1, 1.0, 0.3)
        K2 = fem2d.assemble_elasticity_mode(m2, 1.0, 0.3)
        f1 = np.zeros(2 * m1.n_nodes)
        f2 = np.zeros(2 * m2.n_nodes)
    p1 = fem2d.make_subdomain_problem(m1, ncomp, K1, f1, iface1)
    p2 = fem2d.make_subdomain_problem(m2, ncomp, K2, f2, iface2)
    return p1, p2


def test_extractor_identity_and_restriction():
    # the extractor's C^T C = I is checked with the interface invariants
    # (test_problems.py); here C^T u picks the matched nodes in coordinate order
    p1, p2 = _two_square_problems()
    rng = np.random.default_rng(3)
    u2 = rng.normal(size=p2.n_dofs)
    ids1, ids2 = fem2d.interface_nodes(p1.mesh, p2.mesh)
    order = np.lexsort((p1.mesh.nodes[ids1][:, 1], p1.mesh.nodes[ids1][:, 0]))
    np.testing.assert_allclose(oracles.extractor(p2).T @ u2, u2[ids2[order]])


def test_monolithic_restriction_is_continuous():
    # solve one Poisson problem on the union strip and restrict; the two
    # extractors must pick the same physical values
    p1, p2 = _two_square_problems(h=0.25)
    m1, m2 = p1.mesh, p2.mesh
    ids1, ids2 = fem2d.interface_nodes(m1, m2)
    n1 = m1.n_nodes
    glob2 = np.arange(m2.n_nodes) + n1
    merge2 = glob2.copy()
    merge2[ids2] = ids1
    n_glob = n1 + m2.n_nodes - ids2.size
    # compact renumbering
    used = np.unique(np.concatenate([np.arange(n1), merge2]))
    remap = {g: k for k, g in enumerate(used)}
    A = sp.lil_matrix((n_glob, n_glob))
    b = np.zeros(n_glob)
    for mesh, local2glob in ((m1, np.arange(n1)), (m2, merge2)):
        K = fem2d.assemble_diffusion_mode(mesh, 1.0).views[0].tocoo()
        gl = np.array([remap[g] for g in local2glob])
        A = A + sp.coo_matrix(
            (K.data, (gl[K.row], gl[K.col])), shape=(n_glob, n_glob)
        ).tolil()
        np.add.at(b, gl, fem2d.assemble_load(mesh, body=1.0))
    fixed = np.array([remap[g] for g in m1.nodes_on_side("left")])
    free = np.setdiff1d(np.arange(n_glob), fixed)
    u = np.zeros(n_glob)
    u[free] = spla.spsolve(A.tocsc()[free][:, free], b[free])
    u1 = u[[remap[g] for g in np.arange(n1)]]
    u2 = u[[remap[g] for g in merge2]]
    gap = oracles.extractor(p1).T @ u1 - oracles.extractor(p2).T @ u2
    assert np.abs(gap).max() < 1e-10


def _clamp(p, nodes):
    """``p`` with the dofs of ``nodes`` fixed: its unit-coefficient modes
    assembled on the free dofs of the Dirichlet dof map."""
    dof_map = fem2d.dirichlet_map(p.mesh, p.ncomp, nodes, p.iface)
    if p.ncomp == 1:
        modes = fem2d.assemble_diffusion_mode(p.mesh, 1.0, dof_map)
    else:
        modes = fem2d.assemble_elasticity_mode(p.mesh, 1.0, 0.3, dof_map)
    return fem2d.make_subdomain_problem(p.mesh, p.ncomp, modes, p.f, p.iface, dof_map)


def test_apply_dirichlet_clamps_and_unfloats():
    p1, _ = _two_square_problems(ncomp=2)
    clamped = _clamp(p1, p1.mesh.nodes_on_side("left"))
    assert not clamped.floating
    assert clamped.R.shape[1] == 0
    assert clamped.n_dofs == p1.n_dofs - 2 * len(p1.mesh.nodes_on_side("left"))
    # mean mode now positive definite
    np.linalg.cholesky(clamped.K_modes[0].toarray())


def test_apply_dirichlet_protects_interface():
    p1, _ = _two_square_problems()
    with pytest.raises(ValueError, match="interface"):
        _clamp(p1, p1.mesh.nodes_on_side("right"))


def test_apply_dirichlet_all_dofs_rejected():
    p1, _ = _two_square_problems()
    every = np.arange(p1.mesh.n_nodes)
    with pytest.raises(ValueError):
        _clamp(p1, every)


def test_subdomain_refuses_modes_off_its_free_dofs():
    p1, _ = _two_square_problems()
    dof_map = fem2d.dirichlet_map(p1.mesh, 1, p1.mesh.nodes_on_side("left"), p1.iface)
    with pytest.raises(ValueError, match="free dofs"):
        fem2d.make_subdomain_problem(p1.mesh, 1, p1.modes, p1.f, p1.iface, dof_map)


def test_unit_square_laplace_pd_after_dirichlet():
    mesh = unit_square(0.25)
    K = fem2d.assemble_diffusion_mode(mesh, 1.0)
    f = fem2d.assemble_load(mesh, body=1.0)
    prob = fem2d.make_subdomain_problem(mesh, 1, K, f, np.array([], dtype=np.intp))
    fixed = _clamp(prob, mesh.nodes_on_side("left"))
    np.linalg.cholesky(fixed.K_modes[0].toarray())


def test_mesh_export_format():
    mesh = unit_square(0.5)
    text = oracles.export_mesh(mesh)
    lines = text.strip().split("\n")
    assert lines[0] == "# nodes 9"
    assert lines[10] == "# triangles 8"
