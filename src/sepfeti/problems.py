"""Turn-key two-sub-domain model problems.

Two benchmark families are provided, each driven by a JSON-compatible
configuration dictionary:

* ``lshape`` — scalar diffusion on an L-shaped union of two rectangles with a
  shifted-lognormal diffusivity per sub-domain (independent Gaussian germs).
* ``beam`` — plane-strain cantilever split into two boxes with an affine
  Young's modulus per sub-domain (independent uniform germs); the outboard
  half is unconstrained and therefore floating.

``*-desk`` profiles are coarsened instances used by the acceptance suite.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np
import scipy.linalg

from . import fem2d, random_field
from .fem2d import Mesh, ModeStack, SparsePattern, SubdomainProblem
from .pc_basis import MultiIndexSet, build_index_set
from .random_field import AFFINE_UNIFORM, LOGNORMAL_SHIFTED, RandomFieldPC


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration entries."""


KIND_DIFFUSION = "diffusion"
KIND_ELASTICITY = "elasticity"

_SOLVER_DEFAULTS: dict[str, Any] = {
    "eps": 1e-2,
    "rank_max": 10,
    "sweep_tol": 1e-6,
    "max_sweeps": 50,
    "n_mc_residual": 10000,
    "seed": 12345,
    "det_update": "direct",
}

_LSHAPE_DEFAULT: dict[str, Any] = {
    "geometry": {
        "rects": [[[0.0, 2.0], [0.0, 1.0]], [[1.0, 2.0], [1.0, 3.0]]],
        "split": None,
    },
    "mesh": {"h1": 0.05, "h2": 0.05},
    "field": {
        "kind": LOGNORMAL_SHIFTED,
        "d1": 4,
        "d2": 6,
        "sigma1": 0.5,
        "sigma2": 0.5,
        "lc1": 2.0 / 3.0,
        "lc2": 1.0 / 3.0,
        "mean": 1.0,
        "shift": 0.28,
        "nu": None,
    },
    "pc": {"p1": 3, "p2": 3},
    "stats": {"probe_point": [1.0, 0.5]},
    "solver": dict(_SOLVER_DEFAULTS),
}

_BEAM_DEFAULT: dict[str, Any] = {
    "geometry": {"rects": [[[0.0, 5.0], [0.0, 1.0]]], "split": 2.5},
    "mesh": {"h1": 0.1, "h2": 0.1},
    "field": {
        "kind": AFFINE_UNIFORM,
        "d1": 9,
        "d2": 11,
        "sigma1": 35.0,
        "sigma2": 35.0,
        "lc1": 2.0 / 3.0,
        "lc2": 1.0 / 3.0,
        "mean": 100.0,
        "shift": 0.0,
        "nu": 0.3,
    },
    "pc": {"p1": 3, "p2": 3},
    "stats": {"probe_point": [5.0, 0.0]},
    "solver": dict(_SOLVER_DEFAULTS),
}

_PROFILES: dict[str, dict[str, Any]] = {
    "lshape": {},
    "lshape-desk": {
        "mesh": {"h1": 0.25, "h2": 0.25},
        "field": {"d1": 2, "d2": 2},
        "pc": {"p1": 2, "p2": 2},
    },
    "beam": {},
    "beam-desk": {
        "geometry": {"rects": [[[0.0, 4.0], [0.0, 1.0]]], "split": 2.0},
        "mesh": {"h1": 0.2, "h2": 0.2},
        "field": {"d1": 2, "d2": 2},
        "pc": {"p1": 2, "p2": 2},
        "stats": {"probe_point": [4.0, 0.0]},
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be a table")
            out[key] = _merge(out[key], value, where)
        else:
            out[key] = value
    return out


def profile_config(name: str) -> dict[str, Any]:
    """Fully-resolved config for a named profile."""
    if name not in _PROFILES:
        raise ConfigError(
            f"unknown profile {name!r}; choose from {sorted(_PROFILES)}"
        )
    base = _LSHAPE_DEFAULT if name.startswith("lshape") else _BEAM_DEFAULT
    return _merge(base, _PROFILES[name])


def _validate(config: dict[str, Any]) -> None:
    geo, mesh, fld, pc = (
        config["geometry"],
        config["mesh"],
        config["field"],
        config["pc"],
    )
    rects = geo["rects"]
    if len(rects) not in (1, 2):
        raise ConfigError("geometry.rects must list one or two rectangles")
    if len(rects) == 1 and geo["split"] is None:
        raise ConfigError("geometry.split required with a single rectangle")
    for h_key in ("h1", "h2"):
        if not mesh[h_key] > 0:
            raise ConfigError(f"mesh.{h_key} must be positive")
    if fld["kind"] not in (LOGNORMAL_SHIFTED, AFFINE_UNIFORM):
        raise ConfigError(f"unknown field.kind {fld['kind']!r}")
    for key in ("d1", "d2"):
        if int(fld[key]) < 1:
            raise ConfigError(f"field.{key} must be >= 1")
    for key in ("sigma1", "sigma2"):
        if fld[key] < 0:
            raise ConfigError(f"field.{key} must be >= 0")
    for key in ("lc1", "lc2"):
        if not fld[key] > 0:
            raise ConfigError(f"field.{key} must be positive")
    if fld["kind"] == AFFINE_UNIFORM:
        nu = fld["nu"]
        if nu is None or not 0.0 < nu < 0.5:
            raise ConfigError("field.nu must lie in (0, 0.5)")
    for key in ("p1", "p2"):
        if int(pc[key]) < 1:
            raise ConfigError(f"pc.{key} must be >= 1")
    check_solver_settings(config["solver"])
    route = config["solver"]["det_update"]
    if route not in ("direct", "pcpg"):
        raise ConfigError(f'solver.det_update must be "direct" or "pcpg", not {route!r}')


def check_solver_settings(solver: dict[str, Any]) -> None:
    """Refuse rank or sweep caps below 1 and fewer than two residual samples."""
    for key, low in (("rank_max", 1), ("max_sweeps", 1), ("n_mc_residual", 2)):
        if int(solver[key]) < low:
            raise ConfigError(f"solver.{key} must be >= {low}, not {solver[key]}")


def _two_rects(config: dict[str, Any]) -> list[tuple[tuple, tuple]]:
    rects = config["geometry"]["rects"]
    if len(rects) == 2:
        return [
            ((r[0][0], r[0][1]), (r[1][0], r[1][1])) for r in rects
        ]
    (x0, x1), (y0, y1) = rects[0]
    split = config["geometry"]["split"]
    if not x0 < split < x1:
        raise ConfigError("geometry.split must fall inside the rectangle")
    return [((x0, split), (y0, y1)), ((split, x1), (y0, y1))]


@dataclass(frozen=True)
class CoupledProblem:
    """Two coupled sub-domain problems plus their stochastic metadata.

    ``sub`` holds the reduced (post-Dirichlet) problems used by the solvers;
    ``f_full`` keeps each sub-domain's load before Dirichlet elimination, the
    whole applied load. ``dirichlet_nodes`` are each
    side's fixed nodes: a shared node that either side's wall holds is
    fixed on both and is no interface node. Factors of the separated
    representation for germ i live in the span of ``idx_solution[i]``.
    """

    kind: str
    ncomp: int
    sub: tuple[SubdomainProblem, SubdomainProblem]
    f_full: tuple[np.ndarray, np.ndarray]
    dirichlet_nodes: tuple[np.ndarray, np.ndarray]
    fields: tuple[RandomFieldPC, RandomFieldPC]
    idx_solution: tuple[MultiIndexSet, MultiIndexSet]
    interface_coords: np.ndarray
    config: dict[str, Any]

    @property
    def family_kind(self) -> str:
        return self.fields[0].family_kind

    @cached_property
    def merge_map(self) -> np.ndarray:
        """The sub-domains merged along the interface, the one merge of the
        direct route and both oracles: side-1 dof i is merged dof i, and
        side-2 dof a is merged dof ``merge_map[a]``. Continuity
        C1^T u1 = C2^T u2 makes side-2 interface dof iface2[k] its side-1
        partner iface1[k]; side 2's other dofs follow side 1's in order."""
        s1, s2 = self.sub
        dof2 = np.full(s2.n_dofs, -1, dtype=np.intp)
        dof2[s2.iface] = s1.iface
        fresh = np.flatnonzero(dof2 < 0)
        dof2[fresh] = s1.n_dofs + np.arange(fresh.size)
        return dof2

    @cached_property
    def merged_load(self) -> np.ndarray:
        """The load on the merged dofs of ``merge_map``: both sides' summed."""
        s1, s2 = self.sub
        f = np.bincount(self.merge_map, weights=s2.f, minlength=s1.n_dofs)
        f[: s1.n_dofs] += s1.f
        return f

    @cached_property
    def primal_layout(self) -> "PrimalLayout":
        """The band of the merged dofs (``feti.direct_saddle_solve``)."""
        return primal_layout([_whole(self.sub[0]), (self.sub[1].modes, self.merge_map)])

    @cached_property
    def local_layouts(self) -> tuple["PrimalLayout", "PrimalLayout"]:
        """Each sub-domain on a band of its own (the local solves of PCPG); a
        floating side 2 drops its pins, the dofs on which R2 is best
        conditioned (a pivoted QR of R2^T), which leaves its blocks nonsingular."""
        s1, s2 = self.sub
        dof2 = np.arange(s2.n_dofs)
        if s2.floating:
            pins = scipy.linalg.qr(s2.R.T, pivoting=True)[2][: s2.R.shape[1]]
            dof2 = np.cumsum(~np.isin(dof2, pins)) - 1
            dof2[pins] = -1
        return primal_layout([_whole(s1)]), primal_layout([(s2.modes, dof2)])


@dataclass(frozen=True)
class PrimalLayout:
    """The stiffness modes of one or more sides on one symmetric band of n
    dofs, the rank-independent part of a banded solve (``feti._band_positions``).

    Side s puts its dof a on band dof ``maps[s][a]``; a dof mapped to -1 is
    dropped with its row and column. ``perm``/``inv`` are a reverse
    Cuthill-McKee ordering of the band dofs, b the half-bandwidth of the
    ordered pattern. ``upper[s]`` picks side s's stored entries (a, b) on or
    above the diagonal, as ``(strict, diag)``: ``(entries, inv of a, inv of
    b)`` off the diagonal and ``(entries, inv of a)`` on it; side s stores
    ``nnz[s]`` entries.
    """

    n: int
    b: int
    perm: np.ndarray
    inv: np.ndarray
    maps: tuple[np.ndarray, ...]
    upper: tuple[tuple, ...]
    nnz: tuple[int, ...]


def _whole(sub: SubdomainProblem) -> tuple[ModeStack, np.ndarray]:
    """A sub-domain as a side of a band with all its dofs."""
    return sub.modes, np.arange(sub.n_dofs)


def primal_layout(sides: list[tuple[ModeStack, np.ndarray]]) -> PrimalLayout:
    """Band layout of the sides (stiffness modes, dof map)."""
    maps = tuple(dmap for _, dmap in sides)
    n = 1 + max(int(dmap.max()) for dmap in maps)
    kept = []
    for modes, dmap in sides:
        i, j = dmap[modes.rows], dmap[modes.indices]
        e = np.flatnonzero((i >= 0) & (j >= 0))
        kept.append((e, i[e], j[e]))
    perm, inv, b = fem2d.band_ordering(
        n, np.concatenate([i for _, i, _ in kept]), np.concatenate([j for _, _, j in kept])
    )
    upper = []
    for e, i, j in kept:
        i, j = inv[i], inv[j]
        strict, diag = np.flatnonzero(i < j), np.flatnonzero(i == j)
        upper.append(((e[strict], i[strict], j[strict]), (e[diag], i[diag])))
    nnz = tuple(modes.indices.size for modes, _ in sides)
    return PrimalLayout(n=n, b=b, perm=perm, inv=inv, maps=maps, upper=tuple(upper), nnz=nnz)


def _build_field(
    mesh: Mesh, config: dict[str, Any], side: int
) -> RandomFieldPC:
    fld = config["field"]
    kernel = random_field.GaussianKernel(
        sigma=float(fld[f"sigma{side}"]),
        corr_len=float(fld[f"lc{side}"]),
        domain=f"D{side}",
    )
    kl = random_field.discretize_kl(kernel, mesh, int(fld[f"d{side}"]))
    p = int(config["pc"][f"p{side}"])
    if fld["kind"] == LOGNORMAL_SHIFTED:
        return random_field.lognormal_pc_coefficients(
            kl, mean_log=float(fld["mean"]), shift=float(fld["shift"]), order=2 * p
        )
    return random_field.affine_uniform_field(kl, mean=float(fld["mean"]))


def _assemble_modes(
    mesh: Mesh, pc_field: RandomFieldPC, kind: str, nu: float | None, dof_map: np.ndarray
) -> ModeStack:
    """One stiffness mode per field coefficient, all in one call, on the free
    dofs of ``dof_map``; the constant shift is folded into the mean (index-0)
    mode since psi_0 = 1."""
    coeffs = pc_field.coeff_fields.copy()
    coeffs[0] += pc_field.shift
    if kind == KIND_DIFFUSION:
        return fem2d.assemble_diffusion_mode(mesh, coeffs, dof_map)
    return fem2d.assemble_elasticity_mode(mesh, coeffs, nu, dof_map)


def _finish(
    kind: str,
    ncomp: int,
    meshes: list[Mesh],
    fields: list[RandomFieldPC],
    loads: list[np.ndarray],
    dirichlet: list[np.ndarray],
    config: dict[str, Any],
) -> CoupledProblem:
    nu = config["field"]["nu"]
    ids1, ids2 = fem2d.interface_nodes(meshes[0], meshes[1])
    # a shared node that either side's wall holds is fixed on both sides
    fixed = np.isin(ids1, dirichlet[0]) | np.isin(ids2, dirichlet[1])
    dirichlet = [np.union1d(dn, ids[fixed]) for dn, ids in zip(dirichlet, (ids1, ids2))]
    iface1, iface2, coords = fem2d.build_interface_extractors(
        meshes[0], ids1[~fixed], ids2[~fixed], ncomp
    )
    reduced = []
    for mesh, pc_field, f, iface, dn in zip(meshes, fields, loads, (iface1, iface2), dirichlet):
        dof_map = fem2d.dirichlet_map(mesh, ncomp, dn, iface)
        modes = _assemble_modes(mesh, pc_field, kind, nu, dof_map)
        reduced.append(fem2d.make_subdomain_problem(mesh, ncomp, modes, f, iface, dof_map))
    idx = (
        build_index_set(fields[0].n_dims, int(config["pc"]["p1"])),
        build_index_set(fields[1].n_dims, int(config["pc"]["p2"])),
    )
    return CoupledProblem(
        kind=kind,
        ncomp=ncomp,
        sub=(reduced[0], reduced[1]),
        f_full=(loads[0], loads[1]),
        dirichlet_nodes=(dirichlet[0], dirichlet[1]),
        fields=(fields[0], fields[1]),
        idx_solution=idx,
        interface_coords=coords,
        config=copy.deepcopy(config),
    )


def build_example_I(config: dict[str, Any] | None = None) -> CoupledProblem:
    """L-shaped diffusion: unit body load on the first box, homogeneous
    Dirichlet walls on the far edges, lognormal diffusivity."""
    cfg = _merge(_LSHAPE_DEFAULT, config or {})
    if cfg["field"]["kind"] != LOGNORMAL_SHIFTED:
        raise ConfigError("diffusion example requires field.kind lognormal-shifted")
    _validate(cfg)
    rects = _two_rects(cfg)
    h = (float(cfg["mesh"]["h1"]), float(cfg["mesh"]["h2"]))
    meshes = [fem2d.build_rect_mesh(*rects[i], h[i]) for i in range(2)]
    fields = [_build_field(meshes[i], cfg, i + 1) for i in range(2)]
    loads = [
        fem2d.assemble_load(meshes[0], body=10.0),
        np.zeros(meshes[1].n_nodes),
    ]
    dirichlet = [m.nodes_on_side("right") for m in meshes]
    return _finish(KIND_DIFFUSION, 1, meshes, fields, loads, dirichlet, cfg)


def build_example_II(config: dict[str, Any] | None = None) -> CoupledProblem:
    """Cantilever in plane strain: clamped at the left wall, downward
    traction on the whole top edge, affine-uniform Young's modulus; the
    outboard sub-domain floats."""
    cfg = _merge(_BEAM_DEFAULT, config or {})
    if cfg["field"]["kind"] != AFFINE_UNIFORM:
        raise ConfigError("beam example requires field.kind affine-uniform")
    _validate(cfg)
    rects = _two_rects(cfg)
    h = (float(cfg["mesh"]["h1"]), float(cfg["mesh"]["h2"]))
    meshes = [fem2d.build_rect_mesh(*rects[i], h[i]) for i in range(2)]
    fields = [_build_field(meshes[i], cfg, i + 1) for i in range(2)]
    loads = [
        fem2d.assemble_load(
            m,
            traction=(0.0, -0.1),
            traction_edges=m.side_edge_list("top"),
            ncomp=2,
        )
        for m in meshes
    ]
    dirichlet = [meshes[0].nodes_on_side("left"), np.array([], dtype=np.intp)]
    return _finish(KIND_ELASTICITY, 2, meshes, fields, loads, dirichlet, cfg)


def build_from_config(config: dict[str, Any]) -> CoupledProblem:
    """Dispatch on field.kind; configs must be fully resolved or partial
    overlays of the matching example."""
    kind = (config.get("field") or {}).get("kind", LOGNORMAL_SHIFTED)
    if kind == AFFINE_UNIFORM:
        return build_example_II(config)
    return build_example_I(config)


@dataclass(frozen=True, eq=False)
class MergedModes(SparsePattern):
    """Stiffness modes of the merged problem, kept as the sub-domains' stacks.

    Nothing is copied: ``positions[i]`` places each stored entry of side i's
    reduced stack in the merged pattern, and ``columns[i]`` gives the merged
    mode of each of side i's modes (both mean modes are merged mode 0).
    """

    sides: tuple[ModeStack, ModeStack]
    positions: tuple[np.ndarray, np.ndarray]
    columns: tuple[np.ndarray, np.ndarray]

    def contract(self, weights: np.ndarray) -> np.ndarray:
        """Rows of ``weights`` (k, J) applied to the J merged modes."""
        out = np.zeros((self.indices.size, weights.shape[0]))
        for stack, pos, cols in zip(self.sides, self.positions, self.columns):
            out[pos] += stack.basis.T @ stack.nodal(weights[:, cols]).T  # scatter whole rows
        return np.ascontiguousarray(out.T)


@dataclass(frozen=True)
class MonolithicProblem:
    """Single-domain view of a coupled problem on the merged mesh.

    ``field_indices`` are multi-indices over the combined germ (d1 + d2
    entries); the merged modes in ``modes`` align with its rows.
    ``restrict1``/``restrict2`` map a sub-domain's free dofs into the
    monolithic free-dof vector.
    """

    family_kind: str
    d1: int
    d2: int
    field_indices: np.ndarray
    modes: MergedModes
    f: np.ndarray
    n_free: int
    restrict1: np.ndarray
    restrict2: np.ndarray


def as_monolithic(problem: CoupledProblem) -> MonolithicProblem:
    """Merge the two sub-domains into one conforming problem on the merged
    dofs of ``CoupledProblem.merge_map``, the direct route's: side 1's dofs
    keep their numbers and side 2's are read off the interface dof lists.

    Stiffness modes of each sub-domain are placed on the merged pattern
    (``MergedModes``, no copy) and tagged with their multi-index embedded
    into the combined germ (the other germ's block padded with zeros); the
    two mean modes combine.
    """
    sides = (problem.sub[0].modes, problem.sub[1].modes)
    d1, d2 = problem.fields[0].n_dims, problem.fields[1].n_dims
    idx1 = problem.fields[0].idx_set.indices
    idx2 = problem.fields[1].idx_set.indices
    field_indices = np.vstack(
        [
            np.pad(idx1, ((0, 0), (0, d2))),
            np.pad(idx2[1:], ((0, 0), (d1, 0))),
        ]
    )
    f = problem.merged_load
    n_free = f.size
    restrict = (np.arange(problem.sub[0].n_dofs), problem.merge_map)
    keys = [
        res[stack.rows].astype(np.int64) * n_free + res[stack.indices]
        for stack, res in zip(sides, restrict)
    ]
    merged = np.unique(np.concatenate(keys))
    rows, cols = np.divmod(merged, n_free)
    J1 = idx1.shape[0]
    modes = MergedModes(
        indptr=np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_free))]),
        indices=cols,
        sides=sides,
        positions=(np.searchsorted(merged, keys[0]), np.searchsorted(merged, keys[1])),
        columns=(np.arange(J1), np.append(0, J1 + np.arange(idx2.shape[0] - 1))),
    )

    return MonolithicProblem(
        family_kind=problem.family_kind,
        d1=d1,
        d2=d2,
        field_indices=field_indices,
        modes=modes,
        f=f,
        n_free=n_free,
        restrict1=restrict[0],
        restrict2=restrict[1],
    )
