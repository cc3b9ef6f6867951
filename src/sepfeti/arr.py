"""Alternating rank-update solver for the separated two-domain representation.

The solution of the coupled stochastic problem is sought as a low-rank sum

    u_i(x, xi) ~ sum_l  u_i[l] * phi1[l](xi_1) * phi2[l](xi_2),   i = 1, 2,

with the interface multiplier sharing the same stochastic factors. Each outer
sweep alternates three linear sub-problems: a deterministic update of the
spatial factors and the multiplier (a block saddle system handled by the
interface iteration or a direct solve), then one Galerkin update per germ for
the stochastic factors. The rank grows one factor pair at a time until a
Monte-Carlo estimate of the sub-domain equilibrium residual meets the target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .fem2d import ModeStack
from .feti import (
    SolverError,
    build_block_operators,
    build_interface_problem,
    direct_saddle_solve,
    galerkin_mode_matrices,
    mode_weights,
    pcpg_solve,
    recover_primal,
)
from .pc_basis import LEGENDRE, GalerkinStack, eval_multivariate_batch, family
from .problems import CoupledProblem

__all__ = [
    "ArrTrace",
    "RankRecord",
    "ResidualEstimate",
    "SeparatedSolution",
    "SweepRecord",
    "arr_run",
    "deterministic_update",
    "energy",
    "interface_violation",
    "normalize_factors",
    "residual_norm",
    "stochastic_update_phi1",
    "stochastic_update_phi2",
]


@dataclass
class SeparatedSolution:
    """Rank-r factor set for both sub-domain solutions and the multiplier.

    Rows of ``u1``/``u2``/``lam`` are deterministic factors; rows of ``phi1``
    and ``phi2`` hold PC coefficients of the stochastic factors on the germ
    of the respective sub-domain. All five arrays share the leading rank axis.
    """

    u1: np.ndarray
    u2: np.ndarray
    lam: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("u1", "u2", "lam", "phi1", "phi2"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), float)))
        ranks = {arr.shape[0] for arr in (self.u1, self.u2, self.lam, self.phi1, self.phi2)}
        if len(ranks) != 1:
            raise ValueError(f"factor counts disagree: {sorted(ranks)}")

    @property
    def rank(self) -> int:
        return self.u1.shape[0]

    @classmethod
    def zeros(cls, problem: CoupledProblem, rank: int) -> "SeparatedSolution":
        s1, s2 = problem.sub
        return cls(
            u1=np.zeros((rank, s1.n_dofs)),
            u2=np.zeros((rank, s2.n_dofs)),
            lam=np.zeros((rank, s1.n_interface)),
            phi1=np.zeros((rank, len(problem.idx_solution[0]))),
            phi2=np.zeros((rank, len(problem.idx_solution[1]))),
        )

    def copy(self) -> "SeparatedSolution":
        return SeparatedSolution(
            u1=self.u1.copy(), u2=self.u2.copy(), lam=self.lam.copy(),
            phi1=self.phi1.copy(), phi2=self.phi2.copy(),
        )

    def to_json(self) -> str:
        payload = {
            "rank": self.rank,
            "m1": self.u1.shape[1],
            "m2": self.u2.shape[1],
            "m_interface": self.lam.shape[1],
            "p1_terms": self.phi1.shape[1],
            "p2_terms": self.phi2.shape[1],
            "u1": self.u1.ravel().tolist(),
            "u2": self.u2.ravel().tolist(),
            "lam": self.lam.ravel().tolist(),
            "phi1": self.phi1.ravel().tolist(),
            "phi2": self.phi2.ravel().tolist(),
        }
        return json.dumps(payload, sort_keys=True)


@dataclass
class SweepRecord:
    """Energy bookkeeping for one sweep, including the mixed-factor values
    needed to check the saddle-iteration improvement guarantees."""

    rank: int
    sweep: int
    pi_before: float
    pi_u_new_lam_old: float
    pi_u_old_lam_new: float
    pi_after: float
    pcpg_iters: int
    interface_gap: float
    eps_res: float | None = None


@dataclass
class RankRecord:
    rank: int
    eps_res: float
    eps_res_se: float
    n_sweeps: int


@dataclass
class ArrTrace:
    sweeps: list[SweepRecord] = field(default_factory=list)
    ranks: list[RankRecord] = field(default_factory=list)
    converged: bool = False

    def to_csv(self) -> str:
        lines = ["sweep,r,pi,eps_res,pcpg_iters"]
        for k, s in enumerate(self.sweeps, start=1):
            eps = "" if s.eps_res is None else repr(s.eps_res)
            lines.append(f"{k},{s.rank},{s.pi_after!r},{eps},{s.pcpg_iters}")
        return "\n".join(lines) + "\n"


def energy(
    problem: CoupledProblem,
    solution: SeparatedSolution,
    *,
    ops=None,
    terms: bool = False,
) -> float | tuple[float, float]:
    """Value of the coupled variational functional at the separated factors.

    pi = sum_i E[ 1/2 u_i^T K_i u_i - u_i^T f_i ] + E[ lam^T (C2^T u2 - C1^T u1) ],
    with every expectation factorized into per-germ moment products, so the
    evaluation is exact for the polynomial factor representation. With
    ``terms``, the two parts, sum_i E[ ... ] and E[ lam^T ... ], are returned
    apart; the value is their sum.
    """
    if ops is None:
        ops = build_block_operators(
            problem, solution.phi1, solution.phi2, galerkin_mode_matrices(problem)
        )
    U1, U2, lam = solution.u1, solution.u2, solution.lam
    quad = sum(  # u . (Khat u) from the block values, without assembling Khat
        float(np.sum(U[:, m.rows] * np.einsum("lmp,mp->lp", V, U[:, m.indices])))
        for U, m, V in ((U1, ops.modes1, ops.V1), (U2, ops.modes2, ops.V2))
    )
    loads = float(ops.fw @ (U1 @ ops.f1)) + float(ops.fw @ (U2 @ ops.f2))
    primal = 0.5 * quad - loads
    coupling = _coupling(problem, ops, U1, U2, lam)
    return (primal, coupling) if terms else primal + coupling


def _coupling(problem: CoupledProblem, ops, U1: np.ndarray, U2: np.ndarray, lam: np.ndarray) -> float:
    """The coupling part E[ lam^T (C2^T u2 - C1^T u1) ] of ``energy``."""
    return float(np.sum(ops.W * (lam @ _interface_gap(problem, U1, U2).T)))


def interface_violation(problem: CoupledProblem, solution: SeparatedSolution) -> float:
    """Diagnostic E[ |C1^T u1 - C2^T u2|^2 ] of the separated representation.

    The stochastic factor updates treat the interface constraint as already
    satisfied per factor (which the preceding deterministic update enforces);
    this reports how much a subsequent factor change re-opened the gap.
    """
    W = (solution.phi1 @ solution.phi1.T) * (solution.phi2 @ solution.phi2.T)
    V = _interface_gap(problem, solution.u1, solution.u2)
    return float(np.sum(W * (V @ V.T)))


def _interface_gap(problem: CoupledProblem, U1: np.ndarray, U2: np.ndarray) -> np.ndarray:
    """Rows C2^T u2[l] - C1^T u1[l], gathered through the extractors' entries."""
    (dofs1, values1), (dofs2, values2) = (s.extractor_entries for s in problem.sub)
    return U2[:, dofs2] * values2 - U1[:, dofs1] * values1


_AUTO_DIRECT_LIMIT = 3000


def deterministic_update(
    problem: CoupledProblem,
    solution: SeparatedSolution,
    *,
    method: str = "auto",
    pcpg_eps: float = 1e-8,
    preconditioner: str = "stiffness",
    ops=None,
    info: dict | None = None,
) -> SeparatedSolution:
    """Solve the block saddle system for the spatial factors and multiplier.

    The stochastic factors stay frozen; only their expectation weights enter.
    ``method`` is "direct" (banded Cholesky of the multiplier-free primal
    system), "pcpg" (interface iteration with primal back-substitution), or
    "auto" (direct below a size threshold). ``info``, when given, receives the
    interface iteration count as ``pcpg_iters``.
    """
    if ops is None:
        ops = build_block_operators(
            problem, solution.phi1, solution.phi2, galerkin_mode_matrices(problem)
        )
    if method == "auto":
        size = solution.rank * (ops.M1 + ops.M2 + ops.M_I)
        method = "direct" if size <= _AUTO_DIRECT_LIMIT else "pcpg"
    if method == "direct":
        u1, u2, lam, _ = direct_saddle_solve(ops)
        iters = 0
    elif method == "pcpg":
        ip = build_interface_problem(ops, preconditioner=preconditioner)
        lam, trace = pcpg_solve(ip, eps=pcpg_eps)
        u1, u2, _ = recover_primal(ip, lam)
        iters = trace.n_iters
    else:
        raise ValueError(f"unknown deterministic update method {method!r}")
    if info is not None:
        info["pcpg_iters"] = iters
    return SeparatedSolution(
        u1=u1, u2=u2, lam=lam, phi1=solution.phi1.copy(), phi2=solution.phi2.copy()
    )


def _quadratic_forms(modes: ModeStack, U: np.ndarray) -> np.ndarray:
    """Q[j, l, m] = U[l] . K_j U[m] for every mode, as one product of the
    stacked mode values with the entrywise factor products."""
    r = U.shape[0]
    pairs = U[:, modes.rows][:, None, :] * U[None, :, modes.indices]
    return (pairs.reshape(r * r, -1) @ modes.data.T).T.reshape(-1, r, r)


def _factor_forms(
    problem: CoupledProblem, solution: SeparatedSolution
) -> tuple[np.ndarray, np.ndarray]:
    """The stacks Q(u1), Q(u2) both stochastic updates read. Neither update
    changes u1 or u2, so one pair serves a sweep's two updates."""
    s1, s2 = problem.sub
    return _quadratic_forms(s1.modes, solution.u1), _quadratic_forms(s2.modes, solution.u2)


def _factor_matrix(G: GalerkinStack, C: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The (r P, r P) matrix whose block (l, m) is sum_j C[j, l, m] G[j] +
    S[l, m] I, for (J, r, r) weights C: one sparse product over the stack's
    nonzeros, nnz r^2 operations."""
    J, r, _ = C.shape
    P = G.P
    # A[a, b, l, m] = sum_j G[j, a, b] C[j, l, m]
    A = (G.by_pair @ C.reshape(J, r * r)).reshape(P, P, r, r)
    diag = np.arange(P)
    A[diag, diag] += S
    return A.transpose(2, 0, 3, 1).reshape(r * P, r * P)


def _factor_update(
    Q_own: np.ndarray,
    U_own: np.ndarray,
    G_own: GalerkinStack,
    f_own: np.ndarray,
    Q_other: np.ndarray,
    U_other: np.ndarray,
    T_other: np.ndarray,
    phi_other: np.ndarray,
    f_other: np.ndarray,
) -> np.ndarray:
    """Galerkin update of one germ's stochastic factors (all else frozen).

    Minimizing the functional over the r factor vectors of one germ yields a
    symmetric positive-definite system of size r*P. The multiplier term is
    absent: the preceding deterministic update enforces interface continuity
    per factor (the coupling weights are nonsingular), and that property does
    not involve the factors being updated, so the coupling contribution
    vanishes identically in the unknowns. ``T_other`` holds the other germ's
    mode weights ``mode_weights(phi_other, G_other)``.
    """
    r = U_own.shape[0]
    A = _factor_matrix(
        G_own,
        Q_own * (phi_other @ phi_other.T),
        np.einsum("jlm,jlm->lm", Q_other, T_other),
    )
    b = np.zeros((r, G_own.P))
    b[:, 0] = (U_own @ f_own + U_other @ f_other) * phi_other[:, 0]
    try:
        x = sla.cho_solve(sla.cho_factor(A), b.ravel())
    except sla.LinAlgError:
        raise SolverError(
            "stochastic factor system is singular (degenerate deterministic "
            "factors); re-initialize the factors with a different seed"
        ) from None
    return x.reshape(b.shape)


def stochastic_update_phi1(
    problem: CoupledProblem,
    solution: SeparatedSolution,
    g_modes: tuple[GalerkinStack, GalerkinStack] | None = None,
    quad: tuple[np.ndarray, np.ndarray] | None = None,
    T_other: np.ndarray | None = None,
) -> np.ndarray:
    """Updated first-germ factor coefficients minimizing the functional.
    ``quad``, when given, holds the stacks Q(u1), Q(u2) of ``_factor_forms``,
    which a caller running both updates forms once; ``T_other``, when given,
    holds ``mode_weights(solution.phi2, g_modes[1])``, which block operators
    built from the same phi2 already hold as ``T2``."""
    if g_modes is None:
        g_modes = galerkin_mode_matrices(problem)
    if quad is None:
        quad = _factor_forms(problem, solution)
    if T_other is None:
        T_other = mode_weights(solution.phi2, g_modes[1])
    s1, s2 = problem.sub
    return _factor_update(
        quad[0], solution.u1, g_modes[0], s1.f,
        quad[1], solution.u2, T_other, solution.phi2, s2.f,
    )


def stochastic_update_phi2(
    problem: CoupledProblem,
    solution: SeparatedSolution,
    g_modes: tuple[GalerkinStack, GalerkinStack] | None = None,
    quad: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Updated second-germ factor coefficients minimizing the functional.
    ``quad``, when given, holds the stacks Q(u1), Q(u2) of ``_factor_forms``,
    which a caller running both updates forms once."""
    if g_modes is None:
        g_modes = galerkin_mode_matrices(problem)
    if quad is None:
        quad = _factor_forms(problem, solution)
    s1, s2 = problem.sub
    return _factor_update(
        quad[1], solution.u2, g_modes[1], s2.f,
        quad[0], solution.u1, mode_weights(solution.phi1, g_modes[0]), solution.phi1, s1.f,
    )


def normalize_factors(solution: SeparatedSolution) -> SeparatedSolution:
    """Rescale each stochastic factor pair to unit second moment.

    With orthonormal PC bases the second moment of a factor equals its
    coefficient-vector 2-norm squared. The removed scales fold into the
    deterministic and multiplier factors, so the represented random vectors
    are unchanged. Near-unit norms are snapped to one, making the operation
    idempotent.
    """
    n1 = np.linalg.norm(solution.phi1, axis=1)
    n2 = np.linalg.norm(solution.phi2, axis=1)
    if (n1 < 1e-150).any() or (n2 < 1e-150).any():
        raise SolverError("degenerate factor: zero-norm stochastic coefficients")
    snap = 64 * np.finfo(float).eps
    n1 = np.where(np.abs(n1 - 1.0) <= snap, 1.0, n1)
    n2 = np.where(np.abs(n2 - 1.0) <= snap, 1.0, n2)
    s = n1 * n2
    return SeparatedSolution(
        u1=solution.u1 * s[:, None],
        u2=solution.u2 * s[:, None],
        lam=solution.lam * s[:, None],
        phi1=solution.phi1 / n1[:, None],
        phi2=solution.phi2 / n2[:, None],
    )


@dataclass(frozen=True)
class ResidualEstimate:
    """Monte-Carlo estimate of the worst relative sub-domain residual."""

    value: float
    std_error: float
    n_samples: int
    per_domain: dict[int, tuple[float, float]]


def _sample_germs(problem: CoupledProblem, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    out = []
    for fld in problem.fields:
        if problem.family_kind == LEGENDRE:
            out.append(rng.uniform(-1.0, 1.0, (n, fld.n_dims)))
        else:
            out.append(rng.standard_normal((n, fld.n_dims)))
    return out[0], out[1]


def residual_norm(
    problem: CoupledProblem,
    solution: SeparatedSolution,
    n_samples: int = 10_000,
    seed=0,
    batch_size: int = 512,
) -> ResidualEstimate:
    """Relative equilibrium residual of the separated factors, by Monte Carlo.

    For each loaded sub-domain the residual R_i(xi) = f_i +/- C_i lam(xi)
    - K_i(xi_i) u_i(xi) (sign per the saddle convention: the first sub-domain
    receives the interface reaction with a plus) is evaluated sample-wise
    through the stiffness modes, without assembling K_i(xi_i). Reported is
    eps = max_i sqrt(E[|R_i|^2]) / |f_i| together with its MC standard error.
    Zero-load sub-domains are excluded: their relative residual is undefined.

    Every sample's residual lies in the span of k = 1 + r + J r fixed
    vectors, R_i(xi) = y(xi) B with y = [1, c, Psi (x) c] (c the r factor
    products, Psi the J field basis values) and the rows of B being f_i,
    +/- C_i lam_l and -K_j u_l. When k < M, B is replaced by the triangle of
    a thin QR of B^T, which keeps every |y B| and shortens each residual from
    M entries to k, so the samples cost n J r min(k, M) operations (plus
    M k^2 for the QR). A Gram form y (B B^T) y^T would be cheaper still,
    but it squares the cancellation in |R|^2 and puts the estimate at the
    exact solution near 1e-8 instead of rounding level.
    """
    loaded = [i for i, s in enumerate(problem.sub) if np.linalg.norm(s.f) > 0.0]
    if not loaded:
        raise ValueError(
            "every sub-domain has zero load; the relative residual is undefined"
        )
    n = int(n_samples)
    rng = np.random.default_rng(seed)
    fam = family(problem.family_kind)
    xi = _sample_germs(problem, n, rng)
    operators = {i: _residual_operator(problem, solution, i) for i in loaded}
    n_sol = [len(idx) for idx in problem.idx_solution]
    n_field = [len(fld.idx_set) for fld in problem.fields]
    # Germ g's solution and field index sets are graded prefixes of the
    # larger one, so one evaluation per germ gives both sets' values.
    bases = []
    for g in (0, 1):
        needed = [problem.idx_solution[g]]
        if g in operators:
            needed.append(problem.fields[g].idx_set)
        bases.append(max(needed, key=len))
    r = solution.rank
    sq = {i: np.empty(n) for i in loaded}
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        psi = [eval_multivariate_batch(fam, bases[g], xi[g][start:stop]) for g in (0, 1)]
        c = (psi[0][:, : n_sol[0]] @ solution.phi1.T) * (
            psi[1][:, : n_sol[1]] @ solution.phi2.T
        )
        for i, B in operators.items():
            y = np.empty((stop - start, 1 + r + n_field[i] * r))
            y[:, 0] = 1.0
            y[:, 1 : 1 + r] = c
            Z = psi[i][:, : n_field[i], None] * c[:, None, :]
            y[:, 1 + r :] = Z.reshape(stop - start, -1)
            R = y @ B
            sq[i][start:stop] = np.einsum("nm,nm->n", R, R)
    per: dict[int, tuple[float, float]] = {}
    for i in loaded:
        fnorm = float(np.linalg.norm(problem.sub[i].f))
        m = float(sq[i].mean())
        if m == 0.0:
            per[i] = (0.0, 0.0)
            continue
        se_m = float(sq[i].std(ddof=1)) / math.sqrt(n)
        per[i] = (math.sqrt(m) / fnorm, se_m / (2.0 * math.sqrt(m) * fnorm))
    worst = max(per, key=lambda i: per[i][0])
    return ResidualEstimate(
        value=per[worst][0],
        std_error=per[worst][1],
        n_samples=n,
        per_domain=per,
    )


def _residual_operator(
    problem: CoupledProblem, solution: SeparatedSolution, i: int
) -> np.ndarray:
    """B with R_i(xi) = y(xi) B (see ``residual_norm``), k rows of length M;
    when k < M, the k x k factor R^T of B^T = Q R instead, for which
    |y R^T| = |y B| for every y."""
    sub = problem.sub[i]
    U, sign = ((solution.u1, 1.0), (solution.u2, -1.0))[i]
    r, M = U.shape
    k = 1 + r + len(sub.K_modes) * r
    B = np.zeros((k, M))
    B[0] = sub.f
    dofs, values = sub.extractor_entries
    B[1 : 1 + r, dofs] = sign * (values * solution.lam)
    # One sparse product per mode: forming the rows from the stacked mode
    # data in one product needs a (J*r, nnz) intermediate and is slower.
    for j, K in enumerate(sub.K_modes):
        B[1 + r + j * r : 1 + r + (j + 1) * r] = -(K @ U.T).T
    if k >= M:
        return B
    # B^T is Fortran-ordered, so LAPACK factors it in place; mode="raw"
    # returns the k x k triangle, where mode="r" would pad it to M x k.
    _, tri = sla.qr(B.T, overwrite_a=True, mode="raw", check_finite=False)
    return tri.T


def _append_random_factor(problem: CoupledProblem, solution: SeparatedSolution, rng):
    """Warm start for the next rank: keep all factors, add one random pair."""
    s1, s2 = problem.sub
    phi1 = rng.standard_normal(len(problem.idx_solution[0]))
    phi2 = rng.standard_normal(len(problem.idx_solution[1]))
    phi1 /= np.linalg.norm(phi1)
    phi2 /= np.linalg.norm(phi2)
    return SeparatedSolution(
        u1=np.vstack([solution.u1, np.zeros((1, s1.n_dofs))]),
        u2=np.vstack([solution.u2, np.zeros((1, s2.n_dofs))]),
        lam=np.vstack([solution.lam, np.zeros((1, s1.n_interface))]),
        phi1=np.vstack([solution.phi1, phi1]),
        phi2=np.vstack([solution.phi2, phi2]),
    )


def arr_run(
    problem: CoupledProblem,
    eps: float | None = None,
    *,
    r_max: int | None = None,
    seed: int | None = None,
    n_mc_residual: int | None = None,
) -> tuple[SeparatedSolution, ArrTrace]:
    """Run the alternating rank-update algorithm to a residual target.

    Starting from rank one with seeded random unit-normalized stochastic
    factors, each sweep performs the deterministic update followed by the two
    stochastic factor updates and a normalization pass. Sweeps repeat until
    the relative energy change drops below ``solver.sweep_tol`` (or the
    ``solver.max_sweeps`` cap); the rank then grows by one warm-started random
    pair until the Monte-Carlo residual estimate meets ``eps`` or ``r_max`` is
    reached. Arguments left as None, and every other setting, come from the
    problem's resolved ``solver`` configuration.
    """
    cfg = problem.config["solver"]
    eps = float(cfg["eps"] if eps is None else eps)
    r_max = int(cfg["rank_max"] if r_max is None else r_max)
    seed = int(cfg["seed"] if seed is None else seed)
    n_mc_residual = int(cfg["n_mc_residual"] if n_mc_residual is None else n_mc_residual)
    tol_rank, max_sweeps = float(cfg["sweep_tol"]), int(cfg["max_sweeps"])
    if eps <= 0.0:
        raise ValueError("the residual target must be positive")

    g_modes = galerkin_mode_matrices(problem)
    rng = np.random.default_rng([seed, 0xA11])
    sol = SeparatedSolution.zeros(problem, rank=0)
    trace = ArrTrace()
    for r in range(1, r_max + 1):
        sol = _append_random_factor(problem, sol, rng)
        pi_prev = None
        n_sweeps = 0
        ops = build_block_operators(problem, sol.phi1, sol.phi2, g_modes)
        for sweep in range(1, max_sweeps + 1):
            n_sweeps = sweep
            # a later sweep starts from the last one's factors and operators
            if pi_prev is None:
                primal, coupling = energy(problem, sol, ops=ops, terms=True)
                pi_before = primal + coupling
            else:
                pi_before, primal = pi_prev, primal_prev
            info: dict = {}
            upd = deterministic_update(
                problem,
                sol,
                method=cfg["det_update"],
                pcpg_eps=float(cfg["pcpg_tol"]),
                preconditioner=cfg["preconditioner"],
                ops=ops,
                info=info,
            )
            pi_u_new = energy(
                problem,
                SeparatedSolution(
                    u1=upd.u1, u2=upd.u2, lam=sol.lam, phi1=sol.phi1, phi2=sol.phi2
                ),
                ops=ops,
            )
            # same factors and operators as pi_before: only the coupling changes
            pi_lam_new = primal + _coupling(problem, ops, sol.u1, sol.u2, upd.lam)
            sol = upd
            quad = _factor_forms(problem, sol)
            # phi2 is still the one the sweep's operators were built from
            sol.phi1[:] = stochastic_update_phi1(problem, sol, g_modes, quad, ops.T2)
            sol.phi2[:] = stochastic_update_phi2(problem, sol, g_modes, quad)
            sol = normalize_factors(sol)
            # the next sweep starts from these factors: its operators are these
            ops = build_block_operators(problem, sol.phi1, sol.phi2, g_modes)
            primal_after, coupling_after = energy(problem, sol, ops=ops, terms=True)
            pi_after = primal_after + coupling_after
            trace.sweeps.append(
                SweepRecord(
                    rank=r,
                    sweep=sweep,
                    pi_before=pi_before,
                    pi_u_new_lam_old=pi_u_new,
                    pi_u_old_lam_new=pi_lam_new,
                    pi_after=pi_after,
                    pcpg_iters=info["pcpg_iters"],
                    interface_gap=interface_violation(problem, sol),
                )
            )
            if pi_prev is not None and abs(pi_after - pi_prev) <= tol_rank * abs(
                pi_after
            ):
                break
            pi_prev, primal_prev = pi_after, primal_after
        est = residual_norm(
            problem, sol, n_samples=n_mc_residual, seed=[seed, 1000 + r]
        )
        trace.sweeps[-1].eps_res = est.value
        trace.ranks.append(
            RankRecord(
                rank=r,
                eps_res=est.value,
                eps_res_se=est.std_error,
                n_sweeps=n_sweeps,
            )
        )
        if est.value <= eps:
            trace.converged = True
            break
    return sol, trace
