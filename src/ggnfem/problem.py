"""The concrete parameter-identification problem.

Model PDE on the unit square with homogeneous Dirichlet data:

    -lap(u) + zeta * u^3 = q,

encoded as A(q, u) = f with f = 0 and

    A(q, u)(phi) = (grad u, grad phi) + zeta (u^3, phi) - (q, phi),

so the parameter derivative A'_q = -(mass) is constant and the state
derivative is A'_u = -lap + 3 zeta u^2.

Observations are either point evaluations at a uniform interior lattice
(G = R^n with the Euclidean product) or the identity into L^2 with data
restricted between nested meshes by L^2-projection, assembled from a
table of the data's cell moments.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import Field, Space, interpolate_onto, qspace, vspace
from .mesh import uniform_mesh

__all__ = [
    "ModelProblem",
    "PointObs",
    "L2Obs",
    "SyntheticCase",
    "NoisyData",
    "ForwardSolveError",
    "synthetic_case",
    "semilinear_residual",
    "solve_forward",
    "simulate_data",
    "restrict_data",
    "save_data_bundle",
]


@dataclass(frozen=True)
class ModelProblem:
    """Nonlinearity strength of the semilinear model; f = 0 throughout."""

    zeta: float = 100.0

    def __post_init__(self):
        if not (np.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError(f"need a finite zeta >= 0, got {self.zeta}")


class ForwardSolveError(fem.SolverError):
    reason = "forward-failure"

    def __init__(self, msg, residual_norm):
        super().__init__(f"{msg} (last residual dual norm {residual_norm:.3e})")
        self.residual_norm = residual_norm


class RestrictionError(fem.SolverError):
    reason = "restriction-failure"


# ---------------------------------------------------------------------------
# observation operators
#
# Each kind owns every step that depends on it: C from V coefficients to
# the data space, its Gram weight G (misfit m' G m; C*C = C' G C), the data
# vector g on a mesh (``restrict``), a state's misfit and the DWR pairing
# (g, C w)_G per cell (the L^2 ones by ``fem``'s cell quadrature), the
# noise draw, the bundle files, and whether C*C is M_V.


class PointObs:
    """Point functionals at an n x n interior lattice; G = R^(n*n)."""

    kind = "point"
    normal_is_mass = False  # C*C has rank at most n_obs

    def __init__(self, n_side: int = 9):
        if n_side < 1:
            raise ValueError(f"need n_side >= 1, got {n_side}")
        t = np.arange(1, n_side + 1) / (n_side + 1)
        gx, gy = np.meshgrid(t, t, indexing="ij")
        self.points = np.column_stack([gx.ravel(), gy.ravel()])

    @property
    def n_obs(self) -> int:
        return len(self.points)

    def matrix(self, space: Space) -> sp.csr_matrix:
        """Sparse evaluation matrix C with (C v)_i = v_h(xi_i)."""
        return fem.point_matrix(space, self.points)

    def gram(self, Q: Space, m: np.ndarray) -> np.ndarray:
        return m  # the Euclidean product

    def restrict(self, data: "NoisyData", mesh) -> np.ndarray:
        return data.g_delta

    def observe(self, u: Field) -> np.ndarray:
        cids, locs = fem.point_locations(u.mesh, self.points)
        return fem.bilinear(u.full_values()[u.mesh.cell_corners[cids]], locs)

    def misfit_sq(self, u: Field, g: np.ndarray) -> float:
        d = self.observe(u) - g
        return float(d @ d)

    def pair_cells(self, mesh, gvec: np.ndarray, weight) -> np.ndarray:
        """Each point's g_i w(xi_i) lands in the cell that contains it."""
        out = np.zeros(mesh.n_cells)
        cids, w, _ = weight.at_points(self.points)
        np.add.at(out, cids, gvec * w)
        return out

    def perturb(self, g: np.ndarray, p: float, rng):
        """Componentwise uniform noise scaled by p max|g|; (g_delta, delta)
        with delta the Euclidean norm of the drawn perturbation."""
        g_delta = g + rng.uniform(-1.0, 1.0, self.n_obs) * (p * np.abs(g).max())
        return g_delta, float(np.linalg.norm(g_delta - g))

    def save(self, data: "NoisyData", outdir: str) -> None:
        with open(os.path.join(outdir, "observations.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "x", "y", "g", "g_delta"])
            for i, (p, gi, gd) in enumerate(zip(self.points, data.g,
                                                data.g_delta)):
                w.writerow([i, f"{p[0]:.16g}", f"{p[1]:.16g}",
                            f"{gi:.16g}", f"{gd:.16g}"])


class L2Obs:
    """Identity observation into L^2; data live on the simulation mesh.

    C is the inclusion of V into Q, G the Q mass matrix, and C*C = M_V
    exactly; data are L^2-projected onto the solver mesh's Q space.
    """

    kind = "l2"
    normal_is_mass = True  # C*C is M_V itself, entry for entry

    def matrix(self, space: Space) -> sp.csr_matrix:
        return fem.v_to_q(space.mesh)

    def gram(self, Q: Space, m: np.ndarray) -> np.ndarray:
        return Q.mass() @ m

    def restrict(self, data: "NoisyData", mesh) -> np.ndarray:
        return restrict_data(data, qspace(mesh)).coeffs

    def observe(self, u: Field) -> Field:
        # State as an L^2 element on its own mesh (boundary values zero).
        q = qspace(u.mesh)
        return Field(q, u.full_values()[q.free])

    def misfit_sq(self, u: Field, g: np.ndarray) -> float:
        """|u - g|_L2^2 by quadrature on u's cells, g on u's Q space."""
        uq, gq = map(fem._weighted_values, (u, Field(qspace(u.mesh), g)))
        return float(fem._weighted_integrals(u.mesh, (uq - gq) ** 2).sum())

    def pair_cells(self, mesh, gvec: np.ndarray, weight) -> np.ndarray:
        """(g, w)_L2 per cell by quadrature, g a vector on mesh's Q."""
        gq = fem._weighted_values(Field(qspace(mesh), gvec))
        return fem._weighted_integrals(mesh, gq * weight.vals)

    def perturb(self, g: Field, p: float, rng):
        """g + p |g| r / |r| with iid uniform nodal r; (g_delta, delta).
        The norms are ``Field.norm_l2``, which assembles no mass matrix
        on the simulation mesh."""
        r = rng.uniform(-1.0, 1.0, g.space.dim)
        scale = p * g.norm_l2() / Field(g.space, r).norm_l2()
        g_delta = Field(g.space, g.coeffs + scale * r)
        return g_delta, Field(g.space, g_delta.coeffs - g.coeffs).norm_l2()

    def save(self, data: "NoisyData", outdir: str) -> None:
        fem.write_field_vtk(data.g_delta, os.path.join(outdir, "g_delta.vtk"),
                            name="g_delta")
        fem.write_field_csv(data.g_delta, os.path.join(outdir, "g_delta.csv"))


@dataclass
class SyntheticCase:
    """Closed-form exact source, one of the labels 'a', 'b', 'c'."""

    label: str
    source: object  # vectorized callable (x, y) -> q

    def __call__(self, x, y):
        return self.source(x, y)


def _gaussian(c, mu, sigma, s):
    def g(x, y):
        ax = (s * x - mu) / sigma
        ay = (s * y - mu) / sigma
        return c / (2 * np.pi * sigma**2) * np.exp(-0.5 * (ax**2 + ay**2))

    return g


def synthetic_case(label: str) -> SyntheticCase:
    if label == "a":
        return SyntheticCase("a", _gaussian(10.0, 0.5, 0.1, 2.0))
    if label == "b":
        g1 = _gaussian(1.0, 0.5, 0.1, 2.0)
        g2 = _gaussian(1.0, 0.5, 0.1, 0.8)
        return SyntheticCase("b", lambda x, y: g1(x, y) + g2(x, y))
    if label == "c":
        return SyntheticCase("c", lambda x, y: np.where(x < 0.5, 1.0, 0.0))
    raise ValueError(f"unknown case {label!r}")


# ---------------------------------------------------------------------------
# semilinear operator and forward solve


def semilinear_residual(problem: ModelProblem, q: Field, u: Field, space: Space) -> np.ndarray:
    """Functional phi -> (grad u, grad phi) + zeta (u^3, phi) - (q, phi).

    q and u may live on coarser nested meshes; evaluation is exact.
    """
    if space.kind != "V":
        raise ValueError("the state residual is a functional on the V space")
    uh = interpolate_onto(u, space.mesh)
    out = space.stiffness() @ uh.coeffs
    if problem.zeta:
        out = out + problem.zeta * _cubic_term(space, uh)
    return out - fem.assemble_functional(space, interpolate_onto(q, space.mesh))


def _cubic_term(space: Space, u: Field) -> np.ndarray:
    """(u^3, phi_i) by same-mesh quadrature (exact), kept in u's context."""
    return fem._cached(u, ("cubic", space.kind), lambda: fem._load_vector(
        space, fem._weighted_cubes(u)))


def linearized_state_operator(problem: ModelProblem, space: Space, u_base: Field) -> sp.csr_matrix:
    """A'_u at u_base: stiffness + 3 zeta (u_base^2 . , .).

    Both terms come from the space's assembly plan, so the data of the fresh
    weighted mass take the sum; the pattern stays fixed even where the
    weight vanishes (a sparse + would drop those entries).
    """
    K = space.stiffness()
    if not problem.zeta:
        return K
    J = fem.assemble_weighted_mass(space, u_base)
    J.data *= 3.0 * problem.zeta
    J.data += K.data
    return J


class _Assembled:
    """The forward operators of a V space, assembled on its mesh: K, the
    load (q, phi), the cubic term, the Jacobian (a fresh matrix per Newton
    step) and K^-1, one ``symmetric_lu`` factorization per mesh."""

    def __init__(self, problem: ModelProblem, space: Space):
        self.problem, self.space = problem, space
        self.K = space.stiffness()
        self.solver = space.stiffness_solver()

    def load(self, q: Field) -> np.ndarray:
        return fem.assemble_functional(self.space,
                                       interpolate_onto(q, self.space.mesh))

    def cubic(self, u: Field) -> np.ndarray:
        return _cubic_term(self.space, u)

    def jacobian(self, u: Field):
        return linearized_state_operator(self.problem, self.space, u)


class _GridForward:
    """The same operators on the V space of the uniform mesh of a level in
    grid form (``fem``): stencils and cell scatters on the vertex grid,
    K^-1 by sine transforms; nothing is assembled.  Fields must live on
    that mesh."""

    K = fem._GRID_STIFFNESS

    def __init__(self, problem: ModelProblem, level: int):
        self.zeta = problem.zeta
        self.solver = fem._SineSolver(level)

    def load(self, q: Field) -> np.ndarray:
        return fem._grid_functional(q)

    def cubic(self, u: Field) -> np.ndarray:
        return fem._grid_functional(u, 3)

    def jacobian(self, u: Field):
        if not self.zeta:
            return self.K
        J = fem._grid_weighted_mass(u)
        for d, c in J.coeffs.items():  # K + 3 zeta W, in place
            c *= 3.0 * self.zeta
            c += self.K.coeffs[d]
        return J


def solve_forward(problem: ModelProblem, q: Field, space: Space,
                  tol: float = 1e-10, max_iter: int = 50,
                  u_init: Field | None = None, ops=None) -> Field:
    """Damped inexact Newton solve of the semilinear PDE for a given source.

    Stops when the residual's dual norm sqrt(r' K^-1 r), K the stiffness
    matrix, is at most tol; backtracking halves the step until that norm
    decreases.  Each step solves J d = -r, J = K + 3 zeta u^2 M, by
    ``_pcg`` with K^-1 to eta |r|, eta = min(0.1, |r|) (Eisenstat & Walker,
    SISC 1996), but not below tol / 1000.  ``ops`` gives K, J, K^-1 and
    the loads: by default the space's assembled operators (``_Assembled``);
    ``simulate_truth`` passes its grid-form ones (``_GridForward``).  A
    failed stiffness factorization or a CG breakdown raises
    ForwardSolveError.
    """
    uf = space.zeros() if u_init is None else interpolate_onto(u_init, space.mesh)
    try:
        ops = _Assembled(problem, space) if ops is None else ops
    except fem.FactorizationError as exc:
        raise ForwardSolveError(str(exc), float("nan")) from exc
    load = ops.load(q)

    def resid(f):  # r, K^-1 r and the dual norm of r at the iterate f
        r = ops.K @ f.coeffs - load
        if problem.zeta:
            r = r + problem.zeta * ops.cubic(f)
        s = ops.solver.solve(r)
        return r, s, np.sqrt(max(r @ s, 0.0))

    u, (r, s, rnorm) = uf.coeffs, resid(uf)
    for it in range(max_iter + 1):
        if rnorm <= tol:
            return uf
        if it == max_iter:
            raise ForwardSolveError("Newton did not converge", rnorm)
        d = _pcg(ops.jacobian(uf), ops.solver.solve, -r, -s,
                 max(min(0.1, rnorm) * rnorm, 1e-3 * tol))
        if d is None:
            raise ForwardSolveError("Newton-step CG broke down", rnorm)
        step = 1.0
        while True:
            new = resid(uf := Field(space, u + step * d))
            if new[2] < rnorm or step < 1e-10:
                break
            step *= 0.5
        u, (r, s, rnorm) = uf.coeffs, new


def _pcg(A, precond, b: np.ndarray, z: np.ndarray, atol: float):
    """x with A x = b, A SPD, by CG preconditioned with precond(r) = P r,
    P SPD (K^-1 or diag(M)^-1), from x = 0 and z = P b, until sqrt(r' P r)
    <= atol.  None on a breakdown: p' A p <= 0, a non-finite value, or
    more than 10 dim steps (scipy's cg cap: in finite precision CG can
    need more than the dim steps of exact arithmetic)."""
    x, r, p, rz = np.zeros_like(b), b.copy(), z.copy(), b @ z
    for _ in range(10 * len(b) + 1):
        if rz <= atol**2:
            return x
        Ap = A @ p
        pAp = p @ Ap
        if not 0.0 < pAp < np.inf:
            return None
        x += rz / pAp * p
        r -= rz / pAp * Ap
        z = precond(r)
        rz, rz_old = r @ z, rz
        p = z + rz / rz_old * p
    return None


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class NoisyData:
    """Noisy observations with the actually realized noise level.

    delta is recomputed from the drawn perturbation, never assumed.
    """

    obs: object
    g: object  # ndarray (point) or Field (l2)
    g_delta: object
    delta: float
    p: float
    seed: int
    case: str
    zeta: float
    fine_levels: int
    q_true: Field
    u_true: Field


def simulate_truth(problem: ModelProblem, case: SyntheticCase,
                   fine_levels: int):
    """Exact pair (q, u) on the fine simulation mesh, a uniform mesh.

    The forward solve runs on the mesh's vertex grid (``_GridForward``):
    it assembles, factorizes and caches nothing on the mesh but its two
    spaces.  Reusable across noise realizations of the same configuration.
    """
    mesh = uniform_mesh(fine_levels)
    q_true = qspace(mesh).interpolate(case.source)
    u_true = solve_forward(problem, q_true, vspace(mesh),
                           ops=_GridForward(problem, fine_levels))
    return q_true, u_true


def simulate_data(problem: ModelProblem, case: SyntheticCase, obs,
                  fine_levels: int, p: float, seed: int,
                  truth=None) -> NoisyData:
    """Forward-simulate on a fine uniform mesh and perturb the data
    (``obs.perturb``).  delta is the realized G-norm of the perturbation,
    deterministic in the seed.  A precomputed (q_true, u_true) pair may be
    passed to reuse one forward solve across noise levels.
    """
    if not (np.isfinite(p) and p >= 0):
        raise ValueError(f"need a finite noise level p >= 0, got {p}")
    if truth is None:
        truth = simulate_truth(problem, case, fine_levels)
    q_true, u_true = truth
    g = obs.observe(u_true)
    g_delta, delta = obs.perturb(g, p, np.random.default_rng(seed))
    return NoisyData(
        obs=obs, g=g, g_delta=g_delta, delta=delta, p=p, seed=seed,
        case=case.label, zeta=problem.zeta, fine_levels=fine_levels,
        q_true=q_true, u_true=u_true,
    )


def restrict_data(data: NoisyData, target_space: Space) -> Field:
    """L^2-projection of fine-mesh L^2 data onto a coarser Q1 space.

    The load (g_delta, psi_i) assembles from the mass moments of g_delta
    over the target's cells, read from a table built once per data set
    (``fem.cell_moments``): O(target cells), no fine-mesh work.  CG with
    P = diag(M)^-1 solves the mass system to 1e-14 relative in few steps:
    P M has its spectrum in [1/4, 9/4] (Wathen, IMA J. Numer. Anal. 1987).
    """
    if not isinstance(data.obs, L2Obs):
        raise TypeError("restrict_data applies to L^2 observations")
    g = data.g_delta
    coarse = target_space.mesh
    if g.mesh is coarse:
        return Field(target_space, g.coeffs.copy())
    moments = fem.cell_moments(g, coarse)[0]
    rhs = (fem._load_map(coarse) @ moments.ravel())[
        fem._q_dofs(coarse, target_space.kind)[0]]
    M = target_space.mass()
    d = M.diagonal()
    z = rhs / d
    x = _pcg(M, lambda r: r / d, rhs, z, 1e-14 * np.sqrt(rhs @ z))
    if x is None:
        raise RestrictionError("data restriction CG broke down")
    return Field(target_space, x)


# ---------------------------------------------------------------------------
# persistence


def save_data_bundle(data: NoisyData, outdir: str) -> None:
    """Observation bundle: the observation's files (``obs.save``: a CSV
    for point data, VTK and CSV for L^2 data) and a manifest."""
    os.makedirs(outdir, exist_ok=True)
    data.obs.save(data, outdir)
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write(f"case = {data.case}\n")
        fh.write(f"observation = {data.obs.kind}\n")
        fh.write(f"zeta = {data.zeta:.16g}\n")
        fh.write(f"p = {data.p:.16g}\n")
        fh.write(f"seed = {data.seed}\n")
        fh.write(f"fine_levels = {data.fine_levels}\n")
        fh.write(f"delta = {data.delta:.16g}\n")
