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
        if self.zeta < 0:
            raise ValueError("zeta must be nonnegative")


class ForwardSolveError(fem.SolverError):
    reason = "forward-failure"

    def __init__(self, msg, residual_norm):
        super().__init__(f"{msg} (last residual dual norm {residual_norm:.3e})")
        self.residual_norm = residual_norm


# ---------------------------------------------------------------------------
# observation operators
#
# Each kind gives the Gauss-Newton step what depends on it: the matrix C
# from V coefficients to the data space, the Gram weight G of that space
# (misfit |C v + r|_G^2 = m' G m), the normal matrix C*C = C' G C, the
# data in the form the subproblem on a mesh takes (``obs.restrict``), the
# context key of what C depends on, and whether C*C is SPD.


class PointObs:
    """Point functionals at an n x n interior lattice; G = R^(n*n)."""

    kind = "point"
    spd_normal = False  # C*C has rank at most n_obs

    def __init__(self, n_side: int = 9):
        self.n_side = n_side
        t = np.arange(1, n_side + 1) / (n_side + 1)
        gx, gy = np.meshgrid(t, t, indexing="ij")
        self.points = np.column_stack([gx.ravel(), gy.ravel()])
        self.key = ("obs",) + fem._points_key(self.points)

    @property
    def n_obs(self) -> int:
        return len(self.points)

    def matrix(self, space: Space) -> sp.csr_matrix:
        """Sparse evaluation matrix C with (C v)_i = v_h(xi_i)."""
        return fem.point_matrix(space, self.points)

    def gram(self, Q: Space, m: np.ndarray) -> np.ndarray:
        return m  # the Euclidean product

    def normal_matrix(self, V: Space) -> sp.csr_matrix:
        return fem._point_operators(V, self.points)[1]

    def restrict(self, data: "NoisyData", mesh) -> np.ndarray:
        return data.g_delta

    def observe(self, u: Field) -> np.ndarray:
        return u.eval_points(self.points)


class L2Obs:
    """Identity observation into L^2; data live on the simulation mesh.

    C is the inclusion of V into Q, G the Q mass matrix, and C*C = M_V
    exactly; data are L^2-projected onto the solver mesh's Q space.
    """

    kind = "l2"
    key = ("obs", "l2")
    spd_normal = True

    def matrix(self, space: Space) -> sp.csr_matrix:
        return fem.v_to_q(space.mesh)

    def gram(self, Q: Space, m: np.ndarray) -> np.ndarray:
        return Q.mass() @ m

    def normal_matrix(self, V: Space) -> sp.csr_matrix:
        return V.mass()

    def restrict(self, data: "NoisyData", mesh) -> Field:
        return restrict_data(data, qspace(mesh))

    def observe(self, u: Field) -> Field:
        # State as an L^2 element on its own mesh (boundary values zero).
        q = qspace(u.mesh)
        return Field(q, u.full_values()[q.free])


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
        space, fem._weighted_values(u)**3, fem.NQ_WEIGHTED))


def linearized_state_operator(problem: ModelProblem, space: Space, u_base: Field) -> sp.csr_matrix:
    """A'_u at u_base: stiffness + 3 zeta (u_base^2 . , .).

    Both terms come from the space's assembly plan, so the data of the fresh
    weighted mass take the sum; the pattern stays fixed even where the
    weight vanishes (a sparse + would drop those entries).
    """
    K = space.stiffness()
    if not problem.zeta:
        return K
    J = fem.assemble_weighted_mass(space, u_base, 2)
    J.data *= 3.0 * problem.zeta
    J.data += K.data
    return J


def solve_forward(problem: ModelProblem, q: Field, space: Space,
                  tol: float = 1e-10, max_iter: int = 50,
                  u_init: Field | None = None) -> Field:
    """Damped inexact Newton solve of the semilinear PDE for a given source.

    Stops when the residual's dual norm sqrt(r' K^-1 r), K the stiffness
    matrix, is at most tol; backtracking halves the step until that norm
    decreases.  Each step solves J d = -r, J = K + 3 zeta u^2 M, by
    ``_stiffness_cg`` to eta |r|, eta = min(0.1, |r|) (Eisenstat & Walker,
    SISC 1996), but not below tol / 1000.  K^-1 is the space's stiffness
    solver: sine transforms on a fine uniform mesh, else a factorization.
    A failed stiffness factorization or a CG breakdown raises
    ForwardSolveError.
    """
    uf = space.zeros() if u_init is None else interpolate_onto(u_init, space.mesh)
    load = fem.assemble_functional(space, interpolate_onto(q, space.mesh))
    Ks = space.stiffness()
    try:
        lu_s = space.stiffness_solver()
    except fem.FactorizationError as exc:
        raise ForwardSolveError(str(exc), float("nan")) from exc

    def resid(f):  # r, K^-1 r and the dual norm of r at the iterate f
        r = Ks @ f.coeffs - load
        if problem.zeta:
            r = r + problem.zeta * _cubic_term(space, f)
        s = lu_s.solve(r)
        return r, s, np.sqrt(max(r @ s, 0.0))

    u, (r, s, rnorm) = uf.coeffs, resid(uf)
    for it in range(max_iter + 1):
        if rnorm <= tol:
            fem._drop_weighted_values(uf)
            return uf
        if it == max_iter:
            raise ForwardSolveError("Newton did not converge", rnorm)
        J = linearized_state_operator(problem, space, uf)
        fem._drop_weighted_values(uf)
        d = _stiffness_cg(space, J, -r, -s,
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


def _stiffness_cg(space: Space, A, b: np.ndarray, z: np.ndarray,
                  atol: float):
    """x with A x = b, A SPD, by CG preconditioned with the stiffness
    solver K^-1 of the space, from x = 0 and z = K^-1 b, until
    sqrt(r' K^-1 r) <= atol.  None on a breakdown: p' A p <= 0, a
    non-finite value, or more than dim + 1 steps."""
    lu = space.stiffness_solver()
    x, r, p, rz = np.zeros_like(b), b.copy(), z.copy(), b @ z
    for _ in range(len(b) + 2):
        if rz <= atol**2:
            return x
        Ap = A @ p
        pAp = p @ Ap
        if not 0.0 < pAp < np.inf:
            return None
        x += rz / pAp * p
        r -= rz / pAp * Ap
        z = lu.solve(r)
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
    """Exact pair (q, u) on the fine simulation mesh.

    Reusable across noise realizations of the same configuration.
    """
    mesh = uniform_mesh(fine_levels)
    q_true = qspace(mesh).interpolate(case.source)
    u_true = solve_forward(problem, q_true, vspace(mesh))
    return q_true, u_true


def simulate_data(problem: ModelProblem, case: SyntheticCase, obs,
                  fine_levels: int, p: float, seed: int,
                  truth=None) -> NoisyData:
    """Forward-simulate on a fine uniform mesh and perturb the data.

    Point data get componentwise uniform noise scaled by p * max|g|;
    L^2 data get g + p |g| r / |r| with iid uniform nodal r. delta is the
    realized G-norm of the perturbation, deterministic in the seed.  A
    precomputed (q_true, u_true) pair may be passed to reuse one forward
    solve across noise levels.
    """
    if truth is None:
        truth = simulate_truth(problem, case, fine_levels)
    q_true, u_true = truth
    rng = np.random.default_rng(seed)

    if isinstance(obs, PointObs):
        g = obs.observe(u_true)
        g_delta = g + rng.uniform(-1.0, 1.0, obs.n_obs) * (p * np.abs(g).max())
        delta = float(np.linalg.norm(g_delta - g))
    elif isinstance(obs, L2Obs):
        g = obs.observe(u_true)
        r = rng.uniform(-1.0, 1.0, g.space.dim)
        scale = p * g.norm_l2() / Field(g.space, r).norm_l2()
        g_delta = Field(g.space, g.coeffs + scale * r)
        delta = Field(g.space, g_delta.coeffs - g.coeffs).norm_l2()
    else:
        raise TypeError(f"unsupported observation {obs!r}")

    return NoisyData(
        obs=obs, g=g, g_delta=g_delta, delta=delta, p=p, seed=seed,
        case=case.label, zeta=problem.zeta, fine_levels=fine_levels,
        q_true=q_true, u_true=u_true,
    )


def restrict_data(data: NoisyData, target_space: Space) -> Field:
    """L^2-projection of fine-mesh L^2 data onto a coarser Q1 space.

    The load (g_delta, psi_i) assembles from the mass moments of g_delta
    over the target's cells, read from a table built once per data set
    (``fem.cell_moments``): O(target cells), no fine-mesh work.  A mass
    solve on the target space then yields the projection.
    """
    if not isinstance(data.obs, L2Obs):
        raise TypeError("restrict_data applies to L^2 observations")
    g = data.g_delta
    coarse = target_space.mesh
    if g.mesh is coarse:
        return Field(target_space, g.coeffs.copy())
    moments = fem.cell_moments(g, "mass", coarse)[0]
    rhs = (fem._load_map(coarse) @ moments.ravel())[
        fem._q_dofs(coarse, target_space.kind)[0]]
    return Field(target_space, target_space.mass_solver().solve(rhs))


# ---------------------------------------------------------------------------
# persistence


def save_data_bundle(data: NoisyData, outdir: str) -> None:
    """Observation bundle: CSV (+ VTK for L^2 data) and a manifest."""
    os.makedirs(outdir, exist_ok=True)
    if isinstance(data.obs, PointObs):
        with open(os.path.join(outdir, "observations.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "x", "y", "g", "g_delta"])
            for i, (p, gi, gd) in enumerate(
                zip(data.obs.points, data.g, data.g_delta)
            ):
                w.writerow([i, f"{p[0]:.16g}", f"{p[1]:.16g}",
                            f"{gi:.16g}", f"{gd:.16g}"])
    else:
        fem.write_field_vtk(data.g_delta, os.path.join(outdir, "g_delta.vtk"),
                            name="g_delta")
        fem.write_field_csv(data.g_delta, os.path.join(outdir, "g_delta.csv"))
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write(f"case = {data.case}\n")
        fh.write(f"observation = {data.obs.kind}\n")
        fh.write(f"zeta = {data.zeta:.16g}\n")
        fh.write(f"p = {data.p:.16g}\n")
        fh.write(f"seed = {data.seed}\n")
        fh.write(f"fine_levels = {data.fine_levels}\n")
        fh.write(f"delta = {data.delta:.16g}\n")
