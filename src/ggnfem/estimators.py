"""Quantities of interest and dual-weighted-residual estimators.

Per Gauss-Newton step four scalars are tracked:

    I1h  linearized misfit + (1/beta) |q - q0|_Q^2   (u-term omitted)
    I2h  linearized misfit alone
    I3h  |C(u_old) - g_delta|_G^2 + rho |A(q_old, u_old) - f|_{W_h*}
    I4h  same as I3h at the new pair (q, u)

I1h is evaluated through a separate field-based route so that the
identity I1h = I2h + (1/beta)|q - q0|^2 is a genuine cross-check of two
code paths, not a tautology.

The estimators eta1 (for I1) and eta2 (for I2) pair Lagrangian
derivatives at the discrete stationary point with patchwise-biquadratic
interpolation defects; cellwise absolute contributions serve as
refinement indicators.  eta3 is identically zero by convention (the
state-residual dual norm is taken as computed on the evaluation mesh)
and eta4 is not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, problem as pb
from .fem import Field, patch_interpolate
from .subsolver import AuxTriple, KktSolution, LinearizedSubproblem

__all__ = [
    "Qoi",
    "compute_qoi",
    "estimate_eta1",
    "estimate_eta2",
    "compute_i1h",
    "compute_i3h",
]

_NQ = fem.NQ_WEIGHTED


@dataclass
class Qoi:
    """QoIs and estimators of one step (eta entries NaN when not computed)."""

    i1h: float
    i2h: float
    i3h: float
    i4h: float
    eta1: float
    eta2: float
    rho: float
    beta: float

    def check_identity(self, reg_term: float) -> float:
        """|I1h - I2h - (1/beta)|q-q0|^2| against the given term."""
        return abs(self.i1h - self.i2h - reg_term)


# ---------------------------------------------------------------------------
# cell-batch evaluation helpers


class _CellData:
    """Per-cell quadrature values of the fields entering the pairings."""

    def __init__(self, sub: LinearizedSubproblem, sol: KktSolution):
        self.mesh = sub.mesh
        self.pts, self.wts, _, self.grads_ref = fem._cell_quad_data(_NQ)
        self.h = self.mesh.cell_sizes()
        self.h2 = self.h**2
        self.q_h = self.vals(sol.q)
        self.q0 = self.vals(sub.q0)
        self.u_old = self.vals(sub.u_old_h)
        self.v = self.vals(sol.v)
        self.z = self.vals(sol.z)
        self.grad_z = self.grads(sol.z)
        self.grad_u = self.grads(sol.u)

    def vals(self, field: Field) -> np.ndarray:
        """Values at the quadrature points, (n_cells, n_qp)."""
        return fem._cell_values(field, self.mesh, _NQ)

    def grads(self, field: Field) -> np.ndarray:
        """Physical gradients at the quadrature points, (n_cells, n_qp, 2)."""
        cv = field.full_values()[self.mesh.cell_corners]
        g = np.einsum("ci,qid->cqd", cv, self.grads_ref)
        return g / self.h[:, None, None]

    def integrate(self, integrand: np.ndarray) -> np.ndarray:
        """Cellwise integrals of (n_cells, n_qp) integrand values."""
        return np.einsum("c,cq,q->c", self.h2, integrand, self.wts)


def _obs_pairing(sub: LinearizedSubproblem, gvec, weight, cells: _CellData) -> np.ndarray:
    """Cellwise values of (gvec, C w)_G for a weight object.

    For point observations each point's contribution lands in the cell
    that contains it; for L^2 observations gvec is a coefficient vector
    on the Q space paired by quadrature.
    """
    if isinstance(sub.obs, pb.PointObs):
        out = np.zeros(sub.mesh.n_cells)
        cids, locs = fem.point_locations(sub.mesh, sub.obs.points)
        wv, _ = weight.eval_pairs(cids, locs)
        np.add.at(out, cids, np.asarray(gvec) * wv)
        return out
    gq = cells.vals(Field(sub.Q, np.asarray(gvec, dtype=float)))
    wv, _ = weight.eval_all(cells.pts)
    return cells.integrate(gq * wv)


def _lagrangian_cells(sub: LinearizedSubproblem, sol: KktSolution,
                      cells: _CellData, weights) -> np.ndarray:
    """Cellwise L'(x_h) applied to a weight triple (wq, wu, wz)."""
    wq, wu, wz = weights
    wq_v, _ = wq.eval_all(cells.pts)
    wu_v, wu_g = wu.eval_all(cells.pts)
    wz_v, wz_g = wz.eval_all(cells.pts)
    zeta = sub.problem.zeta
    beta = sub.beta

    # q-block: (2/beta)(q - q0, wq) + (wq, z)
    t_q = cells.integrate(((2.0 / beta) * (cells.q_h - cells.q0) + cells.z) * wq_v)

    # u-block: 2 (r_lin, C wu)_G - (grad wu, grad z) - 3 zeta (u_old^2 wu, z)
    r_lin = sub.misfit(sol.v.coeffs)[1]
    t_u = 2.0 * _obs_pairing(sub, r_lin, wu, cells)
    t_u -= cells.integrate(np.einsum("cqd,cqd->cq", wu_g, cells.grad_z))
    if zeta:
        t_u -= 3.0 * zeta * cells.integrate(cells.u_old**2 * wu_v * cells.z)

    # z-block: -[(grad u_h, grad wz) + zeta (u_old^3 + 3 u_old^2 v, wz)
    #           - (q_h, wz)]
    t_z = -cells.integrate(np.einsum("cqd,cqd->cq", cells.grad_u, wz_g))
    if zeta:
        t_z -= zeta * cells.integrate(
            (cells.u_old**3 + 3.0 * cells.u_old**2 * cells.v) * wz_v
        )
    t_z += cells.integrate(cells.q_h * wz_v)
    return t_q + t_u + t_z


def _patch_weights(*fields):
    return tuple(patch_interpolate(f) for f in fields)


def estimate_eta1(sol: KktSolution, sub: LinearizedSubproblem,
                  weights=None):
    """DWR estimate of I1 - I1h with cellwise refinement indicators.

    Returns (signed estimate, |cell contribution| array).  A custom
    weight triple may be injected to check Galerkin orthogonality.
    """
    cells = _CellData(sub, sol)
    if weights is None:
        weights = _patch_weights(sol.q, sol.u, sol.z)
    contrib = 0.5 * _lagrangian_cells(sub, sol, cells, weights)
    return float(contrib.sum()), np.abs(contrib)


def estimate_eta2(sol: KktSolution, sub: LinearizedSubproblem, aux: AuxTriple,
                  weights=None, aux_weights=None):
    """DWR estimate of I2 - I2h via the auxiliary Lagrangian.

    Combines I2'(u_h), the Lagrangian Hessian applied to the auxiliary
    triple, and L' at the auxiliary weights; cellwise magnitudes drive
    refinement in the regularization-parameter search.
    """
    cells = _CellData(sub, sol)
    if weights is None:
        weights = _patch_weights(sol.q, sol.u, sol.z)
    if aux_weights is None:
        aux_weights = _patch_weights(aux.q, aux.v, aux.z)
    wq, wu, wz = weights
    wq_v, _ = wq.eval_all(cells.pts)
    wu_v, wu_g = wu.eval_all(cells.pts)
    wz_v, wz_g = wz.eval_all(cells.pts)
    zeta = sub.problem.zeta

    q1 = cells.vals(aux.q)
    v1 = cells.vals(aux.v)
    z1 = cells.vals(aux.z)
    gv1 = cells.grads(aux.v)
    gz1 = cells.grads(aux.z)

    r_lin = sub.misfit(sol.v.coeffs)[1]

    # I2'(u_h)(wu)
    contrib = 2.0 * _obs_pairing(sub, r_lin, wu, cells)

    # L''(x_h)(x1, w)
    contrib += cells.integrate((2.0 / sub.beta) * q1 * wq_v + z1 * wq_v)
    if isinstance(sub.obs, pb.PointObs):
        Cv1 = sub.obs.matrix(sub.V) @ aux.v.coeffs
        contrib += 2.0 * _obs_pairing(sub, Cv1, wu, cells)
    else:
        contrib += 2.0 * cells.integrate(v1 * wu_v)
    contrib -= cells.integrate(np.einsum("cqd,cqd->cq", wu_g, gz1))
    if zeta:
        contrib -= 3.0 * zeta * cells.integrate(cells.u_old**2 * wu_v * z1)
    contrib += cells.integrate(q1 * wz_v)
    contrib -= cells.integrate(np.einsum("cqd,cqd->cq", gv1, wz_g))
    if zeta:
        contrib -= 3.0 * zeta * cells.integrate(cells.u_old**2 * v1 * wz_v)

    # L'(x_h)(w1)
    contrib += _lagrangian_cells(sub, sol, cells, aux_weights)

    contrib *= 0.5
    return float(contrib.sum()), np.abs(contrib)


def compute_qoi(sub: LinearizedSubproblem, sol: KktSolution, rho: float,
                i3h: float | None = None,
                eta1: float = float("nan"), eta2: float = float("nan")) -> Qoi:
    """All four discrete QoIs of a step.

    I2h comes from the algebraic misfit of the KKT vectors; I1h is
    re-evaluated through field/quadrature routes.  I3h may be passed in
    (the driver freezes it per outer iteration); otherwise it is
    evaluated here on the current mesh.
    """
    i2h = sol.misfit_sq()
    i1h, _ = compute_i1h(sub, sol)
    if i3h is None:
        i3h = compute_i3h(sub, rho)
    new_res = pb.semilinear_residual(sub.problem, sol.q, sol.u, sub.V)
    i4h = i2h + rho * fem.riesz_dual_norm(sub.V, new_res)[0]
    return Qoi(i1h=i1h, i2h=i2h, i3h=i3h, i4h=i4h, eta1=eta1, eta2=eta2,
               rho=rho, beta=sub.beta)


def compute_i1h(sub: LinearizedSubproblem, sol: KktSolution):
    """I1h by the field route, with its regularization term.

    Returns (I1h, (1/beta)|q - q0|_Q^2).
    """
    reg = _reg_term(sub, sol)
    return _field_misfit_sq(sub, sol) + reg, reg


def compute_i3h(sub: LinearizedSubproblem, rho: float) -> float:
    """I3h at the subproblem's base point: the misfit of u_old plus rho
    times the dual norm of the state residual A(q_old, u_old) - f."""
    return sub.misfit(np.zeros(sub.V.dim))[0] + rho * sub.state_residual_norm()


def _reg_term(sub: LinearizedSubproblem, sol: KktSolution) -> float:
    dq = sol.q.coeffs - sub.q0.coeffs
    return float(dq @ (sub.M_Q @ dq)) / sub.beta


def _field_misfit_sq(sub: LinearizedSubproblem, sol: KktSolution) -> float:
    """|C(u_h) - g_delta|_G^2 evaluated from the fields themselves.

    C is linear, so this equals the linearized misfit; the independent
    route keeps the I1h/I2h identity an actual check.
    """
    if isinstance(sub.obs, pb.PointObs):
        cids, locs = fem.point_locations(sub.mesh, sub.obs.points)
        vals = fem.bilinear(sol.u.full_values()[sub.mesh.cell_corners[cids]],
                            locs)
        d = vals - sub.data_g
        return float(d @ d)
    mesh = sub.mesh
    uq = fem._cell_values(sol.u, mesh, _NQ)
    gq = fem._cell_values(sub.data_g, mesh, _NQ)
    pts, wts, _, _ = fem._cell_quad_data(_NQ)
    h2 = mesh.cell_sizes() ** 2
    return float(np.einsum("c,cq,q->", h2, (uq - gq) ** 2, wts))
