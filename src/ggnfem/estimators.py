"""Quantities of interest and dual-weighted-residual estimators.

Per Gauss-Newton step four scalars are tracked:

    I1h  linearized misfit + (1/beta) |q - q0|_Q^2   (u-term omitted)
    I2h  linearized misfit alone
    I3h  |C(u_old) - g_delta|_G^2 + rho |A(q_old, u_old) - f|_{W_h*}
    I4h  I2h + the state term of I3h at the new pair (q, u)

I1h is evaluated through a separate field-based route, the observation's
quadrature of the state's misfit (``obs.misfit_sq``), so that the
identity I1h = I2h + (1/beta)|q - q0|^2 is a genuine cross-check of two
code paths, not a tautology.

The estimators eta1 (for I1) and eta2 (for I2) pair Lagrangian
derivatives at the discrete stationary point with patchwise-biquadratic
interpolation defects; cellwise absolute contributions serve as
refinement indicators.  The Lagrangian of the subproblem is quadratic,
so its derivative L'(x)(w) is the linear part L''(x, w) plus the
base-point terms L'(0)(w); both are written once, and eta2 reuses them
for its Hessian and auxiliary-weight terms; every field enters through
the quadrature tables kept in its context by ``fem``.  eta3 is
identically zero by convention (the state-residual dual norm is taken
as computed on the evaluation mesh) and eta4 is not computed.
"""

from __future__ import annotations

import numpy as np

from . import fem
from .fem import patch_interpolate
from .subsolver import KktSolution, LinearizedSubproblem

__all__ = [
    "estimate_eta1",
    "estimate_eta2",
    "compute_i1h",
    "compute_i3h",
]


# ---------------------------------------------------------------------------
# cell-batch evaluation helpers


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("cqd,cqd->cq", a, b)


def _hessian_cells(sol: KktSolution, x, weights, r=0.0) -> np.ndarray:
    """Cellwise L''(x, w) for fields x = (q, v, z) and weights (wq, wu, wz),

        (2/beta)(q, wq) + (z, wq) + 2 (C v + r, C wu)_G - (grad wu, grad z)
        - 3 zeta (u_old^2 wu, z) + (q, wz) - (grad v, grad wz)
        - 3 zeta (u_old^2 v, wz)

    with r = 0.  A vector r of observation residuals adds the misfit term
    2 (r, C wu)_G to the same pairing, so wu is evaluated at the
    observations once.  The Lagrangian is quadratic, so L'' does not
    depend on the point.
    """
    sub, (wq, wu, wz) = sol.sub, weights
    q, v, z = map(fem._weighted_values, x)
    grad_v, grad_z = map(fem._weighted_gradients, x[1:])
    react = 3.0 * sub.problem.zeta * fem._weighted_values(sub.u_old_h)**2
    integrand = (((2.0 / sol.beta) * q + z) * wq.vals
                 + (q - react * v) * wz.vals - react * z * wu.vals
                 - _dot(wu.grads, grad_z) - _dot(grad_v, wz.grads))
    return (fem._weighted_integrals(sub.mesh, integrand)
            + 2.0 * sub.obs.pair_cells(sub.mesh, sub.C @ x[1].coeffs + r, wu))


def _lagrangian_cells(sol: KktSolution, x, weights) -> np.ndarray:
    """Cellwise L'(x)(w) = L''(x, w) + L'(0)(w), with the base-point terms

        L'(0)(w) = -(2/beta)(q0, wq) + 2 (r_g, C wu)_G
                   - (grad u_old, grad wz) - zeta (u_old^3, wz).
    """
    sub, (wq, _, wz) = sol.sub, weights
    base = (-(2.0 / sol.beta) * fem._weighted_values(sub.q0) * wq.vals
            - _dot(fem._weighted_gradients(sub.u_old_h), wz.grads)
            - sub.problem.zeta * fem._weighted_cubes(sub.u_old_h) * wz.vals)
    return (_hessian_cells(sol, x, weights, r=sub.r_g)
            + fem._weighted_integrals(sub.mesh, base))


def estimate_eta1(sol: KktSolution, weights=None):
    """DWR estimate of I1 - I1h with cellwise refinement indicators:
    0.5 L'(x_h)(w) for the weights w of x_h.

    Returns (signed estimate, |cell contribution| array).  A custom
    weight triple may be injected to check Galerkin orthogonality.
    """
    if weights is None:
        weights = tuple(map(patch_interpolate, (sol.q, sol.u, sol.z)))
    contrib = 0.5 * _lagrangian_cells(sol, (sol.q, sol.v, sol.z), weights)
    return float(contrib.sum()), np.abs(contrib)


def estimate_eta2(sol: KktSolution, aux):
    """DWR estimate of I2 - I2h via the auxiliary Lagrangian:

        0.5 [I2'(u_h)(wu) + L''(x1, w) + L'(x_h)(w1)]

    for the auxiliary fields x1 = (q, v, z) of ``solve_second_order``,
    the weights w of x_h and w1 of x1; cellwise magnitudes drive
    refinement in the regularization-parameter search.
    """
    weights = tuple(map(patch_interpolate, (sol.q, sol.u, sol.z)))
    aux_weights = tuple(map(patch_interpolate, aux))
    # I2'(u_h)(wu) = 2 (C v_h + r_g, C wu)_G joins the Hessian's pairing.
    r_lin = sol.sub.misfit(sol.v.coeffs)[1]
    contrib = 0.5 * (
        _hessian_cells(sol, aux, weights, r=r_lin)
        + _lagrangian_cells(sol, (sol.q, sol.v, sol.z), aux_weights))
    return float(contrib.sum()), np.abs(contrib)


def compute_i1h(sol: KktSolution):
    """I1h by the field route, with its regularization term.

    Returns (I1h, (1/beta)|q - q0|_Q^2).
    """
    reg = _reg_term(sol)
    return sol.sub.obs.misfit_sq(sol.u, sol.sub.data_g) + reg, reg


def compute_i3h(sub: LinearizedSubproblem, rho: float):
    """I3h at the subproblem's base point: the misfit of u_old plus the
    state term rho |A(q_old, u_old) - f|_{W_h*}.

    Returns (I3h, state term).
    """
    state = rho * fem.riesz_dual_norm(sub.V, sub.a_res)[0]
    return sub.misfit(np.zeros(sub.V.dim))[0] + state, state


def _reg_term(sol: KktSolution) -> float:
    dq = sol.q.coeffs - sol.sub.q0.coeffs
    return float(dq @ (sol.sub.M_Q @ dq)) / sol.beta

