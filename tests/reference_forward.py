"""Reference forward solve: one fresh Jacobian sum per Newton step.

These are ``solve_forward`` and ``linearized_state_operator`` of
``ggnfem.problem`` as they were before a Newton step shared the
quadrature values of its iterate between the residual and the Jacobian
and summed the Jacobian in the data of the weighted mass matrix, kept so
that tests can compare coefficients and Jacobian counts with them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ggnfem import fem
from ggnfem.fem import Field, interpolate_onto
from ggnfem.problem import ForwardSolveError, _pcg

__all__ = ["linearized_state_operator", "solve_forward"]

# The cubic term at 3 x 3 Gauss points built here, not read from fem: the
# solves are compared bit for bit, which holds only under the same rule, so
# a rule of fem other than 3 x 3 fails the comparison.
_SHAPES = fem.shape_values(fem.gauss_points(3)[0])


def _cubic_term(space, u):
    uv = u.full_values()[space.mesh.cell_corners] @ _SHAPES.T
    return fem._load_vector(space, uv**3)


def linearized_state_operator(problem, space, u_base):
    """A'_u at u_base: stiffness + 3 zeta (u_base^2 . , .)."""
    K = space.stiffness()
    if not problem.zeta:
        return K
    W = fem.assemble_weighted_mass(space, u_base)
    return sp.csr_matrix((K.data + 3.0 * problem.zeta * W.data, K.indices,
                          K.indptr), shape=K.shape)


def solve_forward(problem, q, space, tol=1e-10, max_iter=50, u_init=None):
    """Damped inexact Newton solve of the semilinear PDE."""
    u = np.zeros(space.dim) if u_init is None else interpolate_onto(u_init, space.mesh).coeffs.copy()
    load = fem.assemble_functional(space, interpolate_onto(q, space.mesh))
    Ks = space.stiffness()
    try:
        lu_s = space.stiffness_solver()
    except fem.FactorizationError as exc:
        raise ForwardSolveError(str(exc), float("nan")) from exc

    def resid(uvec):  # r, K^-1 r and the dual norm of r
        r = Ks @ uvec - load
        if problem.zeta:
            r = r + problem.zeta * _cubic_term(space, Field(space, uvec))
        s = lu_s.solve(r)
        return r, s, np.sqrt(max(r @ s, 0.0))

    r, s, rnorm = resid(u)
    for it in range(max_iter + 1):
        if rnorm <= tol:
            return Field(space, u)
        if it == max_iter:
            raise ForwardSolveError("Newton did not converge", rnorm)
        J = linearized_state_operator(problem, space, Field(space, u))
        d = _pcg(J, lu_s.solve, -r, -s,
                 max(min(0.1, rnorm) * rnorm, 1e-3 * tol))
        if d is None:
            raise ForwardSolveError("Newton-step CG broke down", rnorm)
        step = 1.0
        while True:
            new = resid(u + step * d)
            if new[2] < rnorm or step < 1e-10:
                break
            step *= 0.5
        u, (r, s, rnorm) = u + step * d, new
