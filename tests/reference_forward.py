"""Reference forward solve: one fresh Jacobian sum per Newton step.

These are ``solve_forward`` and ``linearized_state_operator`` of
``ggnfem.problem`` as they were before a Newton step shared the
quadrature values of its iterate between the residual and the Jacobian
and summed the Jacobian in the data of the weighted mass matrix, kept so
that tests can compare coefficients and Jacobian counts with them.
``grid_weighted_mass`` is the grid Jacobian as it was before it added
the row blocks of the cell integrals as they came: it forms all of them,
(3, 3, n, n), then sums each stencil coefficient in one pass.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ggnfem import fem
from ggnfem.fem import Field, interpolate_onto
from ggnfem.problem import ForwardSolveError, _pcg

__all__ = ["grid_weighted_mass", "linearized_state_operator",
           "solve_forward"]

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


def grid_weighted_mass(field):
    """Stencil coefficients {(dy, dx): (n-1, n-1)} of (f^2 u, v) on the V
    grid of a field's uniform mesh, from the whole (3, 3, n, n) array of
    cell integrals (f^2, b_k(s) b_l(t)), computed by blocks of
    ``fem._BLOCK`` cells as ``fem._grid_integrals`` does."""
    n = 1 << field.mesh.max_level
    vals = (field.space.T @ field.coeffs).reshape(n + 1, n + 1)
    pts, wts = fem.gauss_points(3)
    shapes = fem.shape_values(pts)

    def basis(x):
        return np.column_stack([(1 - x) ** 2, (1 - x) * x, x**2])

    bs, bt = basis(pts[:, 0]), basis(pts[:, 1])
    table = (wts / n**2)[:, None, None] * bs[:, :, None] * bt[:, None, :]
    c = np.empty((3, 3, n, n))
    rows = max(1, fem._BLOCK // n)
    for r in range(0, n, rows):
        v = vals[r:r + rows + 1]
        corners = np.stack([v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]],
                           axis=-1)
        f = corners.reshape(-1, 4) @ shapes.T
        c[:, :, r:r + rows] = ((f * f) @ table.reshape(len(wts), -1)).T.reshape(
            3, 3, -1, n)
    coeffs = np.zeros((3, 3, n - 1, n - 1))
    for dy, dx in np.ndindex(3, 3):
        for sy, py in fem._PAIR_CELLS[dy - 1]:
            for sx, px in fem._PAIR_CELLS[dx - 1]:
                coeffs[dy, dx] += c[px, py, 1 + sy:n + sy, 1 + sx:n + sx]
    return {(dy - 1, dx - 1): coeffs[dy, dx] for dy, dx in np.ndindex(3, 3)}
