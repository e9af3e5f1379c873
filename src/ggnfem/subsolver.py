"""One linearized Gauss-Newton subproblem and its KKT solve.

At a base point (q_old, u_old), held on its own mesh, the subproblem on
the current mesh reads

    min  |C(u_old) + C'(u_old) v - g_delta|_G^2 + (1/beta) |q - q0|_Q^2
    s.t. L (q - q_old) + K v + (A(q_old, u_old) - f) = 0   in W_h*,

with K = A'_u and L = A'_q frozen at the base point and u = u_old + v.
The u-regularization term is dropped (its role is purely theoretical).
Its first-order system, with the adjoint z = 2 z~, reads

    (1/beta) M_Q q - L' z~ = (1/beta) M_Q q0
    C*C v - K' z~          = -c_res
    -L q - K v             = a_res - L q_old.

V is a subspace of Q and every V operator is a row/column restriction
of the Q operator (``fem._q_dofs``), so L = -inc' M_Q and inc' M_Q inc =
M_V exactly, with inc = ``fem.v_to_q`` the scatter of V's dofs into Q's.
So L is never stored: L x = -(M_Q x) at V's dofs and L' z = -M_Q inc z.
The first row gives the control without a solve, q = q0 - beta inc z~,
and the other two become the state/adjoint system (Rees, Dollar &
Wathen, SISC 32, 2010; Pearson & Wathen, NLAA 19, 2012)

    [ C*C  -K'       ] [v ]   [ -c_res                 ]
    [ -K   -beta M_V ] [z~] = [ a_res + L (q0 - q_old) ],

factorized once per subproblem and beta; the second-order auxiliary
system has the same matrix.  Where C*C is SPD (L^2 data: C*C = M_V) the
matrix is symmetric quasi-definite, so it is factorized with diagonal
pivots in a symmetric ordering (``fem.symmetric_lu``) and each solve
takes one step of iterative refinement.  For point data C*C has rank at
most n_obs, the matrix is not quasi-definite, and SuperLU pivots as
usual.  Every solution is re-substituted into the three rows above,
with one M_Q product for the four vectors it multiplies.  The blocks'
patterns are fixed by the mesh (and the observation), so the pattern of
the reduced matrix and where each block's entries land in it are cached
per (mesh, observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, problem as pb
from .fem import Field, Space, interpolate_onto, qspace, vspace
from .mesh import QuadMesh

__all__ = [
    "LinearizedSubproblem",
    "KktSolution",
    "AuxTriple",
    "KktError",
    "build_subproblem",
    "solve_kkt",
    "solve_second_order",
    "adjoint_at_base",
    "adjoint_w_norm",
]


class KktError(fem.SolverError):
    reason = "kkt-failure"


@dataclass
class LinearizedSubproblem:
    """Operators and residuals of one Gauss-Newton step."""

    problem: pb.ModelProblem
    mesh: QuadMesh
    V: Space
    Q: Space
    q_old: Field
    u_old: Field
    q_old_h: Field
    u_old_h: Field
    q0: Field
    K: sp.csr_matrix
    M_Q: sp.csr_matrix
    C: sp.csr_matrix
    CtC: sp.csr_matrix
    c_res: np.ndarray
    r_g: np.ndarray
    a_res: np.ndarray
    beta: float
    obs: object
    data_g: object
    # The reduced matrix and its LU factors, built by the first solve; a
    # copy by dataclasses.replace (say, for another beta) starts without.
    A: sp.csc_matrix = dc_field(default=None, init=False, repr=False,
                                compare=False)
    lu: object = dc_field(default=None, init=False, repr=False,
                          compare=False)

    def factorization(self):
        if self.lu is None:
            self.A = _reduced_matrix(self)
            if self.obs.spd_normal:
                self.lu = fem.symmetric_lu(self.A, "KKT")
            else:
                try:
                    self.lu = spla.splu(self.A)
                except RuntimeError as exc:
                    raise KktError(
                        f"KKT factorization failed: {exc}") from exc
        return self.lu

    def misfit(self, v: np.ndarray):
        """(|C v + r_g|_G^2, C v + r_g) for V coefficients v."""
        m = self.C @ v + self.r_g
        return float(m @ self.obs.gram(self.Q, m)), m


def build_subproblem(problem: pb.ModelProblem, mesh: QuadMesh,
                     q_old: Field, u_old: Field, q0: Field,
                     obs, data, beta: float) -> LinearizedSubproblem:
    """Assemble all operators of the linearized problem on a mesh.

    ``data`` is the observation vector for point measurements or the
    data field restricted to the mesh (``obs.restrict``) for L^2
    measurements.  With C = obs.matrix(V) and G the Gram weight of the
    data space, r_g = C u_old - g and c_res = C' G r_g.
    """
    V, Q = vspace(mesh), qspace(mesh)
    q_old_h = interpolate_onto(q_old, mesh)
    u_old_h = interpolate_onto(u_old, mesh)
    K = pb.linearized_state_operator(problem, V, u_old_h)
    if isinstance(data, Field):
        if data.mesh is not mesh:
            raise ValueError("L2 data must be restricted to the mesh first")
        g = data.coeffs
    else:
        data = g = np.asarray(data, dtype=float)
    C = obs.matrix(V)
    r_g = C @ u_old_h.coeffs - g
    a_res = pb.semilinear_residual(problem, q_old_h, u_old_h, V)
    q0_h = interpolate_onto(q0, mesh)
    return LinearizedSubproblem(
        problem=problem, mesh=mesh, V=V, Q=Q, q_old=q_old, u_old=u_old,
        q_old_h=q_old_h, u_old_h=u_old_h, q0=q0_h, K=K, M_Q=Q.mass(),
        C=C, CtC=obs.normal_matrix(V),
        c_res=fem._transpose_product(C, obs.gram(Q, r_g)),
        r_g=r_g, a_res=a_res, beta=beta, obs=obs, data_g=data,
    )


@dataclass
class KktSolution:
    """Primal/dual triple of one subproblem, with u = u_old + v."""

    sub: LinearizedSubproblem
    q: Field
    v: Field
    u: Field
    z: Field
    stationarity: tuple

    def misfit_sq(self) -> float:
        """|C'(u_old) v + C(u_old) - g_delta|_G^2 (this is I2h)."""
        return self.sub.misfit(self.v.coeffs)[0]


def _reduced_layout(sub: LinearizedSubproblem):
    """Cached pattern of the reduced matrix of a mesh and observation:
    (indptr, indices, slots) with matrix data = concat(block data)[slots]
    for the blocks C*C, -K and -beta M_V."""
    blocks = (sub.CtC, sub.K, sub.V.mass())

    def build():
        # Entry k of concat(block data) sits at (rows[k], cols[k]), K's
        # twice (as K' and as K); in column, then row order they are A.
        n, k0, k1 = sub.V.dim, blocks[0].nnz, blocks[0].nnz + blocks[1].nnz
        (r0, c0), (rk, ck), (rm, cm) = [
            (np.arange(n).repeat(B.indptr[1:] - B.indptr[:-1]), B.indices)
            for B in blocks]
        rows = np.concatenate([r0, ck, rk + n, rm + n])
        cols = np.concatenate([c0, rk + n, ck, cm + n])
        order = (cols * 2 * n + rows).argsort()  # by column, then row
        slots = np.concatenate([np.arange(k1),
                                np.arange(k0, k1 + blocks[2].nnz)])[order]
        indices = rows[order].astype(np.int32)
        indptr = fem._offsets(np.bincount(cols, minlength=2 * n))
        for a in (indptr, indices, slots):
            a.flags.writeable = False
        return indptr, indices, slots, [(B.indptr, B.indices) for B in blocks]

    indptr, indices, slots, patterns = fem._cached(
        sub.mesh, ("reduced_kkt",) + sub.obs.key, build)
    for B, (ptr, ind) in zip(blocks, patterns):
        if not ((B.indptr is ptr or np.array_equal(B.indptr, ptr))
                and (B.indices is ind or np.array_equal(B.indices, ind))):
            raise ValueError("KKT block pattern differs from the cached "
                             "layout of its mesh")
    return indptr, indices, slots


def _reduced_matrix(sub: LinearizedSubproblem) -> sp.csc_matrix:
    indptr, indices, slots = _reduced_layout(sub)
    data = np.concatenate([sub.CtC.data, -sub.K.data,
                           -sub.beta * sub.V.mass().data])
    n = 2 * sub.V.dim
    return sp.csc_matrix((data[slots], indices, indptr), shape=(n, n))


def _solve_reduced(sub: LinearizedSubproblem, rhs_v, rhs_z, q0):
    """(q, v, z) from the reduced system with right-hand side
    (rhs_v, rhs_z) and the control q = q0 - beta inc z~."""
    nv = sub.V.dim
    lu, b = sub.factorization(), np.concatenate([rhs_v, rhs_z])
    x = lu.solve(b)
    if sub.obs.spd_normal:  # diagonal pivots: refine once
        x += lu.solve(b - sub.A @ x)
    q = q0.copy()
    q[fem._q_dofs(sub.mesh, "V")[0]] -= sub.beta * x[nv:]
    return q, x[:nv], 2.0 * x[nv:]


def solve_kkt(sub: LinearizedSubproblem) -> KktSolution:
    """Solve the subproblem through its reduced state/adjoint system.

    Verifies the three stationarity residuals by re-substitution and
    raises KktError beyond a 1e-8 relative tolerance.
    """
    q0, q_old = sub.q0.coeffs, sub.q_old_h.coeffs
    keep = fem._q_dofs(sub.mesh, "V")[0]  # L x = -(M_Q x)[keep]
    L_old, L_0 = -(sub.M_Q @ np.column_stack([q_old, q0]))[keep].T
    rhs_z = sub.a_res - L_old
    q, v, z = _solve_reduced(sub, -sub.c_res, rhs_z + L_0, q0)

    inc_z = np.zeros(sub.Q.dim)
    inc_z[keep] = z
    M_dq, M_0, M_z, M_step = (sub.M_Q @ np.column_stack(
        [q - q0, q0, inc_z, q - q_old])).T
    res_q = (2.0 / sub.beta) * M_dq + M_z  # L' z = -M_z
    res_v = 2.0 * (sub.CtC @ v + sub.c_res) - fem._transpose_product(sub.K, z)
    res_z = -M_step[keep] + sub.K @ v + sub.a_res
    scale = max(  # of the right-hand side above and the solution
        np.abs((1.0 / sub.beta) * M_0).max(),
        np.abs(sub.c_res).max(), np.abs(rhs_z).max(),
        np.abs(z).max(), np.abs(q).max(), np.abs(v).max(), 1.0
    )
    norms = tuple(np.abs(r).max() / scale for r in (res_q, res_v, res_z))
    if max(norms) > 1e-8:
        raise KktError(
            f"stationarity residuals too large: {norms} (beta={sub.beta:g}, "
            f"n={2 * sub.V.dim})"
        )
    u = Field(sub.V, sub.u_old_h.coeffs + v)
    return KktSolution(
        sub=sub, q=Field(sub.Q, q), v=Field(sub.V, v), u=u,
        z=Field(sub.V, z), stationarity=norms,
    )


@dataclass
class AuxTriple:
    """Solution of the second-order auxiliary system."""

    q: Field
    v: Field
    z: Field


def solve_second_order(sub: LinearizedSubproblem, sol: KktSolution) -> AuxTriple:
    """Auxiliary triple for the I2 estimator.

    The subproblem is linear-quadratic, so the Lagrangian Hessian is the
    constant KKT operator; one extra solve with right-hand side built
    from -I2'(u_h) yields the auxiliary triple.
    """
    q, v, z = _solve_reduced(sub, -(sub.CtC @ sol.v.coeffs + sub.c_res),
                             np.zeros(sub.V.dim), np.zeros(sub.Q.dim))
    return AuxTriple(q=Field(sub.Q, q), v=Field(sub.V, v), z=Field(sub.V, z))


def adjoint_at_base(sub: LinearizedSubproblem) -> Field:
    """Adjoint state of the optimality system at the base point itself.

    Solves K' z = 2 C'* (C(u_old) - g_delta) with the subproblem's
    operators, frozen at (q_old, u_old); the W-norm of z drives the
    penalty-weight update.  K = A'_u is SPD: CG as in the forward solve.
    """
    rhs = 2.0 * sub.c_res
    z0 = sub.V.stiffness_solver().solve(rhs)
    z = pb._stiffness_cg(sub.V, sub.K, rhs, z0,
                         1e-13 * np.sqrt(max(rhs @ z0, 0.0)))
    if z is None:
        raise KktError("adjoint CG broke down")
    return Field(sub.V, z)


def adjoint_w_norm(z: Field) -> float:
    """|grad z| -- the W-norm under the H^1_0 identification."""
    return z.norm_h1semi()

