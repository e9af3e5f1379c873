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

factorized once per beta; the second-order auxiliary system has the
same matrix.  beta is chosen within each Gauss-Newton step, so it is an
argument of the solve, not of the subproblem: one subproblem per mesh
and base point serves every beta trial.  For L^2 data C*C = M_V, and with
w = sqrt(beta) z~ the two rows, right-hand side (b_v, b_z), are the real
and imaginary parts of one complex symmetric system of half the size,

    (M_V + (i/sqrt(beta)) K) (v + i w) = b_v - (i/sqrt(beta)) b_z,

with SPD real and imaginary parts (K = A'_u, zeta >= 0), which
``fem.symmetric_lu`` factorizes with diagonal pivots.  For point data
C*C = C'C, applied as C'(C v) and never stored sparse, has rank at most
n_obs, and diagonal pivots fail.  Up to ``DENSE_MAX_NV`` state dofs
LAPACK's LU with partial pivoting factorizes the dense real matrix,
filled in place from dense blocks kept per subproblem (K) and per mesh
and observation (M_V, M_Q, C'GC).  Above, with X = K^-1 C' and
S = X' M_V X, the Woodbury identity (Hansen, Rank-Deficient and
Discrete Ill-Posed Problems, 1998) leaves an SPD system for y = C v,

    (I + beta S) y = X' (beta M_V K^-1 b_v - b_z),     z~ = X y - K^-1 b_v,

and v = -K^-1 (b_z + beta M_V z~).  K's factor, X and S depend on the
mesh and base point only, so the subproblem keeps them: another beta
costs one Cholesky factorization of I + beta S.  Every sparse
factorization is ``fem.symmetric_lu``, each solve refined once.
Solutions are re-substituted into the rows above, on the dense route by
products with its blocks, never with the factorized matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs

from . import fem, problem as pb
from .fem import Field, Space, interpolate_onto, qspace, vspace
from .mesh import QuadMesh

__all__ = ["LinearizedSubproblem", "KktSolution", "KktError",
           "build_subproblem", "solve_kkt", "solve_second_order",
           "adjoint_at_base"]


class KktError(fem.SolverError):
    reason = "kkt-failure"


# The largest n_V whose point-data KKT system takes the dense LU.  A first
# solve_kkt and solve_second_order, dense/Woodbury (1 BLAS thread, 2-core
# Xeon): 1.2-1.4/2.0-2.2 ms at n_V = 103, 1.5-2.2/1.7-2.8 at 138, 4.2-5.8/
# 2.3-3.6 at 213; a further beta, 0.6-1.0/0.4-0.6 ms at 103.
DENSE_MAX_NV = 128


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
    c_res: np.ndarray
    r_g: np.ndarray
    a_res: np.ndarray
    obs: object
    data_g: np.ndarray  # the data vector g in the data space

    def factorization(self, beta: float):
        """The reduced KKT matrix of beta factorized: solve(b_v, b_z) ->
        (v, z~)."""
        return (_ComplexLU if self.obs.normal_is_mass else _DenseLU
                if self.V.dim <= DENSE_MAX_NV else _Woodbury)(self, beta)

    @functools.cached_property
    def woodbury_base(self):
        """(K's factor, X = K^-1 C', S = X' M_V X) of the Woodbury route."""
        lu = fem.symmetric_lu(self.K, "KKT")
        X = lu.solve(self.C.T.toarray())
        return lu, X, X.T @ (self.V.mass() @ X)

    @functools.cached_property
    def dense_K(self) -> np.ndarray:
        """K as a dense array, the dense route's block of the subproblem."""
        return self.K.toarray()

    def normal(self, v: np.ndarray) -> np.ndarray:
        """C*C v: M_V v for L^2 data, else C' G C v (C*C never formed)."""
        if self.obs.normal_is_mass:
            return self.V.mass() @ v
        return fem._transpose_product(self.C, self.obs.gram(self.Q, self.C @ v))

    def misfit(self, v: np.ndarray):
        """(|C v + r_g|_G^2, C v + r_g) for V coefficients v."""
        m = self.C @ v + self.r_g
        return float(m @ self.obs.gram(self.Q, m)), m


def build_subproblem(problem: pb.ModelProblem, mesh: QuadMesh,
                     q_old: Field, u_old: Field, q0: Field,
                     obs, g: np.ndarray) -> LinearizedSubproblem:
    """Assemble all operators of the linearized problem on a mesh.

    ``g`` is the data vector on the mesh (``obs.restrict``), of C's row
    count (else ValueError).  With C = obs.matrix(V) and G the Gram
    weight of the data space, r_g = C u_old - g and c_res = C' G r_g.
    """
    V, Q = vspace(mesh), qspace(mesh)
    C = obs.matrix(V)
    if len(g) != C.shape[0]:
        raise ValueError(f"need {C.shape[0]} data values, got {len(g)}")
    q_old_h = interpolate_onto(q_old, mesh)
    u_old_h = interpolate_onto(u_old, mesh)
    K = pb.linearized_state_operator(problem, V, u_old_h)
    r_g = C @ u_old_h.coeffs - g
    a_res = pb.semilinear_residual(problem, q_old_h, u_old_h, V)
    return LinearizedSubproblem(
        problem=problem, mesh=mesh, V=V, Q=Q, q_old=q_old, u_old=u_old,
        q_old_h=q_old_h, u_old_h=u_old_h, q0=interpolate_onto(q0, mesh),
        K=K, M_Q=Q.mass(), C=C, r_g=r_g, a_res=a_res, obs=obs, data_g=g,
        c_res=fem._transpose_product(C, obs.gram(Q, r_g)),
    )


@dataclass
class KktSolution:
    """Primal/dual triple of one subproblem, with u = u_old + v: the one
    handle of a Gauss-Newton step, from which every estimate reads."""

    sub: LinearizedSubproblem
    beta: float
    q: Field
    v: Field
    u: Field
    z: Field
    stationarity: tuple
    factorization: object = dc_field(repr=False, compare=False)

    def misfit_sq(self) -> float:
        """|C'(u_old) v + C(u_old) - g_delta|_G^2 (this is I2h)."""
        return self.sub.misfit(self.v.coeffs)[0]


class _DenseLU:
    """LAPACK LU, partial pivoting, of the dense reduced matrix, with its
    blocks; an exactly zero pivot (LAPACK only reports it) raises KktError."""

    def __init__(self, sub: LinearizedSubproblem, beta: float):
        M_V, self.M_Q, self.normal = fem._cached(
            sub.mesh, ("dense", sub.obs), lambda: (
                sub.V.mass().toarray(), sub.M_Q.toarray(),
                (C := sub.C.toarray()).T @ sub.obs.gram(sub.Q, C)))
        self.K, n = sub.dense_K, sub.V.dim
        A = np.empty((2 * n, 2 * n), order="F")  # LAPACK's layout: no copy
        A[:n, :n], A[:n, n:], A[n:, :n] = self.normal, -self.K.T, -self.K
        A[n:, n:] = -beta * M_V
        self.lu, self.piv, info = dgetrf(A, overwrite_a=True)
        if info > 0:
            raise KktError(f"KKT factorization failed: exactly singular "
                           f"(pivot {info} of {len(self.lu)} is zero)")

    def solve(self, b_v: np.ndarray, b_z: np.ndarray):
        x = dgetrs(self.lu, self.piv, np.concatenate([b_v, b_z]))[0]
        return x[:len(b_v)], x[len(b_v):]


class _Woodbury:
    """Solves of the real reduced matrix of point data through K's factor
    (see the module docstring), each refined once against the blocks."""

    def __init__(self, sub: LinearizedSubproblem, beta: float):
        self.sub, self.beta = sub, beta
        self.lu, self.X, S = sub.woodbury_base
        self.chol, info = dpotrf(np.eye(len(S)) + beta * S)
        if info > 0:
            raise KktError(f"KKT factorization failed: I + beta S is not "
                           f"positive definite (pivot {info})")

    def solve(self, b_v: np.ndarray, b_z: np.ndarray, refine: bool = True):
        sub, beta, X, M = self.sub, self.beta, self.X, self.sub.V.mass()
        t = self.lu.solve(b_v)
        y = dpotrs(self.chol, X.T @ (beta * (M @ t) - b_z))[0]
        z = X @ y - t
        v = -self.lu.solve(b_z + beta * (M @ z))
        if not refine:
            return v, z
        dv, dz = self.solve(
            b_v - (sub.normal(v) - fem._transpose_product(sub.K, z)),
            b_z + (sub.K @ v + beta * (M @ z)), refine=False)
        return v + dv, z + dz


class _ComplexLU:
    """Diagonal-pivot LU of the complex form A = M_V + (i/sqrt(beta)) K of
    L^2 data (CSR = CSC: one symmetric pattern), each solve refined once."""

    def __init__(self, sub: LinearizedSubproblem, beta: float):
        K, M = sub.K, sub.V.mass()
        if not (np.array_equal(K.indptr, M.indptr)
                and np.array_equal(K.indices, M.indices)):
            raise ValueError("K and M_V patterns differ")
        self.s = np.sqrt(beta)
        self.A = sp.csc_matrix((M.data + (1j / self.s) * K.data,
                                K.indices, K.indptr), shape=K.shape)
        self.lu = fem.symmetric_lu(self.A, "KKT")

    def solve(self, b_v: np.ndarray, b_z: np.ndarray):
        b = b_v - (1j / self.s) * b_z
        x = self.lu.solve(b)
        x += self.lu.solve(b - self.A @ x)
        return x.real.copy(), x.imag / self.s


def _solve_reduced(sub: LinearizedSubproblem, lu, beta: float, rhs_v,
                   rhs_z, q0):
    """(q, v, z) from the reduced system of beta, factorized in lu, with
    right-hand side (rhs_v, rhs_z) and the control q = q0 - beta inc z~."""
    v, zt = lu.solve(rhs_v, rhs_z)
    q = q0.copy()
    q[fem._q_dofs(sub.mesh, "V")[0]] -= beta * zt
    return q, v, 2.0 * zt


def solve_kkt(sub: LinearizedSubproblem, beta: float) -> KktSolution:
    """Solve the subproblem for beta through its reduced state/adjoint
    system.

    Verifies the three stationarity residuals by re-substitution and
    raises KktError beyond a 1e-8 relative tolerance.
    """
    q0, q_old = sub.q0.coeffs, sub.q_old_h.coeffs
    keep = fem._q_dofs(sub.mesh, "V")[0]  # L x = -(M_Q x)[keep]
    M_old, M_0 = (sub.M_Q @ np.column_stack([q_old, q0])).T
    rhs_z = sub.a_res + M_old[keep]
    lu = sub.factorization(beta)
    q, v, z = _solve_reduced(sub, lu, beta, -sub.c_res, rhs_z - M_0[keep], q0)

    inc_z = np.zeros(sub.Q.dim)
    inc_z[keep] = z
    steps = np.array([q - q0, inc_z, q - q_old]).T
    if isinstance(lu, _DenseLU):  # its blocks, not its factorized matrix
        (M_dq, M_z, M_step), CCv = (lu.M_Q @ steps).T, lu.normal @ v
        K_v, Kt_z = lu.K @ v, lu.K.T @ z
    else:
        (M_dq, M_z, M_step), CCv = (sub.M_Q @ steps).T, sub.normal(v)
        K_v, Kt_z = sub.K @ v, fem._transpose_product(sub.K, z)
    res_q = (2.0 / beta) * M_dq + M_z  # L' z = -M_z
    res_v = 2.0 * (CCv + sub.c_res) - Kt_z
    res_z = -M_step[keep] + K_v + sub.a_res
    scale = max(1.0, np.abs(np.concatenate(  # of the right-hand side above
        [(1.0 / beta) * M_0, sub.c_res, rhs_z, z, q, v])).max())  # and x
    norms = tuple(np.abs(r).max() / scale for r in (res_q, res_v, res_z))
    if not all(r <= 1e-8 for r in norms):  # NaN fails too
        raise KktError(f"stationarity residuals too large: {norms} "
                       f"(beta={beta:g}, n_V={sub.V.dim})")
    return KktSolution(
        sub=sub, beta=beta, q=Field(sub.Q, q), v=Field(sub.V, v),
        u=Field(sub.V, sub.u_old_h.coeffs + v), z=Field(sub.V, z),
        stationarity=norms, factorization=lu)


def solve_second_order(sol: KktSolution):
    """Auxiliary fields (q, v, z) of the I2 estimator for a solution.

    The subproblem is linear-quadratic, so the Lagrangian Hessian is the
    constant KKT operator: one more solve with the factorization of
    ``sol``, with right-hand side -I2'(u_h), gives the triple.
    """
    sub = sol.sub
    q, v, z = _solve_reduced(sub, sol.factorization, sol.beta,
                             -(sub.normal(sol.v.coeffs) + sub.c_res),
                             np.zeros(sub.V.dim), np.zeros(sub.Q.dim))
    return Field(sub.Q, q), Field(sub.V, v), Field(sub.V, z)


def adjoint_at_base(sub: LinearizedSubproblem) -> Field:
    """Adjoint state of the optimality system at the base point itself.

    Solves K' z = 2 C'* (C(u_old) - g_delta) with the subproblem's
    operators, frozen at (q_old, u_old).  Its W-norm, |grad z| under the
    H^1_0 identification (``z.norm_h1semi()``), drives the penalty-weight
    update.  K = A'_u is SPD: CG as in the forward solve.
    """
    rhs = 2.0 * sub.c_res
    solver = sub.V.stiffness_solver()
    z0 = solver.solve(rhs)
    z = pb._pcg(sub.K, solver.solve, rhs, z0,
                1e-13 * np.sqrt(max(rhs @ z0, 0.0)))
    if z is None:
        raise KktError("adjoint CG broke down")
    return Field(sub.V, z)
