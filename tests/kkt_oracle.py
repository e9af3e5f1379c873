"""The full saddle-point KKT system of a linearized subproblem, as the
subsolver assembled and factorized it before the control was eliminated:
the reference for the reduced state/adjoint route.

    [ (1/beta) M_Q   0      -L'  ] [q ]
    [ 0              C*C    -K'  ] [v ]
    [ -L             -K      0   ] [z~]

``refined_solve`` solves it by LU plus iterative refinement with
residuals accumulated in extended precision (np.longdouble), so its
error stays far below that of either route in plain double precision.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ggnfem import fem, subsolver as ss

import reference_operators


def normal_matrix(sub):
    """C*C = C' G C, sparse: M_V for L^2 data, C'C for point data."""
    if sub.obs.normal_is_mass:
        return sub.V.mass()
    return reference_operators.normal_matrix(sub.C)


def kkt_layout(sub):
    """Cached KKT pattern of a mesh and observation: (indptr, indices,
    slots, block patterns) with KKT data = concat(block data)[slots] for
    the blocks (1/beta) M_Q, C*C, -L, -K."""
    blocks = (sub.M_Q, normal_matrix(sub), reference_operators.L(sub.mesh),
              sub.K)

    def build():
        # Number the entries of all blocks 1, 2, ... and read back where
        # each number lands; L and K appear twice (with their transposes).
        marks, start = [], 1
        for B in blocks:
            marks.append(sp.csr_matrix(
                (np.arange(start, start + B.nnz, dtype=float), B.indices,
                 B.indptr), shape=B.shape))
            start += B.nnz
        MQ, CtC, L, K = marks
        A = sp.bmat([[MQ, None, L.T], [None, CtC, K.T], [L, K, None]],
                    format="csc")
        A.sum_duplicates()
        slots = A.data.astype(np.int64) - 1
        for a in (A.indptr, A.indices, slots):
            a.flags.writeable = False
        return (A.indptr, A.indices, slots,
                [(B.indptr, B.indices) for B in blocks])

    indptr, indices, slots, patterns = fem._cached(
        sub.mesh, ("kkt", sub.obs.kind, sub.C.shape[0]), build)
    for B, (ptr, ind) in zip(blocks, patterns):
        if not (np.array_equal(B.indptr, ptr)
                and np.array_equal(B.indices, ind)):
            raise ValueError("KKT block pattern differs from the cached "
                             "layout of its mesh")
    return indptr, indices, slots


def kkt_matrix(sub, beta) -> sp.csc_matrix:
    indptr, indices, slots = kkt_layout(sub)
    data = np.concatenate([(1.0 / beta) * sub.M_Q.data,
                           normal_matrix(sub).data,
                           -reference_operators.L(sub.mesh).data, -sub.K.data])
    n = sub.Q.dim + 2 * sub.V.dim
    return sp.csc_matrix((data[slots], indices, indptr), shape=(n, n))


def kkt_rhs(sub, beta) -> np.ndarray:
    """Right-hand side of the subproblem's KKT system for beta."""
    return np.concatenate([
        (1.0 / beta) * (sub.M_Q @ sub.q0.coeffs),
        -sub.c_res,
        sub.a_res - reference_operators.L(sub.mesh) @ sub.q_old_h.coeffs,
    ])


def second_order_rhs(sub, v) -> np.ndarray:
    """Right-hand side of the auxiliary system of solve_second_order."""
    return np.concatenate([np.zeros(sub.Q.dim), -(sub.normal(v) + sub.c_res),
                           np.zeros(sub.V.dim)])


def refined_solve(sub, beta, rhs, steps=30):
    """(q, v, z = 2 z~) of the KKT system of beta with right-hand side
    ``rhs``, refined until a correction no longer changes the solution."""
    A = kkt_matrix(sub, beta)
    lu = spla.splu(A)
    A_ld = A.astype(np.longdouble)
    b = rhs.astype(np.longdouble)
    x = lu.solve(rhs).astype(np.longdouble)
    for _ in range(steps):
        dx = lu.solve(np.asarray(b - A_ld @ x, dtype=float))
        x += dx
        if np.abs(dx).max() <= 1e-17 * np.abs(x).max():
            break
    else:
        raise AssertionError("iterative refinement did not converge")
    x = np.asarray(x, dtype=float)
    nq, nv = sub.Q.dim, sub.V.dim
    return x[:nq], x[nq:nq + nv], 2.0 * x[nq + nv:]
