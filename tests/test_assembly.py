"""Cached assembly plans, the cached layout of the full KKT matrix and
the dense reduced matrix of point data against the direct constructions
they replace: element matrices scattered through COO and condensed as
T' A T, loads scattered with np.add.at, and block matrices built by
sp.bmat."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgetrf

from ggnfem import fem, problem as pb, subsolver as ss
from ggnfem.fem import Field, qspace, vspace
from ggnfem.mesh import refine, uniform_mesh

import kkt_oracle
from conftest import cell_values, gauss_rule, graded_meshes

RTOL = 1e-13
# The cubic term and the weighted mass have degree 4 per variable: a rule
# beyond the package's one checks that fem.NQ integrates them exactly.
EXACT = gauss_rule(4)


def _reference_assemble(space_row, space_col, elems):
    mesh = space_row.mesh
    corners = mesh.cell_corners
    A = sp.coo_matrix(
        (np.asarray(elems).ravel(),
         (np.repeat(corners, 4, axis=1).ravel(),
          np.tile(corners, (1, 4)).ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    return (space_row.T.T @ A @ space_col.T).tocsr()


def _reference_stiffness(space):
    _, wts, _, grads = gauss_rule(fem.NQ)
    ref = np.einsum("q,qid,qjd->ij", wts, grads, grads)
    return _reference_assemble(
        space, space, np.broadcast_to(ref, (space.mesh.n_cells, 4, 4)))


def _reference_mass(space_row, space_col):
    _, wts, shapes, _ = gauss_rule(fem.NQ)
    ref = np.einsum("q,qi,qj->ij", wts, shapes, shapes)
    h2 = space_row.mesh.cell_sizes() ** 2
    return _reference_assemble(space_row, space_col,
                               h2[:, None, None] * ref[None])


def _reference_weighted_mass(space, weight):
    mesh = space.mesh
    _, wts, shapes, _ = EXACT
    wvals = cell_values(weight, shapes)
    elems = np.einsum("c,cq,q,qi,qj->cij", mesh.cell_sizes() ** 2,
                      wvals**2, wts, shapes, shapes)
    return _reference_assemble(space, space, elems)


def _reference_load(space, fvals, rule):
    mesh = space.mesh
    _, wts, shapes, _ = rule
    loads = np.einsum("c,cq,q,qi->ci", mesh.cell_sizes() ** 2, fvals, wts,
                      shapes)
    full = np.zeros(mesh.n_vertices)
    np.add.at(full, mesh.cell_corners.ravel(), loads.ravel())
    return space.T.T @ full


def _reference_kkt(beta, K, L, M_Q, CtC):
    b = 1.0 / beta
    return sp.bmat([[b * M_Q, None, -L.T],
                    [None, CtC, -K.T],
                    [-L, -K, None]], format="csc")


def _reference_reduced(beta, K, M_V, CtC):
    return sp.bmat([[CtC, -K.T], [-K, -beta * M_V]], format="csc")


def _factorized_matrix(sub, beta):
    """The dense reduced matrix that the dense LU hands to LAPACK."""
    seen = []

    def getrf(A, **kwargs):
        seen.append(A.copy())
        return dgetrf(A, **kwargs)

    with mock.patch.object(ss, "dgetrf", getrf):
        ss._DenseLU(sub, beta)
    return seen[0]


def _close(got, ref):
    if sp.issparse(got):
        assert got.shape == ref.shape
        got, ref = got.toarray(), ref.toarray()
    scale = max(np.abs(ref).max(), 1e-300)
    assert np.abs(got - ref).max() <= RTOL * scale


@settings(max_examples=8, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
def test_plan_assembly_matches_reference(mesh, seed):
    rng = np.random.default_rng(seed)
    V, Q = vspace(mesh), qspace(mesh)
    for space in (V, Q):
        _close(fem.assemble_stiffness(space), _reference_stiffness(space))
        _close(space.mass(), _reference_mass(space, space))
        w = Field(space, rng.uniform(-1.0, 1.0, space.dim))
        _close(fem.assemble_weighted_mass(space, w),
               _reference_weighted_mass(space, w))
        _close(fem.assemble_functional(space, w),
               _reference_load(space, cell_values(w, EXACT[2]), EXACT))
    u = Field(V, rng.uniform(-1.0, 1.0, V.dim))
    uv = cell_values(u, EXACT[2])
    _close(pb._cubic_term(V, u), _reference_load(V, uv**3, EXACT))
    # Values that are no Q1 field's go through the same load map.
    fvals = rng.uniform(-1.0, 1.0, (mesh.n_cells, fem.NQ**2))
    _close(fem._load_vector(Q, fvals),
           _reference_load(Q, fvals, gauss_rule(fem.NQ)))


@settings(max_examples=6, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16),
       point=st.booleans())
def test_kkt_layout_matches_bmat(mesh, seed, point):
    rng = np.random.default_rng(seed)
    prob = pb.ModelProblem(zeta=100.0)
    V, Q = vspace(mesh), qspace(mesh)
    q_old = Field(Q, rng.uniform(-1.0, 1.0, Q.dim))
    u_old = Field(V, rng.uniform(-0.5, 0.5, V.dim))
    if point:
        obs = pb.PointObs(3)
        data = rng.uniform(-1.0, 1.0, obs.n_obs)
        C = obs.matrix(V)
        CtC = C.T @ C
    else:
        obs = pb.L2Obs()
        data = rng.uniform(-1.0, 1.0, Q.dim)
        inc = fem.v_to_q(mesh)
        CtC = inc.T @ _reference_mass(Q, Q) @ inc
    K = (_reference_stiffness(V)
         + 300.0 * _reference_weighted_mass(V, u_old))
    L = -_reference_mass(V, Q)
    M_Q = _reference_mass(Q, Q)
    sub = ss.build_subproblem(prob, mesh, q_old, u_old, Q.zeros(), obs, data)
    M_V = _reference_mass(V, V)
    for beta in (7.0, 0.03):
        _close(_factorized_matrix(sub, beta),
               _reference_reduced(beta, K, M_V, CtC).toarray())
        _close(kkt_oracle.kkt_matrix(sub, beta),
               _reference_kkt(beta, K, L, M_Q, CtC))


def test_linearized_operator_keeps_plan_pattern():
    mesh = refine(refine(uniform_mesh(2), {1, 6}), {0, 3})
    assert len(mesh.hanging)
    V = vspace(mesh)
    indptr, indices, _ = fem._assembly_plan(V)
    prob = pb.ModelProblem(zeta=100.0)
    for u in (V.zeros(), V.interpolate(lambda x, y: x * y)):
        J = pb.linearized_state_operator(prob, V, u)
        assert np.array_equal(J.indptr, indptr)
        assert np.array_equal(J.indices, indices)
        # Data added on the plan's own arrays, not a sparse sum.
        assert np.shares_memory(J.indices, indices)
    J0 = pb.linearized_state_operator(prob, V, V.zeros())
    _close(J0, _reference_stiffness(V))


def test_kkt_layout_rejects_foreign_block_pattern():
    """The complex form of L^2 data needs K on M_V's pattern."""
    mesh = refine(uniform_mesh(2), {0, 5})
    V, Q = vspace(mesh), qspace(mesh)
    l2 = ss.build_subproblem(pb.ModelProblem(zeta=100.0), mesh, Q.zeros(),
                             V.zeros(), Q.zeros(), pb.L2Obs(), np.zeros(Q.dim))
    l2.factorization(1.0)
    corner = sp.csr_matrix(([1.0], ([0], [V.dim - 1])), shape=l2.K.shape)
    assert corner.multiply(l2.K).nnz == 0  # an entry outside the pattern
    with pytest.raises(ValueError, match="pattern"):
        dataclasses.replace(l2, K=(l2.K + corner).tocsr()).factorization(1.0)
