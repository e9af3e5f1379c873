"""Per-mesh operators built from index arrays against the sparse
constructions they replace (``reference_operators``): the same
``data``, ``indices`` and ``indptr``, on graded meshes with hanging
vertices and with observation points on cell edges and vertices.  C' is
no longer stored; its product equals the stored transpose's bit for
bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggnfem import fem, problem as pb
from ggnfem.mesh import refine, uniform_mesh

import reference_operators as ref
from conftest import graded_meshes


def _same(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _point_sets(seed):
    """The benchmark lattice, a lattice on the dyadic lines x, y = k/4
    and points on the grid of level 3 (edges and vertices of most
    leaves), and random points."""
    rng = np.random.default_rng(seed)
    return (pb.PointObs(9).points, pb.PointObs(3).points,
            rng.integers(0, 9, (25, 2)) / 8, rng.random((20, 2)))


def _check_operators(mesh, seed):
    for kind in ("Q", "V"):
        free, T = ref.condensation(mesh, kind)
        space = fem.Space(mesh, kind)
        assert np.array_equal(space.free, free)
        _same(space.T, T)
        for points in _point_sets(seed):
            C, CtC = fem._point_operators(space, points)
            C_ref = ref.point_matrix(space, points)
            _same(C, C_ref)
            w = np.random.default_rng(seed).standard_normal(len(points))
            assert np.array_equal(fem._transpose_product(C, w),
                                  ref.transpose(C_ref) @ w)
            _same(CtC, ref.normal_matrix(C_ref))
            assert fem.point_matrix(space, points) is C
    _same(fem.v_to_q(mesh), ref.v_to_q(mesh))
    _same(fem._load_map(mesh), ref.load_map(mesh))
    indptr, indices, P = fem._q_plan(mesh)
    indptr_ref, indices_ref, P_ref = ref.q_plan(mesh)
    assert np.array_equal(indptr, indptr_ref)
    assert np.array_equal(indices, indices_ref)
    _same(P, P_ref)


@settings(max_examples=25, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
def test_operators_match_sparse_constructions(mesh, seed):
    _check_operators(mesh, seed)


@pytest.mark.parametrize("level", [0, 1, 3])
def test_operators_on_uniform_meshes(level):
    """No hanging vertex (the plain-gather path of ``_expand``); the
    single-cell mesh has no V dofs at all."""
    _check_operators(uniform_mesh(level), level)


@settings(max_examples=15, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
def test_patch_basis_matches_einsum_form(mesh, seed):
    """Equal values (a zero may differ in sign) in the same memory layout,
    so the weights at the points come out bit for bit the same."""
    pos = fem._patch_table(mesh)[1]
    for points in _point_sets(seed):
        cids, locs = fem.point_locations(mesh, points)
        got = fem._patch_basis(pos[cids], locs)
        want = ref.patch_basis(pos[cids], locs)
        assert np.array_equal(got, want) and got.strides == want.strides
        node_vals = np.random.default_rng(seed).standard_normal((len(cids), 9))
        assert np.array_equal(np.einsum("ci,cik->ck", node_vals, got),
                              np.einsum("ci,cik->ck", node_vals, want))


def test_v_space_condenses_through_q():
    """V's T is Q's T with V's dof columns kept: a hanging vertex next to
    the boundary keeps only its interior parent."""
    mesh = refine(uniform_mesh(1), {0})
    Q, V = fem.qspace(mesh), fem.vspace(mesh)
    keep = fem._q_dofs(mesh, "V")[0]
    assert np.array_equal(V.T.toarray(), Q.T.toarray()[:, keep])
    assert (np.diff(V.T.indptr)[mesh.hanging[:, 0]] == 1).all()
