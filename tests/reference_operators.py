"""Per-mesh operators built the direct way: COO condensation, sparse
products and row slices.  ``fem`` builds the same matrices from index
arrays, without intermediate sparse objects; these are the references
they must equal entry for entry, in ``data``, ``indices`` and
``indptr``.  ``L`` also serves the tests that need the subproblem's
control block, which the subsolver applies by index operations."""

import numpy as np
import scipy.sparse as sp

from ggnfem import fem
from ggnfem.fem import qspace, vspace
from ggnfem.mesh import locate


def condensation(mesh, kind):
    """Free vertices of a space and its inclusion matrix T."""
    nv = mesh.n_vertices
    hanging, parents = mesh.hanging[:, 0], mesh.hanging[:, 1:]
    free_mask = np.ones(nv, dtype=bool)
    free_mask[hanging] = False
    if kind == "V":
        free_mask &= ~mesh.boundary
    free = np.nonzero(free_mask)[0]
    col_of = np.full(nv, -1, dtype=np.int64)
    col_of[free] = np.arange(len(free))
    # A free vertex is its own column; a hanging one takes half of each
    # parent that is free.
    rows = np.concatenate([free, np.repeat(hanging, 2)])
    cols = np.concatenate([col_of[free], col_of[parents].ravel()])
    vals = np.concatenate([np.ones(len(free)), np.full(parents.size, 0.5)])
    keep = cols >= 0
    T = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(nv, len(free)))
    return free, T


def expand(T, verts):
    """One (reference index, free column, weight) triple per nonzero of
    the referenced rows of T, by repeats over the row counts."""
    counts = np.diff(T.indptr)[verts]
    src = np.repeat(np.arange(len(verts), dtype=np.int32), counts)
    first = T.indptr[verts] - (np.cumsum(counts, dtype=np.int32) - counts)
    k = np.arange(len(src), dtype=np.int32) + np.repeat(first, counts)
    return src, T.indices[k], T.data[k]


def load_map(mesh):
    """T' S through a COO matrix."""
    e, r, w = expand(condensation(mesh, "Q")[1], mesh.cell_corners.ravel())
    return sp.csr_matrix((w, (r, e)), shape=(qspace(mesh).dim,
                                             4 * mesh.n_cells))


def q_plan(mesh):
    """(indptr, indices, P) of the Q assembly plan, triples by ``expand``."""
    T = condensation(mesh, "Q")[1]
    corners = mesh.cell_corners.astype(np.int32)
    e, rows, w = expand(T, np.repeat(corners, 4, axis=1).ravel())
    k, cols, wc = expand(T, np.tile(corners, (1, 4)).ravel()[e])
    key = rows[k].astype(np.int64) * T.shape[1] + cols
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1)).astype(np.int32)
    key = key[first]
    P = sp.csr_matrix(
        ((w[k] * wc)[order], e[k][order],
         np.append(first, np.int32(len(order)))),
        shape=(len(key), 16 * mesh.n_cells))
    indptr = np.searchsorted(key, np.arange(T.shape[1] + 1) * T.shape[1])
    indices = (key % T.shape[1]).astype(np.int32)
    return indptr.astype(np.int32), indices, P


def point_matrix(space, points):
    """C = S T: corner shape values at the points, zeros dropped, times
    the space's reference T."""
    mesh = space.mesh
    cids, locs = locate(mesh, points)
    full = sp.csr_matrix(
        (fem.shape_values(locs).ravel(),
         (np.repeat(np.arange(len(cids)), 4),
          mesh.cell_corners[cids].ravel())),
        shape=(len(cids), mesh.n_vertices))
    full.eliminate_zeros()
    return (full @ condensation(mesh, space.kind)[1]).tocsr()


def transpose(C):
    return C.T.tocsr()


def normal_matrix(C):
    return (C.T @ C).tocsr()


def v_to_q(mesh):
    """Rows of V's T at Q's free vertices."""
    return (condensation(mesh, "V")[1].tocsr()
            [condensation(mesh, "Q")[0], :]).tocsr()


def L(mesh):
    """The control block L = -M_VQ of the state equation."""
    return -fem.assemble_mass(vspace(mesh), qspace(mesh))


def patch_basis(pos, pts):
    """Biquadratic patch basis minus the bilinear leaf basis, (..., 9, 3),
    with einsum outer products and a one-hot corner product."""
    dx, dy = pos % 2, pos // 2

    def lagrange(t):
        return (np.stack([2 * (t - 0.5) * (t - 1.0), -4 * t * (t - 1.0),
                          2 * t * (t - 0.5)], axis=-1),
                np.stack([2 * t - 1.5, 2.0 - 4 * t, 2 * t - 0.5], axis=-1))

    ls, dls = lagrange(0.5 * (pts[..., 0] + dx))
    lt, dlt = lagrange(0.5 * (pts[..., 1] + dy))
    shape = pos.shape + (9,)
    out = np.stack([np.einsum("...j,...i->...ji", a, b).reshape(shape)
                    for a, b in ((lt, ls), (lt, dls), (dlt, ls))], axis=-1)
    corners = (3 * (dy[..., None] + np.array([0, 0, 1, 1]))
               + dx[..., None] + np.array([0, 1, 0, 1]))
    bilin = np.concatenate([fem.shape_values(pts)[..., None],
                            fem.shape_gradients(pts)], axis=-1)
    return out - np.einsum("...cn,...ck->...nk",
                           corners[..., None] == np.arange(9), bilin)
