"""Q1 finite elements on quadtree meshes.

Spaces come in two flavors on the same mesh: ``V`` (H^1_0-conforming,
zero boundary values) and ``Q`` (L^2-type, all non-hanging vertices
free).  Hanging-vertex constraints are eliminated by condensation
through the inclusion matrix ``T`` which expands free coefficients to
continuous all-vertex values; assembled operators are ``T' A_full T``
and stay symmetric.

Old iterates keep their own (coarser) meshes; because refinement is
nested, re-interpolating a field onto any refinement of its mesh is
pointwise exact, so cross-mesh evaluation carries no projection error.
The source leaf containing each target cell is found by index
arithmetic on the linear quadtree (Morton codes, one sorted search).
The other way, a fine field's mass or stiffness moments against the
corner shapes of every coarser dyadic cell follow from its own cells'
moments level by level (``cell_moments``); they give L^2 restriction
and fine-mesh norms of differences in O(coarse cells).

Assembly is split into a symbolic and a numeric part.  The symbolic
part, built once per mesh, is an assembly plan: the condensed CSR
pattern and one sparse map P from element matrices to its data, which
composes the scatter onto the vertices with the condensation T' . T
(``_q_plan``; load vectors use the map T' S, ``_load_map``).  P is
built for the Q space only: a plan involving V is the list of Q entries
it keeps (``_assembly_plan``), and a V load vector is the Q one
restricted to V's dofs.  Each assembly then only computes element data
and applies P.  Matrices of one plan share its pattern arrays, so adding
their data adds the matrices.  Other per-mesh operators (T, C, C'C, the
V-to-Q inclusion) are built from index arrays, entry for entry as the
sparse products they replace.

Stiffness and mass solves use one ``symmetric_lu`` factorization per
mesh, except V stiffness solves on a fine uniform mesh: sine transforms
diagonalize that matrix (``_SineSolver``), so nothing is factorized.

Everything derived from one mesh -- the condensation and dof selection
of each space, the assembly plans, the load map, its assembled operators
and solvers, the V-to-Q inclusion, the cell origin tables, the patch
table of the DWR weights, point locations, observation matrices C and
C'C and the patch basis at the points, and the containment maps into
finer meshes -- is cached in one per-mesh context (``_cached``); a
field's moment table, load vector and quadrature values are kept in a
context of the field.
Contexts sit in a ``WeakKeyDictionary`` keyed by their owner and hold
nothing that refers back to it, so each one dies with its owner.  For
the same reason a ``Space`` is a light view over its context entry and
is rebuilt on demand rather than cached itself.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial.legendre import leggauss

from .mesh import _CORNERS, DEPTH, QuadMesh, locate

__all__ = [
    "SolverError",
    "FactorizationError",
    "symmetric_lu",
    "Space",
    "Field",
    "gauss_points",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_weighted_mass",
    "assemble_functional",
    "riesz_dual_norm",
    "bilinear",
    "point_locations",
    "point_matrix",
    "interpolate_onto",
    "cell_moments",
    "v_to_q",
    "patch_interpolate",
    "PatchWeight",
    "write_mesh_vtk",
    "write_field_vtk",
    "write_field_csv",
]

NQ_BASE = 3  # tensor Gauss order for bilinear forms with Q1 data
NQ_WEIGHTED = 4  # order for cubic-weight terms and estimator pairings


def gauss_points(n: int):
    """Tensor Gauss rule on the unit square: (points (n*n,2), weights)."""
    x, w = leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    ps, pt = np.meshgrid(x, x, indexing="ij")
    ws, wt = np.meshgrid(w, w, indexing="ij")
    pts = np.column_stack([ps.ravel(), pt.ravel()])
    return pts, (ws * wt).ravel()


def shape_values(pts: np.ndarray) -> np.ndarray:
    """Bilinear basis (SW,SE,NW,NE) at local points (..., 2), shape (..., 4)."""
    s, t = pts[..., 0], pts[..., 1]
    s1, t1 = 1 - s, 1 - t
    # Filling a preallocated array is several times faster than np.stack
    # on large point sets.
    out = np.empty(s.shape + (4,))
    for i, (a, b) in enumerate(((s1, t1), (s, t1), (s1, t), (s, t))):
        np.multiply(a, b, out=out[..., i])
    return out


def shape_gradients(pts: np.ndarray) -> np.ndarray:
    """Reference gradients at local points (..., 2), shape (..., 4, 2)."""
    s, t = pts[..., 0], pts[..., 1]
    ds = np.stack([-(1 - t), 1 - t, -t, t], axis=-1)
    dt = np.stack([-(1 - s), -s, 1 - s, s], axis=-1)
    return np.stack([ds, dt], axis=-1)


def bilinear(corner_vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Q1 values at local cell points from the cell corner values.

    ``corner_vals`` (..., 4) and ``pts`` (..., 2) broadcast against each
    other.
    """
    return np.einsum("...i,...i->...", corner_vals, shape_values(pts))


class SolverError(RuntimeError):
    """A failed solve or factorization that ends a solver run; ``reason``
    is the run's termination, set by each subclass."""

    reason: str


class FactorizationError(SolverError):
    """A factorization by ``symmetric_lu`` failed."""

    reason = "kkt-failure"


def symmetric_lu(A, name: str):
    """LU factors, with diagonal pivots in a minimum-degree ordering of
    A' + A, of a symmetric matrix that is SPD or quasi-definite
    [[H, -B'], [-B, -D]], H and D SPD: every symmetric ordering of those
    has such a factorization (Vanderbei, SIAM J. Optim. 5, 1995)."""
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(
            f"{name} factorization failed: {exc}") from exc


# Uniform meshes from this level on solve stiffness systems by sine
# transforms; on coarser ones a sparse LU solve is faster.
SINE_MIN_LEVEL = 5


class _SineSolver:
    """K^-1 for the V stiffness matrix of a uniform mesh with 2^L cells a
    side, by fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6,
    1964).  On the interior grid K = A (x) M + M (x) A, with A =
    tridiag(-1, 2, -1) and M = tridiag(1, 4, 1) / 6 (h cancels), and the
    DST-I S diagonalizes both: x = S^-1 diag(1 / lam) S b, lam_jk = a_j m_k
    + m_j a_k, a_j = 2 - 2 cos(j pi / 2^L), m_j = (4 + 2 cos(j pi / 2^L)) / 6.
    Each free vertex goes to its grid position by its key."""

    def __init__(self, space: "Space"):
        n = 1 << space.mesh.max_level
        ky, kx = np.divmod(space.mesh.keys[space.free], n + 1)
        self._at = (ky - 1) * (n - 1) + (kx - 1)  # row-major, as the keys
        c = np.cos(np.arange(1, n) * np.pi / n)
        a, m = 2.0 - 2.0 * c, (4.0 + 2.0 * c) / 6.0
        self._lam = np.outer(a, m) + np.outer(m, a)

    def solve(self, b: np.ndarray) -> np.ndarray:
        from scipy.fft import dstn, idstn  # kept out of the package import

        x = np.zeros(self._lam.shape)
        x.reshape(-1)[self._at] = b
        x = dstn(x, type=1, overwrite_x=True)
        x /= self._lam
        return idstn(x, type=1, overwrite_x=True).reshape(-1)[self._at]


# owner (mesh or field) -> {key: object derived from the owner alone}; see
# the module docstring.  No value may refer to its owner, or it never dies.
_CONTEXTS = weakref.WeakKeyDictionary()


def _cached(owner, key: tuple, build):
    """The owner's context entry under key, built by build() on first use."""
    entries = _CONTEXTS.setdefault(owner, {})
    if key not in entries:
        entries[key] = build()
    return entries[key]


def _condensation(mesh: QuadMesh, kind: str):
    """Free vertices of a space and its inclusion matrix T, built in CSR:
    a free vertex is its own column, a hanging one takes half of each of
    its two (regular, ascending) parents.  V's T keeps Q's V columns."""
    if kind == "V":
        Q = qspace(mesh)
        keep, col_id = _q_dofs(mesh, "V")
        sel = keep[Q.T.indices]
        return Q.free[keep], sp.csr_matrix(
            (Q.T.data[sel], col_id[Q.T.indices[sel]],
             _offsets(sel)[Q.T.indptr]),
            shape=(mesh.n_vertices, col_id[-1] + 1))
    hanging, parents = mesh.hanging[:, 0], mesh.hanging[:, 1:]
    free_mask = np.ones(mesh.n_vertices, dtype=bool)
    free_mask[hanging] = False
    col_of = free_mask.cumsum() - 1
    counts = 2 - free_mask
    indptr = _offsets(counts)
    indices = col_of.repeat(counts)
    indices[indptr[hanging, None] + np.arange(2)] = col_of[parents]
    data = np.where(free_mask, 1.0, 0.5).repeat(counts)
    return free_mask.nonzero()[0], sp.csr_matrix(
        (data, indices.astype(np.int32), indptr),
        shape=(mesh.n_vertices, col_of[-1] + 1))


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers (int32) of rows with these entry counts."""
    return np.concatenate(([0], np.add.accumulate(counts, dtype=np.int32)),
                          dtype=np.int32)


class Space:
    """Q1 space on a mesh with hanging constraints condensed.

    ``kind`` is "V" (zero trace on the boundary) or "Q" (free boundary).
    The condensation and the operators live in the mesh's context, so
    every Space of the same mesh and kind shares them.
    """

    def __init__(self, mesh: QuadMesh, kind: str):
        if kind not in ("V", "Q"):
            raise ValueError("kind must be 'V' or 'Q'")
        self.mesh = mesh
        self.kind = kind
        self.free, self.T = _cached(mesh, ("space", kind),
                                    lambda: _condensation(mesh, kind))
        self.dim = len(self.free)

    def zeros(self) -> "Field":
        return Field(self, np.zeros(self.dim))

    def interpolate(self, f) -> "Field":
        """Nodal interpolation of a callable f(x, y) at the free vertices."""
        xy = self.mesh.vertices[self.free]
        return Field(self, np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float))

    def stiffness(self) -> sp.csr_matrix:
        return _cached(self.mesh, ("stiffness", self.kind),
                       lambda: assemble_stiffness(self))

    def mass(self) -> sp.csr_matrix:
        return _cached(self.mesh, ("mass", self.kind),
                       lambda: assemble_mass(self, self))

    # Both matrices are SPD, so diagonal pivots in a minimum-degree order
    # factorize them stably, with no pivot search.
    def _spd_solver(self, name: str, matrix):
        return _cached(self.mesh, (f"{name}_lu", self.kind),
                       lambda: symmetric_lu(matrix(), name))

    def stiffness_solver(self):
        """Solver of the stiffness matrix, built once per mesh: fast sine
        transforms (``_SineSolver``) on the V space of a uniform mesh of
        level >= SINE_MIN_LEVEL, else a ``symmetric_lu`` factorization."""
        mesh = self.mesh
        uniform = mesh.n_cells == 4 ** mesh.max_level  # all leaves that deep
        if self.kind == "V" and uniform and mesh.max_level >= SINE_MIN_LEVEL:
            return _cached(mesh, ("stiffness_dst",), lambda: _SineSolver(self))
        return self._spd_solver("stiffness", self.stiffness)

    def mass_solver(self):
        return self._spd_solver("mass", self.mass)

    def __repr__(self):
        return f"Space({self.kind}, dim={self.dim}, mesh={self.mesh!r})"


def vspace(mesh: QuadMesh) -> Space:
    return Space(mesh, "V")


def qspace(mesh: QuadMesh) -> Space:
    return Space(mesh, "Q")


def v_to_q(mesh: QuadMesh) -> sp.csr_matrix:
    """Inclusion of V coefficients into Q coefficients on one mesh: V's
    dofs go to their Q dofs (``_q_dofs``), the boundary is zero."""
    def build():
        indptr = _offsets(_q_dofs(mesh, "V")[0])
        n = int(indptr[-1])
        return sp.csr_matrix((np.ones(n), np.arange(n, dtype=np.int32),
                              indptr), shape=(len(indptr) - 1, n))

    return _cached(mesh, ("v_to_q",), build)


class Field:
    """A Q1 function: a space plus one coefficient per free vertex."""

    def __init__(self, space: Space, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.dim,):
            raise ValueError(
                f"coefficient length {coeffs.shape} != space dim {space.dim}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite field coefficients")
        self.space = space
        self.coeffs = coeffs
        self._full = None

    @property
    def mesh(self) -> QuadMesh:
        return self.space.mesh

    def full_values(self) -> np.ndarray:
        if self._full is None:
            self._full = self.space.T @ self.coeffs  # all-vertex values
        return self._full

    def eval_points(self, points: np.ndarray) -> np.ndarray:
        """Pointwise evaluation anywhere in the closed unit square."""
        cids, locs = locate(self.mesh, points)
        return bilinear(self.full_values()[self.mesh.cell_corners[cids]], locs)

    def norm_l2(self) -> float:
        M = self.space.mass()
        return float(np.sqrt(max(self.coeffs @ (M @ self.coeffs), 0.0)))

    def norm_h1semi(self) -> float:
        K = self.space.stiffness()
        return float(np.sqrt(max(self.coeffs @ (K @ self.coeffs), 0.0)))

    def __repr__(self):
        return f"Field({self.space.kind}, dim={self.space.dim})"


# ---------------------------------------------------------------------------
# point evaluation


def _points_key(points: np.ndarray) -> tuple:
    points = np.ascontiguousarray(points, dtype=float)
    return points.shape, points.tobytes()


def point_locations(mesh: QuadMesh, points: np.ndarray):
    """(cell ids, local coordinates) of observation points on a mesh.

    Cached in the mesh's context under the point coordinates themselves.
    """
    return _cached(mesh, ("points",) + _points_key(points),
                   lambda: locate(mesh, points))


def point_matrix(space: Space, points: np.ndarray) -> sp.csr_matrix:
    """Sparse C with (C c)_i the value at points[i] of the field with
    coefficients c on the space; cached like ``point_locations``."""
    return _point_operators(space, points)[0]


def _point_operators(space: Space, points: np.ndarray):
    """Cached (C, C'C) of ``point_matrix``, without sparse products but
    bit for bit as S T and C' C (S the corner shape values at the points,
    zeros dropped): C(i, a) sums over the corners in order, row i lists
    its columns in reverse order of first appearance, and (C'C)(a, b)
    sums C(i, a) C(i, b) over ascending i."""
    def build():
        mesh, n, dim = space.mesh, len(points), space.dim
        cids, locs = point_locations(mesh, points)
        vals = shape_values(locs).ravel()
        nz = vals.nonzero()[0]
        ref, cols, w = _expand(space.T, mesh.cell_corners[cids].ravel()[nz])
        key, first, inv = np.unique((nz[ref] // 4) * dim + cols,
                                    return_index=True, return_inverse=True)
        order = np.lexsort((-first, key // dim))
        C = _csr(np.bincount(inv, vals[nz][ref] * w)[order],
                 *np.divmod(key[order], dim), (n, dim))
        # All pairs (a, b) of entries of each row of C, rows ascending.
        width = np.diff(C.indptr)
        partners = width.repeat(width)  # of each entry: its row's entries
        a = np.arange(C.nnz).repeat(partners)
        b = (np.arange(len(a)) - (partners.cumsum() - partners).repeat(
            partners) + C.indptr[:-1].repeat(width).repeat(partners))
        key, inv = np.unique(C.indices[a] * np.int64(dim) + C.indices[b],
                             return_inverse=True)
        return C, _csr(np.bincount(inv, C.data[a] * C.data[b]),
                       *np.divmod(key, dim), (dim, dim))

    return _cached(space.mesh, ("point_matrix", space.kind)
                   + _points_key(points), build)


def _csr(data, rows, cols, shape) -> sp.csr_matrix:
    """CSR matrix of float entries given in row order."""
    return sp.csr_matrix((data, cols.astype(np.int32), _offsets(
        np.bincount(rows, minlength=shape[0]))), shape=shape, dtype=float)


def _transpose_product(A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """A' x without building A': the terms a_ij x_i go to y_j in storage
    order, the order of the product with A.T or with A' in CSR."""
    rows = np.arange(A.shape[0]).repeat(A.indptr[1:] - A.indptr[:-1])
    return np.bincount(A.indices, A.data * x[rows], minlength=A.shape[1])


# ---------------------------------------------------------------------------
# assembly


@functools.cache
def _cell_quad_data(nq: int):
    """Reference-cell quadrature tables (points, weights, shapes, gradients).

    They do not depend on the mesh, so they are built once per order.
    """
    pts, wts = gauss_points(nq)
    return pts, wts, shape_values(pts), shape_gradients(pts)


@functools.cache
def _product_tables(nq: int):
    """Weighted shape tables: wts_q phi_i, (nq*nq, 4), and the element
    mass integrand R[q, 4i+j] = wts_q phi_i phi_j, (nq*nq, 16)."""
    _, wts, shapes, _ = _cell_quad_data(nq)
    load = wts[:, None] * shapes
    return load, (load[:, :, None] * shapes[:, None, :]).reshape(-1, 16)


def _cell_origin_arrays(mesh: QuadMesh):
    """Cached (x0, y0, h) arrays over cells."""
    def build():
        h = mesh.cell_sizes()
        return mesh.cells[:, 1] * h, mesh.cells[:, 2] * h, h

    return _cached(mesh, ("origins",), build)


def _vertex_to_cell(mesh: QuadMesh) -> np.ndarray:
    """Cached map vertex -> one incident cell id."""
    def build():
        v2c = np.full(mesh.n_vertices, -1, dtype=np.int64)
        ids = np.repeat(np.arange(mesh.n_cells)[::-1], 4)
        v2c[mesh.cell_corners[::-1].ravel()] = ids
        return v2c

    return _cached(mesh, ("v2c",), build)


def _expand(T: sp.csr_matrix, verts: np.ndarray):
    """Condense vertex references through T: one (reference index, free
    column, weight) triple per nonzero of the referenced rows, in order.
    A row has at most two nonzeros (a hanging vertex's parents): each
    triple gathers its row's first, or its next where a reference
    repeats."""
    first = T.indptr[verts]
    counts = T.indptr[verts + 1] - first
    src = np.arange(len(verts), dtype=np.int32).repeat(counts)
    k = first[src]
    k[1:][src[1:] == src[:-1]] += 1
    return src, T.indices[k], T.data[k]


def _q_dofs(mesh: QuadMesh, kind: str):
    """Which Q dofs are dofs of the kind's space, and their index there.

    V frees the vertices Q frees minus the boundary, in the same order,
    and its T is Q's T restricted to those columns (hanging vertices are
    interior and keep the weights of their interior parents).  So every
    operator involving V is a row/column restriction of the Q operator.
    """
    def build():
        keep = np.ones(qspace(mesh).dim, dtype=bool)
        if kind == "V":
            keep &= ~mesh.boundary[qspace(mesh).free]
        return keep, _offsets(keep)[1:] - 1

    return _cached(mesh, ("q_dofs", kind), build)


def _load_map(mesh: QuadMesh) -> sp.csr_matrix:
    """Cached T' S onto the Q space, with S the scatter of (n_cells*4)
    cell loads onto the vertices: the load vector is this map applied to
    the cell loads.  V load vectors are its restriction (``_q_dofs``)."""
    def build():
        e, r, w = _expand(qspace(mesh).T, mesh.cell_corners.ravel())
        order = r.argsort(kind="stable")  # each row's loads ascending
        return _csr(w[order], r[order], e[order],
                    (qspace(mesh).dim, 4 * mesh.n_cells))

    return _cached(mesh, ("load_map",), build)


def _q_plan(mesh: QuadMesh):
    """Cached symbolic assembly onto the Q space: (indptr, indices, P)."""
    def build():
        T = qspace(mesh).T
        corners = mesh.cell_corners.astype(np.int32)
        e, rows, w = _expand(T, corners.repeat(4, axis=1).ravel())
        k, cols, wc = _expand(T, np.tile(corners, (1, 4)).ravel()[e])
        key = rows[k].astype(np.int64) * T.shape[1] + cols
        del rows, cols
        # Sorting the triples by their (row, col) key makes P's rows, the
        # condensed entries, contiguous: P is then CSR by construction.
        order = key.argsort()
        key = key[order]
        wc *= w[k]
        data, e = wc[order], e[k][order]
        del w, wc, k, order
        first = np.concatenate([[0], (key[1:] != key[:-1]).nonzero()[0] + 1,
                                [len(key)]])
        key = key[first[:-1]]
        P = sp.csr_matrix((data, e, first.astype(np.int32)),
                          shape=(len(key), 16 * mesh.n_cells))
        indptr = np.searchsorted(key, np.arange(T.shape[1] + 1) * T.shape[1])
        indices = (key % T.shape[1]).astype(np.int32)
        return indptr.astype(np.int32), indices, P

    return _cached(mesh, ("plan", "Q", "Q"), build)


def _assembly_plan(space_row: Space, space_col: Space):
    """Cached symbolic assembly onto two spaces of one mesh.

    Returns (indptr, indices, slots): the condensed CSR pattern and the
    entries of the Q plan it selects, so that condensed data =
    (P @ element_matrices.ravel())[slots] for the Q plan's map P.  P
    composes the element-to-vertex scatter with the condensation T' . T;
    only the nonzeros of T generate entries, so a hanging vertex adds its
    two parents and a regular one only itself.  The Q plan is built
    once; plans involving V select its rows and columns.
    """
    mesh = space_row.mesh

    def build():
        indptr, indices, _ = _q_plan(mesh)
        if space_row.kind == space_col.kind == "Q":
            slots = slice(None)
        else:
            rows = np.arange(len(indptr) - 1, dtype=np.int32).repeat(
                indptr[1:] - indptr[:-1])
            row_keep, row_id = _q_dofs(mesh, space_row.kind)
            col_keep, col_id = _q_dofs(mesh, space_col.kind)
            slots = (row_keep[rows] & col_keep[indices]).nonzero()[0]
            slots = slots.astype(np.int32)
            indptr = _offsets(np.bincount(row_id[rows[slots]],
                                          minlength=space_row.dim))
            indices = col_id[indices[slots]]
        # Assembled matrices share these arrays; nothing may edit them.
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices, slots

    return _cached(mesh, ("slots", space_row.kind, space_col.kind), build)


def _assemble(space_row: Space, space_col: Space,
              element_matrices: np.ndarray) -> sp.csr_matrix:
    """Condensed matrix of (n_cells, 16) element matrices (rows 4i+j)
    through the cached assembly plan of the two spaces of one mesh."""
    indptr, indices, slots = _assembly_plan(space_row, space_col)
    P = _q_plan(space_row.mesh)[2]
    return sp.csr_matrix(((P @ element_matrices.ravel())[slots], indices,
                          indptr), shape=(space_row.dim, space_col.dim))


@functools.cache
def _element_matrix(form: str) -> np.ndarray:
    """(4, 4) "mass" (times h^2) or "stiffness" matrix of a cell."""
    _, wts, _, grads = _cell_quad_data(NQ_BASE)
    if form == "mass":
        return _product_tables(NQ_BASE)[1].sum(axis=0).reshape(4, 4)
    return np.einsum("q,qid,qjd->ij", wts, grads, grads)


def assemble_stiffness(space: Space) -> sp.csr_matrix:
    """Condensed matrix of (grad u, grad v); independent of cell size."""
    ref = _element_matrix("stiffness").ravel()
    return _assemble(space, space, np.tile(ref, space.mesh.n_cells))


def assemble_mass(space_row: Space, space_col: Space) -> sp.csr_matrix:
    """Condensed matrix of (u, v), exact for Q1 under the base rule."""
    if space_row.mesh is not space_col.mesh:
        raise ValueError("mass assembly requires one mesh; use cross-mesh "
                         "evaluation to move fields first")
    h2 = space_row.mesh.cell_sizes() ** 2
    return _assemble(space_row, space_col,
                     np.outer(h2, _element_matrix("mass").ravel()))


def assemble_weighted_mass(space: Space, weight: "Field", exponent: int) -> sp.csr_matrix:
    """Condensed matrix of (w**exponent u, v) for exponent in {2, 3}.

    The weight may live on a coarser nested mesh; it is re-interpolated
    exactly onto the space's mesh first.
    """
    if exponent not in (2, 3):
        raise ValueError("exponent must be 2 or 3")
    mesh = space.mesh
    wvals = _weighted_values(interpolate_onto(weight, mesh))
    h2 = mesh.cell_sizes() ** 2
    elems = (h2[:, None] * wvals**exponent) @ _product_tables(NQ_WEIGHTED)[1]
    return _assemble(space, space, elems)


def _cell_values(field: "Field", mesh: QuadMesh, nq: int) -> np.ndarray:
    """Values of a field at every quadrature point of every cell of mesh."""
    f = field if field.mesh is mesh else interpolate_onto(field, mesh)
    pts, wts, shapes, _ = _cell_quad_data(nq)
    corner_vals = f.full_values()[mesh.cell_corners]
    return corner_vals @ shapes.T


def _weighted_values(field: "Field") -> np.ndarray:
    """The field at its cells' NQ_WEIGHTED points, kept in its context."""
    return _cached(field, ("values", NQ_WEIGHTED),
                   lambda: _cell_values(field, field.mesh, NQ_WEIGHTED))


def _drop_weighted_values(field: "Field") -> None:
    _CONTEXTS.get(field, {}).pop(("values", NQ_WEIGHTED), None)


def assemble_functional(space: Space, f, nq: int = NQ_BASE) -> np.ndarray:
    """Vector of (f, phi_i) over free nodes; f is a callable or a Field."""
    mesh = space.mesh
    if isinstance(f, Field):  # its vector is kept in its context on mesh
        f = interpolate_onto(f, mesh)
        return _cached(f, ("load", space.kind, nq), lambda: _load_vector(
            space, _cell_values(f, mesh, nq), nq))
    pts = _cell_quad_data(nq)[0]
    x0, y0, h = _cell_origin_arrays(mesh)
    gx = x0[:, None] + h[:, None] * pts[None, :, 0]
    gy = y0[:, None] + h[:, None] * pts[None, :, 1]
    return _load_vector(space, f(gx, gy), nq)


def _load_vector(space: Space, fvals: np.ndarray, nq: int) -> np.ndarray:
    """Vector of (f, phi_i) over free nodes from the values of f at every
    quadrature point of every cell, (n_cells, nq*nq)."""
    h2 = space.mesh.cell_sizes() ** 2
    cell_loads = (h2[:, None] * fvals) @ _product_tables(nq)[0]
    keep = _q_dofs(space.mesh, space.kind)[0]
    return (_load_map(space.mesh) @ cell_loads.ravel())[keep]


def riesz_dual_norm(space: Space, functional: np.ndarray):
    """Dual norm of a functional via its Riesz representer.

    Solves (grad v, grad phi) = functional(phi) on the space and returns
    (norm, v) with norm = |grad v|, which realizes the H^-1-type dual
    norm used for state residuals.
    """
    functional = np.asarray(functional, dtype=float)
    if functional.shape != (space.dim,):
        raise ValueError("functional length mismatch")
    if space.dim == 0:
        raise ValueError("empty space has no Riesz representer")
    v = space.stiffness_solver().solve(functional)
    norm = float(np.sqrt(max(functional @ v, 0.0)))
    return norm, Field(space, v)


# ---------------------------------------------------------------------------
# cross-mesh evaluation


def _containment_map(src: QuadMesh, tgt: QuadMesh) -> np.ndarray:
    """For each target cell, the id of the source leaf containing it.

    Requires every target leaf to lie inside a source leaf (the target
    refines the source); raises otherwise.  The map is kept with the
    source, the coarser mesh of the pair, while both meshes live.
    """
    maps = _cached(src, ("containment",), weakref.WeakKeyDictionary)
    if tgt not in maps:
        # The source leaf covering a target leaf's first descendant
        # contains the target leaf iff it is not finer.
        src_ids = (np.searchsorted(src.codes, tgt.codes, side="right")
                   - 1).astype(np.int32)
        if np.any(src.cells[src_ids, 0] > tgt.cells[:, 0]):
            raise ValueError("meshes are not nested: some target cells are "
                             "coarser than the source leaves covering them")
        maps[tgt] = src_ids
    return maps[tgt]


def _prolongation(src: QuadMesh, space: Space):
    """Rows of the prolongation from Q1 functions on ``src`` onto a space
    on a nested refinement: for each free vertex of the space, the corners
    of the source leaf containing it and their shape values there."""
    mesh = space.mesh
    # Each free vertex lies in the closure of the source leaf that
    # contains one of its incident target cells.
    sids = _containment_map(src, mesh)[_vertex_to_cell(mesh)[space.free]]
    sx0, sy0, sh = _cell_origin_arrays(src)
    # np.take: fancy indexing of 2-D arrays is several times slower.
    origin = np.take(np.column_stack([sx0, sy0]), sids, axis=0)
    local = ((np.take(mesh.vertices, space.free, axis=0) - origin)
             / np.take(sh, sids)[:, None])
    return np.take(src.cell_corners, sids, axis=0), shape_values(local)


def interpolate_onto(field: "Field", mesh: QuadMesh) -> "Field":
    """Exact re-representation of a field on a nested finer mesh.

    The result has the same kind of space as the input and agrees with
    the input pointwise everywhere.
    """
    if field.mesh is mesh:
        return field
    space = Space(mesh, field.space.kind)
    corners, shapes = _prolongation(field.mesh, space)
    return Field(space, np.einsum("ki,ki->k", field.full_values()[corners],
                                  shapes))


def _corner_moments(corner_vals: np.ndarray, form: str, h: np.ndarray):
    """Cell moments (n, 4) of bilinears given by (n, 4) corner values."""
    moments = corner_vals @ _element_matrix(form)
    return moments * h[:, None] ** 2 if form == "mass" else moments


def _moment_table(field: "Field", form: str):
    """(offsets, table, |field|^2): a field's moments over all dyadic cells
    of level <= its mesh's finest, kept in the field's context.  Level l
    fills rows offsets[l] + Morton index, so a parent's moments are its 4
    consecutive children's through R[4c + j, k], parent shape k at corner j
    of child c (at corner offset c).  NaN marks cells inside a leaf."""
    def build():
        mesh, top = field.mesh, field.mesh.max_level
        level = mesh.cells[:, 0]
        offsets = (4 ** np.arange(top + 2) - 1) // 3
        table = np.full((offsets[-1], 4), np.nan)
        cv = field.full_values()[mesh.cell_corners]
        moments = _corner_moments(cv, form, mesh.cell_sizes())
        table[offsets[level] + (mesh.codes >> 2 * (DEPTH - level))] = moments
        R = shape_values((_CORNERS[:, None] + _CORNERS) / 2).reshape(16, 4)
        for lev in range(top - 1, -1, -1):
            cells = table[offsets[lev]:offsets[lev + 1]]
            children = table[offsets[lev + 1]:offsets[lev + 2]].reshape(-1, 16)
            np.copyto(cells, children @ R, where=np.isnan(cells))
        table.flags.writeable = False
        return offsets, table, float(np.sum(moments * cv))

    return _cached(field, ("moments", form), build)


def cell_moments(field: "Field", form: str, mesh: QuadMesh):
    """((n_cells, 4) moments, |field|^2) of a field over any mesh's cells:
    (field, phi_k)_c for ``form`` "mass", (grad field, grad phi_k)_c for
    "stiffness", k over the cell corners.  Unions of the field's leaves
    read its moment table; a cell inside a leaf, where the field is
    bilinear, uses the field's values at the cell corners."""
    offsets, table, own = _moment_table(field, form)
    top = len(offsets) - 2
    level = np.minimum(mesh.cells[:, 0], top)
    rows = table[offsets[level] + (mesh.codes >> 2 * (DEPTH - level))]
    inner = np.isnan(rows[:, 0]) | (mesh.cells[:, 0] > top)
    if inner.any():
        xy = mesh.vertices[mesh.cell_corners[inner]].reshape(-1, 2)
        rows[inner] = _corner_moments(field.eval_points(xy).reshape(-1, 4),
                                      form, mesh.cell_sizes()[inner])
    return rows, own


# ---------------------------------------------------------------------------
# patchwise biquadratic recovery for DWR weights


def _patch_table(mesh: QuadMesh):
    """Cached patch of every leaf: (nodes (n_cells, 9), child position
    (n_cells,), has_patch (n_cells,)).

    A leaf's patch is its parent's 3x3 vertex grid (corners, edge
    midpoints, center), numbered 3 j + i from the SW corner; the child
    position is ix % 2 + 2 (iy % 2).  The root cell has no parent, and
    a patch with a node missing from the mesh is unusable.
    """
    def build():
        level, ix, iy = mesh.cells.T
        half = np.left_shift(1, mesh.max_level - level)[:, None]  # leaf size
        grid = np.arange(3)
        # Patch nodes: the parent's SW corner plus multiples of half.
        nodes = mesh.vertex_ids(
            (ix - ix % 2)[:, None] * half + np.tile(grid, 3) * half,
            (iy - iy % 2)[:, None] * half + np.repeat(grid, 3) * half)
        has_patch = (level > 0) & (nodes >= 0).all(axis=1)
        return nodes, ix % 2 + 2 * (iy % 2), has_patch

    return _cached(mesh, ("patch",), build)


def _patch_basis(pos: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Biquadratic patch basis minus the bilinear leaf basis, (n, 9, 3):
    the values and reference derivatives d/ds, d/dt, at local points
    ``pts`` (n, 2) of leaves at child positions ``pos`` (n,), of the nine
    functions whose combination with the patch node values is the weight.
    The biquadratics are products of the 1D quadratic basis at {0, 1/2,
    1} in the patch coordinates t = (leaf coordinates + offset) / 2; the
    leaf corners are patch nodes."""
    t = 0.5 * (pts + _CORNERS[pos])  # the corner offset is the leaf's
    a, b, t2 = t - 0.5, t - 1.0, 2 * t
    q = np.stack([2 * a * b, -4 * t * b, t2 * a], axis=-1)  # (n, axis, 3)
    dq = np.stack([t2 - 1.5, 2.0 - 4 * t, t2 - 0.5], axis=-1)
    out = np.empty((len(pos), 3, 3, 3))  # (leaf, j, i, value or d/ds, d/dt)
    for k, (x, y) in enumerate(((q, q), (dq, q), (q, dq))):
        np.multiply(y[:, 1, :, None], x[:, 0, None, :], out=out[..., k])
    bilin = np.concatenate([shape_values(pts)[..., None],
                            shape_gradients(pts)], axis=-1)
    out.reshape(-1, 3)[(9 * np.arange(len(pos)))[:, None]
                       + _LEAF_NODES[pos]] -= bilin
    return out.reshape(-1, 9, 3)


# Per child position, the patch nodes 3 j + i at the leaf corners.
_LEAF_NODES = np.array([[0, 1, 3, 4], [1, 2, 4, 5], [3, 4, 6, 7], [4, 5, 7, 8]])


@functools.cache
def _patch_basis_table(nq: int):
    """``_patch_basis`` at the quadrature points for the 4 child
    positions: the values (9, 4 * nq*nq) and the derivatives
    (9, 4 * nq*nq * 2), laid out for one product each with the patch
    node values."""
    pts = _cell_quad_data(nq)[0]
    table = _patch_basis(np.repeat(np.arange(4), len(pts)),
                         np.tile(pts, (4, 1))).transpose(1, 0, 2)
    vals = np.ascontiguousarray(table[..., 0])
    grads = np.ascontiguousarray(table[..., 1:]).reshape(9, -1)
    vals.flags.writeable = grads.flags.writeable = False
    return vals, grads


class PatchWeight:
    """Interpolation-defect weight pi_h(x_h) - x_h of a Q1 field.

    Every leaf of level >= 1 recovers a biquadratic on its parent's 2x2
    child patch: the nine patch nodes (parent corners, edge midpoints,
    center) always exist as mesh vertices because the parent was
    subdivided, and constrained hanging values enter as such.  The
    weight on the cell is that biquadratic minus the bilinear field;
    cells whose patch is unavailable (the root cell, or a missing patch
    node) fall back to the identity, i.e. zero weight.

    ``vals`` (n_cells, n_qp) and ``grads`` (n_cells, n_qp, 2) hold the
    weight at the NQ_WEIGHTED quadrature points of every cell; ``at``
    evaluates it at given (cell, local point) pairs, ``at_points`` at
    observation points (patch basis cached in the mesh's context).
    """

    def __init__(self, field: "Field"):
        self._mesh = mesh = field.mesh
        nodes, self._pos, has_patch = _patch_table(mesh)
        self._h = mesh.cell_sizes()
        self._patch_vals = np.where(has_patch[:, None],
                                    field.full_values()[nodes], 0.0)
        # All 4 child positions in one product each, then each cell's own;
        # scaling the node values by 1/h makes the derivatives physical.
        tv, tg = _patch_basis_table(NQ_WEIGHTED)
        n = mesh.n_cells
        cells = np.arange(n)
        self.vals = (self._patch_vals @ tv).reshape(n, 4, -1)[cells, self._pos]
        self.grads = ((self._patch_vals / self._h[:, None]) @ tg).reshape(
            n, 4, -1, 2)[cells, self._pos]

    def at(self, cell_ids: np.ndarray, pts: np.ndarray, basis=None):
        """One (cell, local point) pair per row; returns (w (n,), gw (n,2))."""
        if basis is None:
            basis = _patch_basis(self._pos[cell_ids], pts)
        w = np.einsum("ci,cik->ck", self._patch_vals[cell_ids], basis)
        return w[:, 0], w[:, 1:] / self._h[cell_ids, None]

    def at_points(self, points: np.ndarray):
        """(cell ids, w, gw) at the cells of ``point_locations``."""
        cids, locs = point_locations(self._mesh, points)
        basis = _cached(self._mesh, ("patch_basis",) + _points_key(points),
                        lambda: _patch_basis(self._pos[cids], locs))
        return (cids,) + self.at(cids, locs, basis)


def patch_interpolate(field: "Field") -> PatchWeight:
    """DWR weight object for a field (see PatchWeight)."""
    return PatchWeight(field)


# ---------------------------------------------------------------------------
# export


def write_mesh_vtk(mesh: QuadMesh, path, point_data=None) -> None:
    """Legacy ASCII VTK unstructured grid with VTK_QUAD cells.

    ``point_data`` is an optional (name, values per vertex) pair.
    """
    sw, se, nw, ne = mesh.cell_corners.T.tolist()
    text = ("# vtk DataFile Version 3.0\n"
            "quadtree mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {mesh.n_vertices} double\n"
            + "".join(map("{:.16g} {:.16g} 0\n".format,
                          *mesh.vertices.T.tolist()))
            + f"CELLS {mesh.n_cells} {5 * mesh.n_cells}\n"
            + "".join(map("4 {} {} {} {}\n".format, sw, se, ne, nw))
            + f"CELL_TYPES {mesh.n_cells}\n" + "9\n" * mesh.n_cells)
    if point_data is not None:
        name, values = point_data
        text += (f"POINT_DATA {mesh.n_vertices}\n"
                 f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                 + "".join(map("{:.16g}\n".format,
                               np.asarray(values).tolist())))
    with open(path, "w") as fh:
        fh.write(text)


def write_field_vtk(field: "Field", path, name: str = "value") -> None:
    """Mesh plus point data in legacy ASCII VTK."""
    write_mesh_vtk(field.mesh, path, point_data=(name, field.full_values()))


def write_field_csv(field: "Field", path) -> None:
    """CSV of (x, y, value) triples over all vertices."""
    lines = map("{:.16g},{:.16g},{:.16g}\n".format,
                *field.mesh.vertices.T.tolist(), field.full_values().tolist())
    with open(path, "w") as fh:
        fh.write("x,y,value\n" + "".join(lines))
