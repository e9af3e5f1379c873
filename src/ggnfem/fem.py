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
The other way, a fine field's mass moments on the (4^L - 1) / 3 dyadic
cells above its finest level L (``_moment_table``) follow level by level
from its cells'; its level-L leaves use their corner values
(``cell_moments``).  They give L^2 restriction and L^2 distances to
coarser fields in O(coarse cells).

Assembly is split into a symbolic and a numeric part.  The symbolic
part, built once per mesh, is an assembly plan: the condensed CSR
pattern and one sparse map P from element matrices to its data, which
composes the scatter onto the vertices with the condensation T' . T
(``_q_plan``; load vectors use the map T' S, ``_load_map``).  The V
plan and loads are the Q ones at V's dofs (``_assembly_plan``).
Matrices of one plan share its pattern arrays, so adding their data adds
the matrices.  Other per-mesh operators (T, C, the V-to-Q inclusion) are
built from index arrays, entry for entry as the sparse products they
replace.  Sparse factorizations are ``symmetric_lu``: the stiffness
once per mesh, and the KKT matrices of ``subsolver``.  Every CSR matrix
is a ``_Csr``: a float vector goes straight to scipy's ``csr_matvec``,
as scipy's dispatch costs more than the product on the solver's meshes.

Every cell integral takes one tensor Gauss rule, NQ = 3 points per axis,
exact to degree 5 in each variable.  On a leaf a Q1 field has degree 1
per variable and a DWR weight degree 2, so every integrand here is exact:
(u^3, phi) and (u^2 v, phi) have degree 4, the estimators' (u^2 v, w) and
(u^3, w) 5, and gradient pairings and the L^2 misfit and pairing <= 3.

The truth build on the uniform simulation mesh assembles nothing.  That
mesh has no hanging vertex, and its vertices in key order are the
row-major (2^L + 1)^2 grid, so its V operators apply on that grid by
shifted slices (matrix-free; Kronbichler & Kormann, Comput. Fluids 63,
2012): K and the weighted mass as 9-point stencils (``_Stencil``), loads
by a scatter of cell loads, and K^-1 by fast sine transforms
(``_SineSolver``).  The quadrature comes in row blocks of cells
(``_grid_integrals``), each added into the stencil or the loads as it
comes, in the row order that keeps every sum's terms in their order.

Everything derived from one mesh (spaces, plans, operators, solvers,
point data, patch tables, dense KKT blocks, containment maps) is cached
in its context (``_cached``); a field's context keeps its moment table,
loads, DWR weights and quadrature tables.  Contexts sit in a
``WeakKeyDictionary`` keyed by their owner and hold nothing that refers
back to it, so each one dies with its owner; a ``Space`` is a light view
over its context entry, rebuilt on demand rather than cached itself.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial.legendre import leggauss
from scipy.sparse import _sparsetools  # the kernels of scipy's own products

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

NQ = 3  # tensor Gauss order of every cell integral (module docstring)


def gauss_points(n: int):
    """Tensor Gauss rule on the unit square: (points (n*n,2), weights)."""
    x, w = leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts, np.outer(w, w).ravel()


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
    A' + A, of a symmetric matrix that is SPD, or complex with SPD real
    and imaginary parts: every symmetric ordering of those has one, with
    growth factor below 3 in the complex case (Higham, Math. Comp. 1998)."""
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(
            f"{name} factorization failed: {exc}") from exc


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
        return Q.free[keep], _Csr(
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
    return free_mask.nonzero()[0], _Csr(
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
                       lambda: assemble_mass(self))

    def stiffness_solver(self):
        return _cached(self.mesh, ("stiffness_lu", self.kind),
                       lambda: symmetric_lu(self.stiffness(), "stiffness"))


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
        return _Csr((np.ones(n), np.arange(n, dtype=np.int32), indptr),
                    shape=(len(indptr) - 1, n))

    return _cached(mesh, ("v_to_q",), build)


class Field:
    """A Q1 function: a space plus one coefficient per free vertex."""

    def __init__(self, space: Space, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.dim,):
            raise ValueError(
                f"coefficient length {coeffs.shape} != space dim {space.dim}"
            )
        if not np.isfinite(coeffs).all():
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
        return self._norm("mass")

    def norm_h1semi(self) -> float:
        return self._norm("stiffness")

    def _norm(self, form: str) -> float:
        """|field| in L^2 ("mass") or the H^1 seminorm ("stiffness"), from
        the cells' corner values: no matrix is assembled, no values kept."""
        cv = (self.space.T @ self.coeffs)[self.mesh.cell_corners]
        moments = _corner_moments(cv, form, self.mesh.cell_sizes())
        return float(np.sqrt(max(np.sum(moments * cv), 0.0)))


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
    """Sparse C, (C c)_i the value at points[i] of the field with
    coefficients c, cached like ``point_locations``.  Bit for bit S T (S
    the corner shape values at the points, zeros dropped), without sparse
    products: C(i, a) sums over the corners in order, and row i lists its
    columns in reverse order of first appearance."""
    def build():
        mesh, n, dim = space.mesh, len(points), space.dim
        cids, locs = point_locations(mesh, points)
        vals = shape_values(locs).ravel()
        nz = vals.nonzero()[0]
        ref, cols, w = _expand(space.T, mesh.cell_corners[cids].ravel()[nz])
        key, first, inv = np.unique((nz[ref] // 4) * dim + cols,
                                    return_index=True, return_inverse=True)
        order = np.lexsort((-first, key // dim))
        return _csr(np.bincount(inv, vals[nz][ref] * w)[order],
                    *np.divmod(key[order], dim), (n, dim))

    return _cached(space.mesh, ("point_matrix", space.kind)
                   + _points_key(points), build)


def _csr(data, rows, cols, shape) -> sp.csr_matrix:
    """CSR matrix of float entries given in row order."""
    return _Csr((data, cols.astype(np.int32), _offsets(
        np.bincount(rows, minlength=shape[0]))), shape=shape, dtype=float)


def _transpose_product(A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """A' x, x a float vector, by the CSC kernel on A's CSR arrays: a_ij x_i
    goes to y_j in storage order, as in the product with A.T or A' in CSR."""
    y = np.zeros(A.shape[1])
    _sparsetools.csc_matvec(*A.shape[::-1], A.indptr, A.indices, A.data,
                            x.reshape(A.shape[0]), y)  # a wrong length raises
    return y


class _Csr(sp.csr_matrix):
    """CSR matrix whose product with a float vector skips scipy's dispatch."""

    def __matmul__(self, x):
        m, n = self._shape
        if (x.__class__ is np.ndarray and x.dtype is self.data.dtype
                and x.dtype.char == "d" and x.shape == (n,)):
            y = np.zeros(m)
            _sparsetools.csr_matvec(m, n, self.indptr, self.indices,
                                    self.data, x, y)
            return y
        return super().__matmul__(x)


# ---------------------------------------------------------------------------
# assembly


# The rule on the reference cell: points, weights, shape values and
# gradients, the load integrand wts_q phi_i (NQ^2, 4) and the element mass
# integrand wts_q phi_i phi_j (NQ^2, 16), row q, column 4i + j.
_PTS, _WTS = gauss_points(NQ)
_SHAPES, _GRADS = shape_values(_PTS), shape_gradients(_PTS)
_LOADS = _WTS[:, None] * _SHAPES
_MASSES = (_LOADS[:, :, None] * _SHAPES[:, None, :]).reshape(-1, 16)


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
    """Cached symbolic assembly onto the Q space: (indptr, indices, P).
    Only the nonzeros of T generate entries of P, so a hanging vertex adds
    its two parents and a regular one only itself."""
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
        P = _Csr((data, e, first.astype(np.int32)),
                 shape=(len(key), 16 * mesh.n_cells))
        indptr = np.searchsorted(key, np.arange(T.shape[1] + 1) * T.shape[1])
        indices = (key % T.shape[1]).astype(np.int32)
        return indptr.astype(np.int32), indices, P

    return _cached(mesh, ("plan",), build)


def _assembly_plan(space: Space):
    """Cached symbolic assembly onto a space: (indptr, indices, slots),
    the condensed CSR pattern and the entries of the Q plan it selects
    (all for Q, V's rows and columns for V), so that condensed data =
    (P @ element_matrices.ravel())[slots] for the Q plan's map P."""
    mesh = space.mesh

    def build():
        indptr, indices, _ = _q_plan(mesh)
        slots = slice(None)
        if space.kind == "V":
            rows = np.arange(len(indptr) - 1, dtype=np.int32).repeat(
                indptr[1:] - indptr[:-1])
            keep, dof_id = _q_dofs(mesh, "V")
            slots = (keep[rows] & keep[indices]).nonzero()[0]
            slots = slots.astype(np.int32)
            indptr = _offsets(np.bincount(dof_id[rows[slots]],
                                          minlength=space.dim))
            indices = dof_id[indices[slots]]
        # Assembled matrices share these arrays; nothing may edit them.
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices, slots

    return _cached(mesh, ("slots", space.kind), build)


def _assemble(space: Space, element_matrices: np.ndarray) -> sp.csr_matrix:
    """Condensed matrix of (n_cells, 16) element matrices (rows 4i+j)
    through the cached assembly plan of the space."""
    indptr, indices, slots = _assembly_plan(space)
    P = _q_plan(space.mesh)[2]
    return _Csr(((P @ element_matrices.ravel())[slots], indices, indptr),
                shape=(space.dim, space.dim))


# The (4, 4) "mass" (times h^2) and "stiffness" matrices of a cell.
_ELEMENT = {"mass": _MASSES.sum(axis=0).reshape(4, 4),
            "stiffness": np.einsum("q,qid,qjd->ij", _WTS, _GRADS, _GRADS)}
for _matrix in _ELEMENT.values():
    _matrix.flags.writeable = False


def assemble_stiffness(space: Space) -> sp.csr_matrix:
    """Condensed matrix of (grad u, grad v); independent of cell size."""
    ref = _ELEMENT["stiffness"].ravel()
    return _assemble(space, np.tile(ref, space.mesh.n_cells))


def assemble_mass(space: Space) -> sp.csr_matrix:
    """Condensed matrix of (u, v), exact for Q1."""
    h2 = space.mesh.cell_sizes() ** 2
    return _assemble(space, np.outer(h2, _ELEMENT["mass"].ravel()))


def assemble_weighted_mass(space: Space, weight: "Field") -> sp.csr_matrix:
    """Condensed matrix of (w^2 u, v).

    The weight may live on a coarser nested mesh; it is re-interpolated
    exactly onto the space's mesh first.
    """
    mesh = space.mesh
    wvals = _weighted_values(interpolate_onto(weight, mesh))
    h2 = mesh.cell_sizes() ** 2
    elems = (h2[:, None] * wvals**2) @ _MASSES
    return _assemble(space, elems)


def _cell_values(field: "Field") -> np.ndarray:
    """Values of a field at every quadrature point of each of its cells."""
    return field.full_values()[field.mesh.cell_corners] @ _SHAPES.T


def _weighted_values(field: "Field") -> np.ndarray:
    """``_cell_values`` of a field, kept in its context."""
    return _cached(field, ("values",), lambda: _cell_values(field))


def _weighted_cubes(field: "Field") -> np.ndarray:
    """The cubes of ``_weighted_values``, kept in the field's context."""
    return _cached(field, ("cubes",), lambda: _weighted_values(field) ** 3)


def _weighted_gradients(field: "Field") -> np.ndarray:
    """The field's physical gradients at those points, kept likewise."""
    def build():
        # As (4, n_qp*2), the gradients at all points are one product with it.
        table = _GRADS.transpose(1, 0, 2)
        cv = field.full_values()[field.mesh.cell_corners]
        g = (cv @ table.reshape(4, -1)).reshape(len(cv), -1, 2)
        return g / field.mesh.cell_sizes()[:, None, None]

    return _cached(field, ("gradients",), build)


def _weighted_integrals(mesh: QuadMesh, f: np.ndarray) -> np.ndarray:
    """Cellwise integrals of f, (n_cells, n_qp) values at those points."""
    return mesh.cell_sizes() ** 2 * (f @ _WTS)


def assemble_functional(space: Space, f: Field) -> np.ndarray:
    """Vector of (f, phi_i) over free nodes, kept in the context of f on
    the space's mesh."""
    f = interpolate_onto(f, space.mesh)
    return _cached(f, ("load", space.kind),
                   lambda: _load_vector(space, _weighted_values(f)))


def _load_vector(space: Space, fvals: np.ndarray) -> np.ndarray:
    """Vector of (f, phi_i) over free nodes from the values of f at every
    quadrature point of every cell, (n_cells, NQ*NQ)."""
    h2 = space.mesh.cell_sizes() ** 2
    cell_loads = (h2[:, None] * fvals) @ _LOADS
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
# grid form on a uniform mesh (see the module docstring); V vectors are the
# interior of the vertex grid, row-major


class _SineSolver:
    """K^-1 for the V stiffness matrix of the uniform mesh of level L, by
    fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  On
    the interior grid K = A (x) M + M (x) A, with A = tridiag(-1, 2, -1)
    and M = tridiag(1, 4, 1) / 6 (h cancels), and the DST-I S diagonalizes
    both: x = S^-1 diag(1 / lam) S b, lam_jk = a_j m_k + m_j a_k, a_j =
    2 - 2 cos(j pi / 2^L), m_j = (4 + 2 cos(j pi / 2^L)) / 6."""

    def __init__(self, level: int):
        n = 1 << level
        c = np.cos(np.arange(1, n) * np.pi / n)
        a, m = 2.0 - 2.0 * c, (4.0 + 2.0 * c) / 6.0
        self._lam = np.outer(a, m) + np.outer(m, a)

    def solve(self, b: np.ndarray) -> np.ndarray:
        from scipy.fft import dstn, idstn  # kept out of the package import

        if not b.size:  # level 0 has no interior vertex
            return b.copy()
        x = dstn(b.reshape(self._lam.shape), type=1)
        x /= self._lam
        return idstn(x, type=1, overwrite_x=True).reshape(-1)


class _Stencil:
    """9-point operator on the V dofs of a uniform mesh: (A x)_v is the
    sum over offsets (dy, dx) in {-1, 0, 1}^2 of coeffs[dy, dx] x_(v + d),
    with each coefficient a scalar or one value per dof (zero boundary)."""

    def __init__(self, coeffs: dict):
        self.coeffs = coeffs

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m = math.isqrt(len(x))
        grid = np.zeros((m + 2, m + 2))
        grid[1:-1, 1:-1] = x.reshape(m, m)
        y, term = np.zeros((m, m)), np.empty((m, m))
        for (dy, dx), c in self.coeffs.items():
            y += np.multiply(c, grid[1 + dy:m + 1 + dy, 1 + dx:m + 1 + dx],
                             out=term)
        return y.reshape(-1)


# K = a (x) m + m (x) a per direction, a = (-1, 2, -1), m = (1, 4, 1) / 6.
_GRID_STIFFNESS = _Stencil({(dy, dx): 8 / 3 if dy == dx == 0 else -1 / 3
                           for dy in (-1, 0, 1) for dx in (-1, 0, 1)})
# Per 1D offset of a vertex pair: (cell shift, shape product) of each cell
# holding both; the products are phi_0^2, phi_0 phi_1, phi_1^2.
_PAIR_CELLS = {-1: ((-1, 1),), 0: ((-1, 2), (0, 0)), 1: ((0, 1),)}


_BLOCK = 1 << 13  # cells per block of _grid_integrals; its tables stay small


def _grid_integrals(field: "Field", power: int, basis, reverse=False):
    """Cell integrals (f^power, b_k(s) b_l(t)) of a field f on its uniform
    mesh, for the 1D functions basis(x) (..., K) of the local
    coordinates, by blocks of cell rows, r increasing or in reverse:
    yields (r, block (K, K, rows, n)), k along x, l along y.  No (n_cells,
    NQ^2) table or (K, K, n, n) array is formed."""
    n = 1 << field.mesh.max_level
    vals = (field.space.T @ field.coeffs).reshape(n + 1, n + 1)
    bs, bt = basis(_PTS[:, 0]), basis(_PTS[:, 1])
    k = bs.shape[1]
    table = ((_WTS / n**2)[:, None, None] * bs[:, :, None] * bt[:, None, :])
    rows = max(1, _BLOCK // n)
    for r in range(0, n, rows)[::-1 if reverse else 1]:
        v = vals[r:r + rows + 1]
        corners = np.stack([v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]],
                           axis=-1)
        f = corners.reshape(-1, 4) @ _SHAPES.T  # (cells, NQ^2)
        fp = f
        for _ in range(power - 1):
            fp = fp * f
        yield r, (fp @ table.reshape(len(_WTS), -1)).T.reshape(k, k, -1, n)


def _grid_functional(field: "Field", power: int = 1) -> np.ndarray:
    """V vector of (f^power, phi_i), f a field on a uniform mesh: cell
    loads scattered onto the vertex grid, cell row j before j - 1."""
    n = 1 << field.mesh.max_level
    grid = np.zeros((n + 1, n + 1))
    for r, loads in _grid_integrals(field, power, lambda x: np.column_stack(
            [1 - x, x]), reverse=True):
        for kx, ky in _CORNERS:
            grid[r + ky:r + ky + loads.shape[2], kx:kx + n] += loads[kx, ky]
    return grid[1:-1, 1:-1].ravel()


def _grid_weighted_mass(field: "Field") -> _Stencil:
    """Stencil of (f^2 u, v) on V of a field's uniform mesh, as
    ``assemble_weighted_mass``; row 1 + i of ``coeffs`` is V row i."""
    n = 1 << field.mesh.max_level
    coeffs = np.zeros((3, 3, n + 1, n - 1))  # one block, freed as one
    for r, c in _grid_integrals(field, 2, lambda x: np.column_stack(
            [(1 - x) ** 2, (1 - x) * x, x**2])):
        for dy, dx in np.ndindex(3, 3):
            for sy, py in _PAIR_CELLS[dy - 1]:
                for sx, px in _PAIR_CELLS[dx - 1]:
                    coeffs[dy, dx, r - sy:r - sy + c.shape[2]] += c[
                        px, py, :, 1 + sx:n + sx]
    return _Stencil({(dy - 1, dx - 1): coeffs[dy, dx, 1:n]
                     for dy, dx in np.ndindex(3, 3)})


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
    of the source leaf containing it and its local coordinates there."""
    mesh = space.mesh
    # Each free vertex lies in the closure of the source leaf that
    # contains one of its incident target cells.
    sids = _containment_map(src, mesh)[_vertex_to_cell(mesh)[space.free]]
    sx0, sy0, sh = _cell_origin_arrays(src)
    # np.take: fancy indexing of 2-D arrays is several times slower.
    origin = np.take(np.column_stack([sx0, sy0]), sids, axis=0)
    local = ((np.take(mesh.vertices, space.free, axis=0) - origin)
             / np.take(sh, sids)[:, None])
    return np.take(src.cell_corners, sids, axis=0), local


def interpolate_onto(field: "Field", mesh: QuadMesh) -> "Field":
    """Exact re-representation of a field on a nested finer mesh.

    The result has the same kind of space as the input and agrees with
    the input pointwise everywhere.
    """
    if field.mesh is mesh:
        return field
    space = Space(mesh, field.space.kind)
    corners, local = _prolongation(field.mesh, space)
    return Field(space, bilinear(field.full_values()[corners], local))


def _corner_moments(corner_vals: np.ndarray, form: str, h: np.ndarray):
    """Cell moments (n, 4) of bilinears given by (n, 4) corner values."""
    m = corner_vals @ _ELEMENT[form]
    return np.multiply(m, h[:, None] ** 2, out=m) if form == "mass" else m


def _moment_table(field: "Field"):
    """(offsets, table, |field|^2): a field's mass moments over the dyadic
    cells above its mesh's finest level, kept in its context.  Level l
    fills rows offsets[l] + Morton index, so a parent's moments are its 4
    consecutive children's (finest leaves included) through R[4c + j, k],
    parent shape k at corner j of child c (at offset c).  NaN: in a leaf."""
    def build():
        mesh, top = field.mesh, field.mesh.max_level
        level = mesh.cells[:, 0]
        offsets = (4 ** np.arange(top + 1) - 1) // 3
        cv = field.full_values()[mesh.cell_corners]
        moments = _corner_moments(cv, "mass", mesh.cell_sizes())
        own = float(np.sum(np.multiply(moments, cv, out=cv)))  # |field|^2
        del cv
        table = np.full((offsets[-1], 4), np.nan)
        R = shape_values((_CORNERS[:, None] + _CORNERS) / 2).reshape(16, 4)
        up, lv = level < top, level[level < top]
        table[offsets[lv] + (mesh.codes[up] >> 2 * (DEPTH - lv))] = moments[up]
        if top:  # the finest leaves: all cells if none lies above them
            leaves = moments[~up] if len(lv) else moments
            table[offsets[top - 1] + (mesh.codes[~up][::4] >> 2 * (
                DEPTH - top + 1))] = leaves.reshape(-1, 16) @ R
        for lev in range(top - 2, -1, -1):
            cells = table[offsets[lev]:offsets[lev + 1]]
            children = table[offsets[lev + 1]:offsets[lev + 2]].reshape(-1, 16)
            np.copyto(cells, children @ R, where=np.isnan(cells))
        table.flags.writeable = False
        return offsets, table, own

    return _cached(field, ("moments",), build)


def cell_moments(field: "Field", mesh: QuadMesh):
    """((n_cells, 4) moments, |field|_L2^2) of a field over any mesh's
    cells: (field, phi_k)_c, k over the cell corners.  Cells above the
    field's finest level read its moment table; its leaves there (one
    search on the codes) and cells inside a leaf use its corner values."""
    offsets, table, own = _moment_table(field)
    fine, level, top = field.mesh, mesh.cells[:, 0], len(offsets) - 1
    lv = np.minimum(level, top - 1)  # a finer cell reads an ancestor's row
    rows = (table[offsets[lv] + (mesh.codes >> 2 * (DEPTH - lv))] if top
            else np.empty((mesh.n_cells, 4)))
    inner = np.isnan(rows[:, 0]) | (level >= top)
    at = np.flatnonzero(level == top)
    leaf = np.searchsorted(fine.codes, mesh.codes[at], side="right") - 1
    at, leaf = at[fine.cells[leaf, 0] == top], leaf[fine.cells[leaf, 0] == top]
    rows[at] = _corner_moments(field.full_values()[fine.cell_corners[leaf]],
                               "mass", mesh.cell_sizes()[at])
    inner[at] = False
    if inner.any():
        xy = mesh.vertices[mesh.cell_corners[inner]].reshape(-1, 2)
        rows[inner] = _corner_moments(field.eval_points(xy).reshape(-1, 4),
                                      "mass", mesh.cell_sizes()[inner])
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


# ``_patch_basis`` at the quadrature points for the 4 child positions: the
# values (9, 4 * NQ*NQ) and the derivatives (9, 4 * NQ*NQ * 2), laid out
# for one product each with the patch node values.
_PATCH_VALS, _PATCH_GRADS = (
    np.ascontiguousarray(b.transpose(1, 0, 2)).reshape(9, -1)
    for b in np.split(_patch_basis(np.repeat(np.arange(4), len(_PTS)),
                                   np.tile(_PTS, (4, 1))), [1], axis=-1))
_PATCH_VALS.flags.writeable = _PATCH_GRADS.flags.writeable = False


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
    weight at the quadrature points of every cell; ``at_points`` gives its
    values at observation points (patch basis cached in the mesh's context).
    """

    def __init__(self, field: "Field"):
        self._mesh = mesh = field.mesh
        nodes, self._pos, has_patch = _patch_table(mesh)
        self._patch_vals = np.where(has_patch[:, None],
                                    field.full_values()[nodes], 0.0)
        # All 4 child positions in one product each, then each cell's own;
        # scaling the node values by 1/h makes the derivatives physical.
        n = mesh.n_cells
        own = (np.arange(n), self._pos)
        self.vals = (self._patch_vals @ _PATCH_VALS).reshape(n, 4, -1)[own]
        self.grads = ((self._patch_vals / mesh.cell_sizes()[:, None])
                      @ _PATCH_GRADS).reshape(n, 4, -1, 2)[own]

    def at_points(self, points: np.ndarray):
        """(cell ids, w) at the cells of ``point_locations``."""
        cids, locs = point_locations(self._mesh, points)
        basis = _cached(self._mesh, ("patch_basis",) + _points_key(points),
                        lambda: _patch_basis(self._pos[cids], locs))
        return cids, np.einsum("ci,cik->ck", self._patch_vals[cids],
                               basis)[:, 0]


def patch_interpolate(field: "Field") -> PatchWeight:
    """DWR weight object for a field (see PatchWeight), kept in its
    context: eta1 reuses the weights eta2 built for the same solution."""
    return _cached(field, ("patch_weight",), lambda: PatchWeight(field))


# ---------------------------------------------------------------------------
# export


def _write_rows(fh, fmt: str, *columns) -> None:
    """fmt filled with one value of each column per row, written in blocks
    of 65,536 rows, so no whole file's text or list copy is held."""
    for i in range(0, len(columns[0]), 65536):
        rows = (c[i:i + 65536].tolist() for c in columns)
        fh.write("".join(map(fmt.format, *rows)))


def write_mesh_vtk(mesh: QuadMesh, path, point_data=None) -> None:
    """Legacy ASCII VTK unstructured grid with VTK_QUAD cells.

    ``point_data`` is an optional (name, values per vertex) pair.
    """
    sw, se, nw, ne = mesh.cell_corners.T
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n"
                 "quadtree mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {mesh.n_vertices} double\n")
        _write_rows(fh, "{:.16g} {:.16g} 0\n", *mesh.vertices.T)
        fh.write(f"CELLS {mesh.n_cells} {5 * mesh.n_cells}\n")
        _write_rows(fh, "4 {} {} {} {}\n", sw, se, ne, nw)
        fh.write(f"CELL_TYPES {mesh.n_cells}\n" + "9\n" * mesh.n_cells)
        if point_data is not None:
            name, values = point_data
            fh.write(f"POINT_DATA {mesh.n_vertices}\n"
                     f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, "{:.16g}\n", np.asarray(values))


def write_field_vtk(field: "Field", path, name: str = "value") -> None:
    """Mesh plus point data in legacy ASCII VTK."""
    write_mesh_vtk(field.mesh, path, point_data=(name, field.full_values()))


def write_field_csv(field: "Field", path) -> None:
    """CSV of (x, y, value) triples over all vertices."""
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        _write_rows(fh, "{:.16g},{:.16g},{:.16g}\n",
                    *field.mesh.vertices.T, field.full_values())
