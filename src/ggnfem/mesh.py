"""Adaptive quadtree meshes on the unit square, as a linear quadtree.

Cells are dyadic squares ``(level, ix, iy)``, occupying ``[ix*h,
(ix+1)*h] x [iy*h, (iy+1)*h]`` with ``h = 2**-level``.  A mesh holds the
leaves covering ``(0,1)^2`` in integer arrays (Gargantini, CACM 25, 1982).
A leaf's Morton code interleaves the ix and iy bits of its first
descendant at level ``DEPTH``, y bit high (int64 codes limit leaves to
that level).  Sorting by code is the Morton order, and the leaf covering
any cell is the last leaf whose code does not exceed the cell's: one
``searchsorted`` answers many containment queries.  The vertex at
``(kx, ky) / 2^L``, ``L`` the finest level of the mesh, has the key
``ky (2^L + 1) + kx``; vertices are sorted by key, i.e. by (y, x).

Refinement splits the marked leaves and closes to a 1-irregular mesh
(edge-adjacent leaves differ by at most one level) in rounds: a round
finds the leaf across each edge of the children it made, by one search on
the codes, and splits those more than one level coarser; a round that
splits nothing ends it.  So a hanging vertex is the midpoint of a full
edge of exactly one coarser leaf, and its two parents are regular.

Point location takes a point to the finest-level cell below and left of
it, index ``max(ceil(p 2^L) - 1, 0)``, then to the leaf containing that
cell: a point on shared edges goes to the Morton-smallest leaf holding it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QuadMesh",
    "uniform_mesh",
    "refine",
    "locate",
]

DEPTH = 30  # level the Morton codes count in; the deepest leaf level

# Corner offsets in the local order used throughout: SW, SE, NW, NE.
_CORNERS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
_KIDS = np.insert(_CORNERS, 0, 1, axis=1)  # child j = cell * [1, 2, 2] + row j
# Corner pairs of the bottom, top, left and right edges of a cell.
_EDGE_A, _EDGE_B = [0, 2, 0, 1], [1, 3, 2, 3]
# Offsets to the same-level neighbours across the left, right, bottom, top.
_STEPS = np.array([(-1, 0), (1, 0), (0, -1), (0, 1)])


def _spread(v):
    """The bits of v (< 2^32) moved to the even bit positions."""
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        v = (v | (v << shift)) & mask
    return v


def _codes(level, ix, iy):
    """Morton codes of the cells (level, ix, iy)."""
    shift = DEPTH - level
    return _spread(ix << shift) | (_spread(iy << shift) << 1)


def _sort(cells):
    """Cells in Morton order, and their codes."""
    if cells[:, 0].max() > DEPTH:
        raise ValueError(f"leaf levels are limited to {DEPTH}")
    codes = _codes(*cells.T)
    order = np.argsort(codes, kind="stable")
    return cells[order], codes[order]


class QuadMesh:
    """Immutable 1-irregular quadtree mesh of the unit square.

    Attributes
    ----------
    cells, codes : ndarray of int64, shapes (n_cells, 3) and (n_cells,)
        Leaf rows (level, ix, iy) and their Morton codes, ascending; the
        row is the cell id.
    vertices, keys : ndarray, shapes (n_vertices, 2) and (n_vertices,)
        Corner coordinates of all leaves and their keys, ascending.
    cell_corners : ndarray, shape (n_cells, 4)
        Vertex indices per cell in SW, SE, NW, NE order.
    hanging : ndarray of int64, shape (n_hanging, 3)
        Rows [vertex, parent a, parent b], sorted by vertex; the hanging
        value is the average of the two parents.
    boundary : ndarray of bool
        Marks vertices on the boundary of the unit square.
    """

    def __init__(self, cells, _codes=None, _corners=None):
        # refine passes the codes of sorted cells, uniform_mesh also corners.
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        self.cells, self.codes = (_sort(cells) if _codes is None
                                  else (cells, _codes))
        self.n_cells = len(cells)
        level = self.cells[:, 0]
        self.max_level = int(level.max())
        self._cell_sizes = np.ldexp(1.0, -level)
        self._cell_sizes.flags.writeable = False

        self._side = side = (1 << self.max_level) + 1
        if _corners is None:  # corners at the finest scale, (n_cells, 4, 2)
            step = (1 << (self.max_level - level))[:, None, None]
            xy = (self.cells[:, None, 1:] + _CORNERS) * step
            self.keys, corners = np.unique(xy[..., 1] * side + xy[..., 0],
                                           return_inverse=True)
        else:  # uniform: every vertex of the grid
            self.keys, corners = np.arange(side**2), _corners
        self.cell_corners = corners.reshape(-1, 4)
        self.n_vertices = len(self.keys)
        ky, kx = np.divmod(self.keys, self._side)
        self.vertices = np.column_stack([kx, ky]) / float(self._side - 1)
        self.boundary = ((kx == 0) | (kx == self._side - 1)
                         | (ky == 0) | (ky == self._side - 1))

        # A vertex strictly inside a leaf edge is hanging; 1-irregularity
        # puts it at the edge midpoint, parents are the edge endpoints.
        # Keys are linear in (kx, ky), so the midpoint's is their mean.
        ends = self.cell_corners[level < self.max_level]
        mid = (self.keys[ends[:, _EDGE_A]] + self.keys[ends[:, _EDGE_B]]) // 2
        mid = self.vertex_ids(*np.divmod(mid, side)[::-1])
        rows = np.stack([mid, ends[:, _EDGE_A], ends[:, _EDGE_B]], -1)[mid >= 0]
        self.hanging = rows[np.argsort(rows[:, 0])]

    def vertex_ids(self, kx, ky) -> np.ndarray:
        """Index of the vertex at (kx, ky) / 2^max_level, -1 where none."""
        keys = ky * self._side + kx
        i = np.minimum(np.searchsorted(self.keys, keys), self.n_vertices - 1)
        return np.where(self.keys[i] == keys, i, -1)

    def cell_sizes(self) -> np.ndarray:
        """Side length of every leaf (read-only, computed once)."""
        return self._cell_sizes


def uniform_mesh(levels: int) -> QuadMesh:
    """Uniform mesh with 4**levels equal square leaves, built by arithmetic."""
    if not 0 <= levels <= DEPTH:
        raise ValueError(f"need 0 <= levels <= {DEPTH}, the deepest leaf level")
    cells = np.zeros((1, 3), dtype=np.int64)
    for _ in range(levels):
        cells = (cells[:, None] * [1, 2, 2] + _KIDS).reshape(-1, 3)
    side, ix, iy = (1 << levels) + 1, cells[:, 1], cells[:, 2]
    return QuadMesh(cells, np.arange(len(cells)) << 2 * (DEPTH - levels),
                    (iy * side + ix)[:, None] + [0, 1, side, side + 1])


def refine(mesh: QuadMesh, marked, max_level: int | None = None) -> QuadMesh:
    """Split the marked leaves and close to a 1-irregular mesh.

    ``marked`` holds cell ids in ``[0, n_cells)``; others raise
    ValueError.  Marked cells already at ``max_level`` are skipped.  An
    effectively empty marking returns the input mesh itself.
    """
    ids = np.unique(np.fromiter(marked, dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= mesh.n_cells):
        raise ValueError(f"cell ids must lie in [0, {mesh.n_cells})")
    cells = mesh.cells
    if max_level is not None:
        ids = ids[cells[ids, 0] < max_level]
    if not ids.size:
        return mesh
    while ids.size:  # closure rounds
        kids = (cells[ids][:, None] * [1, 2, 2] + _KIDS).reshape(-1, 3)
        cells = np.concatenate([np.delete(cells, ids, axis=0), kids])
        cells, codes = _sort(cells)
        # Next round: leaves edge-adjacent to a kid and 2+ levels coarser.
        level = np.repeat(kids[:, 0], 4)
        j = (kids[:, None, 1:] + _STEPS).reshape(-1, 2)
        inside = ((j >= 0) & (j < (1 << level)[:, None])).all(axis=1)
        level, j = level[inside], j[inside]
        found = np.searchsorted(codes, _codes(level, j[:, 0], j[:, 1]),
                                side="right") - 1
        ids = np.unique(found[cells[found, 0] < level - 1])
    return QuadMesh(cells, codes)


def locate(mesh: QuadMesh, points):
    """Leaf containing each point, with local coordinates in [0,1]^2.

    ``points`` is (n, 2), or one point; returns the cell ids (n,) and the
    local coordinates (n, 2).  A point on shared edges goes to the
    Morton-smallest leaf holding it; a point outside the closed unit
    square, or NaN, raises ValueError.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    outside = ~((p >= 0.0) & (p <= 1.0)).all(axis=1)
    if outside.any():
        raise ValueError(f"point {p[outside][0]!r} outside the unit square")
    k = np.maximum(np.ceil(np.ldexp(p, mesh.max_level)) - 1, 0).astype(np.int64)
    cids = np.searchsorted(mesh.codes, _codes(mesh.max_level, k[:, 0], k[:, 1]),
                           side="right") - 1
    cells = mesh.cells[cids]
    return cids, np.ldexp(p, cells[:, :1]) - cells[:, 1:]
