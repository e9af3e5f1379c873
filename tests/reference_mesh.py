"""Reference quadtree mesh: leaves as tuples, built by per-cell loops.

This is the mesh module as it was before the linear quadtree
(``ggnfem.mesh``) replaced it, kept so that tests can compare cells,
vertices, corners, hanging vertices, boundary flags, refinement closure
and point location with it.

Cells are axis-aligned dyadic squares addressed by ``(level, ix, iy)``:
the cell occupies ``[ix*h, (ix+1)*h] x [iy*h, (iy+1)*h]`` with
``h = 2**-level``.  A mesh is a set of leaf cells covering ``(0,1)^2``.
Refinement splits a leaf into its four children and re-establishes
1-irregularity (edge-adjacent leaves differ by at most one level) by
closure splits, so hanging vertices always sit at the midpoint of a full
edge of exactly one coarser leaf and their two parent vertices are
regular.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Cell",
    "QuadMesh",
    "uniform_mesh",
    "refine",
    "locate",
]

# A cell is the tuple (level, ix, iy).
Cell = tuple

# Local corner order used throughout: SW, SE, NW, NE (tensor ordering).
_CORNER_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1))

_next_uid = iter(range(1, 1 << 62)).__next__


def _morton_key(cell: Cell) -> tuple:
    """Path of child indices from the root; sorting by it is Morton order."""
    level, ix, iy = cell
    return tuple(
        (((iy >> (level - d)) & 1) << 1) | ((ix >> (level - d)) & 1)
        for d in range(1, level + 1)
    )


def _children(cell: Cell):
    level, ix, iy = cell
    return (
        (level + 1, 2 * ix, 2 * iy),
        (level + 1, 2 * ix + 1, 2 * iy),
        (level + 1, 2 * ix, 2 * iy + 1),
        (level + 1, 2 * ix + 1, 2 * iy + 1),
    )


def _parent(cell: Cell) -> Cell:
    level, ix, iy = cell
    return (level - 1, ix // 2, iy // 2)


def _neighbor_leaves(leaves: set, cell: Cell, direction: int, max_level: int):
    """Leaves edge-adjacent to ``cell`` across one side.

    ``direction``: 0=left, 1=right, 2=down, 3=up.  Returns [] on the
    domain boundary.
    """
    level, ix, iy = cell
    n = 1 << level
    dx, dy = ((-1, 0), (1, 0), (0, -1), (0, 1))[direction]
    jx, jy = ix + dx, iy + dy
    if not (0 <= jx < n and 0 <= jy < n):
        return []
    cand = (level, jx, jy)
    # Same level or coarser ancestor.
    c = cand
    while c[0] >= 0:
        if c in leaves:
            return [c]
        c = _parent(c)
    # Otherwise the candidate is subdivided: collect the descendant leaves
    # along the shared edge (the two children facing back toward ``cell``).
    facing = {0: (1, 3), 1: (0, 2), 2: (2, 3), 3: (0, 1)}[direction]
    out = []
    stack = [cand]
    while stack:
        node = stack.pop()
        if node in leaves:
            out.append(node)
        elif node[0] < max_level + 2:
            kids = _children(node)
            stack.extend(kids[i] for i in facing)
    return out


class QuadMesh:
    """Immutable 1-irregular quadtree mesh of the unit square.

    Attributes
    ----------
    cells : list of (level, ix, iy)
        Leaf cells in Morton order; the list index is the cell id.
    vertices : ndarray, shape (n_vertices, 2)
        Corner coordinates of all leaves, sorted by (y, x).
    cell_corners : ndarray, shape (n_cells, 4)
        Vertex indices per cell in SW, SE, NW, NE order.
    hanging : dict
        vertex index -> (parent index, parent index); the hanging value
        is the average of the parents.
    boundary : ndarray of bool
        Marks vertices on the boundary of the unit square.
    generation : int
        Incremented by refine(); identical generation means "same mesh".
    """

    def __init__(self, leaves, generation: int = 0):
        self.cells = sorted(leaves, key=_morton_key)
        self.generation = generation
        self.uid = _next_uid()
        self._leaf_set = frozenset(self.cells)
        self._cell_ids = {c: i for i, c in enumerate(self.cells)}
        self.max_level = max(c[0] for c in self.cells)
        scale = 1 << self.max_level
        levels = np.array([c[0] for c in self.cells])
        self._cell_sizes = np.ldexp(1.0, -levels)
        self._cell_sizes.flags.writeable = False

        # Vertex keys are integer coordinates at the finest dyadic scale.
        keys = set()
        for level, ix, iy in self.cells:
            step = 1 << (self.max_level - level)
            for ox, oy in _CORNER_OFFSETS:
                keys.add(((ix + ox) * step, (iy + oy) * step))
        ordered = sorted(keys, key=lambda k: (k[1], k[0]))
        self._vertex_index = {k: i for i, k in enumerate(ordered)}
        self.vertices = np.array(ordered, dtype=float) / scale
        self.n_vertices = len(ordered)

        corners = np.empty((len(self.cells), 4), dtype=np.int64)
        for ci, (level, ix, iy) in enumerate(self.cells):
            step = 1 << (self.max_level - level)
            for li, (ox, oy) in enumerate(_CORNER_OFFSETS):
                corners[ci, li] = self._vertex_index[
                    ((ix + ox) * step, (iy + oy) * step)
                ]
        self.cell_corners = corners

        kx = np.array([k[0] for k in ordered])
        ky = np.array([k[1] for k in ordered])
        self.boundary = (kx == 0) | (kx == scale) | (ky == 0) | (ky == scale)

        # A vertex strictly inside a leaf edge is hanging; 1-irregularity
        # puts it at the edge midpoint, parents are the edge endpoints.
        hanging = {}
        for ci, (level, ix, iy) in enumerate(self.cells):
            step = 1 << (self.max_level - level)
            if step % 2:
                continue
            half = step // 2
            x0, y0 = ix * step, iy * step
            edges = (
                ((x0, y0), (x0 + step, y0)),
                ((x0, y0 + step), (x0 + step, y0 + step)),
                ((x0, y0), (x0, y0 + step)),
                ((x0 + step, y0), (x0 + step, y0 + step)),
            )
            for a, b in edges:
                mid = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
                mi = self._vertex_index.get(mid)
                if mi is not None:
                    hanging[mi] = (self._vertex_index[a], self._vertex_index[b])
        self.hanging = hanging

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_geometry(self, cell_id: int):
        """Origin (x0, y0) and side length h of a leaf."""
        level, ix, iy = self.cells[cell_id]
        h = 0.5**level
        return ix * h, iy * h, h

    def cell_sizes(self) -> np.ndarray:
        """Side length of every leaf (read-only, computed once)."""
        return self._cell_sizes

    def areas_sum(self) -> float:
        return float(sum(4.0 ** -c[0] for c in self.cells))

    def contains_cell(self, cell: Cell) -> bool:
        return cell in self._leaf_set

    def _cell_id(self, cell: Cell) -> int:
        return self._cell_ids[cell]

    def neighbor_levels_ok(self) -> bool:
        """Exhaustive edge scan of the 1-irregularity invariant."""
        for cell in self.cells:
            for d in range(4):
                for nb in _neighbor_leaves(self._leaf_set, cell, d, self.max_level):
                    if abs(nb[0] - cell[0]) > 1:
                        return False
        return True

    def __repr__(self):
        return (
            f"QuadMesh(cells={self.n_cells}, vertices={self.n_vertices}, "
            f"max_level={self.max_level}, generation={self.generation})"
        )


def uniform_mesh(levels: int) -> QuadMesh:
    """Uniform mesh with 4**levels equal square leaves."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    n = 1 << levels
    leaves = [(levels, ix, iy) for iy in range(n) for ix in range(n)]
    return QuadMesh(leaves, generation=0)


def refine(mesh: QuadMesh, marked, max_level: int | None = None) -> QuadMesh:
    """Split the marked leaves and close to a 1-irregular mesh.

    Marked cells already at ``max_level`` are skipped.  An effectively
    empty marking returns the input mesh itself (same generation id).
    """
    to_split = []
    for cid in sorted(set(marked)):
        cell = mesh.cells[cid]
        if max_level is None or cell[0] < max_level:
            to_split.append(cell)
    if not to_split:
        return mesh

    leaves = set(mesh.cells)
    queue = list(to_split)
    cap = max(mesh.max_level, max(c[0] for c in to_split) + 1)
    while queue:
        cell = queue.pop()
        if cell not in leaves:
            continue
        leaves.remove(cell)
        leaves.update(_children(cell))
        cap = max(cap, cell[0] + 1)
        # Coarser edge neighbors now face level+1 children: close them.
        for d in range(4):
            for nb in _neighbor_leaves(leaves, cell, d, cap):
                if nb[0] < cell[0]:
                    queue.append(nb)
    return QuadMesh(leaves, generation=mesh.generation + 1)


def locate(mesh: QuadMesh, point) -> tuple[int, tuple[float, float]]:
    """Leaf containing a point, with local coordinates in [0,1]^2.

    Points on shared edges resolve to the Morton-smallest containing
    leaf (deterministic tie-break); points outside the closed unit
    square raise ValueError.
    """
    x, y = float(point[0]), float(point[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"point {point!r} outside the unit square")
    cell = (0, 0, 0)
    while not mesh.contains_cell(cell):
        for child in _children(cell):
            level, ix, iy = child
            s = float(1 << level)
            if ix <= x * s <= ix + 1 and iy <= y * s <= iy + 1:
                cell = child
                break
        else:  # pragma: no cover - full quadtree guarantees a child
            raise RuntimeError("descent failed")
    level, ix, iy = cell
    s = float(1 << level)
    return mesh._cell_id(cell), (x * s - ix, y * s - iy)
