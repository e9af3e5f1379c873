import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_mesh
from conftest import refinements, replay
from ggnfem import mesh as mesh_module
from ggnfem.fem import write_mesh_vtk
from ggnfem.mesh import locate, refine, uniform_mesh


def _geometry(mesh, cids):
    """Origins (n, 2) and side lengths (n,) of leaves."""
    h = mesh.cell_sizes()[cids]
    return mesh.cells[cids, 1:] * h[:, None], h


def _irregularity_ok(mesh):
    """The reference mesh's exhaustive edge scan of 1-irregularity, on
    the production mesh's leaves."""
    cells = map(tuple, mesh.cells.tolist())
    return reference_mesh.QuadMesh(cells).neighbor_levels_ok()


def test_uniform_counts():
    m = uniform_mesh(2)
    assert m.n_cells == 16
    assert m.n_vertices == 25
    m0 = uniform_mesh(0)
    assert m0.n_cells == 1 and m0.n_vertices == 4
    # (2^l + 1)^2 vertices, checked against direct enumeration
    m4 = uniform_mesh(4)
    assert m4.n_cells == 256 and m4.n_vertices == (2**4 + 1) ** 2
    corners = {tuple(v) for v in m4.vertices}
    expected = {(i / 16, j / 16) for i in range(17) for j in range(17)}
    assert corners == expected


def test_refine_single_cell_closure():
    m = uniform_mesh(2)
    m2 = refine(m, {5})
    assert m2.n_cells == 19  # 4 children + 15 untouched
    assert _irregularity_ok(m2)
    assert abs(np.sum(m2.cell_sizes() ** 2) - 1.0) < 1e-12


def test_refine_all_is_uniform():
    m = uniform_mesh(2)
    m2 = refine(m, range(m.n_cells))
    assert m2.n_cells == 64
    assert len(m2.hanging) == 0
    assert m2.n_vertices == uniform_mesh(3).n_vertices


def test_refine_empty_noop():
    m = uniform_mesh(2)
    assert refine(m, set()) is m
    assert refine(m, set(), max_level=2) is m


@pytest.mark.parametrize("cid", [-1, 16])
def test_refine_rejects_out_of_range_ids(cid):
    m = uniform_mesh(2)
    with pytest.raises(ValueError):
        refine(m, {0, cid})


def test_hanging_nodes_are_edge_midpoints():
    m = refine(uniform_mesh(2), {0, 7})
    assert len(m.hanging)
    for h, a, b in m.hanging:
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        assert np.allclose(m.vertices[h], mid)
        # parents are regular vertices
        assert a not in m.hanging[:, 0] and b not in m.hanging[:, 0]


def test_locate_basic():
    m = uniform_mesh(2)
    cids, loc = locate(m, [(0.1, 0.1), (0.5, 0.5), (1.0, 1.0)])
    assert np.array_equal(_geometry(m, cids)[0][[0, 2]], [[0, 0], [0.75, 0.75]])
    assert np.allclose(loc[0], (0.4, 0.4))
    # center touches four cells; tie-break is deterministic
    assert tuple(m.cells[cids[1]]) == (2, 1, 1)
    assert tuple(loc[1]) == (1.0, 1.0)
    assert tuple(loc[2]) == (1.0, 1.0)
    # one point gives arrays of length one
    cid, loc = locate(m, (0.1, 0.1))
    assert cid.tolist() == [0] and np.allclose(loc, [(0.4, 0.4)])
    for bad in [(1.2, 0.5), (0.5, -1e-300), (np.nan, 0.5)]:
        with pytest.raises(ValueError):
            locate(m, [(0.5, 0.5), bad])


def test_irregularity_and_nestedness_random_sequences():
    rng = np.random.default_rng(42)
    m = uniform_mesh(2)
    for _ in range(6):
        marked = set(rng.choice(m.n_cells, size=max(1, m.n_cells // 5),
                                replace=False).tolist())
        m2 = refine(m, marked)
        assert _irregularity_ok(m2)
        assert abs(np.sum(m2.cell_sizes() ** 2) - 1.0) < 1e-12
        # nestedness: every new leaf lies inside an old leaf
        xy, h = _geometry(m2, np.arange(m2.n_cells))
        old_xy, old_h = _geometry(m, locate(m, xy + h[:, None] / 2)[0])
        assert np.all(old_xy <= xy)
        assert np.all(xy + h[:, None] <= old_xy + old_h[:, None] + 1e-15)
        m = m2


def test_locate_refine_consistency():
    rng = np.random.default_rng(3)
    m = uniform_mesh(3)
    pts = rng.uniform(0, 1, (20, 2))
    # refine cells far from the points
    xy, h = _geometry(m, np.arange(m.n_cells))
    lo, hi = xy[:, None], (xy + h[:, None])[:, None]
    holds = ((lo <= pts) & (pts <= hi)).all(axis=2).any(axis=1)
    m2 = refine(m, np.flatnonzero(~holds)[:5])
    cid2, loc2 = locate(m2, pts)
    x2, h2 = _geometry(m2, cid2)
    # the physical position is unchanged
    assert np.allclose(x2 + loc2 * h2[:, None], pts)


def test_max_level_cap():
    m = uniform_mesh(2)
    m2 = refine(m, range(m.n_cells), max_level=2)
    assert m2 is m


def test_vtk_export(tmp_path):
    m = refine(uniform_mesh(2), {3})
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(m, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk")
    assert f"POINTS {m.n_vertices} double" in text
    assert f"CELLS {m.n_cells} {5 * m.n_cells}" in text
    assert text.count("9") >= m.n_cells


# ---------------------------------------------------------------------------
# the linear quadtree against the tuple-and-loop reference mesh


def _assert_matches_reference(mesh, ref, rng):
    assert np.array_equal(mesh.cells, np.array(ref.cells).reshape(-1, 3))
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.cell_corners, ref.cell_corners)
    hanging = sorted((v, a, b) for v, (a, b) in ref.hanging.items())
    assert np.array_equal(mesh.hanging, np.array(hanging).reshape(-1, 3))
    assert np.array_equal(mesh.boundary, ref.boundary)
    # Random points, plus dyadic points at the finest level: corners, and
    # points on vertical and horizontal grid lines.
    n = 1 << mesh.max_level
    grid = rng.integers(0, n + 1, (3, 60, 2)) / n
    grid[1, :, 1] = rng.uniform(0, 1, 60)
    grid[2, :, 0] = rng.uniform(0, 1, 60)
    pts = np.concatenate([rng.uniform(0, 1, (60, 2)), grid.reshape(-1, 2),
                          [(0, 0), (1, 1), (0, 1), (1, 0)]])
    cids, local = locate(mesh, pts)
    expected = [reference_mesh.locate(ref, p) for p in pts]
    assert np.array_equal(cids, [cid for cid, _ in expected])
    assert np.array_equal(local, [loc for _, loc in expected])


@pytest.mark.parametrize("levels", range(5))
def test_uniform_mesh_matches_reference(levels):
    _assert_matches_reference(uniform_mesh(levels),
                              reference_mesh.uniform_mesh(levels),
                              np.random.default_rng(levels))


@settings(max_examples=60)
@given(seq=refinements, seed=st.integers(0, 2**16))
def test_refined_mesh_matches_reference(seq, seed):
    _assert_matches_reference(replay(mesh_module, *seq),
                              replay(reference_mesh, *seq),
                              np.random.default_rng(seed))


@settings(max_examples=60)
@given(seq=refinements)
def test_refined_mesh_invariants(seq):
    mesh = replay(mesh_module, *seq)
    assert _irregularity_ok(mesh)
    assert abs(np.sum(mesh.cell_sizes() ** 2) - 1.0) < 1e-12
    # hanging parents are regular vertices, the hanging vertex their midpoint
    h, a, b = mesh.hanging.T
    assert not np.isin(mesh.hanging[:, 1:], h).any()
    assert np.array_equal(2 * mesh.vertices[h],
                          mesh.vertices[a] + mesh.vertices[b])
