import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggnfem import fem
from ggnfem.fem import (Field, assemble_weighted_mass, interpolate_onto,
                        patch_interpolate, qspace, riesz_dual_norm, vspace,
                        write_field_csv, write_field_vtk)
from ggnfem.mesh import refine, uniform_mesh

import reference_writers
from conftest import (cell_values, closed_form_load, gauss_rule,
                      graded_meshes, hanging_mesh)


def _l2_error(u: Field, exact):
    mesh = u.mesh
    pts, wts, shapes, _ = gauss_rule(4)
    uv = cell_values(u, shapes)
    x0, y0, h = fem._cell_origin_arrays(mesh)
    gx = x0[:, None] + h[:, None] * pts[None, :, 0]
    gy = y0[:, None] + h[:, None] * pts[None, :, 1]
    return np.sqrt(np.einsum("c,cq,q->", h**2, (uv - exact(gx, gy)) ** 2, wts))


def _poisson_solve(mesh, f):
    V = vspace(mesh)
    load = closed_form_load(V, f)
    return Field(V, V.stiffness_solver().solve(load))


def test_empty_dirichlet_system():
    V = vspace(uniform_mesh(0))
    assert V.dim == 0
    with pytest.raises(ValueError):
        riesz_dual_norm(V, np.zeros(0))


def test_stiffness_annihilates_constants():
    Q = qspace(uniform_mesh(2))
    K = fem.assemble_stiffness(Q)
    assert np.abs(K @ np.ones(Q.dim)).max() < 1e-13


def test_mass_partition_of_unity_and_spd():
    Q = qspace(refine(uniform_mesh(2), {1, 6}))
    M = Q.mass()
    one = np.ones(Q.dim)
    assert abs(one @ (M @ one) - 1.0) < 1e-12
    # positive definite: Cholesky of the dense matrix succeeds
    np.linalg.cholesky(M.toarray())
    assert np.abs((M - M.T)).max() < 1e-15


def test_mass_edge_neighbor_entry():
    m = uniform_mesh(2)
    Q = qspace(m)
    M = Q.mass()
    h = 0.25
    # vertices (0.25,0.25) and (0.5,0.25): interior edge, two shared cells
    i = int(np.where((np.abs(m.vertices - [0.25, 0.25]).sum(1)) < 1e-14)[0][0])
    j = int(np.where((np.abs(m.vertices - [0.5, 0.25]).sum(1)) < 1e-14)[0][0])
    assert abs(M[i, j] - h * h / 9.0) < 1e-14


def test_weighted_mass_special_cases():
    m = uniform_mesh(3)
    Q = qspace(m)
    zero = Q.zeros()
    W0 = assemble_weighted_mass(Q, zero)
    assert abs(W0).max() == 0.0
    one = Q.interpolate(lambda x, y: np.ones_like(x))
    W1 = assemble_weighted_mass(Q, one)
    assert abs(W1 - Q.mass()).max() < 1e-12


def test_weighted_mass_against_quadrature_oracle():
    m = uniform_mesh(2)
    Q = qspace(m)
    wx = Q.interpolate(lambda x, y: x)
    W = assemble_weighted_mass(Q, wx)
    # diagonal entry at vertex (0.25, 0.25) via adaptive 1D x 1D quadrature
    from scipy.integrate import quad

    h = 0.25

    def phi(t):  # 1d hat at 0.25 with spacing 0.25
        return np.maximum(0.0, 1.0 - np.abs(t - 0.25) / h)

    ix, _ = quad(lambda x: x**2 * phi(x) ** 2, 0.0, 0.5, epsabs=1e-14)
    iy, _ = quad(lambda y: phi(y) ** 2, 0.0, 0.5, epsabs=1e-14)
    i = int(np.where((np.abs(m.vertices - [0.25, 0.25]).sum(1)) < 1e-14)[0][0])
    assert abs(W[i, i] - ix * iy) < 1e-12


def test_norm_l2_assembles_no_mass_matrix():
    """norm_l2 sums cell corner values: a fresh mesh's context gains no
    mass matrix and no mass factorization."""
    mesh = uniform_mesh(6)
    for S in (qspace(mesh), vspace(mesh)):
        assert S.interpolate(lambda x, y: np.sin(3 * x) * y).norm_l2() > 0.0
    mass_keys = {(name, k) for name in ("mass", "mass_lu") for k in "VQ"}
    assert not mass_keys & set(fem._CONTEXTS[mesh])


def test_norm_h1semi_matches_the_stiffness_form():
    """norm_h1semi sums cell corner values, and equals sqrt(c' K c) with
    the assembled K for V and Q fields on a hanging mesh; the mesh's
    context gains no stiffness matrix from it."""
    mesh = hanging_mesh()
    rng = np.random.default_rng(4)
    for S in (vspace(mesh), qspace(mesh)):
        c = rng.uniform(-1.0, 1.0, S.dim)
        got = Field(S, c).norm_h1semi()
        assert ("stiffness", S.kind) not in fem._CONTEXTS[mesh]
        ref = np.sqrt(c @ (fem.assemble_stiffness(S) @ c))
        assert abs(got - ref) <= 1e-14 * ref


def test_manufactured_poisson_order_two():
    errs = []
    for lev in (2, 3, 4, 5):
        u = _poisson_solve(
            uniform_mesh(lev),
            lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
        errs.append(_l2_error(
            u, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - 2.0) <= 0.2)


def test_galerkin_orthogonality():
    mesh = uniform_mesh(4)
    V = vspace(mesh)
    load = closed_form_load(
        V, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    u = V.stiffness_solver().solve(load)
    residual = load - V.stiffness() @ u
    rng = np.random.default_rng(0)
    for _ in range(5):
        test_fn = rng.standard_normal(V.dim)
        assert abs(residual @ test_fn) <= 1e-10 * np.linalg.norm(test_fn)


def test_riesz_roundtrip_and_norm_axioms():
    V = vspace(refine(uniform_mesh(3), {2, 9}))
    K = V.stiffness()
    rng = np.random.default_rng(1)
    w = rng.standard_normal(V.dim)
    norm, rep = riesz_dual_norm(V, K @ w)
    exact = np.sqrt(w @ (K @ w))
    assert abs(norm - exact) <= 1e-10 * max(1.0, exact)
    assert np.abs(rep.coeffs - w).max() < 1e-8
    # functional = 0
    assert riesz_dual_norm(V, np.zeros(V.dim))[0] == 0.0
    # homogeneity and triangle inequality on random functionals
    f = rng.standard_normal(V.dim)
    g = rng.standard_normal(V.dim)
    nf, _ = riesz_dual_norm(V, f)
    ng, _ = riesz_dual_norm(V, g)
    nfg, _ = riesz_dual_norm(V, f + g)
    n2f, _ = riesz_dual_norm(V, 2.0 * f)
    assert abs(n2f - 2.0 * nf) <= 1e-10 * nf
    assert nfg <= nf + ng + 1e-10


def test_riesz_converges_to_closed_form():
    # load of f = 2 pi^2 sin sin has representer u with |grad u| = pi/sqrt(2)
    vals = []
    for lev in (3, 4, 5):
        V = vspace(uniform_mesh(lev))
        load = closed_form_load(
            V, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
        vals.append(riesz_dual_norm(V, load)[0])
    target = np.pi / np.sqrt(2.0)
    gaps = [abs(v - target) for v in vals]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-3


def test_cross_mesh_exactness():
    m = uniform_mesh(2)
    Q = qspace(m)
    f = Q.interpolate(lambda x, y: 1 + 2 * x - 3 * y + 0.5 * x * y)
    m2 = refine(m, {5, 7})
    m3 = refine(m2, {0, 1, 2})
    f2 = interpolate_onto(f, m2)
    f3 = interpolate_onto(f, m3)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (40, 2))
    v0 = f.eval_points(pts)
    assert np.allclose(f2.eval_points(pts), v0, atol=1e-14)
    assert np.allclose(f3.eval_points(pts), v0, atol=1e-14)
    # constant field evaluated anywhere is the constant
    c = Q.interpolate(lambda x, y: np.full_like(x, 3.25))
    assert np.allclose(c.eval_points(pts), 3.25, atol=1e-15)
    # own vertices give back the coefficients
    assert np.allclose(f.eval_points(m.vertices[Q.free]), f.coeffs, atol=1e-14)


def test_cross_mesh_rejects_non_nested():
    m_fine = uniform_mesh(3)
    f = qspace(m_fine).interpolate(lambda x, y: x * y)
    with pytest.raises(ValueError):
        interpolate_onto(f, uniform_mesh(1))


def _descendant_walk(src, tgt):
    """Reference containment map: walk the dyadic descendants of every
    source leaf and claim the target leaves met on the way."""
    tgt_ids = {cell: i for i, cell in enumerate(map(tuple, tgt.cells.tolist()))}
    ids = {}
    for sid, cell in enumerate(map(tuple, src.cells.tolist())):
        stack = [cell]
        while stack:
            level, ix, iy = stack.pop()
            if (level, ix, iy) in tgt_ids:
                ids[tgt_ids[level, ix, iy]] = sid
            elif level < tgt.max_level:
                stack.extend((level + 1, 2 * ix + dx, 2 * iy + dy)
                             for dy in (0, 1) for dx in (0, 1))
    return np.array([ids.get(t, -1) for t in range(tgt.n_cells)])


@settings(max_examples=40, deadline=None)
@given(start=st.integers(0, 2),
       marks=st.lists(st.lists(st.integers(0, 10**6), min_size=1,
                               max_size=6), min_size=1, max_size=4))
def test_containment_map_matches_descendant_walk(start, marks):
    meshes = [uniform_mesh(start)]
    for picks in marks:
        m = meshes[-1]
        meshes.append(refine(m, {p % m.n_cells for p in picks}, max_level=6))
    for i, src in enumerate(meshes):
        for tgt in meshes[i:]:
            got = fem._containment_map(src, tgt)
            assert np.array_equal(got, _descendant_walk(src, tgt))
        assert np.array_equal(fem._containment_map(src, src),
                              np.arange(src.n_cells))
    if meshes[-1].n_cells > meshes[0].n_cells:
        with pytest.raises(ValueError):
            fem._containment_map(meshes[-1], meshes[0])


def test_containment_map_rejects_crossed_refinements():
    base = uniform_mesh(1)
    left, right = refine(base, {0}), refine(base, {3})
    for src, tgt in ((left, right), (right, left)):
        with pytest.raises(ValueError):
            fem._containment_map(src, tgt)


def test_bilinear_at_child_gauss_points():
    m = uniform_mesh(1)
    Q = qspace(m)
    f = Q.interpolate(lambda x, y: 2 - x + 3 * y + 4 * x * y)
    child = refine(m, {0, 1, 2, 3})
    vals = fem._cell_values(interpolate_onto(f, child))
    x0, y0, h = fem._cell_origin_arrays(child)
    gx = x0[:, None] + h[:, None] * fem._PTS[None, :, 0]
    gy = y0[:, None] + h[:, None] * fem._PTS[None, :, 1]
    assert np.abs(vals - (2 - gx + 3 * gy + 4 * gx * gy)).max() < 1e-14


def test_reference_tables_are_read_only():
    """The element matrices and the patch basis tables are module
    constants shared by every caller: none of them can be written to."""
    tables = (fem._ELEMENT["mass"], fem._ELEMENT["stiffness"],
              fem._PATCH_VALS, fem._PATCH_GRADS)
    for table in tables:
        before = table.copy()
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0
        assert np.array_equal(table, before)
    assert fem._PATCH_VALS.shape == (9, 4 * len(fem._PTS))
    assert fem._PATCH_GRADS.shape == (9, 4 * len(fem._PTS) * 2)


def test_patch_interpolation_biquadratic_exactness():
    mesh = uniform_mesh(3)
    Q = qspace(mesh)

    def biquad(x, y):
        return 1 + x + y + x * y + x**2 + y**2 + x**2 * y + x * y**2 \
            + x**2 * y**2

    f = Q.interpolate(biquad)
    W = patch_interpolate(f)
    pts = fem._PTS
    wv = W.vals
    corner = f.full_values()[mesh.cell_corners]
    s, t = pts[:, 0], pts[:, 1]
    lin = (np.outer(corner[:, 0], (1 - s) * (1 - t))
           + np.outer(corner[:, 1], s * (1 - t))
           + np.outer(corner[:, 2], (1 - s) * t)
           + np.outer(corner[:, 3], s * t))
    x0, y0, h = fem._cell_origin_arrays(mesh)
    gx = x0[:, None] + h[:, None] * s[None, :]
    gy = y0[:, None] + h[:, None] * t[None, :]
    # pi_h reproduces the biquadratic exactly: weight = biquad - bilinear
    assert np.abs(lin + wv - biquad(gx, gy)).max() < 1e-12
    # at patch centers the weight equals the bilinear interpolation error
    # (implied by exact recovery, checked above pointwise)


def test_patch_interpolation_zero_cases():
    mesh = refine(uniform_mesh(2), {3, 9})
    Q = qspace(mesh)
    const = Q.interpolate(lambda x, y: np.full_like(x, 7.0))
    W = patch_interpolate(const)
    wv, wg = W.vals, W.grads
    assert np.abs(wv).max() < 1e-13
    assert np.abs(wg).max() < 1e-12
    # globally bilinear fields also vanish under the defect
    lin = Q.interpolate(lambda x, y: 1 + x - 2 * y + 3 * x * y)
    wv2 = patch_interpolate(lin).vals
    assert np.abs(wv2).max() < 1e-12


class _LoopPatchWeight:
    """Reference: the per-cell construction of the DWR weight that the
    patch table replaced, one 3x3 vertex lookup per parent patch."""

    def __init__(self, field):
        mesh = field.mesh
        self.mesh = mesh
        full = field.full_values()
        self.corner_vals = full[mesh.cell_corners]
        scale = 1 << mesh.max_level
        index = {(int(round(x * scale)), int(round(y * scale))): i
                 for i, (x, y) in enumerate(mesh.vertices)}
        n = mesh.n_cells
        self.has_patch = np.zeros(n, dtype=bool)
        self.patch_vals = np.zeros((n, 3, 3))
        self.child_offset = np.zeros((n, 2), dtype=np.int64)
        for cid, (level, ix, iy) in enumerate(mesh.cells):
            if level == 0:
                continue
            step = 1 << (mesh.max_level - level + 1)
            half = step // 2
            keys = [((ix // 2) * step + i * half, (iy // 2) * step + j * half)
                    for j in range(3) for i in range(3)]
            if any(k not in index for k in keys):
                continue
            self.has_patch[cid] = True
            self.patch_vals[cid] = full[[index[k] for k in keys]].reshape(3, 3)
            self.child_offset[cid] = (ix % 2, iy % 2)

    def eval_cells(self, cell_ids, pts):
        """Values/gradients at local points (1 or len(cell_ids), n_pts, 2)."""
        def quad1d(t):
            return np.column_stack([2 * (t - 0.5) * (t - 1.0),
                                    -4 * t * (t - 1.0), 2 * t * (t - 0.5)])

        def quad1d_deriv(t):
            return np.column_stack([4 * t - 3.0, -8 * t + 4.0, 4 * t - 1.0])

        n, npts = len(cell_ids), pts.shape[1]
        s, t = pts[..., 0], pts[..., 1]
        dxy = self.child_offset[cell_ids]
        ps = np.broadcast_to(0.5 * (s + dxy[:, 0, None]), (n, npts)).ravel()
        pt = np.broadcast_to(0.5 * (t + dxy[:, 1, None]), (n, npts)).ravel()
        ls, lt = (quad1d(x).reshape(n, npts, 3) for x in (ps, pt))
        dls, dlt = (quad1d_deriv(x).reshape(n, npts, 3) for x in (ps, pt))
        vals = self.patch_vals[cell_ids]
        quad = np.einsum("cji,cnj,cni->cn", vals, lt, ls)
        dquad_s = np.einsum("cji,cnj,cni->cn", vals, lt, dls)
        dquad_t = np.einsum("cji,cnj,cni->cn", vals, dlt, ls)
        h = self.mesh.cell_sizes()[cell_ids][:, None]
        corner_vals = self.corner_vals[cell_ids][:, None, :]
        lin = fem.bilinear(corner_vals, pts)
        dlin = np.einsum("...i,...id->...d", corner_vals,
                         fem.shape_gradients(pts)) / h[..., None]
        w = quad - lin
        gx = dquad_s * (0.5 / h) - dlin[..., 0]
        gy = dquad_t * (0.5 / h) - dlin[..., 1]
        mask = self.has_patch[cell_ids]
        w[~mask] = gx[~mask] = gy[~mask] = 0.0
        return w, np.stack([gx, gy], axis=-1)


@settings(max_examples=10)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
def test_patch_weight_matches_per_cell_reference(mesh, seed):
    rng = np.random.default_rng(seed)
    pts = fem._PTS
    ids = rng.integers(0, mesh.n_cells, 50)
    locs = rng.uniform(0.0, 1.0, (50, 2))
    for space in (vspace(mesh), qspace(mesh)):
        f = Field(space, rng.uniform(-1.0, 1.0, space.dim))
        W, ref = patch_interpolate(f), _LoopPatchWeight(f)
        assert ref.has_patch.all()
        rv, rg = ref.eval_cells(np.arange(mesh.n_cells), pts[None])
        scale = np.abs(rg).max()
        assert np.abs(W.vals - rv).max() <= 1e-13 * np.abs(rv).max()
        assert np.abs(W.grads - rg).max() <= 1e-13 * scale
        rv, rg = ref.eval_cells(ids, locs[:, None, :])
        wv, wg = W.at(ids, locs)
        assert np.abs(wv - rv[:, 0]).max() <= 1e-13 * np.abs(rv).max()
        assert np.abs(wg - rg[:, 0]).max() <= 1e-13 * scale


@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
def test_patch_weight_at_points_matches_at_bitwise(mesh, seed):
    """The patch basis at observation points is cached in the mesh's
    context; the weights it gives are those of ``at``, bit for bit."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, (30, 2))
    cids, locs = fem.point_locations(mesh, points)
    for space in (vspace(mesh), qspace(mesh)):
        W = patch_interpolate(Field(space, rng.uniform(-1, 1, space.dim)))
        ref = W.at(cids, locs)
        for _ in range(2):  # building the cached basis, then reading it
            ids, w, gw = W.at_points(points)
            assert np.array_equal(ids, cids)
            assert np.array_equal(w, ref[0]) and np.array_equal(gw, ref[1])


def test_patch_weight_zero_on_root_cell():
    f = qspace(uniform_mesh(0)).interpolate(lambda x, y: x * y)
    W = patch_interpolate(f)
    assert not W.vals.any() and not W.grads.any()


def test_field_export(tmp_path):
    Q = qspace(uniform_mesh(2))
    f = Q.interpolate(lambda x, y: x + y)
    write_field_vtk(f, tmp_path / "f.vtk", name="f")
    write_field_csv(f, tmp_path / "f.csv")
    vtk = (tmp_path / "f.vtk").read_text()
    assert "SCALARS f double 1" in vtk
    rows = (tmp_path / "f.csv").read_text().splitlines()
    assert rows[0] == "x,y,value"
    assert len(rows) == 1 + f.mesh.n_vertices


@pytest.mark.parametrize("make_mesh", [hanging_mesh, lambda: uniform_mesh(6),
                                       lambda: uniform_mesh(8)],
                         ids=["graded", "uniform-6", "uniform-8"])
def test_writers_match_reference_bytes(tmp_path, make_mesh):
    """The writers' output equals, byte for byte, that of the reference
    writers, which write one line per call; level 8's 66,049 vertices
    cross a block boundary of the streamed writers."""
    mesh = make_mesh()
    writes = {"mesh.vtk": lambda w, path: w.write_mesh_vtk(mesh, path)}
    for S in (qspace(mesh), vspace(mesh)):
        f = S.interpolate(lambda x, y: np.sin(7 * x) * np.exp(y) / 3 - x)
        writes[f"{S.kind}.vtk"] = (
            lambda w, path, f=f: w.write_field_vtk(f, path, name="f"))
        writes[f"{S.kind}.csv"] = (
            lambda w, path, f=f: w.write_field_csv(f, path))
    for name, write in writes.items():
        write(fem, tmp_path / name)
        write(reference_writers, tmp_path / f"reference-{name}")
        assert ((tmp_path / name).read_bytes()
                == (tmp_path / f"reference-{name}").read_bytes()), name
