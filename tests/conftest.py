"""Shared fixtures: forward simulations are expensive, so exact pairs
and noisy bundles are cached per configuration for the whole session.

Also the hypothesis profile of the suite, derandomized so every run
draws the same examples, and the shared mesh strategies: refinement
sequences, their replay on a mesh module, graded meshes, and one fixed
graded mesh with many hanging vertices; and a test's own Gauss rule,
independent of the package's ``fem.NQ``, with a field's values at its
points."""

import pytest
from hypothesis import assume, settings, strategies as st

from ggnfem import baseline as bl, driver as dv, fem, problem as pb
from ggnfem import mesh as mesh_module

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

DESK_FINE = 8  # 257 x 257 simulation mesh
DESK_DEPTH = 6  # solver meshes at most 6 levels deep


@pytest.fixture(scope="session")
def sims():
    truth_cache = {}
    data_cache = {}

    def get(case="a", obs="point", zeta=100.0, p=0.01, seed=1,
            fine=DESK_FINE, n_side=9):
        key = (case, obs, zeta, p, seed, fine, n_side)
        if key not in data_cache:
            problem = pb.ModelProblem(zeta=zeta)
            case_obj = pb.synthetic_case(case)
            tkey = (case, zeta, fine)
            if tkey not in truth_cache:
                truth_cache[tkey] = pb.simulate_truth(problem, case_obj, fine)
            observation = pb.PointObs(n_side) if obs == "point" else pb.L2Obs()
            data_cache[key] = pb.simulate_data(
                problem, case_obj, observation, fine, p, seed,
                truth=truth_cache[tkey])
        return data_cache[key]

    return get


@pytest.fixture(scope="session")
def ggn_runs(sims):
    """Cached GGN runs keyed by (case, obs, zeta, p, seed)."""
    cache = {}

    def get(case="a", obs="point", zeta=100.0, p=0.01, seed=1,
            fine=DESK_FINE, depth=DESK_DEPTH):
        key = (case, obs, zeta, p, seed, fine, depth)
        if key not in cache:
            data = sims(case=case, obs=obs, zeta=zeta, p=p, seed=seed,
                        fine=fine)
            problem = pb.ModelProblem(zeta=zeta)
            cfg = dv.GgnConfig(max_depth=depth)
            cache[key] = dv.run_ggn(problem, data, cfg)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def nt_runs(sims):
    cache = {}

    def get(case="a", obs="point", zeta=100.0, p=0.01, seed=1,
            fine=DESK_FINE, depth=DESK_DEPTH):
        key = (case, obs, zeta, p, seed, fine, depth)
        if key not in cache:
            data = sims(case=case, obs=obs, zeta=zeta, p=p, seed=seed,
                        fine=fine)
            problem = pb.ModelProblem(zeta=zeta)
            cache[key] = bl.run_nt(problem, data, bl.NtConfig(max_depth=depth))
        return cache[key]

    return get


def replay(module, start, marks):
    """Uniform mesh of level ``start`` refined by each list of picks in
    turn (picks taken modulo the cell count, depth capped at 6), built
    with the uniform_mesh and refine of the mesh module ``module``."""
    mesh = module.uniform_mesh(start)
    for picks in marks:
        mesh = module.refine(mesh, {p % mesh.n_cells for p in picks},
                             max_level=6)
    return mesh


# (start level, lists of picks) for replay.
refinements = st.tuples(
    st.integers(1, 2),
    st.lists(st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
             min_size=2, max_size=4))


@st.composite
def graded_meshes(draw):
    """Random refinements of a coarse uniform mesh with hanging vertices."""
    mesh = replay(mesh_module, *draw(refinements))
    assume(len(mesh.hanging))
    return mesh


def hanging_mesh():
    """Graded mesh with 528 hanging vertices (1,201 vertices)."""
    mesh = mesh_module.uniform_mesh(3)
    for _ in range(3):
        mesh = mesh_module.refine(mesh, set(range(0, mesh.n_cells, 3)),
                                  max_level=7)
    return mesh


def gauss_rule(n):
    """The n x n Gauss rule on the unit square: (points, weights, shape
    values, shape gradients), built from ``fem.gauss_points`` alone."""
    pts, wts = fem.gauss_points(n)
    return pts, wts, fem.shape_values(pts), fem.shape_gradients(pts)


def closed_form_load(space, f):
    """Vector of (f, phi_i) over the free nodes for a callable f(x, y),
    sampled at the package's quadrature points (``fem._load_vector``)."""
    x0, y0, h = fem._cell_origin_arrays(space.mesh)
    pts = gauss_rule(fem.NQ)[0]
    return fem._load_vector(space, f(x0[:, None] + h[:, None] * pts[:, 0],
                                     y0[:, None] + h[:, None] * pts[:, 1]))


def cell_values(field, shapes):
    """A field at the points of ``shapes`` (n_qp, 4) in each of its cells."""
    return field.full_values()[field.mesh.cell_corners] @ shapes.T
