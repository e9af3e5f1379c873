import functools
import gc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

import reference_forward
from conftest import cell_values, gauss_rule, graded_meshes
from ggnfem import fem, problem as pb
from ggnfem.fem import Field, qspace, riesz_dual_norm, vspace
from ggnfem.mesh import locate, refine, uniform_mesh


def test_case_constants():
    a = pb.synthetic_case("a")
    # peak value c / (2 pi sigma^2) at (mu/s, mu/s) = (0.25, 0.25)
    assert abs(a(0.25, 0.25) - 10.0 / (2 * np.pi * 0.01)) < 1e-10
    b = pb.synthetic_case("b")
    peak_b = 1.0 / (2 * np.pi * 0.01) * (1 + np.exp(-0.5 * ((0.8 * 0.25 - 0.5) / 0.1) ** 2 * 2))
    assert abs(b(0.25, 0.25) - peak_b) < 1e-8
    c = pb.synthetic_case("c")
    assert c(0.49, 0.7) == 1.0 and c(0.51, 0.7) == 0.0
    with pytest.raises(ValueError):
        pb.synthetic_case("d")


def test_semilinear_residual_zero_fields():
    prob = pb.ModelProblem(zeta=100.0)
    m = uniform_mesh(3)
    V, Q = vspace(m), qspace(m)
    r = pb.semilinear_residual(prob, Q.zeros(), V.zeros(), V)
    assert np.abs(r).max() == 0.0


def test_semilinear_residual_galerkin_zero():
    # zeta = 0: a discrete Poisson solution annihilates the residual
    prob = pb.ModelProblem(zeta=0.0)
    m = uniform_mesh(4)
    V, Q = vspace(m), qspace(m)
    q = Q.interpolate(pb.synthetic_case("a").source)
    u = pb.solve_forward(prob, q, V)
    r = pb.semilinear_residual(prob, q, u, V)
    assert riesz_dual_norm(V, r)[0] <= 1e-10


def test_semilinear_residual_quadrature_oracle():
    # zeta=1, u = interpolated sin*sin, q=0: one nodal entry against an
    # adaptive quadrature oracle
    from scipy.integrate import dblquad

    prob = pb.ModelProblem(zeta=1.0)
    m = uniform_mesh(2)
    V, Q = vspace(m), qspace(m)
    u = V.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    r = pb.semilinear_residual(prob, Q.zeros(), u, V)

    h = 0.25
    node = np.array([0.5, 0.5])

    def hat(x, y):
        return max(0.0, 1 - abs(x - 0.5) / h) * max(0.0, 1 - abs(y - 0.5) / h)

    def uh(x, y):
        # bilinear interpolant of sin*sin on the 4x4 mesh
        return u.eval_points(np.array([[x, y]]))[0]

    # stiffness part: compare against the assembled matrix action (exact);
    # the cubic part against numeric quadrature of uh^3 * hat
    val, _ = dblquad(lambda y, x: uh(x, y) ** 3 * hat(x, y),
                     0.25, 0.75, 0.25, 0.75, epsabs=1e-10)
    i = int(np.argmin(np.abs(V.mesh.vertices[V.free] - node).sum(axis=1)))
    stiff_part = (V.stiffness() @ u.coeffs)[i]
    assert abs(r[i] - (stiff_part + val)) < 1e-8


def test_forward_zero_source():
    prob = pb.ModelProblem(zeta=100.0)
    m = uniform_mesh(3)
    u = pb.solve_forward(prob, qspace(m).zeros(), vspace(m))
    assert np.abs(u.coeffs).max() == 0.0


def test_forward_linear_case_single_step():
    prob = pb.ModelProblem(zeta=0.0)
    m = uniform_mesh(4)
    V, Q = vspace(m), qspace(m)
    q = Q.interpolate(pb.synthetic_case("a").source)
    u = pb.solve_forward(prob, q, V)
    load = fem.assemble_functional(V, q)
    u_lin = V.stiffness_solver().solve(load)
    assert np.abs(u.coeffs - u_lin).max() < 1e-12 * max(1, np.abs(u_lin).max())


def test_forward_strong_nonlinearity_vs_energy_oracle():
    """zeta=1000 Newton solution against an independent minimization.

    The discrete problem is the gradient of a strictly convex energy;
    quasi-Newton descent on that energy is an independent route to the
    same fixed point (a relaxed-Picard/descent oracle).
    """
    prob = pb.ModelProblem(zeta=1000.0)
    m = uniform_mesh(4)
    V, Q = vspace(m), qspace(m)
    q = Q.interpolate(pb.synthetic_case("a").source)
    u = pb.solve_forward(prob, q, V)

    Ks = V.stiffness()
    load = fem.assemble_functional(V, q)
    _, wts, shapes, _ = gauss_rule(4)
    h2 = m.cell_sizes() ** 2

    def fg(vec):
        f = Field(V, vec)
        uq = cell_values(f, shapes)
        quart = np.einsum("c,cq,q->", h2, uq**4, wts)
        energy = 0.5 * vec @ (Ks @ vec) + 0.25 * prob.zeta * quart - load @ vec
        grad = Ks @ vec + prob.zeta * pb._cubic_term(V, f) - load
        return energy, grad

    res = minimize(fg, np.zeros(V.dim), jac=True, method="L-BFGS-B",
                   options=dict(maxiter=20000, ftol=1e-18, gtol=1e-13))
    assert np.abs(res.x - u.coeffs).max() < 1e-8


def test_forward_nonconvergence_carries_residual_norm():
    prob = pb.ModelProblem(zeta=1000.0)
    m = uniform_mesh(3)
    q = qspace(m).interpolate(pb.synthetic_case("a").source)
    with pytest.raises(pb.ForwardSolveError) as exc:
        pb.solve_forward(prob, q, vspace(m), max_iter=1)
    assert exc.value.residual_norm > 0


def test_forward_uniqueness_from_different_starts():
    prob = pb.ModelProblem(zeta=500.0)
    m = uniform_mesh(3)
    V, Q = vspace(m), qspace(m)
    rng = np.random.default_rng(7)
    q = Field(Q, rng.uniform(-5, 5, Q.dim))
    u1 = pb.solve_forward(prob, q, V)
    start = Field(V, rng.uniform(-1, 1, V.dim))
    u2 = pb.solve_forward(prob, q, V, u_init=start)
    assert np.abs(u1.coeffs - u2.coeffs).max() < 1e-9


def lu_newton(prob, q, V, tol=1e-10, max_iter=50, u_init=None):
    """Oracle: the forward solve with a fresh LU of the Jacobian at every
    Newton step, backtracking as in ``solve_forward``.  Returns the
    coefficients and the dual residual norm of every iterate."""
    import scipy.sparse.linalg as spla

    load = fem.assemble_functional(V, fem.interpolate_onto(q, V.mesh))
    lu_s = V.stiffness_solver()
    u = (np.zeros(V.dim) if u_init is None
         else fem.interpolate_onto(u_init, V.mesh).coeffs.copy())

    def dual_norm(vec):
        r = V.stiffness() @ vec - load + prob.zeta * pb._cubic_term(V, Field(V, vec))
        return np.sqrt(max(r @ lu_s.solve(r), 0.0)), r

    n, r = dual_norm(u)
    norms = [n]
    for _ in range(max_iter):
        if n <= tol:
            break
        J = pb.linearized_state_operator(prob, V, Field(V, u))
        d = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(-r)
        step = 1.0
        while True:
            n_new, r_new = dual_norm(u + step * d)
            if n_new < n or step < 1e-10:
                break
            step *= 0.5
        u, n, r = u + step * d, n_new, r_new
        norms.append(n)
    return u, norms


def test_forward_monotone_residual_decrease():
    prob = pb.ModelProblem(zeta=1000.0)
    m = uniform_mesh(4)
    V, Q = vspace(m), qspace(m)
    q = Q.interpolate(pb.synthetic_case("a").source)
    _, norms = lu_newton(prob, q, V, max_iter=30)
    assert all(a > b for a, b in zip(norms[:-1], norms[1:-1]))
    assert norms[-1] <= 1e-10


def _assert_matches_lu_newton(prob, q, V, u_init=None):
    """solve_forward against the LU-Newton oracle: equal to 1e-10
    relative, with a final dual residual within the tolerance."""
    u = pb.solve_forward(prob, q, V, u_init=u_init)
    ref, _ = lu_newton(prob, q, V, u_init=u_init)
    assert np.abs(u.coeffs - ref).max() <= 1e-10 * np.abs(ref).max()
    assert riesz_dual_norm(V, pb.semilinear_residual(prob, q, u, V))[0] <= 1e-10


@pytest.mark.parametrize("zeta", [0.0, 100.0, 1000.0, 1e4])
def test_forward_matches_lu_newton_on_uniform_mesh(zeta):
    prob = pb.ModelProblem(zeta=zeta)
    m = uniform_mesh(5)
    V, Q = vspace(m), qspace(m)
    source = pb.synthetic_case("a").source
    _assert_matches_lu_newton(prob, Q.interpolate(source), V)
    # warm start from the solution for a scaled source on a coarser mesh
    coarse = uniform_mesh(3)
    start = pb.solve_forward(
        prob, qspace(coarse).interpolate(lambda x, y: 0.8 * source(x, y)),
        vspace(coarse))
    _assert_matches_lu_newton(prob, Q.interpolate(source), V, u_init=start)


@settings(max_examples=12)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16),
       zeta=st.sampled_from([0.0, 100.0, 1000.0, 1e4]))
def test_forward_matches_lu_newton_on_graded_meshes(mesh, seed, zeta):
    rng = np.random.default_rng(seed)
    prob = pb.ModelProblem(zeta=zeta)
    V, Q = vspace(mesh), qspace(mesh)
    q = Field(Q, rng.uniform(-50.0, 150.0, Q.dim))
    _assert_matches_lu_newton(prob, q, V)
    _assert_matches_lu_newton(prob, q, V,
                              u_init=Field(V, rng.uniform(-1, 1, V.dim)))


def _assert_matches_reference(prob, q, V, u_init=None):
    """solve_forward against tests/reference_forward.py: bitwise equal
    coefficients after as many Jacobians."""
    calls = {pb: [], reference_forward: []}
    with pytest.MonkeyPatch.context() as mp:
        for module, log in calls.items():
            lso = module.linearized_state_operator
            mp.setattr(module, "linearized_state_operator",
                       lambda *a, lso=lso, log=log: log.append(1) or lso(*a))
        got = pb.solve_forward(prob, q, V, u_init=u_init)
        ref = reference_forward.solve_forward(prob, q, V, u_init=u_init)
    assert np.array_equal(got.coeffs, ref.coeffs)
    assert len(calls[pb]) == len(calls[reference_forward]) > 0
    # The solution keeps its quadrature values, which the linearized
    # operator at it reads again, when the cubic term needs them.
    kept = ("values",) in fem._CONTEXTS.get(got, {})
    assert kept == (prob.zeta != 0.0)


@pytest.mark.parametrize("zeta", [0.0, 100.0, 1000.0])
@pytest.mark.parametrize("level", [4, 6])
def test_forward_matches_reference_on_uniform_mesh(level, zeta):
    """Cold and warm starts; solver meshes solve stiffness systems by LU
    at every level, only the truth build uses the sine solver."""
    prob = pb.ModelProblem(zeta=zeta)
    m = uniform_mesh(level)
    V, Q = vspace(m), qspace(m)
    assert not isinstance(V.stiffness_solver(), fem._SineSolver)
    source = pb.synthetic_case("a").source
    coarse = uniform_mesh(level - 2)
    start = pb.solve_forward(
        prob, qspace(coarse).interpolate(lambda x, y: 0.8 * source(x, y)),
        vspace(coarse))
    for u_init in (None, start):
        _assert_matches_reference(prob, Q.interpolate(source), V, u_init)


@settings(max_examples=12)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16),
       zeta=st.sampled_from([0.0, 100.0, 1000.0]))
def test_forward_matches_reference_on_graded_meshes(mesh, seed, zeta):
    rng = np.random.default_rng(seed)
    prob = pb.ModelProblem(zeta=zeta)
    V, Q = vspace(mesh), qspace(mesh)
    q = Field(Q, rng.uniform(-50.0, 150.0, Q.dim))
    for u_init in (None, Field(V, rng.uniform(-1, 1, V.dim))):
        _assert_matches_reference(prob, q, V, u_init)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("level", range(2, 8))
def test_grid_operators_match_assembled(level):
    """The grid-form operators of the truth build against the assembled
    ones of the same uniform mesh, to 1e-13 relative: K x, J x, (q, phi)
    and (u^3, phi)."""
    rng = np.random.default_rng(level)
    m = uniform_mesh(level)
    V, Q = vspace(m), qspace(m)
    x = rng.standard_normal(V.dim)
    u = Field(V, rng.uniform(-1.0, 1.0, V.dim))
    q = Field(Q, rng.uniform(-50.0, 150.0, Q.dim))
    assert _rel(fem._GRID_STIFFNESS @ x, V.stiffness() @ x) <= 1e-13
    for zeta in (0.0, 100.0, 1000.0):
        prob = pb.ModelProblem(zeta=zeta)
        J = pb._GridForward(prob, level).jacobian(u)
        assert _rel(J @ x, pb.linearized_state_operator(prob, V, u) @ x) <= 1e-13
    assert _rel(fem._grid_functional(q),
                fem.assemble_functional(V, q)) <= 1e-13
    assert _rel(fem._grid_functional(u, 3),
                pb._cubic_term(V, u)) <= 1e-13


@pytest.mark.parametrize("zeta", [0.0, 100.0, 1000.0])
def test_truth_matches_assembled_forward_solve(zeta):
    """The grid-form truth against tests/reference_forward.py on the
    assembled operators of its mesh, to 1e-12 relative; the level-0 mesh
    has no interior vertex."""
    prob, case = pb.ModelProblem(zeta=zeta), pb.synthetic_case("a")
    q_true, u_true = pb.simulate_truth(prob, case, 6)
    ref = reference_forward.solve_forward(prob, q_true, u_true.space)
    assert _rel(u_true.coeffs, ref.coeffs) <= 1e-12
    assert pb.simulate_truth(prob, case, 0)[1].coeffs.shape == (0,)


def test_l2_noise_norms_match_mass_norms():
    """delta and |g| of L^2 data, summed over cell corner values, equal
    the norms by the assembled mass matrix to 1e-12."""
    data = pb.simulate_data(pb.ModelProblem(zeta=100.0), pb.synthetic_case("a"),
                            pb.L2Obs(), 5, 0.01, 2)
    M = data.g.space.mass()
    g_norm = np.sqrt(data.g.coeffs @ M @ data.g.coeffs)
    d = data.g_delta.coeffs - data.g.coeffs
    delta = np.sqrt(d @ M @ d)
    assert abs(data.g.norm_l2() - g_norm) <= 1e-12 * g_norm
    assert abs(data.delta - delta) <= 1e-12 * delta


def test_truth_makes_no_factorization(monkeypatch):
    """A level-6 truth build solves its stiffness systems by sine
    transforms and makes no LU; after point and L^2 simulate_data the
    simulation mesh's context holds no factorization and no assembled
    operator, plan or load map."""
    calls = []
    splu = fem.spla.splu
    monkeypatch.setattr(fem.spla, "splu",
                        lambda A, **kw: calls.append(A.shape) or splu(A, **kw))
    prob, case = pb.ModelProblem(zeta=100.0), pb.synthetic_case("a")
    truth = pb.simulate_truth(prob, case, 6)
    assert calls == []
    for obs in (pb.PointObs(9), pb.L2Obs()):
        data = pb.simulate_data(prob, case, obs, 6, 0.01, 1, truth=truth)
    entries = fem._CONTEXTS[data.u_true.mesh]
    assert not any(isinstance(e, fem.spla.SuperLU) for e in entries.values())
    assert not {key[0] for key in entries} & {
        "plan", "slots", "load_map", "stiffness", "mass"}
    assert calls == []


def _negative_jacobian(problem, space, u_base):
    return -space.stiffness()


@pytest.mark.parametrize("fault", ["indefinite", "nan"])
def test_forward_cg_breakdown_raises(monkeypatch, fault):
    prob = pb.ModelProblem(zeta=100.0)
    m = uniform_mesh(3)
    q = qspace(m).interpolate(pb.synthetic_case("a").source)
    if fault == "indefinite":
        monkeypatch.setattr(pb, "linearized_state_operator", _negative_jacobian)
    else:
        q.coeffs[3] = np.nan
    with pytest.raises(pb.ForwardSolveError, match="CG broke down"):
        pb.solve_forward(prob, q, vspace(m))


def test_forward_stiffness_factorization_failure_raises(monkeypatch):
    def singular(A, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fem.spla, "splu", singular)
    m = uniform_mesh(2)
    with pytest.raises(pb.ForwardSolveError, match="singular"):
        pb.solve_forward(pb.ModelProblem(zeta=100.0), qspace(m).zeros(),
                         vspace(m))


def test_simulate_point_noise_determinism(sims):
    d1 = sims(zeta=100.0, p=0.01, seed=1)
    prob = pb.ModelProblem(zeta=100.0)
    d2 = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(9),
                          8, 0.01, 1)
    assert np.array_equal(d1.g_delta, d2.g_delta)
    assert d1.delta == d2.delta
    # delta is the recomputed norm of the perturbation
    assert abs(d1.delta - np.linalg.norm(d1.g_delta - d1.g)) < 1e-15
    # noise respects the componentwise bound
    assert np.abs(d1.g_delta - d1.g).max() <= 0.01 * np.abs(d1.g).max()


def test_simulate_zero_noise():
    prob = pb.ModelProblem(zeta=100.0)
    d = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(5),
                         5, 0.0, 3)
    assert d.delta == 0.0
    assert np.array_equal(d.g, d.g_delta)


def test_simulate_l2_normalization_identity():
    prob = pb.ModelProblem(zeta=100.0)
    d = pb.simulate_data(prob, pb.synthetic_case("a"), pb.L2Obs(), 5, 0.01, 3)
    assert abs(d.delta - 0.01 * d.g.norm_l2()) < 1e-12


def test_restrict_data_constant_and_identity():
    prob = pb.ModelProblem(zeta=0.0)
    d = pb.simulate_data(prob, pb.synthetic_case("a"), pb.L2Obs(), 4, 0.01, 2)
    # identity on its own space
    same = pb.restrict_data(d, d.g_delta.space)
    assert np.allclose(same.coeffs, d.g_delta.coeffs)
    # constants survive projection
    const = Field(d.g_delta.space, np.full(d.g_delta.space.dim, 2.5))
    d_const = pb.NoisyData(obs=d.obs, g=const, g_delta=const, delta=0.0,
                           p=0.0, seed=0, case="a", zeta=0.0, fine_levels=4,
                           q_true=d.q_true, u_true=d.u_true)
    proj = pb.restrict_data(d_const, qspace(uniform_mesh(2)))
    assert np.abs(proj.coeffs - 2.5).max() < 1e-12


def test_restrict_data_best_approximation_monotone():
    prob = pb.ModelProblem(zeta=100.0)
    d = pb.simulate_data(prob, pb.synthetic_case("a"), pb.L2Obs(), 5, 0.01, 3)
    gaps = []
    for lev in (2, 3, 4):
        proj = pb.restrict_data(d, qspace(uniform_mesh(lev)))
        gaps.append(d.g_delta.norm_l2() ** 2 - proj.norm_l2() ** 2)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def _quadrature_mass_rhs(fine_field, coarse_space):
    """Reference (fine_field, psi_i): 3x3 Gauss on every fine cell, which
    is exact there because both factors are bilinear on the fine cell."""
    fine, coarse = fine_field.mesh, coarse_space.mesh
    x0, y0, h = fem._cell_origin_arrays(fine)
    # Coarse leaf of each fine cell, found by point location at the centre.
    src_ids = locate(coarse, np.column_stack([x0, y0]) + 0.5 * h[:, None])[0]
    pts, wts, shapes, _ = gauss_rule(3)
    fvals = cell_values(fine_field, shapes)
    cx0, cy0, ch = fem._cell_origin_arrays(coarse)
    gx = x0[:, None] + h[:, None] * pts[None, :, 0]
    gy = y0[:, None] + h[:, None] * pts[None, :, 1]
    s = (gx - cx0[src_ids][:, None]) / ch[src_ids][:, None]
    t = (gy - cy0[src_ids][:, None]) / ch[src_ids][:, None]
    basis = fem.shape_values(np.stack([s, t], axis=-1))
    loads = np.einsum("c,cq,q,cqi->ci", h**2, fvals, wts, basis)
    full = np.zeros(coarse.n_vertices)
    np.add.at(full, coarse.cell_corners[src_ids].ravel(), loads.ravel())
    return coarse_space.T.T @ full


@pytest.mark.parametrize("seed,fine_level", [(0, 5), (1, 5), (2, 6)])
def test_restrict_data_matches_fine_quadrature(seed, fine_level):
    rng = np.random.default_rng(seed)

    def graded(mesh, steps, cap):
        for _ in range(steps):
            marked = rng.choice(mesh.n_cells, max(1, mesh.n_cells // 4),
                                replace=False)
            mesh = refine(mesh, marked, max_level=cap)
        return mesh

    coarse = graded(uniform_mesh(1), 3, fine_level - 2)
    fine = graded(coarse, 4, fine_level)
    assert len(coarse.hanging) and len(fine.hanging)
    g = Field(qspace(fine), rng.uniform(-1.0, 1.0, qspace(fine).dim))
    data = pb.NoisyData(obs=pb.L2Obs(), g=g, g_delta=g, delta=0.0, p=0.0,
                        seed=seed, case="a", zeta=0.0,
                        fine_levels=fine_level, q_true=g, u_true=g)
    Q = qspace(coarse)
    ref = spla.spsolve(Q.mass().tocsc(), _quadrature_mass_rhs(g, Q))
    got = pb.restrict_data(data, Q).coeffs
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def prolongation_restrict(data, target_space):
    """Reference restriction through the fine mesh: P' M_fine g_delta
    scattered onto the target vertices, P the nested prolongation of
    ``fem.interpolate_onto``, then a direct mass solve on the target
    space."""
    g = data.g_delta
    coarse = target_space.mesh
    corners, local = fem._prolongation(coarse, g.space)
    weights = fem.shape_values(local) * (g.space.mass() @ g.coeffs)[:, None]
    full = np.bincount(corners.ravel(), weights=weights.ravel(),
                       minlength=coarse.n_vertices)
    return spla.spsolve(target_space.mass().tocsc(),
                        target_space.T.T @ full)


@functools.cache
def _level6_data():
    """Random L^2 data on the level-6 uniform mesh, which every graded
    test mesh (depth <= 6) coarsens."""
    Q = qspace(uniform_mesh(6))
    g = Field(Q, np.random.default_rng(7).uniform(-1.0, 1.0, Q.dim))
    return pb.NoisyData(obs=pb.L2Obs(), g=g, g_delta=g, delta=0.0, p=0.0,
                        seed=0, case="a", zeta=0.0, fine_levels=6,
                        q_true=g, u_true=g)


@given(mesh=graded_meshes())
def test_restrict_data_matches_prolongation_route(mesh):
    data = _level6_data()
    Q = qspace(mesh)
    ref = prolongation_restrict(data, Q)
    got = pb.restrict_data(data, Q).coeffs
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_restrict_data_onto_finer_leaves_is_exact():
    """Leaves finer than the data's take their moments from the data's
    corner values; the data lie in a space that refines theirs, so the
    projection reproduces them."""
    data = pb.simulate_data(pb.ModelProblem(zeta=0.0), pb.synthetic_case("a"),
                            pb.L2Obs(), 3, 0.01, 1)
    Q = qspace(refine(refine(uniform_mesh(3), [0, 9]), [1, 30]))
    assert Q.mesh.max_level == 5
    got = pb.restrict_data(data, Q).coeffs
    ref = fem.interpolate_onto(data.g_delta, Q.mesh).coeffs
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _split_data(mesh):
    """Random L^2 data on ``mesh`` with every leaf split once."""
    fine = refine(mesh, range(mesh.n_cells))
    g = Field(qspace(fine), np.random.default_rng(fine.n_cells).uniform(
        -1.0, 1.0, qspace(fine).dim))
    return pb.NoisyData(obs=pb.L2Obs(), g=g, g_delta=g, delta=0.0, p=0.0,
                        seed=0, case="a", zeta=0.0,
                        fine_levels=fine.max_level, q_true=g, u_true=g)


_PCG = pb._pcg
# Graded from level 7 to 8, with hanging vertices: Q dim 25,347.
_LARGE = refine(uniform_mesh(7), range(0, 4**7, 3), max_level=8)


@settings(max_examples=12)
@given(mesh=graded_meshes())
@example(mesh=_LARGE)
def test_restriction_cg_is_accurate_and_short(mesh):
    """The mass system of ``restrict_data`` is solved by Jacobi-
    preconditioned CG: the projection agrees with a direct sparse solve
    of that system to 1e-13 relative, the CG applies its preconditioner
    (once a step) at most 60 times, and no matrix is factorized."""
    systems, steps = [], [0]

    def counting_pcg(A, precond, b, *args):
        systems.append((A, b))

        def counted(r):
            steps[0] += 1
            return precond(r)

        return _PCG(A, counted, b, *args)

    def splu(*args, **kwargs):
        raise AssertionError("restrict_data factorized a matrix")

    Q = qspace(mesh)
    with mock.patch.object(pb, "_pcg", counting_pcg), mock.patch.object(
            fem, "spla", types.SimpleNamespace(splu=splu)):
        got = pb.restrict_data(_split_data(mesh), Q).coeffs
    (M, rhs), = systems
    ref = spla.spsolve(M.tocsc(), rhs)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert 0 < steps[0] <= 60


def test_pcg_may_take_more_than_dim_steps():
    """In finite precision CG can need more steps than the dim + 1 of
    exact arithmetic.  A 10 x 10 SPD matrix with condition number 1e4 and
    the identity preconditioner takes 19 steps to 1e-14 relative, within
    the cap of 10 dim steps."""
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    A = (U * np.geomspace(1.0, 1e4, 10)) @ U.T
    b = rng.standard_normal(10)
    steps = [0]

    def identity(r):
        steps[0] += 1
        return r.copy()

    x = pb._pcg(A, identity, b, b.copy(), 1e-14 * np.linalg.norm(b))
    assert x is not None and len(b) + 1 < steps[0] <= 10 * len(b)
    ref = np.linalg.solve(A, b)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_moment_table_dies_with_its_data():
    """The table is kept under the data field, not the simulation mesh,
    and goes when the data set goes."""
    prob = pb.ModelProblem(zeta=10.0)
    case = pb.synthetic_case("a")
    truth = pb.simulate_truth(prob, case, 5)
    coarse = qspace(uniform_mesh(3))
    data = pb.simulate_data(prob, case, pb.L2Obs(), 5, 0.01, 1, truth=truth)
    mesh_entries = dict(fem._CONTEXTS[truth[0].mesh])
    pb.restrict_data(data, coarse)
    assert ("moments",) in fem._CONTEXTS[data.g_delta]
    assert fem._CONTEXTS[truth[0].mesh].keys() == mesh_entries.keys()
    owner = weakref.ref(data.g_delta)
    gc.collect()  # contexts of garbage left by earlier tests go first
    n_contexts = len(fem._CONTEXTS)
    del data
    gc.collect()
    assert owner() is None
    assert len(fem._CONTEXTS) == n_contexts - 1


def test_point_observation_adjoint_consistency():
    m = uniform_mesh(3)
    V = vspace(m)
    obs = pb.PointObs(5)
    C = obs.matrix(V)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(V.dim)
        g = rng.standard_normal(obs.n_obs)
        assert abs((C @ v) @ g - v @ (C.T @ g)) < 1e-12
    # evaluation rows match pointwise field evaluation
    f = Field(V, rng.standard_normal(V.dim))
    assert np.allclose(C @ f.coeffs, f.eval_points(obs.points), atol=1e-13)


def test_save_data_bundle(tmp_path, sims):
    d = sims(zeta=100.0, p=0.01, seed=1)
    out = tmp_path / "bundle"
    pb.save_data_bundle(d, out)
    lines = (out / "observations.csv").read_text().splitlines()
    assert lines[0] == "index,x,y,g,g_delta"
    assert len(lines) == 1 + 81
    manifest = (out / "manifest.txt").read_text()
    assert "delta =" in manifest and "seed = 1" in manifest


def test_save_l2_data_bundle(tmp_path, sims):
    """An L^2 bundle holds g_delta as VTK and CSV, written by the field
    writers, and no point table."""
    d = sims(obs="l2", zeta=100.0, p=0.01, seed=1, fine=5)
    out = tmp_path / "bundle"
    pb.save_data_bundle(d, out)
    fem.write_field_vtk(d.g_delta, tmp_path / "ref.vtk", name="g_delta")
    fem.write_field_csv(d.g_delta, tmp_path / "ref.csv")
    for ext in ("vtk", "csv"):
        assert ((out / f"g_delta.{ext}").read_bytes()
                == (tmp_path / f"ref.{ext}").read_bytes())
    assert not (out / "observations.csv").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "observation = l2" in manifest and "fine_levels = 5" in manifest


def test_point_matrix_keyed_by_points():
    V = vspace(uniform_mesh(3))
    assert pb.PointObs(9).matrix(V).shape[0] == 81
    assert pb.PointObs(3).matrix(V).shape[0] == 9
    assert pb.PointObs(9).matrix(V).shape[0] == 81


def test_point_locations_keyed_by_points():
    mesh = uniform_mesh(3)
    for i in range(200):
        obs = pb.PointObs(9 if i % 2 else 3)
        cids, locs = fem.point_locations(mesh, obs.points)
        assert len(cids) == len(locs) == obs.n_obs
