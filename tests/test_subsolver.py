import gc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dgetrf, dgetrs

from ggnfem import estimators as est, fem, problem as pb, subsolver as ss
from ggnfem.fem import Field, qspace, vspace
from ggnfem.mesh import refine, uniform_mesh

import kkt_oracle
import reference_operators
from conftest import graded_meshes, hanging_mesh as _hanging_mesh


def _point_instance(zeta=100.0, n_side=1, levels=2, shift=0.05):
    prob = pb.ModelProblem(zeta=zeta)
    mesh = uniform_mesh(levels)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(n_side)
    u0 = pb.solve_forward(prob, Q.zeros(), V)
    g = obs.observe(u0) + shift
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              obs, g)
    return prob, mesh, V, Q, obs, sub


def test_consistent_data_fixed_point():
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    q0 = Q.interpolate(lambda x, y: 0.3 + 0.2 * x * y)
    u_old = pb.solve_forward(prob, q0, V)
    g = obs.observe(u_old)
    sub = ss.build_subproblem(prob, mesh, q0, u_old, q0, obs, g)
    sol = ss.solve_kkt(sub, 10.0)
    assert np.abs(sol.q.coeffs - q0.coeffs).max() < 1e-8
    assert np.abs(sol.v.coeffs).max() < 1e-8
    assert np.abs(sol.u.coeffs - u_old.coeffs).max() < 1e-8


def test_kkt_dense_oracle_small():
    """Sparse KKT against a dense-inverse oracle on the 4x4 mesh, one
    observation point."""
    prob, mesh, V, Q, obs, sub = _point_instance()
    sol = ss.solve_kkt(sub, 25.0)
    nq, nv = Q.dim, V.dim
    MQ = sub.M_Q.toarray()
    K = sub.K.toarray()
    L = reference_operators.L(mesh).toarray()
    C = obs.matrix(V).toarray()
    b = 1.0 / sol.beta
    A = np.block([
        [b * MQ, np.zeros((nq, nv)), -L.T],
        [np.zeros((nv, nq)), C.T @ C, -K.T],
        [-L, -K, np.zeros((nv, nv))],
    ])
    rg = C @ sub.u_old_h.coeffs - np.asarray(sub.data_g)
    rhs = np.concatenate([
        b * MQ @ sub.q0.coeffs, -C.T @ rg,
        sub.a_res - L @ sub.q_old_h.coeffs,
    ])
    x = np.linalg.solve(A, rhs)
    assert np.abs(sol.q.coeffs - x[:nq]).max() < 1e-9
    assert np.abs(sol.v.coeffs - x[nq:nq + nv]).max() < 1e-9
    assert np.abs(sol.z.coeffs - 2.0 * x[nq + nv:]).max() < 1e-9


def test_constraint_feasibility_and_stationarity():
    prob, mesh, V, Q, obs, sub = _point_instance(n_side=3, levels=3)
    sol = ss.solve_kkt(sub, 25.0)
    L = reference_operators.L(mesh)
    res = L @ (sol.q.coeffs - sub.q_old_h.coeffs) + sub.K @ sol.v.coeffs \
        + sub.a_res
    from ggnfem.fem import riesz_dual_norm

    scale = max(1.0, np.abs(sol.q.coeffs).max())
    assert riesz_dual_norm(V, res)[0] <= 1e-10 * scale
    assert max(sol.stationarity) <= 1e-8


def test_minimizer_beats_feasible_competitors():
    prob, mesh, V, Q, obs, sub = _point_instance(n_side=3, levels=3)
    sol = ss.solve_kkt(sub, 1e3)
    MQ = sub.M_Q
    Klu = spla.splu(sub.K.tocsc())
    L = reference_operators.L(mesh)

    def objective(qv, vv):
        mis, _ = sub.misfit(vv)
        dq = qv - sub.q0.coeffs
        return mis + (dq @ (MQ @ dq)) / sol.beta

    base = objective(sol.q.coeffs, sol.v.coeffs)
    rng = np.random.default_rng(4)
    for _ in range(100):
        qv = sol.q.coeffs + rng.standard_normal(Q.dim) * 0.05
        vv = Klu.solve(-(L @ (qv - sub.q_old_h.coeffs)) - sub.a_res)
        assert base <= objective(qv, vv) + 1e-12


def test_large_beta_minimizes_misfit():
    """With essentially no regularization the solution's misfit cannot be
    beaten by sampled feasible competitors (L^2 observations)."""
    prob = pb.ModelProblem(zeta=10.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.L2Obs()
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 5, 0.01, 9)
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              obs, obs.restrict(data, mesh))
    sol = ss.solve_kkt(sub, 1e12)
    i2 = sol.misfit_sq()
    Klu = spla.splu(sub.K.tocsc())
    L = reference_operators.L(mesh)
    rng = np.random.default_rng(5)
    for _ in range(40):
        qv = sol.q.coeffs + rng.standard_normal(Q.dim)
        vv = Klu.solve(-(L @ (qv - sub.q_old_h.coeffs)) - sub.a_res)
        assert i2 <= sub.misfit(vv)[0] + 1e-10


def test_misfit_nonincreasing_in_beta():
    prob, mesh, V, Q, obs, sub = _point_instance(n_side=3, levels=3)
    vals = [ss.solve_kkt(sub, float(b)).misfit_sq()
            for b in np.logspace(-2, 8, 11)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_adjoint_w_norm():
    """The W-norm of an adjoint, |grad z| (``norm_h1semi``), converges."""
    target = np.pi / np.sqrt(2.0)
    gaps = []
    for lev in (4, 5, 6):
        V = vspace(uniform_mesh(lev))
        z = V.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        gaps.append(abs(z.norm_h1semi() - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3
    V = vspace(uniform_mesh(4))
    z = V.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert V.zeros().norm_h1semi() == 0.0
    assert abs(Field(V, 2 * z.coeffs).norm_h1semi()
               - 2 * z.norm_h1semi()) < 1e-12


def test_second_order_zero_and_linearity():
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    # exact-data fixed point: I2' = 0 at the solution
    q0 = Q.interpolate(lambda x, y: 0.1 + 0.0 * x)
    u_old = pb.solve_forward(prob, q0, V)
    g = obs.observe(u_old)
    sub = ss.build_subproblem(prob, mesh, q0, u_old, q0, obs, g)
    sol = ss.solve_kkt(sub, 10.0)
    aux = ss.solve_second_order(sol)
    for f in aux:
        assert np.abs(f.coeffs).max() < 1e-8
    # linearity: doubling I2' doubles the auxiliary triple
    prob2, mesh2, V2, Q2, obs2, sub2 = _point_instance(n_side=3, levels=3)
    sol2 = ss.solve_kkt(sub2, 25.0)
    aux2 = ss.solve_second_order(sol2)
    # I2'(u)(.) is affine in v through CtC v + c_res; emulate doubling by
    # scaling the data residual instead
    g2 = np.asarray(sub2.data_g)
    gd = obs2.matrix(V2) @ sub2.u_old_h.coeffs
    scaled = gd + 2.0 * (g2 - gd)
    sub3 = ss.build_subproblem(prob2, mesh2, Q2.zeros(), V2.zeros(),
                               Q2.zeros(), obs2, scaled)
    sol3 = ss.solve_kkt(sub3, sol2.beta)
    aux3 = ss.solve_second_order(sol3)
    for f3, f2 in zip(aux3[:2], aux2[:2]):
        assert np.abs(f3.coeffs - 2 * f2.coeffs).max() < 1e-9


def test_second_order_dense_oracle():
    prob, mesh, V, Q, obs, sub = _point_instance()
    sol = ss.solve_kkt(sub, 25.0)
    aq, av, az = ss.solve_second_order(sol)
    nq, nv = Q.dim, V.dim
    MQ = sub.M_Q.toarray()
    K = sub.K.toarray()
    L = reference_operators.L(mesh).toarray()
    C = obs.matrix(V).toarray()
    b = 1.0 / sol.beta
    A = np.block([
        [b * MQ, np.zeros((nq, nv)), -L.T],
        [np.zeros((nv, nq)), C.T @ C, -K.T],
        [-L, -K, np.zeros((nv, nv))],
    ])
    rg = C @ sub.u_old_h.coeffs - np.asarray(sub.data_g)
    rhs = np.concatenate([
        np.zeros(nq), -(C.T @ (C @ sol.v.coeffs) + C.T @ rg), np.zeros(nv)])
    x = np.linalg.solve(A, rhs)
    assert np.abs(aq.coeffs - x[:nq]).max() < 1e-9
    assert np.abs(av.coeffs - x[nq:nq + nv]).max() < 1e-9
    assert np.abs(az.coeffs - 2 * x[nq + nv:]).max() < 1e-9


def test_adjoint_at_base_solves_optimality_row():
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 5, 0.01, 2)
    u_old = V.interpolate(lambda x, y: x * (1 - x) * y * (1 - y))
    z = ss.adjoint_at_base(ss.build_subproblem(
        prob, mesh, Q.zeros(), u_old, Q.zeros(), obs, data.g_delta))
    K = pb.linearized_state_operator(prob, V, u_old)
    C = obs.matrix(V)
    rg = C @ u_old.coeffs - data.g_delta
    resid = K.T @ z.coeffs - 2.0 * (C.T @ rg)
    assert np.abs(resid).max() < 1e-10 * max(1.0, np.abs(z.coeffs).max())


@pytest.mark.parametrize("zeta", [0.0, 100.0, 1e4])
def test_adjoint_at_base_matches_lu_solve(zeta):
    """The CG adjoint against an LU solve of K' z = 2 C'(C u_old - g) on
    a graded mesh: rho = |grad z| equal to 1e-12 relative."""
    prob = pb.ModelProblem(zeta=zeta)
    mesh = refine(refine(uniform_mesh(3), [0, 5, 20]), [1, 2, 40])
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(5)
    u_old = pb.solve_forward(prob, Q.interpolate(pb.synthetic_case("a").source), V)
    g = obs.observe(u_old) * 1.1
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), u_old, Q.zeros(), obs,
                              g)
    z = ss.adjoint_at_base(sub)
    ref = Field(V, spla.splu(sub.K.T.tocsc()).solve(2.0 * sub.c_res))
    assert np.abs(z.coeffs - ref.coeffs).max() <= 1e-12 * np.abs(ref.coeffs).max()
    rho, rho_ref = z.norm_h1semi(), ref.norm_h1semi()
    assert abs(rho - rho_ref) <= 1e-12 * rho_ref


def test_l2_requires_restricted_data():
    """A data vector is taken only at the length of C's rows, for point
    and L^2 data: the unrestricted fine-mesh vector and one restricted
    to another mesh are refused, the mesh's own restriction is taken."""
    prob = pb.ModelProblem(zeta=1.0)
    mesh = uniform_mesh(2)
    Q, V = qspace(mesh), vspace(mesh)
    for obs in (pb.PointObs(3), pb.L2Obs()):
        data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 4, 0.01, 1)
        g = obs.restrict(data, mesh)
        if isinstance(obs, pb.PointObs):
            wrong = (g[:-1], np.append(g, 0.0))
        else:
            wrong = (data.g_delta.coeffs, obs.restrict(data, uniform_mesh(3)))
        for bad in wrong:
            with pytest.raises(ValueError, match="data values"):
                ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(),
                                    Q.zeros(), obs, bad)
        sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                                  obs, g)
        assert sub.data_g is g and len(g) == sub.C.shape[0]


def test_bad_factorization_raises_kkt_error():
    class OnesLU:
        def solve(self, b_v, b_z):
            return np.ones(len(b_v)), np.ones(len(b_z))

    class NanLU:  # NaN residuals compare false against any tolerance
        def solve(self, b_v, b_z):
            return np.full(len(b_v), np.nan), np.full(len(b_z), np.nan)

    for point in (True, False):
        for bad in (OnesLU(), NanLU()):
            sub = _random_subproblem(uniform_mesh(2), 0, point, 100.0)
            sub.factorization = lambda beta, bad=bad: bad
            with pytest.raises(ss.KktError,
                               match=rf"stationarity .*, n_V={sub.V.dim}\)$"):
                ss.solve_kkt(sub, 1.0)


def test_dense_lu_rejects_zero_pivot():
    """LAPACK only reports an exactly zero pivot; the dense LU raises.
    The one point of PointObs(1), (1/2, 1/2), is the centre vertex of
    uniform_mesh(2), so the first column of C*C is zero; with a zero dense
    K the first column of the reduced matrix is zero."""
    *_, sub = _point_instance(n_side=1, levels=2)
    sub.dense_K = np.zeros((sub.V.dim, sub.V.dim))
    with pytest.raises(ss.KktError,
                       match=r"exactly singular \(pivot 1 of 18 is zero\)"):
        sub.factorization(1.0)


def test_woodbury_rejects_indefinite_update():
    """The Cholesky factorization of I + beta S on the Woodbury route
    raises KktError when LAPACK reports a non-positive pivot (S = -2 I)."""
    sub = _random_subproblem(refine(uniform_mesh(4), {0, 5}), 0, True, 100.0)
    assert isinstance(sub.factorization(1.0), ss._Woodbury)
    lu, X, _ = sub.woodbury_base
    sub.woodbury_base = (lu, X, -2.0 * np.eye(sub.C.shape[0]))
    with pytest.raises(ss.KktError, match=r"not positive definite \(pivot 1\)"):
        sub.factorization(1.0)


@pytest.mark.parametrize("point, levels, route", [
    (True, 4, ss._Woodbury), (True, 2, ss._DenseLU),
    (False, 2, ss._ComplexLU)], ids=["woodbury", "dense", "complex"])
def test_solved_subproblem_dies_by_reference_counting(point, levels, route):
    """A solution holds its subproblem and its route (the Woodbury route
    holds the subproblem too); the subproblem holds neither, so a solved
    subproblem and its solution go by reference counting alone (a cycle
    would keep the mesh's cached operators until a collection).  The
    estimators' tables and weights in the fields' contexts add none."""
    sub = _random_subproblem(refine(uniform_mesh(levels), {0, 5}), 0, point,
                             100.0)
    sol = ss.solve_kkt(sub, 1.0)
    aux = ss.solve_second_order(sol)
    est.estimate_eta2(sol, aux)
    est.estimate_eta1(sol)
    assert isinstance(sol.factorization, route)
    dead = [weakref.ref(sub), weakref.ref(sol), weakref.ref(sol.u),
            weakref.ref(sub.u_old_h)]
    gc.disable()
    try:
        del sub, sol, aux
        assert all(ref() is None for ref in dead)
    finally:
        gc.enable()


def _random_subproblem(mesh, seed, point, zeta):
    rng = np.random.default_rng(seed)
    V, Q = vspace(mesh), qspace(mesh)
    if point:
        obs = pb.PointObs(3)
        data = rng.uniform(-1.0, 1.0, obs.n_obs)
    else:
        obs = pb.L2Obs()
        data = rng.uniform(-1.0, 1.0, Q.dim)
    return ss.build_subproblem(
        pb.ModelProblem(zeta=zeta), mesh, Field(Q, rng.uniform(-1, 1, Q.dim)),
        Field(V, rng.uniform(-0.5, 0.5, V.dim)),
        Field(Q, rng.uniform(-1, 1, Q.dim)), obs, data)


def _reduced_matrix(sub, beta):
    """The real reduced matrix [[C*C, -K'], [-K, -beta M_V]]."""
    return sp.bmat([[kkt_oracle.normal_matrix(sub), -sub.K.T],
                    [-sub.K, -beta * sub.V.mass()]], format="csc")


def _assert_blocks_close(got, ref, rtol):
    for g, r in zip(got, ref):
        assert np.abs(g - r).max() <= rtol * np.abs(r).max()


@settings(max_examples=8, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16),
       point=st.booleans(), zeta=st.sampled_from([0.0, 1000.0]))
def test_reduced_solves_match_refined_kkt(mesh, seed, point, zeta):
    """solve_kkt and solve_second_order, which factorize the reduced
    state/adjoint system, against the full KKT system solved with
    extended-precision refinement: 1e-8 relative in each of q, v and z."""
    sub = _random_subproblem(mesh, seed, point, zeta)
    for beta in (1e-10, 1e-2, 1e2, 1e6, 1e10):
        sol = ss.solve_kkt(sub, beta)
        _assert_blocks_close(
            (sol.q.coeffs, sol.v.coeffs, sol.z.coeffs),
            kkt_oracle.refined_solve(sub, beta, kkt_oracle.kkt_rhs(sub, beta)),
            1e-8)
        aux = ss.solve_second_order(sol)
        _assert_blocks_close(
            tuple(f.coeffs for f in aux),
            kkt_oracle.refined_solve(
                sub, beta, kkt_oracle.second_order_rhs(sub, sol.v.coeffs)),
            1e-8)


# Graded meshes with n_V on each side of DENSE_MAX_NV: 25, 53, 351, 585.
_POINT_ROUTE_MESHES = {
    "dense-25": lambda: refine(refine(uniform_mesh(2), {0, 5, 9, 10}),
                               {0, 1, 2, 3}),
    "dense-53": lambda: refine(uniform_mesh(3), {0, 3, 9}),
    "woodbury-351": lambda: refine(refine(uniform_mesh(4), set(range(0, 256, 7))),
                                   set(range(0, 300, 11))),
    "woodbury-585": _hanging_mesh,
}


@pytest.mark.parametrize("zeta", [0.0, 1000.0])
@pytest.mark.parametrize("name", list(_POINT_ROUTE_MESHES))
def test_point_routes_match_refined_kkt(name, zeta):
    """Both point-data routes, the dense LU up to DENSE_MAX_NV state dofs
    and the Woodbury route on K above, against the full KKT system solved
    with extended-precision refinement, for beta = 1e0 ... 1e10 on one
    subproblem (the Woodbury route keeps K's factor across beta): 1e-8
    relative in each of q, v and z, for solve_kkt and solve_second_order,
    and every solution passes the 1e-8 stationarity gate."""
    mesh = _POINT_ROUTE_MESHES[name]()
    assert len(mesh.hanging)
    sub = _random_subproblem(mesh, 11, True, zeta)
    route = ss._DenseLU if name.startswith("dense") else ss._Woodbury
    for beta in 10.0 ** np.arange(11):
        sol = ss.solve_kkt(sub, beta)
        assert isinstance(sol.factorization, route)
        assert max(sol.stationarity) <= 1e-8
        _assert_blocks_close(
            (sol.q.coeffs, sol.v.coeffs, sol.z.coeffs),
            kkt_oracle.refined_solve(sub, beta, kkt_oracle.kkt_rhs(sub, beta)),
            1e-8)
        aux = ss.solve_second_order(sol)
        _assert_blocks_close(
            tuple(f.coeffs for f in aux),
            kkt_oracle.refined_solve(
                sub, beta, kkt_oracle.second_order_rhs(sub, sol.v.coeffs)),
            1e-8)


# Graded meshes on the dense route, by n_V, up to DENSE_MAX_NV = 128.
_DENSE_MESHES = {
    9: lambda: refine(refine(uniform_mesh(1), {0}), {1, 3}),
    25: _POINT_ROUTE_MESHES["dense-25"],
    53: _POINT_ROUTE_MESHES["dense-53"],
    103: lambda: refine(uniform_mesh(3), set(range(6, 64, 2))),
    128: lambda: refine(refine(uniform_mesh(3), set(range(34, 64))), {0}),
}


def _block_lu_solution(sub, beta):
    """(q, v, z) by dgetrf/dgetrs of the np.block reduced matrix built
    from the subproblem's sparse operators, with the right-hand side of
    sparse M_Q products."""
    K, C = sub.K.toarray(), sub.C.toarray()
    lu, piv, info = dgetrf(np.block(
        [[C.T @ sub.obs.gram(sub.Q, C), -K.T],
         [-K, -beta * sub.V.mass().toarray()]]))
    assert info == 0
    q0, keep = sub.q0.coeffs, fem._q_dofs(sub.mesh, "V")[0]
    L_old, L_0 = -(sub.M_Q @ np.column_stack(
        [sub.q_old_h.coeffs, q0]))[keep].T
    v, zt = np.split(dgetrs(lu, piv, np.concatenate(
        [-sub.c_res, sub.a_res - L_old + L_0]))[0], 2)
    q = q0.copy()
    q[keep] -= beta * zt
    return q, v, 2.0 * zt


def _sparse_stationarity(sol):
    """The stationarity norms of a solution by re-substitution with the
    subproblem's sparse operators."""
    sub, beta = sol.sub, sol.beta
    q, v, z = sol.q.coeffs, sol.v.coeffs, sol.z.coeffs
    q0, q_old = sub.q0.coeffs, sub.q_old_h.coeffs
    keep = fem._q_dofs(sub.mesh, "V")[0]
    inc_z = np.zeros(sub.Q.dim)
    inc_z[keep] = z
    M_dq, M_0, M_z, M_step, M_old = (sub.M_Q @ np.column_stack(
        [q - q0, q0, inc_z, q - q_old, q_old])).T
    rows = ((2.0 / beta) * M_dq + M_z,
            2.0 * (sub.normal(v) + sub.c_res) - sub.K.T @ z,
            -M_step[keep] + sub.K @ v + sub.a_res)
    scale = max(1.0, *(np.abs(x).max() for x in (
        (1.0 / beta) * M_0, sub.c_res, sub.a_res + M_old[keep], z, q, v)))
    return np.array([np.abs(r).max() / scale for r in rows])


@pytest.mark.parametrize("zeta", [0.0, 1000.0])
@pytest.mark.parametrize("n_v", list(_DENSE_MESHES))
def test_dense_route_is_the_block_lu_bit_for_bit(n_v, zeta):
    """For beta = 1e0 ... 1e10, the dense route's solution is bitwise
    that of dgetrf/dgetrs of the np.block matrix of the sparse operators,
    and its stationarity, from dense products with its blocks, agrees
    with the sparse re-substitution to 1e-15 of the scale."""
    mesh = _DENSE_MESHES[n_v]()
    assert len(mesh.hanging) and vspace(mesh).dim == n_v
    sub = _random_subproblem(mesh, n_v, True, zeta)
    for beta in 10.0 ** np.arange(11):
        sol = ss.solve_kkt(sub, beta)
        assert isinstance(sol.factorization, ss._DenseLU)
        for got, want in zip((sol.q, sol.v, sol.z),
                             _block_lu_solution(sub, beta)):
            assert np.array_equal(got.coeffs, want)
        assert np.array_equal(sol.u.coeffs,
                              sub.u_old_h.coeffs + sol.v.coeffs)
        assert np.abs(np.array(sol.stationarity)
                      - _sparse_stationarity(sol)).max() <= 1e-15


@pytest.mark.parametrize("n_v", list(_DENSE_MESHES))
def test_dense_rows_do_not_read_the_factorized_matrix(n_v):
    """The re-substitution reads the dense route's blocks, not the matrix
    it factorized: a sign flip of the K block in the matrix handed to
    dgetrf, and only there, fails the stationarity check at every beta."""
    sub = _random_subproblem(_DENSE_MESHES[n_v](), n_v, True, 1000.0)

    def flipped_getrf(A, **kwargs):
        n = len(A) // 2
        A[n:, :n] *= -1.0
        return dgetrf(A, **kwargs)

    with mock.patch.object(ss, "dgetrf", flipped_getrf):
        for beta in 10.0 ** np.arange(11):
            with pytest.raises(ss.KktError, match="stationarity residuals"):
                ss.solve_kkt(sub, beta)
    for beta in (1.0, 1e10):  # the cached blocks are unharmed
        assert max(ss.solve_kkt(sub, beta).stationarity) <= 1e-8


@settings(max_examples=8, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
def test_control_elimination_premise_is_exact(mesh, seed):
    """The reduction rests on L = -inc' M_Q and inc' M_Q inc = M_V, which
    is also C*C for L^2 data.  The reference L, built apart from the
    package's assembly, is -inc' M_Q to rounding, with its pattern; that
    product is -(M_Q x) at V's dofs to the last bit, and the second
    identity holds entry for entry."""
    inc = fem.v_to_q(mesh)
    L = reference_operators.L(mesh)
    keep = fem._q_dofs(mesh, "V")[0]
    x = np.random.default_rng(seed).standard_normal(inc.shape[0])
    for point in (True, False):
        sub = _random_subproblem(mesh, seed, point, 100.0)
        ref = -(inc.T @ sub.M_Q)
        assert ((L != 0) != (ref != 0)).nnz == 0
        assert abs(L - ref).max() <= 1e-14 * abs(ref).max()
        assert np.array_equal(ref @ x, -(sub.M_Q @ x)[keep])
        assert (inc.T @ sub.M_Q @ inc != sub.V.mass()).nnz == 0


def test_jacobian_sum_leaves_cached_arrays_alone():
    """The Jacobian K + 3 zeta W is summed in the data of the fresh W:
    after a forward solve and a subproblem build the cached stiffness
    matrix is the same object with the same data."""
    mesh = _hanging_mesh()
    prob, V, Q = pb.ModelProblem(zeta=1000.0), vspace(mesh), qspace(mesh)
    K = V.stiffness()
    data = K.data.copy()
    q = Q.interpolate(pb.synthetic_case("a").source)
    u = pb.solve_forward(prob, q, V)
    sub = ss.build_subproblem(prob, mesh, q, u, Q.zeros(), pb.PointObs(3),
                              np.zeros(9))
    assert V.stiffness() is K and sub.K is not K
    assert np.array_equal(K.data, data)


@pytest.mark.parametrize("point", [True, False])
def test_cached_transposes_match_and_die_with_their_mesh(point):
    """No mesh context holds L, L' or C'.  C' m by the transposed product
    equals C.T @ m bit for bit.  On the dense route of point data a second
    subproblem on the same mesh and observation shares the mesh's dense
    M_V, M_Q and C'GC and has its own dense K.  The cached operators go
    when the mesh goes."""
    mesh = refine(uniform_mesh(2), {0, 5, 9})
    sub = _random_subproblem(mesh, 7, point, 100.0)
    lu = ss.solve_kkt(sub, 1.0).factorization
    entries = fem._CONTEXTS[mesh]
    assert not {("L",), ("Lt",), ("slots", "V", "Q")} & entries.keys()
    assert not any(key[-1] == "Ct" for key in entries)
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.standard_normal(sub.C.shape[0])
        assert np.array_equal(fem._transpose_product(sub.C, w), sub.C.T @ w)
    cached = [sub.C]
    if point:
        assert isinstance(lu, ss._DenseLU)
        blocks = entries[("dense", sub.obs)]
        other = ss.build_subproblem(
            sub.problem, mesh, sub.q_old, Field(sub.V, 0.5 * sub.u_old.coeffs),
            sub.q0, sub.obs, sub.data_g)
        other_lu = ss.solve_kkt(other, 1.0).factorization
        assert entries[("dense", sub.obs)] is blocks
        assert sum(key[0] == "dense" for key in entries) == 1
        M_V, M_Q, normal = blocks
        assert other_lu.M_Q is lu.M_Q is M_Q
        assert other_lu.normal is lu.normal is normal
        assert other_lu.K is other.dense_K is not sub.dense_K
        assert not np.array_equal(other.dense_K, sub.dense_K)
        cached += [M_V, M_Q, normal, sub.dense_K, other.dense_K]
        del blocks, other, other_lu, M_V, M_Q, normal
    dead = [weakref.ref(x) for x in [mesh] + cached]
    del mesh, sub, entries, cached, lu
    gc.collect()
    assert all(ref() is None for ref in dead)


_SYMMETRIC = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}


def test_factorization_routes(monkeypatch):
    """SPD stiffness matrices and the complex symmetric form
    M_V + (i/sqrt(beta)) K of the reduced matrix of L^2 data take diagonal
    pivots in a symmetric ordering.  Point data up to DENSE_MAX_NV state
    dofs take a dense LU and no splu call; above, the Woodbury route
    factorizes K alone, with diagonal pivots, and another beta on the
    same subproblem reuses that factor.  The L^2 data restriction makes
    no splu call."""
    calls = []

    def splu(A, **kwargs):
        calls.append(kwargs)
        return spla.splu(A, **kwargs)

    monkeypatch.setattr(fem, "spla", types.SimpleNamespace(splu=splu))
    mesh = refine(uniform_mesh(2), {0, 5}, max_level=4)
    big = refine(uniform_mesh(4), {0, 5})
    assert vspace(mesh).dim <= ss.DENSE_MAX_NV < vspace(big).dim
    l2, point = (_random_subproblem(mesh, 0, p, 100.0) for p in (False, True))
    large = _random_subproblem(big, 0, True, 100.0)
    for factorize, route, kwargs in (
            (vspace(mesh).stiffness_solver, spla.SuperLU, [_SYMMETRIC]),
            (lambda: l2.factorization(1.0), ss._ComplexLU, [_SYMMETRIC]),
            (lambda: point.factorization(1.0), ss._DenseLU, []),
            (lambda: large.factorization(1.0), ss._Woodbury, [_SYMMETRIC]),
            (lambda: large.factorization(1e4), ss._Woodbury, [])):
        calls.clear()
        assert isinstance(factorize(), route)
        assert calls == kwargs
    fine = refine(mesh, range(mesh.n_cells))
    g = Field(qspace(fine), np.random.default_rng(0).uniform(
        -1.0, 1.0, qspace(fine).dim))
    data = pb.NoisyData(obs=pb.L2Obs(), g=g, g_delta=g, delta=0.0, p=0.0,
                        seed=0, case="a", zeta=0.0, fine_levels=5,
                        q_true=g, u_true=g)
    calls.clear()
    pb.restrict_data(data, qspace(mesh))
    assert calls == []


def test_stiffness_solver_routes(monkeypatch):
    """The stiffness solver of every mesh, uniform or graded, takes
    diagonal pivots in a symmetric ordering; the sine solver of a uniform
    mesh makes no splu call."""
    calls = []

    def splu(A, **kwargs):
        calls.append(kwargs)
        return spla.splu(A, **kwargs)

    monkeypatch.setattr(fem, "spla", types.SimpleNamespace(splu=splu))
    for mesh in (uniform_mesh(1), uniform_mesh(4), uniform_mesh(6),
                 refine(uniform_mesh(5), {0}),
                 refine(uniform_mesh(2), {0, 5}, max_level=4)):
        calls.clear()
        V = vspace(mesh)
        V.stiffness_solver().solve(np.ones(V.dim))
        assert calls == [_SYMMETRIC], mesh
    calls.clear()
    fem._SineSolver(6).solve(np.ones(63**2))
    assert calls == []


@pytest.mark.parametrize("level", range(1, 10))
def test_uniform_stiffness_solves_are_accurate(level):
    """The stiffness solver of a uniform mesh and the sine solver of its
    level solve to |b - K x| <= 1e-13 |b| and agree with a symmetric_lu
    solve to 1e-12 relative.  The agreement is measured at
    b = K x*, x* random: for b with little high-frequency content the
    forward error of either solve grows like cond(K) eps, which is about
    1e-12 at level 9."""
    rng = np.random.default_rng(level)
    mesh = uniform_mesh(level)
    V = vspace(mesh)
    K = V.stiffness()
    lu = fem.symmetric_lu(K, "stiffness")
    b, b_x = rng.standard_normal(V.dim), K @ rng.standard_normal(V.dim)
    for solver in (V.stiffness_solver(), fem._SineSolver(level)):
        r = b - K @ solver.solve(b)
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(b)
        x = solver.solve(b_x)
        assert np.abs(x - lu.solve(b_x)).max() <= 1e-12 * np.abs(x).max()


@settings(max_examples=6, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
@example(mesh=_hanging_mesh(), seed=1)
def test_symmetric_factorizations_are_accurate(mesh, seed):
    """Stiffness and mass solves by ``symmetric_lu`` to |b - A x| <=
    1e-13 |b|.  The reduced L^2 solve (its complex form: diagonal pivots,
    one refinement step) to a normwise backward error |b - A x| / (|A| |x|
    + |b|) of 1e-12 in the max norm, A the real reduced matrix, and within
    1e-8 per block of the refined full KKT solve.  (|b - A x| / |b| cannot reach 1e-12 there: at
    beta = 1e10 |x| >> |b|, and a pivoted LU also stops at 2e-12.)"""
    rng = np.random.default_rng(seed)
    V, Q = vspace(mesh), qspace(mesh)
    for A, solver in ((V.stiffness(), V.stiffness_solver()),
                      (Q.mass(), fem.symmetric_lu(Q.mass(), "mass"))):
        b = rng.standard_normal(A.shape[0])
        r = b - A @ solver.solve(b)
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(b)
    sub = _random_subproblem(mesh, seed, False, 1000.0)
    nv = V.dim
    for beta in 10.0 ** np.arange(0, 11, 2):
        sol = ss.solve_kkt(sub, beta)
        _assert_blocks_close(
            (sol.q.coeffs, sol.v.coeffs, sol.z.coeffs),
            kkt_oracle.refined_solve(sub, beta, kkt_oracle.kkt_rhs(sub, beta)),
            1e-8)
        b = rng.standard_normal(2 * nv)
        _, v, z = ss._solve_reduced(sub, sol.factorization, beta, b[:nv],
                                    b[nv:], Q.zeros().coeffs)
        x, A = np.concatenate([v, z / 2]), _reduced_matrix(sub, beta)
        assert np.abs(b - A @ x).max() <= 1e-12 * (
            spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max())


@pytest.mark.parametrize("levels", [2, 3, 5])
def test_l2_factorization_is_complex_of_half_size(levels):
    """On hanging-node meshes the L^2 subproblem factorizes the complex
    matrix M_V + (i/sqrt(beta)) K, with n_V rows, and its LU fill is below
    a third of the fill of the real 2 n_V reduced matrix's factors."""
    mesh = refine(uniform_mesh(levels), {0, 3})
    assert len(mesh.hanging)
    sub = _random_subproblem(mesh, 1, False, 100.0)
    route = sub.factorization(1.0)
    lu, A = route.lu, route.A
    assert np.iscomplexobj(A) and A.shape == (sub.V.dim,) * 2
    real = fem.symmetric_lu(_reduced_matrix(sub, 1.0), "KKT")
    assert (lu.L.nnz + lu.U.nnz) < (real.L.nnz + real.U.nnz) / 3
