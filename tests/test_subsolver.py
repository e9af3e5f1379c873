import dataclasses
import gc
import types
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from ggnfem import fem, problem as pb, subsolver as ss
from ggnfem.fem import Field, qspace, vspace
from ggnfem.mesh import refine, uniform_mesh

import kkt_oracle
import reference_operators
from conftest import graded_meshes, hanging_mesh as _hanging_mesh


def _point_instance(zeta=100.0, beta=25.0, n_side=1, levels=2, shift=0.05):
    prob = pb.ModelProblem(zeta=zeta)
    mesh = uniform_mesh(levels)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(n_side)
    u0 = pb.solve_forward(prob, Q.zeros(), V)
    g = obs.observe(u0) + shift
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              obs, g, beta)
    return prob, mesh, V, Q, obs, sub


def test_consistent_data_fixed_point():
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    q0 = Q.interpolate(lambda x, y: 0.3 + 0.2 * x * y)
    u_old = pb.solve_forward(prob, q0, V)
    g = obs.observe(u_old)
    sub = ss.build_subproblem(prob, mesh, q0, u_old, q0, obs, g, beta=10.0)
    sol = ss.solve_kkt(sub)
    assert np.abs(sol.q.coeffs - q0.coeffs).max() < 1e-8
    assert np.abs(sol.v.coeffs).max() < 1e-8
    assert np.abs(sol.u.coeffs - u_old.coeffs).max() < 1e-8


def test_kkt_dense_oracle_small():
    """Sparse KKT against a dense-inverse oracle on the 4x4 mesh, one
    observation point."""
    prob, mesh, V, Q, obs, sub = _point_instance()
    sol = ss.solve_kkt(sub)
    nq, nv = Q.dim, V.dim
    MQ = sub.M_Q.toarray()
    K = sub.K.toarray()
    L = reference_operators.L(mesh).toarray()
    C = obs.matrix(V).toarray()
    b = 1.0 / sub.beta
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
    sol = ss.solve_kkt(sub)
    L = reference_operators.L(mesh)
    res = L @ (sol.q.coeffs - sub.q_old_h.coeffs) + sub.K @ sol.v.coeffs \
        + sub.a_res
    from ggnfem.fem import riesz_dual_norm

    scale = max(1.0, np.abs(sol.q.coeffs).max())
    assert riesz_dual_norm(V, res)[0] <= 1e-10 * scale
    assert max(sol.stationarity) <= 1e-8


def test_minimizer_beats_feasible_competitors():
    prob, mesh, V, Q, obs, sub = _point_instance(n_side=3, levels=3, beta=1e3)
    sol = ss.solve_kkt(sub)
    MQ = sub.M_Q
    Klu = spla.splu(sub.K.tocsc())
    L = reference_operators.L(mesh)

    def objective(qv, vv):
        mis, _ = sub.misfit(vv)
        dq = qv - sub.q0.coeffs
        return mis + (dq @ (MQ @ dq)) / sub.beta

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
    g_h = pb.restrict_data(data, Q)
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              obs, g_h, beta=1e12)
    sol = ss.solve_kkt(sub)
    i2 = sol.misfit_sq()
    Klu = spla.splu(sub.K.tocsc())
    L = reference_operators.L(mesh)
    rng = np.random.default_rng(5)
    for _ in range(40):
        qv = sol.q.coeffs + rng.standard_normal(Q.dim)
        vv = Klu.solve(-(L @ (qv - sub.q_old_h.coeffs)) - sub.a_res)
        assert i2 <= sub.misfit(vv)[0] + 1e-10


def test_misfit_nonincreasing_in_beta():
    prob, mesh, V, Q, obs, sub0 = _point_instance(n_side=3, levels=3)
    prob_ref = prob
    betas = np.logspace(-2, 8, 11)
    vals = []
    for b in betas:
        sub = ss.build_subproblem(prob_ref, mesh, Q.zeros(), V.zeros(),
                                  Q.zeros(), obs, sub0.data_g, float(b))
        vals.append(ss.solve_kkt(sub).misfit_sq())
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_adjoint_w_norm():
    target = np.pi / np.sqrt(2.0)
    gaps = []
    for lev in (4, 5, 6):
        V = vspace(uniform_mesh(lev))
        z = V.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        gaps.append(abs(ss.adjoint_w_norm(z) - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3
    V = vspace(uniform_mesh(4))
    z = V.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert ss.adjoint_w_norm(V.zeros()) == 0.0
    assert abs(ss.adjoint_w_norm(Field(V, 2 * z.coeffs))
               - 2 * ss.adjoint_w_norm(z)) < 1e-12


def test_second_order_zero_and_linearity():
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    # exact-data fixed point: I2' = 0 at the solution
    q0 = Q.interpolate(lambda x, y: 0.1 + 0.0 * x)
    u_old = pb.solve_forward(prob, q0, V)
    g = obs.observe(u_old)
    sub = ss.build_subproblem(prob, mesh, q0, u_old, q0, obs, g, beta=10.0)
    sol = ss.solve_kkt(sub)
    aux = ss.solve_second_order(sub, sol)
    for f in (aux.q, aux.v, aux.z):
        assert np.abs(f.coeffs).max() < 1e-8
    # linearity: doubling I2' doubles the auxiliary triple
    prob2, mesh2, V2, Q2, obs2, sub2 = _point_instance(n_side=3, levels=3)
    sol2 = ss.solve_kkt(sub2)
    aux2 = ss.solve_second_order(sub2, sol2)
    doubled = ss.KktSolution(sub=sub2, q=sol2.q,
                             v=Field(V2, 2 * sol2.v.coeffs), u=sol2.u,
                             z=sol2.z, stationarity=(0, 0, 0))
    # I2'(u)(.) is affine in v through CtC v + c_res; emulate doubling by
    # scaling the data residual instead
    g2 = np.asarray(sub2.data_g)
    gd = obs2.matrix(V2) @ sub2.u_old_h.coeffs
    scaled = gd + 2.0 * (g2 - gd)
    sub3 = ss.build_subproblem(prob2, mesh2, Q2.zeros(), V2.zeros(),
                               Q2.zeros(), obs2, scaled, sub2.beta)
    sol3 = ss.solve_kkt(sub3)
    aux3 = ss.solve_second_order(sub3, sol3)
    assert np.abs(aux3.q.coeffs - 2 * aux2.q.coeffs).max() < 1e-9
    assert np.abs(aux3.v.coeffs - 2 * aux2.v.coeffs).max() < 1e-9


def test_second_order_dense_oracle():
    prob, mesh, V, Q, obs, sub = _point_instance()
    sol = ss.solve_kkt(sub)
    aux = ss.solve_second_order(sub, sol)
    nq, nv = Q.dim, V.dim
    MQ = sub.M_Q.toarray()
    K = sub.K.toarray()
    L = reference_operators.L(mesh).toarray()
    C = obs.matrix(V).toarray()
    b = 1.0 / sub.beta
    A = np.block([
        [b * MQ, np.zeros((nq, nv)), -L.T],
        [np.zeros((nv, nq)), C.T @ C, -K.T],
        [-L, -K, np.zeros((nv, nv))],
    ])
    rg = C @ sub.u_old_h.coeffs - np.asarray(sub.data_g)
    rhs = np.concatenate([
        np.zeros(nq), -(C.T @ (C @ sol.v.coeffs) + C.T @ rg), np.zeros(nv)])
    x = np.linalg.solve(A, rhs)
    assert np.abs(aux.q.coeffs - x[:nq]).max() < 1e-9
    assert np.abs(aux.v.coeffs - x[nq:nq + nv]).max() < 1e-9
    assert np.abs(aux.z.coeffs - 2 * x[nq + nv:]).max() < 1e-9


def test_adjoint_at_base_solves_optimality_row():
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 5, 0.01, 2)
    u_old = V.interpolate(lambda x, y: x * (1 - x) * y * (1 - y))
    z = ss.adjoint_at_base(ss.build_subproblem(
        prob, mesh, Q.zeros(), u_old, Q.zeros(), obs, data.g_delta, 1.0))
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
                              g, 1.0)
    z = ss.adjoint_at_base(sub)
    ref = Field(V, spla.splu(sub.K.T.tocsc()).solve(2.0 * sub.c_res))
    assert np.abs(z.coeffs - ref.coeffs).max() <= 1e-12 * np.abs(ref.coeffs).max()
    rho, rho_ref = ss.adjoint_w_norm(z), ss.adjoint_w_norm(ref)
    assert abs(rho - rho_ref) <= 1e-12 * rho_ref


def test_l2_requires_restricted_data():
    prob = pb.ModelProblem(zeta=1.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.L2Obs(), 4,
                            0.01, 1)
    mesh = uniform_mesh(2)
    with pytest.raises(ValueError):
        ss.build_subproblem(prob, mesh, qspace(mesh).zeros(),
                            vspace(mesh).zeros(), qspace(mesh).zeros(),
                            data.obs, data.g_delta, 10.0)


def test_bad_factorization_raises_kkt_error():
    class OnesLU:
        def solve(self, rhs):
            return np.ones(len(rhs))

    *_, sub = _point_instance()
    sub.lu = OnesLU()
    # n is the dimension of the factorized state/adjoint matrix.
    with pytest.raises(ss.KktError,
                       match=rf"stationarity .*, n={2 * sub.V.dim}\)$"):
        ss.solve_kkt(sub)


def _random_subproblem(mesh, seed, point, zeta):
    rng = np.random.default_rng(seed)
    V, Q = vspace(mesh), qspace(mesh)
    if point:
        obs = pb.PointObs(3)
        data = rng.uniform(-1.0, 1.0, obs.n_obs)
    else:
        obs = pb.L2Obs()
        data = Field(Q, rng.uniform(-1.0, 1.0, Q.dim))
    return ss.build_subproblem(
        pb.ModelProblem(zeta=zeta), mesh, Field(Q, rng.uniform(-1, 1, Q.dim)),
        Field(V, rng.uniform(-0.5, 0.5, V.dim)),
        Field(Q, rng.uniform(-1, 1, Q.dim)), obs, data, beta=1.0)


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
        s = dataclasses.replace(sub, beta=beta)
        sol = ss.solve_kkt(s)
        _assert_blocks_close(
            (sol.q.coeffs, sol.v.coeffs, sol.z.coeffs),
            kkt_oracle.refined_solve(s, kkt_oracle.kkt_rhs(s)), 1e-8)
        aux = ss.solve_second_order(s, sol)
        _assert_blocks_close(
            (aux.q.coeffs, aux.v.coeffs, aux.z.coeffs),
            kkt_oracle.refined_solve(
                s, kkt_oracle.second_order_rhs(s, sol.v.coeffs)), 1e-8)


@settings(max_examples=8, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
def test_control_elimination_premise_is_exact(mesh, seed):
    """The reduction rests on L = -inc' M_Q and inc' M_Q inc = M_V, which
    is also C*C for L^2 data; both hold entry for entry, so L x is
    -(M_Q x) at V's dofs to the last bit."""
    inc = fem.v_to_q(mesh)
    L = reference_operators.L(mesh)
    keep = fem._q_dofs(mesh, "V")[0]
    x = np.random.default_rng(seed).standard_normal(inc.shape[0])
    for point in (True, False):
        sub = _random_subproblem(mesh, seed, point, 100.0)
        assert (L != -(inc.T @ sub.M_Q)).nnz == 0
        assert np.array_equal(L @ x, -(sub.M_Q @ x)[keep])
        assert (inc.T @ sub.M_Q @ inc != sub.V.mass()).nnz == 0
        if not point:
            assert (sub.CtC != inc.T @ sub.M_Q @ inc).nnz == 0


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
                              np.zeros(9), 10.0)
    assert V.stiffness() is K and sub.K is not K
    assert np.array_equal(K.data, data)


@pytest.mark.parametrize("point", [True, False])
def test_cached_transposes_match_and_die_with_their_mesh(point):
    """No mesh context holds L, L' or C'.  C' m by the transposed product
    equals C.T @ m bit for bit; the cached operators go when the mesh
    goes."""
    mesh = refine(uniform_mesh(2), {0, 5, 9})
    sub = _random_subproblem(mesh, 7, point, 100.0)
    ss.solve_kkt(sub)
    entries = fem._CONTEXTS[mesh]
    assert not {("L",), ("Lt",), ("slots", "V", "Q"),
                sub.obs.key + ("Ct",)} & entries.keys()
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.standard_normal(sub.C.shape[0])
        assert np.array_equal(fem._transpose_product(sub.C, w), sub.C.T @ w)
    cached = [sub.C, sub.CtC]
    dead = [weakref.ref(x) for x in [mesh] + cached]
    del mesh, sub, entries, cached
    gc.collect()
    assert all(ref() is None for ref in dead)


_SYMMETRIC = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}


def test_factorization_routes(monkeypatch):
    """SPD stiffness and mass matrices and the quasi-definite reduced
    matrix of L^2 data take diagonal pivots in a symmetric ordering; the
    reduced matrix of point data keeps SuperLU's pivoting."""
    calls = []

    def splu(A, **kwargs):
        calls.append(kwargs)
        return spla.splu(A, **kwargs)

    for module in (fem, ss):
        monkeypatch.setattr(module, "spla", types.SimpleNamespace(splu=splu))
    mesh = refine(uniform_mesh(2), {0, 5}, max_level=4)
    l2, point = (_random_subproblem(mesh, 0, p, 100.0) for p in (False, True))
    for factorize, kwargs in ((vspace(mesh).stiffness_solver, _SYMMETRIC),
                              (qspace(mesh).mass_solver, _SYMMETRIC),
                              (l2.factorization, _SYMMETRIC),
                              (point.factorization, {})):
        calls.clear()
        factorize()
        assert calls == [kwargs]


def test_stiffness_solver_routes(monkeypatch):
    """Uniform meshes from level fem.SINE_MIN_LEVEL on solve stiffness
    systems by sine transforms, with no splu call; coarser uniform meshes
    and graded meshes take diagonal pivots in a symmetric ordering."""
    calls = []

    def splu(A, **kwargs):
        calls.append(kwargs)
        return spla.splu(A, **kwargs)

    monkeypatch.setattr(fem, "spla", types.SimpleNamespace(splu=splu))
    top = fem.SINE_MIN_LEVEL
    routes = [(uniform_mesh(top), []), (uniform_mesh(top + 1), []),
              (uniform_mesh(1), [_SYMMETRIC]),
              (uniform_mesh(top - 1), [_SYMMETRIC]),
              (refine(uniform_mesh(top), {0}), [_SYMMETRIC]),
              (refine(uniform_mesh(2), {0, 5}, max_level=4), [_SYMMETRIC])]
    for mesh, expected in routes:
        calls.clear()
        V = vspace(mesh)
        V.stiffness_solver().solve(np.ones(V.dim))
        assert calls == expected, mesh


@pytest.mark.parametrize("level", range(1, 10))
def test_uniform_stiffness_solves_are_accurate(level):
    """The stiffness solver of a uniform mesh, and the sine solver also
    below the switch, solve to |b - K x| <= 1e-13 |b| and agree with a
    symmetric_lu solve to 1e-12 relative.  The agreement is measured at
    b = K x*, x* random: for b with little high-frequency content the
    forward error of either solve grows like cond(K) eps, which is about
    1e-12 at level 9."""
    rng = np.random.default_rng(level)
    mesh = uniform_mesh(level)
    V = vspace(mesh)
    K = V.stiffness()
    lu = fem.symmetric_lu(K, "stiffness")
    b, b_x = rng.standard_normal(V.dim), K @ rng.standard_normal(V.dim)
    for solver in (V.stiffness_solver(), fem._SineSolver(V)):
        r = b - K @ solver.solve(b)
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(b)
        x = solver.solve(b_x)
        assert np.abs(x - lu.solve(b_x)).max() <= 1e-12 * np.abs(x).max()


@settings(max_examples=6, deadline=None)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
@example(mesh=_hanging_mesh(), seed=1)
def test_symmetric_factorizations_are_accurate(mesh, seed):
    """Stiffness and mass solves to |b - A x| <= 1e-13 |b|.  The reduced
    L^2 solve (diagonal pivots, one refinement step) to a normwise
    backward error |b - A x| / (|A| |x| + |b|) of 1e-12 in the max norm,
    and within 1e-8 per block of the refined full KKT solve.  (|b - A x|
    / |b| cannot reach 1e-12 there: at beta = 1e10 |x| >> |b|, and a
    pivoted LU also stops at 2e-12.)"""
    rng = np.random.default_rng(seed)
    V, Q = vspace(mesh), qspace(mesh)
    for A, solver in ((V.stiffness(), V.stiffness_solver()),
                      (Q.mass(), Q.mass_solver())):
        b = rng.standard_normal(A.shape[0])
        r = b - A @ solver.solve(b)
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(b)
    sub = _random_subproblem(mesh, seed, False, 1000.0)
    nv = V.dim
    for beta in 10.0 ** np.arange(0, 11, 2):
        s = dataclasses.replace(sub, beta=beta)
        sol = ss.solve_kkt(s)
        _assert_blocks_close(
            (sol.q.coeffs, sol.v.coeffs, sol.z.coeffs),
            kkt_oracle.refined_solve(s, kkt_oracle.kkt_rhs(s)), 1e-8)
        b = rng.standard_normal(2 * nv)
        _, v, z = ss._solve_reduced(s, b[:nv], b[nv:], Q.zeros().coeffs)
        x = np.concatenate([v, z / 2])
        assert np.abs(b - s.A @ x).max() <= 1e-12 * (
            spla.norm(s.A, np.inf) * np.abs(x).max() + np.abs(b).max())
