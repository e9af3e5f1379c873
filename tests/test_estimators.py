import types

import numpy as np
from hypothesis import given, settings, strategies as st

from ggnfem import estimators as est, fem, problem as pb, subsolver as ss
from ggnfem.fem import Field, patch_interpolate, qspace, vspace
from ggnfem.mesh import refine, uniform_mesh

from conftest import (cell_values, gauss_rule, graded_meshes,
                      patch_weight_at)


class FieldWeight:
    """A discrete field presented through the weight interface of
    ``fem.PatchWeight``.

    Substituting such a weight into a Lagrangian-derivative pairing must
    annihilate it at a stationary point (Galerkin orthogonality).
    """

    def __init__(self, field):
        self.mesh = mesh = field.mesh
        self.h = mesh.cell_sizes()
        self.corner_vals = field.full_values()[mesh.cell_corners]
        pts = fem._PTS
        self.vals = self.corner_vals @ fem.shape_values(pts).T
        self.grads = np.einsum("ci,qid->cqd", self.corner_vals,
                               fem.shape_gradients(pts)) / self.h[:, None, None]

    def at_points(self, points):
        cids, locs = fem.point_locations(self.mesh, points)
        return cids, fem.bilinear(self.corner_vals[cids], locs)


def _instance(zeta=100.0, beta=10.0, levels=3, n_side=5, seed=1, p=0.01):
    prob = pb.ModelProblem(zeta=zeta)
    mesh = uniform_mesh(levels)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(n_side)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 5, p, seed)
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              obs, data.g_delta)
    sol = ss.solve_kkt(sub, beta)
    return prob, mesh, V, Q, obs, data, sub, sol


def _l2_instance(zeta=100.0, beta=100.0, levels=3, seed=2, fine=6):
    prob = pb.ModelProblem(zeta=zeta)
    obs = pb.L2Obs()
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, fine, 0.01,
                            seed)

    def solve_on(mesh):
        V, Q = vspace(mesh), qspace(mesh)
        sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                                  obs, obs.restrict(data, mesh))
        return ss.solve_kkt(sub, beta)

    return data, solve_on, uniform_mesh(levels)


def _i4h(sol, rho):
    """I4h as the driver logs an accepted step: I2h plus the state term
    of I3h at the subproblem based at the new pair (q, u)."""
    sub = sol.sub
    base = ss.build_subproblem(sub.problem, sub.mesh, sol.q, sol.u, sub.q0,
                               sub.obs, sub.data_g)
    return sol.misfit_sq() + est.compute_i3h(base, rho)[1]


def test_qoi_all_zero_at_consistent_fixed_point():
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    q0 = Q.interpolate(lambda x, y: 0.4 - 0.1 * y)
    u_old = pb.solve_forward(prob, q0, V)
    g = obs.observe(u_old)
    sub = ss.build_subproblem(prob, mesh, q0, u_old, q0, obs, g)
    sol = ss.solve_kkt(sub, 10.0)
    assert est.compute_i1h(sol)[0] < 1e-14
    assert sol.misfit_sq() < 1e-14
    # forward solve leaves a <=1e-10 dual residual
    assert est.compute_i3h(sub, 1.0)[0] < 1e-14
    assert _i4h(sol, 1.0) < 1e-14


def test_qoi_initial_i3_is_data_norm(sims):
    data = sims(zeta=100.0, p=0.01, seed=1)
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(2)
    V, Q = vspace(mesh), qspace(mesh)
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              data.obs, data.g_delta)
    i3h, state = est.compute_i3h(sub, 5.0)
    # A(0,0) = 0 and f = 0: I3h is exactly the data norm
    assert state == 0.0
    assert abs(i3h - data.g_delta @ data.g_delta) < 1e-12


def test_identity_i1_minus_i2():
    prob, mesh, V, Q, obs, data, sub, sol = _instance()
    i1h = est.compute_i1h(sol)[0]
    dq = sol.q.coeffs - sub.q0.coeffs
    reg = dq @ (sub.M_Q @ dq) / sol.beta
    assert abs(i1h - sol.misfit_sq() - reg) <= 1e-12 * max(1.0, i1h)


def test_eta1_reuses_the_weights_eta2_built(monkeypatch):
    """The DWR weights of a field live in its context: eta1 of a solution
    builds none after eta2 of the same solution."""
    *_, sub, sol = _instance()
    aux = ss.solve_second_order(sol)
    built = []
    init = fem.PatchWeight.__init__
    monkeypatch.setattr(fem.PatchWeight, "__init__",
                        lambda w, field: built.append(field) or init(w, field))
    eta2 = est.estimate_eta2(sol, aux)[0]
    assert len(built) == 6
    eta1 = est.estimate_eta1(sol)[0]
    assert len(built) == 6
    assert patch_interpolate(sol.u) is patch_interpolate(sol.u)
    assert est.estimate_eta2(sol, aux)[0] == eta2
    assert est.estimate_eta1(sol)[0] == eta1


def test_eta1_reads_the_tables_eta2_built(monkeypatch):
    """The quadrature tables of a field live in its context: eta1 of a
    solution evaluates no field at the quadrature points after eta2 of
    the same solution, and its tables give the fresh fields' value."""
    *_, sub, sol = _instance()
    est.estimate_eta2(sol, ss.solve_second_order(sol))
    built = []
    original = fem._cell_values
    monkeypatch.setattr(fem, "_cell_values",
                        lambda *a: built.append(a[0]) or original(*a))
    eta1 = est.estimate_eta1(sol)[0]
    assert built == []
    monkeypatch.undo()
    fresh = ss.solve_kkt(sub, sol.beta)
    assert est.estimate_eta1(fresh)[0] == eta1


def test_eta1_galerkin_orthogonality():
    prob, mesh, V, Q, obs, data, sub, sol = _instance()
    rng = np.random.default_rng(3)
    for _ in range(3):
        weights = (
            FieldWeight(Field(Q, rng.standard_normal(Q.dim))),
            FieldWeight(Field(V, rng.standard_normal(V.dim))),
            FieldWeight(Field(V, rng.standard_normal(V.dim))),
        )
        eta, _ = est.estimate_eta1(sol, weights=weights)
        assert abs(eta) <= 1e-10


def test_eta_zero_on_bilinear_stationary_triple():
    # consistent data with a globally (bi)linear triple: weights vanish
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    u0 = pb.solve_forward(prob, Q.zeros(), V)
    g = obs.observe(u0)
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              obs, g)
    sol = ss.solve_kkt(sub, 10.0)
    eta1, ind1 = est.estimate_eta1(sol)
    aux = ss.solve_second_order(sol)
    eta2, _ = est.estimate_eta2(sol, aux)
    assert abs(eta1) < 1e-12
    assert abs(eta2) < 1e-12
    assert ind1.max() < 1e-12


def test_eta1_effectivity_l2_case():
    data, solve_on, mesh_c = _l2_instance()
    sol_c = solve_on(mesh_c)
    eta1, _ = est.estimate_eta1(sol_c)
    mesh_f = refine(refine(mesh_c, range(mesh_c.n_cells)),
                    range(4 * mesh_c.n_cells))
    sol_f = solve_on(mesh_f)
    gap = est.compute_i1h(sol_f)[0] - est.compute_i1h(sol_c)[0]
    assert 0.1 <= eta1 / gap <= 10.0


def test_eta2_effectivity_l2_case():
    data, solve_on, mesh_c = _l2_instance()
    sol_c = solve_on(mesh_c)
    aux = ss.solve_second_order(sol_c)
    eta2, _ = est.estimate_eta2(sol_c, aux)
    mesh_f = refine(refine(mesh_c, range(mesh_c.n_cells)),
                    range(4 * mesh_c.n_cells))
    sol_f = solve_on(mesh_f)
    gap = sol_f.misfit_sq() - sol_c.misfit_sq()
    assert 0.1 <= eta2 / gap <= 10.0


def test_eta1_indicator_driven_refinement_decreases_eta():
    prob = pb.ModelProblem(zeta=100.0)
    obs = pb.PointObs(5)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 6, 0.01, 4)
    from ggnfem.driver import mark_fraction

    mesh = uniform_mesh(2)
    vals = []
    for _ in range(3):
        V, Q = vspace(mesh), qspace(mesh)
        sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                                  obs, data.g_delta)
        sol = ss.solve_kkt(sub, 10.0)
        eta1, ind1 = est.estimate_eta1(sol)
        vals.append(abs(eta1))
        mesh = refine(mesh, mark_fraction(ind1, 0.5))
    assert vals[0] > vals[1] > vals[2]


def test_eta_quadratic_homogeneity_in_data():
    """Scaling the data from a zero base scales both estimators by s^2.

    Every term of the pairings is a product of two solution-homogeneous
    factors (the auxiliary triple is itself linear in the data), so the
    estimates are quadratically, not linearly, homogeneous.
    """
    prob = pb.ModelProblem(zeta=0.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(5)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(obs.n_obs) * 0.1
    out = {}
    for s in (1.0, 2.0):
        sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                                  obs, s * g)
        sol = ss.solve_kkt(sub, 50.0)
        aux = ss.solve_second_order(sol)
        out[s] = (est.estimate_eta1(sol)[0],
                  est.estimate_eta2(sol, aux)[0])
    assert abs(out[2.0][0] / out[1.0][0] - 4.0) < 1e-8
    assert abs(out[2.0][1] / out[1.0][1] - 4.0) < 1e-8


def test_qoi_invariant_under_renumbering():
    """QoIs agree when the same state is assembled on meshes created
    through different refinement histories (hence different orderings)."""
    prob = pb.ModelProblem(zeta=10.0)
    obs = pb.PointObs(3)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 5, 0.01, 8)
    base = uniform_mesh(2)
    m1 = refine(base, {1, 2})
    # same leaf set reached through a different refinement history
    m2a = refine(base, {1})
    m2 = refine(m2a, np.flatnonzero((m2a.cells == base.cells[2]).all(axis=1)))
    assert np.array_equal(m1.cells, m2.cells)

    def run(mesh):
        V, Q = vspace(mesh), qspace(mesh)
        sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                                  obs, data.g_delta)
        sol = ss.solve_kkt(sub, 10.0)
        return (est.compute_i1h(sol)[0], sol.misfit_sq(),
                est.compute_i3h(sub, 2.0)[0], _i4h(sol, 2.0))

    assert np.allclose(run(m1), run(m2), rtol=1e-13)


# ---------------------------------------------------------------------------
# the term-by-term estimators that the shared Hessian routine replaced


def _reference_etas(sub, sol, aux):
    """Cellwise eta1 and eta2 contributions, every term written out,
    under a rule beyond the package's one: the degree-5 integrands check
    that fem.NQ integrates them exactly."""
    mesh = sub.mesh
    pts, wts, shapes, grads_ref = gauss_rule(4)
    h = mesh.cell_sizes()
    cells = np.arange(mesh.n_cells).repeat(len(pts))

    def vals(f):
        return cell_values(f, shapes)

    def grads(f):
        cv = f.full_values()[mesh.cell_corners]
        return np.einsum("ci,qid->cqd", cv, grads_ref) / h[:, None, None]

    def integrate(x):
        return np.einsum("c,cq,q->c", h**2, x, wts)

    def dot(a, b):
        return np.einsum("cqd,cqd->cq", a, b)

    def weight(f):  # the DWR weight of f at this rule's points
        w = patch_interpolate(f)
        wv, wg = patch_weight_at(w, cells, np.tile(pts, (mesh.n_cells, 1)))
        return types.SimpleNamespace(vals=wv.reshape(mesh.n_cells, -1),
                                     grads=wg.reshape(mesh.n_cells, -1, 2),
                                     patch=w)

    def obs_pairing(gvec, w):
        if isinstance(sub.obs, pb.PointObs):
            out = np.zeros(mesh.n_cells)
            cids, locs = fem.point_locations(mesh, sub.obs.points)
            wv = patch_weight_at(w.patch, cids, locs)[0]
            np.add.at(out, cids, gvec * wv)
            return out
        return integrate(vals(Field(sub.Q, gvec)) * w.vals)

    zeta, beta = sub.problem.zeta, sol.beta
    q_h, q0, u_old = vals(sol.q), vals(sub.q0), vals(sub.u_old_h)
    v, z = vals(sol.v), vals(sol.z)
    grad_z, grad_u = grads(sol.z), grads(sol.u)
    r_lin = sub.misfit(sol.v.coeffs)[1]

    def lagrangian(w):
        wq, wu, wz = w
        t = integrate(((2.0 / beta) * (q_h - q0) + z) * wq.vals)
        t += 2.0 * obs_pairing(r_lin, wu)
        t -= integrate(dot(wu.grads, grad_z))
        t -= 3.0 * zeta * integrate(u_old**2 * wu.vals * z)
        t -= integrate(dot(grad_u, wz.grads))
        t -= zeta * integrate((u_old**3 + 3.0 * u_old**2 * v) * wz.vals)
        t += integrate(q_h * wz.vals)
        return t

    w = tuple(weight(f) for f in (sol.q, sol.u, sol.z))
    w1 = tuple(weight(f) for f in aux)
    wq, wu, wz = w
    q1, v1, z1 = (vals(f) for f in aux)
    gv1, gz1 = grads(aux[1]), grads(aux[2])
    eta2 = 2.0 * obs_pairing(r_lin, wu)
    eta2 += integrate((2.0 / beta) * q1 * wq.vals + z1 * wq.vals)
    if isinstance(sub.obs, pb.PointObs):
        eta2 += 2.0 * obs_pairing(sub.obs.matrix(sub.V) @ aux[1].coeffs, wu)
    else:
        eta2 += 2.0 * integrate(v1 * wu.vals)
    eta2 -= integrate(dot(wu.grads, gz1))
    eta2 -= 3.0 * zeta * integrate(u_old**2 * wu.vals * z1)
    eta2 += integrate(q1 * wz.vals)
    eta2 -= integrate(dot(gv1, wz.grads))
    eta2 -= 3.0 * zeta * integrate(u_old**2 * v1 * wz.vals)
    eta2 += lagrangian(w1)
    return 0.5 * lagrangian(w), 0.5 * eta2


def _close_cells(got, ref, rtol=1e-12):
    eta, ind = got
    scale = np.abs(ref).max()
    assert np.abs(ind - np.abs(ref)).max() <= rtol * scale
    assert abs(eta - ref.sum()) <= rtol * np.abs(ref).sum()


@settings(max_examples=6)
@given(mesh=graded_meshes(), seed=st.integers(0, 2**16))
def test_etas_match_term_by_term_reference(mesh, seed):
    rng = np.random.default_rng(seed)
    prob = pb.ModelProblem(zeta=100.0)
    V, Q = vspace(mesh), qspace(mesh)
    q_old = Field(Q, rng.uniform(-1.0, 1.0, Q.dim))
    u_old = Field(V, rng.uniform(-0.5, 0.5, V.dim))
    q0 = Field(Q, rng.uniform(-1.0, 1.0, Q.dim))
    point = pb.PointObs(5)
    for obs, data in ((point, rng.uniform(-1.0, 1.0, point.n_obs)),
                      (pb.L2Obs(), rng.uniform(-1.0, 1.0, Q.dim))):
        sub = ss.build_subproblem(prob, mesh, q_old, u_old, q0, obs, data)
        sol = ss.solve_kkt(sub, 3.0)
        aux = ss.solve_second_order(sol)
        ref1, ref2 = _reference_etas(sub, sol, aux)
        _close_cells(est.estimate_eta1(sol), ref1)
        _close_cells(est.estimate_eta2(sol, aux), ref2)
