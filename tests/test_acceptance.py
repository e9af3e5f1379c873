"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Desk scale: 257 x 257 simulation mesh (level 8), solver meshes at most
six levels deep.
"""

import time

import numpy as np


from ggnfem import (driver as dv, estimators as est,
                    fem, problem as pb, subsolver as ss)
from ggnfem.fem import Field, qspace, riesz_dual_norm, vspace
from ggnfem.mesh import refine, uniform_mesh

import reference_operators
import theory_suite as th
from conftest import cell_values, closed_form_load, gauss_rule

ZETAS = (1.0, 10.0, 100.0, 500.0, 1000.0)
NOISES = (0.005, 0.01, 0.02, 0.04, 0.08)
CFG = dv.GgnConfig(max_depth=6)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_theory_suite():
    t0 = time.perf_counter()
    rep = th.run_theory_suite(seed=0, trials=100)
    elapsed = time.perf_counter() - t0
    ok = (rep.ok and rep.max_identity_err <= 1e-10 and elapsed < 5.0
          and rep.filter_p["fitted_cp"] <= 2.0)
    _report(1, ok,
            f"|OY-I| max {rep.max_identity_err:.2e} (<=1e-10), bounds ok, "
            f"C_p {rep.filter_p['fitted_cp']:.2f} (<=2), {elapsed:.2f}s (<5s)")


def test_criterion_2_fem_kernel():
    t0 = time.perf_counter()
    errs = []
    for lev in (2, 3, 4, 5, 6):
        mesh = uniform_mesh(lev)
        V = vspace(mesh)
        load = closed_form_load(
            V, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x)
            * np.sin(np.pi * y))
        u = Field(V, V.stiffness_solver().solve(load))
        pts, wts, shapes, _ = gauss_rule(4)
        uv = cell_values(u, shapes)
        x0, y0, h = fem._cell_origin_arrays(mesh)
        gx = x0[:, None] + h[:, None] * pts[None, :, 0]
        gy = y0[:, None] + h[:, None] * pts[None, :, 1]
        exact = np.sin(np.pi * gx) * np.sin(np.pi * gy)
        errs.append(np.sqrt(
            np.einsum("c,cq,q->", h**2, (uv - exact) ** 2, wts)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    rates_ok = np.all(np.abs(rates - 2.0) <= 0.2)

    V = vspace(uniform_mesh(5))
    rng = np.random.default_rng(0)
    w = rng.standard_normal(V.dim)
    norm, _ = riesz_dual_norm(V, V.stiffness() @ w)
    exact_norm = float(np.sqrt(w @ (V.stiffness() @ w)))
    riesz_ok = abs(norm - exact_norm) <= 1e-10 * max(1.0, exact_norm)
    elapsed = time.perf_counter() - t0
    ok = rates_ok and riesz_ok and elapsed < 10.0
    _report(2, ok,
            f"L2 rates {np.round(rates, 3)} (2.0 +- 0.2), riesz roundtrip "
            f"dev {abs(norm - exact_norm):.2e} (<=1e-10), "
            f"{elapsed:.2f}s (<10s)")


def test_criterion_3_kkt_dense_oracle():
    prob = pb.ModelProblem(zeta=100.0)
    mesh = uniform_mesh(2)  # 4 x 4 cells
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(1)  # n_m = 1
    u0 = pb.solve_forward(prob, Q.zeros(), V)
    g = obs.observe(u0) + 0.07
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              obs, g)
    sol = ss.solve_kkt(sub, 25.0)
    nq, nv = Q.dim, V.dim
    C = obs.matrix(V).toarray()
    L = reference_operators.L(mesh).toarray()
    b = 1.0 / sol.beta
    A = np.block([
        [b * sub.M_Q.toarray(), np.zeros((nq, nv)), -L.T],
        [np.zeros((nv, nq)), C.T @ C, -sub.K.toarray().T],
        [-L, -sub.K.toarray(), np.zeros((nv, nv))],
    ])
    rg = C @ sub.u_old_h.coeffs - np.asarray(g)
    rhs = np.concatenate([
        b * sub.M_Q.toarray() @ sub.q0.coeffs, -C.T @ rg,
        sub.a_res - L @ sub.q_old_h.coeffs])
    x = np.linalg.inv(A) @ rhs
    devs = (np.abs(sol.q.coeffs - x[:nq]).max(),
            np.abs(sol.v.coeffs - x[nq:nq + nv]).max(),
            np.abs(sol.z.coeffs - 2 * x[nq + nv:]).max())
    ok = max(devs) <= 1e-9
    _report(3, ok, f"block deviations vs dense inverse {devs} (<=1e-9)")


def test_criterion_4_proof_identity(ggn_runs):
    devs = []
    for zeta in ZETAS:
        devs.append(ggn_runs(zeta=zeta, p=0.01, seed=1).max_identity_dev)
    for p in NOISES:
        devs.append(ggn_runs(zeta=100.0, p=p, seed=1).max_identity_dev)
    ok = max(devs) <= 1e-12
    _report(4, ok,
            f"max |I1h - I2h - reg| over {len(devs)} runs: "
            f"{max(devs):.2e} (<=1e-12)")


def test_criterion_5_monotonicity(ggn_runs):
    rep = ggn_runs(zeta=100.0, p=0.01, seed=1)
    ok = (rep.termination == "discrepancy" and len(rep.monotonicity) > 0
          and all(rep.monotonicity))
    _report(5, ok,
            f"distance bound holds at all {len(rep.monotonicity)} accepted "
            f"iterates of the converged run")


def test_criterion_6_discrepancy_stopping(ggn_runs, sims):
    details = []
    ok = True
    for zeta in ZETAS:
        rep = ggn_runs(zeta=zeta, p=0.01, seed=1)
        data = sims(zeta=zeta, p=0.01, seed=1)
        tol = CFG.tau**2 * data.delta**2
        good = (rep.termination == "discrepancy"
                and rep.i3h_final <= tol
                and rep.outer_iterations <= 30
                and rep.wall_time < 600.0)
        ok = ok and good
        details.append(f"zeta={zeta:g}: k*={rep.outer_iterations}, "
                       f"I3h/tol={rep.i3h_final / tol:.2f}, "
                       f"{rep.wall_time:.1f}s")
    _report(6, ok, "; ".join(details))


def test_criterion_7_paper_number_soft_targets(ggn_runs):
    rep = ggn_runs(zeta=100.0, p=0.01, seed=1)
    err_ok = 0.25 <= rep.control_error <= 0.65
    errs, betas = [], []
    for p in NOISES:
        r = ggn_runs(zeta=100.0, p=p, seed=1)
        errs.append(r.control_error)
        betas.append(r.beta_final)
    trend_ok = errs[0] < errs[-1]
    beta_ok = all(a >= b - 1e-12 for a, b in zip(betas, betas[1:]))
    ok = err_ok and trend_ok and beta_ok
    _report(7, ok,
            f"error(1%)={rep.control_error:.3f} in [0.25,0.65]; sweep errors "
            f"{np.round(errs, 3)} (first<last: {trend_ok}); betas "
            f"{['%.3g' % b for b in betas]} nonincreasing: {beta_ok}")


def test_criterion_8_dwr_effectivity(sims):
    data = sims(case="a", obs="l2", zeta=100.0, p=0.01, seed=2)
    prob = pb.ModelProblem(zeta=100.0)
    beta = 100.0

    def solve_on(mesh):
        V, Q = vspace(mesh), qspace(mesh)
        sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(),
                                  Q.zeros(), data.obs,
                                  data.obs.restrict(data, mesh))
        return ss.solve_kkt(sub, beta)

    mesh_c = uniform_mesh(3)
    sol_c = solve_on(mesh_c)
    eta1, _ = est.estimate_eta1(sol_c)
    aux = ss.solve_second_order(sol_c)
    eta2, _ = est.estimate_eta2(sol_c, aux)
    mesh_f = refine(refine(mesh_c, range(mesh_c.n_cells)),
                    range(4 * mesh_c.n_cells))
    sol_f = solve_on(mesh_f)
    eff1 = eta1 / (est.compute_i1h(sol_f)[0] - est.compute_i1h(sol_c)[0])
    eff2 = eta2 / (sol_f.misfit_sq() - sol_c.misfit_sq())
    ok = 0.1 <= eff1 <= 10.0 and 0.1 <= eff2 <= 10.0
    _report(8, ok,
            f"effectivity eta1 {eff1:.2f}, eta2 {eff2:.2f} "
            f"(both in [0.1, 10])")


def test_criterion_9_baseline_walltime(ggn_runs, nt_runs):
    rep_g = ggn_runs(zeta=1000.0, p=0.01, seed=1)
    rep_n = nt_runs(zeta=1000.0, p=0.01, seed=1)
    ok = (rep_g.wall_time <= rep_n.wall_time
          and rep_n.termination == "discrepancy")
    ctr = 1.0 - rep_g.wall_time / rep_n.wall_time
    _report(9, ok,
            f"zeta=1000: GGN {rep_g.wall_time:.2f}s <= NT "
            f"{rep_n.wall_time:.2f}s (CTR {ctr:+.0%})")


def test_criterion_10_behavior_trajectory(ggn_runs):
    rep = ggn_runs(zeta=100.0, p=0.01, seed=1)
    accepted = [r for r in rep.rows if r.phase == "accept"]
    in_band = all(
        CFG.theta_low * r.i3h <= r.i2h <= CFG.theta_high * r.i3h
        for r in accepted)
    iters_ok = 4 <= rep.outer_iterations <= 15
    ok = in_band and iters_ok and rep.termination == "discrepancy"
    _report(10, ok,
            f"I2h in [theta_low, theta_high]*I3h before all "
            f"{len(accepted)} accepted steps: {in_band}; outer iterations "
            f"{rep.outer_iterations} in [4, 15]")
