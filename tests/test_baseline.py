import re

import numpy as np
import pytest

from ggnfem import baseline as bl, problem as pb, subsolver as ss
from ggnfem.fem import Field, qspace, vspace
from ggnfem.mesh import refine, uniform_mesh
from test_pinned_rows import _runs as pinned_runs


def test_nt_config_validation():
    bl.NtConfig()
    with pytest.raises(ValueError):
        bl.NtConfig(tau_low=5.0, tau_up=4.0)


def test_linear_case_matches_single_linearization():
    """zeta = 0: the reduced Gauss-Newton fixed point on a fixed mesh at
    fixed beta equals one all-at-once KKT solve."""
    prob = pb.ModelProblem(zeta=0.0)
    obs = pb.PointObs(9)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 6, 0.01, 5)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    beta = 100.0
    sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                              obs, data.g_delta)
    sol = ss.solve_kkt(sub, beta)
    q_nt, u_nt, *_ = bl._gn_fit(prob, obs, data.g_delta, mesh, beta,
                                Q.zeros(), None, bl.NtConfig(coarse_levels=3))
    assert np.abs(q_nt.coeffs - sol.q.coeffs).max() < 1e-6


def test_nt_terminates_in_band(nt_runs, sims):
    rep = nt_runs(zeta=100.0, p=0.01, seed=1)
    data = sims(zeta=100.0, p=0.01, seed=1)
    cfg = bl.NtConfig()
    assert rep.termination == "discrepancy"
    disc2 = rep.rows[-1].i2h
    assert 0.0 <= disc2 <= cfg.tau_up**2 * data.delta**2
    assert disc2 >= cfg.tau_low**2 * data.delta**2
    assert rep.method == "NT"


def test_nt_error_reasonable(nt_runs):
    # soft target: the reference reconstruction stays in the same error
    # regime as the reported baseline values
    rep = nt_runs(zeta=1.0, p=0.01, seed=1)
    assert rep.termination == "discrepancy"
    assert rep.control_error < 0.8


def test_nt_report_rows(nt_runs):
    rep = nt_runs(zeta=100.0, p=0.01, seed=1)
    assert rep.rows[-1].phase == "accept"
    nodes = [r.nodes for r in rep.rows]
    assert all(a <= b for a, b in zip(nodes, nodes[1:]))
    assert rep.total_forward_solves > 0


def test_nt_restricts_l2_data_once_per_mesh(sims, monkeypatch):
    data = sims(obs="l2", fine=5)
    meshes = []
    restrict = pb.restrict_data
    monkeypatch.setattr(pb, "restrict_data", lambda d, space: (
        meshes.append(space.mesh) or restrict(d, space)))
    rep = bl.run_nt(pb.ModelProblem(zeta=100.0), data,
                    bl.NtConfig(max_depth=4))
    n_meshes = 1 + sum(r.phase == "refine1" for r in rep.rows)
    assert n_meshes < len(rep.rows)  # some passes keep their mesh
    assert len(meshes) == len({id(m) for m in meshes}) == n_meshes


def test_linearized_state_predicts_the_forward_solution():
    """u + t v, v the state increment of the KKT step at an exactly
    solved (q, u), is S(q + t dq) to O(t^2): the start of NT's
    line-search forward solves."""
    prob = pb.ModelProblem(zeta=1000.0)
    obs = pb.PointObs(9)
    mesh = refine(uniform_mesh(3), set(range(0, 64, 5)), max_level=5)
    V, Q = vspace(mesh), qspace(mesh)
    q = Q.interpolate(pb.synthetic_case("a").source)
    u = pb.solve_forward(prob, q, V, tol=1e-13)
    g = obs.observe(u) + np.random.default_rng(1).normal(0.0, 0.01,
                                                          obs.n_obs)
    sol = ss.solve_kkt(ss.build_subproblem(prob, mesh, q, u, Q.zeros(),
                                           obs, g), 10.0)
    dq, v = sol.q.coeffs - q.coeffs, sol.v.coeffs
    ts = np.array([0.1, 0.01, 0.001])
    pred_err, old_err = [], []
    for t in ts:
        u_t = pb.solve_forward(prob, Field(Q, q.coeffs + t * dq), V,
                               tol=1e-13).coeffs
        pred_err.append(np.abs(u_t - (u.coeffs + t * v)).max())
        old_err.append(np.abs(u_t - u.coeffs).max())
    pred_err, old_err = np.array(pred_err), np.array(old_err)
    assert np.all(pred_err <= 2.0 * pred_err[0] * (ts / ts[0])**2)
    assert np.all(pred_err[1:] / pred_err[:-1] > 1e-3)  # not O(t^3)
    assert np.all(pred_err < 0.1 * old_err)


def test_linear_line_search_solves_take_no_newton_step(monkeypatch):
    """zeta = 0: u + t v solves the state equation at q + t dq, so no
    forward solve of the fit takes a Newton step."""
    prob = pb.ModelProblem(zeta=0.0)
    obs = pb.PointObs(9)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 6, 0.01, 5)
    mesh = uniform_mesh(3)
    calls, steps = [], []
    jacobian, solve = pb.linearized_state_operator, pb.solve_forward

    def counted_solve(*args, **kwargs):
        n = len(calls)
        u = solve(*args, **kwargs)
        steps.append(len(calls) - n)
        return u

    monkeypatch.setattr(pb, "linearized_state_operator",
                        lambda *a: calls.append(a) or jacobian(*a))
    monkeypatch.setattr(pb, "solve_forward", counted_solve)
    bl._gn_fit(prob, obs, data.g_delta, mesh, 100.0, qspace(mesh).zeros(),
               None, bl.NtConfig(coarse_levels=3))
    assert len(steps) > 1 and steps == [0] * len(steps)
    assert calls  # the subproblems still linearize


def test_nt_rows_do_not_depend_on_the_forward_start(monkeypatch):
    """The pinned NT runs decide the same with every forward solve
    started cold (from zero): their rows move only at the forward
    tolerance, not in k, phase, nodes, beta or termination."""
    def lines(reports):
        return {name: (rep.termination,
                       [(r.k, r.phase, r.nodes, r.beta) for r in rep.rows])
                for name, rep in reports.items()}

    warm = lines(pinned_runs(methods=("nt",)))
    solve = bl.pb.solve_forward
    monkeypatch.setattr(bl.pb, "solve_forward",
                        lambda *a, u_init=None, **kw: solve(*a, **kw))
    cold = lines(pinned_runs(methods=("nt",)))
    assert len(warm) == 4
    assert cold == warm


@pytest.mark.parametrize("scale", [1 + 1e-12, 1 - 1e-12],
                         ids=["up", "down"])
def test_nt_does_not_decide_at_rounding_level(monkeypatch, scale):
    """The pinned NT runs decide the same with every forward solution
    scaled by 1 +- 1e-12: k, phase, nodes, beta and termination are
    unchanged and the control errors agree to 1e-10.  A fit whose model
    predicts no decrease takes its floor step at once, so its step does
    not depend on j_new <= j_old at rounding level.  The forward-solve
    counts may differ: such trials fail and end on the same floor step."""
    def lines(reports):
        return {name: (rep.termination,
                       [(r.k, r.phase, r.nodes, r.beta) for r in rep.rows])
                for name, rep in reports.items()}

    def scaled_solve(*args, **kwargs):
        u = solve(*args, **kwargs)
        return Field(u.space, scale * u.coeffs)

    exact = pinned_runs(methods=("nt",))
    solve = bl.pb.solve_forward
    monkeypatch.setattr(bl.pb, "solve_forward", scaled_solve)
    scaled = pinned_runs(methods=("nt",))
    assert len(exact) == 4
    assert lines(scaled) == lines(exact)
    for name, rep in scaled.items():
        assert rep.control_error == pytest.approx(
            exact[name].control_error, rel=1e-10, abs=0.0), name


def test_gn_cap_is_reported(sims, nt_runs):
    """A fit stopped by gn_cap before its step fell to gn_tol is not a
    fixed point; the report says so, naming the cap."""
    rep = bl.run_nt(pb.ModelProblem(zeta=100.0), sims(fine=5),
                    bl.NtConfig(gn_cap=1, max_depth=4))
    assert any("gn_cap=1" in w for w in rep.warnings)
    assert not any("gn_cap" in w for w in nt_runs().warnings)


def test_refine_cap_is_reported(sims):
    """A refine the gate asks for but max_refines skips is reported once
    per run, at the first such pass, naming the cap, the indicator sum
    and the gate; a run whose cap does not bind reports none."""
    data = sims(fine=5)
    warned = {}
    for max_refines in (1, 50):
        rep = bl.run_nt(pb.ModelProblem(zeta=100.0), data,
                        bl.NtConfig(max_depth=4, max_refines=max_refines))
        warned[max_refines] = [w for w in rep.warnings if "max_refines" in w]
    assert warned[50] == []
    (warning,) = warned[1]
    match = re.fullmatch(r"k=\d+: refine skipped at max_refines=1 "
                         r"\(indicator sum (\S+) > gate (\S+)\)", warning)
    assert match and float(match[1]) > float(match[2])


@pytest.mark.parametrize("max_beta_steps", [0, 2])
def test_nt_outer_iterations_count_the_beta_steps_taken(sims, max_beta_steps):
    """A failed beta search reports the updates it made, one per beta
    row, not the refused one."""
    rep = bl.run_nt(pb.ModelProblem(zeta=100.0), sims(fine=5),
                    bl.NtConfig(max_depth=4, max_beta_steps=max_beta_steps))
    assert rep.termination == "beta-search-failure"
    n_beta = sum(r.phase == "beta" for r in rep.rows)
    assert rep.outer_iterations == n_beta == max_beta_steps
