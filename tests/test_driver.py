import dataclasses
import gc
import weakref

import numpy as np
import pytest

from ggnfem import baseline as bl, driver as dv, estimators as est, fem
from ggnfem import problem as pb
from ggnfem.fem import Field, Space, interpolate_onto, qspace, vspace
from ggnfem.mesh import QuadMesh, refine, uniform_mesh


def test_config_defaults_satisfy_assumptions():
    cfg = dv.GgnConfig()
    cfg.validate()
    assert abs(cfg.theta_tilde - 0.5 * (0.2 + 0.4999)) < 1e-15
    assert abs(cfg.eta1_gate_coefficient() - 0.12) < 1e-6


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dv.GgnConfig(tau=0.5)
    with pytest.raises(ValueError):
        dv.GgnConfig(theta_low=0.6, theta_high=0.4)
    with pytest.raises(ValueError):
        dv.GgnConfig(tau_beta=0.5)
    # escape hatch for negative controls
    cfg = dv.GgnConfig(tau=0.5, enforce_assumptions=False)
    assert cfg.tau == 0.5


def test_mark_fraction():
    ind = np.array([5.0, 1.0, 3.0, 1.0])
    marked = dv.mark_fraction(ind, 0.3)
    assert marked == [0]
    marked = dv.mark_fraction(ind, 0.8)
    assert set(marked) == {0, 2}
    assert dv.mark_fraction(np.zeros(4), 0.3) == []


def test_refined_stops_at_the_depth_cap():
    cfg = dv.GgnConfig(max_depth=2, marking_fraction=1.0)
    capped = uniform_mesh(2)
    assert dv.refined(capped, np.ones(capped.n_cells), cfg) is None
    # One level-1 cell split: three level-1 cells can still split, the
    # four level-2 cells cannot.
    mesh = refine(uniform_mesh(1), [0])
    levels = mesh.cells[:, 0]
    new = dv.refined(mesh, np.ones(mesh.n_cells), cfg)
    want = refine(mesh, np.flatnonzero(levels < 2))
    assert new is not None and new.max_level == 2
    assert np.array_equal(new.cells, want.cells)
    # Marking only capped cells refines nothing.
    ind = np.where(levels == 2, 1.0, 0.0)
    assert dv.refined(mesh, ind, cfg) is None


def test_beta_bracket_widens_by_a_decade_then_bisects():
    cfg = dv.GgnConfig()
    up, down = dv.BetaBracket(cfg), dv.BetaBracket(cfg)
    assert up.step(10.0, raise_beta=True) == 100.0
    assert down.step(10.0, raise_beta=False) == 1.0
    # misfit above the band at 10, below at 100: bisect in log10(beta)
    assert up.step(100.0, raise_beta=False) == 10.0**1.5
    assert up.step(10.0**1.5, raise_beta=True) == 10.0**1.75
    assert (up.lo, up.hi) == (1.5, 2.0)
    assert down.step(1.0, raise_beta=False) == 0.1  # still open above


def test_beta_bracket_floor_and_reopen():
    cfg = dv.GgnConfig()
    floored = dv.BetaBracket(cfg, floor=10.0)
    assert floored.at_floor(10.0) and not floored.at_floor(100.0)
    assert floored.step(10.0, raise_beta=False) == 10.0  # clamped
    assert not dv.BetaBracket(cfg).at_floor(1e-10)  # no floor given
    bracket = dv.BetaBracket(cfg)
    bracket.step(10.0, raise_beta=True)
    bracket.step(100.0, raise_beta=False)
    bracket.reopen()  # after a refine: widen again, do not bisect
    assert bracket.refines == 1 and bracket.lo is bracket.hi is None
    assert bracket.step(100.0, raise_beta=False) == 10.0


def test_beta_bracket_cap_and_range_errors():
    bracket = dv.BetaBracket(dv.GgnConfig(max_beta_steps=2))
    for _ in range(2):
        bracket.count("no beta in {cap} steps")
    with pytest.raises(dv.BetaSearchError, match="no beta in 2 steps"):
        bracket.count("no beta in {cap} steps")
    assert bracket.steps == 2  # the refused step is not counted
    bounded = dv.GgnConfig(beta_min=1.0, beta_max=50.0)
    with pytest.raises(dv.BetaSearchError,
                       match="beta left the search range at 1.000e\\+02"):
        dv.BetaBracket(bounded).step(10.0, raise_beta=True)
    with pytest.raises(dv.BetaSearchError, match="at 1.000e-01"):
        dv.BetaBracket(bounded).step(1.0, raise_beta=False)


def test_manifest_lists_only_the_checks_the_run_made(tmp_path):
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(9), 5,
                            0.01, 1)
    for rep, checked in ((dv.run_ggn(prob, data, dv.GgnConfig(max_depth=4)),
                          True),
                         (bl.run_nt(prob, data, bl.NtConfig(max_depth=4)),
                          False)):
        out = tmp_path / rep.method
        dv.write_run_report(rep, out)
        manifest = (out / "manifest.txt").read_text()
        assert f"method = {rep.method}" in manifest
        assert ("max_identity_dev = " in manifest) == checked
        assert ("monotonicity_ok = True" in manifest) == checked
        assert "monotonicity_ok = False" not in manifest


def test_each_row_evaluates_i1h_once(monkeypatch):
    """Every row after init evaluates the field route of I1h once: each
    is appended by ``_Run.log``, which evaluates it."""
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(9), 5,
                            0.01, 1)
    calls = []
    i1h = est.compute_i1h
    monkeypatch.setattr(est, "compute_i1h",
                        lambda sol: calls.append(sol) or i1h(sol))
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=4))
    assert any(r.phase == "accept" for r in rep.rows)
    assert len(calls) == len(rep.rows) - 1


@pytest.mark.parametrize("obs", [pb.PointObs(9), pb.L2Obs()],
                         ids=["point", "l2"])
def test_one_riesz_solve_per_base_point(monkeypatch, obs):
    """The init row and each accepted step solve one Riesz problem: the
    state term at the new pair gives both the step's I4h and the next
    gate I3h."""
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 5, 0.01, 1)
    calls = []
    riesz = fem.riesz_dual_norm
    monkeypatch.setattr(fem, "riesz_dual_norm",
                        lambda V, r: calls.append(V) or riesz(V, r))
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=4))
    assert rep.termination == "discrepancy" and rep.outer_iterations >= 2
    assert len(calls) == rep.outer_iterations + 1


def test_immediate_stop_on_huge_delta():
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(5),
                            5, 0.0, 1)
    # fake a huge noise level: tau^2 delta^2 above the initial I3h
    data.delta = 100.0
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=4))
    assert rep.termination == "discrepancy"
    assert rep.outer_iterations == 0
    assert np.abs(rep.q_final.coeffs).max() == 0.0


def test_run_reproducible(sims):
    data = sims(zeta=100.0, p=0.01, seed=2)
    prob = pb.ModelProblem(zeta=100.0)
    r1 = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=5))
    r2 = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=5))
    assert len(r1.rows) == len(r2.rows)
    for a, b in zip(r1.rows, r2.rows):
        assert a.phase == b.phase and a.nodes == b.nodes
        assert a.beta == b.beta
        assert (a.i2h == b.i2h) or (np.isnan(a.i2h) and np.isnan(b.i2h))
    assert r1.control_error == r2.control_error


def test_run_invariants(ggn_runs):
    rep = ggn_runs(zeta=100.0, p=0.01, seed=1)
    assert rep.termination == "discrepancy"
    # rho nondecreasing along the run
    rhos = [r.rho for r in rep.rows if not np.isnan(r.rho)]
    assert all(a <= b + 1e-15 for a, b in zip(rhos, rhos[1:]))
    # node counts never decrease (meshes form a nested chain)
    nodes = [r.nodes for r in rep.rows]
    assert all(a <= b for a, b in zip(nodes, nodes[1:]))
    # the literal stopping test
    assert rep.i3h_final <= dv.GgnConfig().tau**2 * rep.delta**2
    # every accepted step passed the eta1 gate or carries a waiver warning
    cfg = dv.GgnConfig()
    accepted = [r for r in rep.rows if r.phase == "accept"]
    for r in accepted:
        gate = cfg.eta1_gate_coefficient() * r.i3h
        assert abs(r.eta1) <= gate or rep.warnings
    # qualitative trajectory: the linearized misfit drops over the run and
    # the regularization search interleaves updates with refinements
    assert accepted[-1].i2h < accepted[0].i2h
    phases = {r.phase for r in rep.rows}
    assert "beta" in phases
    assert phases & {"refine1", "refine2"}


def test_beta_search_returns_inband_directly():
    """If I2h is already in the band the solve is accepted without a
    single beta update."""
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(9),
                            6, 0.01, 11)
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=5))
    # the first accepted step of this configuration needs no beta row at k=0
    k0 = [r for r in rep.rows if r.k == 0 and r.phase == "beta"]
    assert k0 == []
    assert rep.rows[1].phase == "solve"


def test_beta_search_grid_oracle():
    """The band-hitting beta agrees with a brute-force scan on a log grid:
    the accepted beta lies in the band and no coarser grid point below it
    does (monotone misfit)."""
    from ggnfem import subsolver as ss

    prob = pb.ModelProblem(zeta=10.0)
    mesh = uniform_mesh(3)
    V, Q = vspace(mesh), qspace(mesh)
    obs = pb.PointObs(3)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), obs, 5, 0.02, 6)

    def i2_of(beta):
        sub = ss.build_subproblem(prob, mesh, Q.zeros(), V.zeros(), Q.zeros(),
                                  obs, data.g_delta)
        return ss.solve_kkt(sub, beta).misfit_sq()

    i3 = float(data.g_delta @ data.g_delta)  # initial I3h with zero fields
    cfg = dv.GgnConfig()
    lo, hi = cfg.theta_low * i3, cfg.theta_high * i3
    grid = np.logspace(-2, 10, 61)
    vals = np.array([i2_of(float(b)) for b in grid])
    in_band = (vals >= lo) & (vals <= hi)
    assert in_band.any()
    # driver search from beta0=10 on the same frozen instance
    run = dv._Run(prob, data, dv.GgnConfig(max_depth=3))
    run.i3h = i3
    sol = run.beta_search(run.solve())
    assert lo <= sol.misfit_sq() <= hi
    # consistency with the monotone scan: the accepted beta is inside the
    # beta-interval bracketed by the grid's band membership
    b_lo = grid[in_band].min()
    b_hi = grid[in_band].max()
    assert b_lo / 10**0.21 <= run.beta <= b_hi * 10**0.21


def test_monotonicity_check_and_negative_control(sims):
    data = sims(zeta=100.0, p=0.04, seed=1)
    prob = pb.ModelProblem(zeta=100.0)
    # healthy run satisfies the bound at every accepted iterate
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=5))
    assert rep.monotonicity and all(rep.monotonicity)
    # k = 0 with the zero initial guess trivially satisfies the bound
    q0 = qspace(uniform_mesh(2)).zeros()
    u0 = vspace(uniform_mesh(2)).zeros()
    assert dv.check_monotonicity(q0, u0, q0, data)
    # sabotaged tau drives the iteration far past the noise level and the
    # distance bound is violated and flagged
    cfg = dv.GgnConfig(tau=0.5, enforce_assumptions=False, max_depth=4,
                       max_outer=25)
    rep_bad = dv.run_ggn(prob, data, cfg)
    assert rep_bad.monotonicity and not all(rep_bad.monotonicity)


@pytest.mark.parametrize("case,obs", [("a", "l2"), ("b", "point"),
                                      ("c", "point")])
def test_other_configurations_smoke(case, obs):
    prob = pb.ModelProblem(zeta=100.0)
    observation = pb.L2Obs() if obs == "l2" else pb.PointObs(9)
    data = pb.simulate_data(prob, pb.synthetic_case(case), observation,
                            7, 0.01, 1)
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=5))
    assert rep.termination == "discrepancy"
    assert all(rep.monotonicity)
    assert rep.control_error < 1.0


def test_inner_pass_cap_ends_the_run():
    """With no inner pass allowed, the first outer iteration ends the run
    at the cap with its warning, before any step."""
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(5),
                            5, 0.01, 1)
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=4, max_inner=0))
    assert rep.termination == "iteration-cap" and rep.outer_iterations == 0
    assert rep.warnings == ["inner pass cap reached without a step"]


def test_shallow_fine_mesh_warns():
    prob = pb.ModelProblem(zeta=1.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(5),
                            4, 0.02, 1)
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=4))
    assert any("does not exceed" in w for w in rep.warnings)


def test_report_files(tmp_path, ggn_runs):
    rep = ggn_runs(zeta=100.0, p=0.01, seed=1)
    dv.write_run_report(rep, tmp_path / "out", config_text="x = 1\n")
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert report[0].split(",")[:4] == ["k", "phase", "nodes", "beta"]
    assert len(report) == 1 + len(rep.rows)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "termination = discrepancy" in manifest
    assert "config_hash =" in manifest
    for name in ("q_final.vtk", "u_final.vtk", "q_final.csv",
                 "mesh_final.vtk"):
        assert (tmp_path / "out" / name).exists()


def _cache_entries(mesh):
    entries = fem._CONTEXTS.get(mesh, {})
    return sum(len(v) if isinstance(v, weakref.WeakKeyDictionary) else 1
               for v in entries.values())


def test_caches_flat_over_sequential_runs():
    """Twenty L^2 runs sharing one truth: nothing accumulates on the
    simulation mesh, and solver-mesh caches die with their meshes."""
    prob = pb.ModelProblem(zeta=100.0)
    case = pb.synthetic_case("a")
    truth = pb.simulate_truth(prob, case, 5)
    cfg = dv.GgnConfig(max_depth=4)
    entries, contexts = [], []
    for seed in range(20):
        data = pb.simulate_data(prob, case, pb.L2Obs(), 5, 0.01, seed,
                                truth=truth)
        dv.run_ggn(prob, data, cfg)
        del data
        gc.collect()
        entries.append(_cache_entries(truth[0].mesh))
        contexts.append(len(fem._CONTEXTS))
    assert entries[0] > 0
    assert len(set(entries)) == 1
    assert len(set(contexts)) == 1


def test_runs_patch_no_attributes():
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.L2Obs(), 5,
                            0.01, 1)
    reports = [dv.run_ggn(prob, data, dv.GgnConfig(max_depth=4)),
               bl.run_nt(prob, data, bl.NtConfig(max_depth=4))]
    fields = [f for r in reports for f in (r.q_final, r.u_final)]
    fields += [data.q_true, data.u_true, data.g_delta]
    for f in fields:
        fresh = Field(Space(f.mesh, f.space.kind), f.coeffs)
        assert vars(f).keys() == vars(fresh).keys()
        assert vars(f.space).keys() == vars(fresh.space).keys()
        assert vars(f.mesh).keys() == vars(QuadMesh(f.mesh.cells)).keys()
    names = {f.name for f in dataclasses.fields(dv.RunReport)}
    for r in reports:
        assert vars(r).keys() == names


def _minus(a, b):
    """a - b on a's mesh, which must refine b's."""
    return Field(a.space, a.coeffs - interpolate_onto(b, a.mesh).coeffs)


def _fine_route_control_error(q_h, data):
    """Reference: |q_true - q_h| with q_h interpolated onto the
    simulation mesh, or q_true onto q_h's mesh where that is finer."""
    qt = data.q_true
    try:
        return _minus(qt, q_h).norm_l2() / qt.norm_l2()
    except ValueError:
        qt_c = interpolate_onto(qt, q_h.mesh)
        return _minus(q_h, qt_c).norm_l2() / qt_c.norm_l2()


def _fine_route_monotonicity_rhs(q0, data):
    """|q_true - q0|^2 on the simulation mesh plus u_true' K u_true, with
    K assembled there (and not cached)."""
    u = data.u_true
    return (_minus(data.q_true, q0).norm_l2() ** 2
            + u.coeffs @ (fem.assemble_stiffness(u.space) @ u.coeffs))


def test_moment_diagnostics_match_fine_mesh_route(ggn_runs, sims):
    rep = ggn_runs(zeta=100.0, p=0.01, seed=1)
    data = sims(zeta=100.0, p=0.01, seed=1)
    assert len(rep.q_final.mesh.hanging)
    ref = _fine_route_control_error(rep.q_final, data)
    got = dv.relative_control_error(rep.q_final, data)
    assert abs(got - ref) <= 1e-10 * ref
    coarse = uniform_mesh(3)
    for q0 in (qspace(coarse).interpolate(lambda x, y: 40.0 * x * (1 - y)),
               rep.q_final):
        ref = _fine_route_monotonicity_rhs(q0, data)
        got = dv.monotonicity_rhs(q0, data)
        assert abs(got - ref) <= 1e-10 * ref


def test_exact_pair_keeps_one_mass_table_each():
    """After an L^2 run the exact state keeps no moment table, only its
    H^1 seminorm, and q_true and g_delta keep their mass table alone."""
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.L2Obs(), 5,
                            0.01, 1)
    assert dv.run_ggn(prob, data, dv.GgnConfig(max_depth=4)).monotonicity

    def tables(f):
        return {key for key in fem._CONTEXTS.get(f, {}) if key[0] == "moments"}

    assert tables(data.u_true) == set()
    assert tables(data.q_true) == tables(data.g_delta) == {("moments",)}
    assert (fem._CONTEXTS[data.u_true][("norm_h1semi",)]
            == data.u_true.norm_h1semi())


def _cellwise_dist_sq(f, g, mesh):
    """|f - g|^2 summed over the cells of a mesh on which both are
    bilinear, from their values at the cell corners."""
    xy = mesh.vertices[mesh.cell_corners].reshape(-1, 2)
    d = (f.eval_points(xy) - g.eval_points(xy)).reshape(-1, 4)
    return np.einsum("c,ci,ij,cj->", mesh.cell_sizes() ** 2, d,
                     fem._ELEMENT["mass"], d)


def test_control_error_on_leaves_finer_than_the_truth():
    prob = pb.ModelProblem(zeta=1.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(5), 3,
                            0.0, 1)
    qt = data.q_true

    def q_on(mesh):
        return qspace(mesh).interpolate(lambda x, y: 30.0 * np.sin(9 * x * y))

    # Finer everywhere: the fine-mesh route compares on q_h's mesh.
    finer = refine(uniform_mesh(4), [0, 17])
    q_h = q_on(finer)
    ref = _fine_route_control_error(q_h, data)
    assert abs(dv.relative_control_error(q_h, data) - ref) <= 1e-10 * ref
    # Finer in places, coarser in others: neither mesh refines the other,
    # and the reference integrates over the cells of their common refinement.
    mixed = refine(uniform_mesh(2), [0, 1])
    mixed = refine(mixed, [0])
    q_h = q_on(mixed)
    assert mixed.max_level > qt.mesh.max_level > mixed.cells[:, 0].min()
    with pytest.raises(ValueError):
        _fine_route_control_error(q_h, data)
    common = QuadMesh(np.unique(np.concatenate(
        [mixed.cells[mixed.cells[:, 0] >= 3], qt.mesh.cells[
            mixed.cells[np.searchsorted(mixed.codes, qt.mesh.codes,
                                        side="right") - 1, 0] < 3]]), axis=0))
    ref = np.sqrt(_cellwise_dist_sq(qt, q_h, common)
                  / _cellwise_dist_sq(qt, qt.space.zeros(), qt.mesh))
    assert abs(dv.relative_control_error(q_h, data) - ref) <= 1e-10 * ref


def test_run_with_solver_leaves_finer_than_the_truth():
    prob = pb.ModelProblem(zeta=1.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.PointObs(5), 4,
                            0.01, 1)
    rep = dv.run_ggn(prob, data, dv.GgnConfig(max_depth=6))
    assert rep.termination == "discrepancy"
    assert rep.q_final.mesh.max_level > 4 and all(rep.monotonicity)
    assert 0.0 < rep.control_error < 1.0


def test_solver_mesh_contexts_stay_few_over_refinements(monkeypatch):
    """Only the current mesh's restricted data is kept: the solver meshes
    alive at the end of an L^2 run (GGN or NT) do not grow with the
    number of refinements."""
    prob = pb.ModelProblem(zeta=100.0)
    data = pb.simulate_data(prob, pb.synthetic_case("a"), pb.L2Obs(), 5,
                            0.003, 1)
    before = weakref.WeakSet(
        k for k in list(fem._CONTEXTS.keys()) if isinstance(k, QuadMesh))
    live = []

    def count():
        gc.collect()
        live.append(sum(isinstance(k, QuadMesh) and k not in before
                        for k in list(fem._CONTEXTS.keys())))

    # Every run, GGN or NT, builds exactly one report, at its end.
    init = dv.RunReport.__init__
    monkeypatch.setattr(dv.RunReport, "__init__",
                        lambda rep, **kw: count() or init(rep, **kw))
    runs = [lambda: dv.run_ggn(prob, data, dv.GgnConfig(max_depth=5)),
            lambda: bl.run_nt(prob, data, bl.NtConfig(max_depth=5))]
    for run in runs:  # no report of an earlier run is alive
        assert sum(r.phase.startswith("refine") for r in run().rows) >= 8
    assert len(live) == len(runs)
    assert all(n <= 2 for n in live)  # the start mesh and the current mesh
