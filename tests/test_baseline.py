import numpy as np
import pytest

from ggnfem import baseline as bl, problem as pb, subsolver as ss
from ggnfem.fem import qspace, vspace
from ggnfem.mesh import uniform_mesh


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
                              obs, data.g_delta, beta)
    sol = ss.solve_kkt(sub)
    q_nt, u_nt, _, _, _, _ = bl._gn_fit(prob, obs, data.g_delta, mesh, beta,
                                        Q.zeros(), None,
                                        bl.NtConfig(coarse_levels=3))
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
