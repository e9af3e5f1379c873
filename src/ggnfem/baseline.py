"""Reduced nonlinear-Tikhonov reference solver.

Minimizes |C(S(q)) - g_delta|_G^2 + (1/beta) |q - q0|_Q^2 over the
parameter alone, so every inner Gauss-Newton iteration pays for a full
nonlinear forward solve.  Each such solve starts Newton from the best
state at hand: the linearized state of the Gauss-Newton step, or the
last state, interpolated onto a refined mesh (exact: the meshes are
nested).  beta is driven by the driver's ``BetaBracket`` into the band
[tau_low^2 delta^2, tau_up^2 delta^2] on the nonlinear discrepancy, and
the driver's ``refined`` refines the mesh by a dual-weighted indicator
of the Tikhonov functional at the Gauss-Newton fixed point.  The
stopping threshold matches the linearized solver's comparison protocol;
the estimator cascade here is deliberately simpler than the historical
reduced algorithm it stands in for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators as est, fem, problem as pb, subsolver as ss
from .driver import (AdaptiveConfig, BetaBracket, RunReport, RunRow, _Run,
                     refined)
from .fem import Field, interpolate_onto, qspace, vspace
from .mesh import refine  # noqa: F401  (bound here for tracing)

__all__ = ["NtConfig", "run_nt"]

STEP_FLOOR = 1.0 / 32.0  # the smallest step of a fit's line search


@dataclass
class NtConfig(AdaptiveConfig):
    """Parameters of the reduced reference solver."""

    tau_tilde: float = 0.1
    tau_low: float = 3.1
    tau_up: float = 5.0
    gn_tol: float = 1e-6
    gn_cap: int = 25
    max_passes: int = 60
    max_refines: int = 8
    forward_tol: float = 1e-10

    def __post_init__(self):
        if not (self.tau_low < self.tau_up and self.gn_cap >= 0):
            raise ValueError("need tau_low < tau_up and gn_cap >= 0")


def _gn_fit(problem, obs, g, mesh, beta, q_start, u_warm, cfg):
    """Damped Gauss-Newton on the reduced Tikhonov functional.

    Every iteration solves the nonlinear state equation; the step is the
    all-at-once KKT solve at the exactly-solved base point (the state
    residual vanishes there, which makes the two formulations agree).
    The forward solve at q + t dq starts Newton from u + t v, v the state
    increment of that KKT solve, which is S(q + t dq) to O(t^2).
    Returns the fixed point with the KKT solution at it, the number of
    forward solves, and whether the step fell to gn_tol before
    gn_cap iterations.
    """
    V, Q = vspace(mesh), qspace(mesh)
    q = interpolate_onto(q_start, mesh)
    q0 = Q.zeros()
    C = obs.matrix(V)
    u = pb.solve_forward(problem, q, V, tol=cfg.forward_tol, u_init=u_warm)

    def j_value(q_f, u_f):
        m = C @ u_f.coeffs - g
        mis = float(m @ obs.gram(Q, m))
        dq = q_f.coeffs - q0.coeffs
        return mis + (dq @ (Q.mass() @ dq)) / beta, mis

    j_old, disc2 = j_value(q, u)
    n_forward, rel_change = 1, np.inf
    for it in range(cfg.gn_cap + 1):
        sol = ss.solve_kkt(
            ss.build_subproblem(problem, mesh, q, u, q0, obs, g), beta)
        if rel_change <= cfg.gn_tol or it == cfg.gn_cap:
            break  # the fixed-point triple for the indicator
        dq = sol.q.coeffs - q.coeffs
        # Where the linearized model predicts no decrease, start at the floor.
        pred = j_old - sol.misfit_sq() - est._reg_term(sol)
        step = 1.0 if pred > 0 else STEP_FLOOR
        while True:
            q_c = Field(Q, q.coeffs + step * dq)
            u_c = pb.solve_forward(
                problem, q_c, V, tol=cfg.forward_tol,
                u_init=Field(V, u.coeffs + step * sol.v.coeffs))
            n_forward += 1
            j_new, disc2_c = j_value(q_c, u_c)
            if j_new <= j_old or step <= STEP_FLOOR:
                break
            step *= 0.5
        rel_change = np.abs(step * dq).max() / max(1.0, np.abs(q.coeffs).max())
        q, u, j_old, disc2 = q_c, u_c, j_new, disc2_c
    return q, u, sol, disc2, n_forward, rel_change <= cfg.gn_tol


def run_nt(problem: pb.ModelProblem, data: pb.NoisyData, cfg: NtConfig) -> RunReport:
    """Nonlinear-Tikhonov run on the same data as the linearized solver,
    in the driver's run state; rho, I3h and the GGN checks stay unset."""
    run = _Run(problem, data, cfg, None)
    delta2 = data.delta**2
    band = (cfg.tau_low**2 * delta2, cfg.tau_up**2 * delta2)
    bracket = BetaBracket(cfg)
    termination = "iteration-cap"
    total_forward = 0
    capped = False  # warned of a refine that max_refines skipped

    try:
        for _ in range(cfg.max_passes):
            run.q_old, run.u_old, sol, disc2, nf, converged = _gn_fit(
                problem, data.obs, run.observed(run.mesh), run.mesh,
                run.beta, run.q_old, run.u_old, cfg)
            total_forward += nf
            k = bracket.steps + bracket.refines
            if not converged:
                run.warnings.append(
                    f"k={k}: Gauss-Newton fit stopped at "
                    f"gn_cap={cfg.gn_cap} without meeting "
                    f"gn_tol={cfg.gn_tol:g}")
            eta, ind = est.estimate_eta1(sol)
            reg = est._reg_term(sol)
            run.rows.append(RunRow(
                k=k, phase="solve", nodes=run.mesh.n_vertices, beta=run.beta,
                i1h=disc2 + reg, i2h=disc2, eta1=eta,
                stationarity=sol.stationarity))
            # Accuracy gate: relative while the discrepancy is large, at
            # the noise scale once decisions happen near the band.
            gate = cfg.tau_tilde * max(disc2, cfg.tau_low**2 * delta2)
            if ind.sum() > gate and bracket.refines < cfg.max_refines:
                new_mesh = refined(run.mesh, ind, cfg)
                if new_mesh is not None:
                    run.rows[-1].phase = "refine1"
                    run.mesh = new_mesh
                    bracket.reopen()
                    continue
            elif ind.sum() > gate and not capped:
                capped = True
                run.warnings.append(
                    f"k={k}: refine skipped at max_refines={cfg.max_refines} "
                    f"(indicator sum {ind.sum():.3e} > gate {gate:.3e})")
            if band[0] <= disc2 <= band[1]:
                termination = "discrepancy"
                run.rows[-1].phase = "accept"
                break
            bracket.count("beta search exhausted in the reduced solver")
            run.rows[-1].phase = "beta"
            run.beta = bracket.step(run.beta, disc2 > band[1])
    except fem.SolverError as exc:
        run.warnings.append(str(exc))
        termination = exc.reason

    run.k = bracket.steps
    return run.finalize(termination, method="NT",
                        total_forward_solves=total_forward)
