"""Outer Gauss-Newton loop with adaptive refinement.

Each outer index k keeps a frozen gate value I3h (misfit plus weighted
state-residual dual norm at the base point, evaluated on the mesh that
was current when the base point was accepted).  One pass through the
loop performs exactly one of:

  * a regularization-parameter search, when the linearized misfit I2h
    is outside the band [theta_low, theta_high] * I3h (``BetaBracket``
    on log10(beta), with eta2-driven refinement when the estimated
    discretization error of I2h exceeds its accuracy gate);
  * one eta1-driven refinement, when the eta1 accuracy gate is
    violated (refine or step, never both);
  * a Gauss-Newton step: the base point moves to (q_h, u_old + v_h),
    a fresh adjoint updates the penalty weight rho monotonically, and
    the mesh carries over to the next iteration.

The run stops at the first k with I3h <= tau^2 delta^2.  Its untimed
diagnostics (control error, monotonicity) read q_true's cell moments on
the solver mesh and u_true's norm, computed once, never the simulation
mesh.  The NT baseline shares the run state ``_Run`` (with its
data-vector cache), the refine rule ``refined`` and ``BetaBracket``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import estimators as est, fem, problem as pb, subsolver as ss
from .fem import Field, interpolate_onto, qspace, vspace, write_mesh_vtk
from .mesh import refine, uniform_mesh

__all__ = [
    "AdaptiveConfig",
    "GgnConfig",
    "RunRow",
    "RunReport",
    "BetaSearchError",
    "mark_fraction",
    "BetaBracket",
    "run_ggn",
    "check_monotonicity",
    "relative_control_error",
    "write_run_report",
]


class BetaSearchError(fem.SolverError):
    reason = "beta-search-failure"


@dataclass
class AdaptiveConfig:
    """Parameters both solvers read through the shared pieces: ``_Run``
    (coarse mesh, beta0), ``refined`` and ``BetaBracket``."""

    beta0: float = 10.0
    coarse_levels: int = 2
    max_depth: int = 6
    max_beta_steps: int = 30
    marking_fraction: float = 0.3
    beta_min: float = 1e-10
    beta_max: float = 1e14


@dataclass
class GgnConfig(AdaptiveConfig):
    """Parameters of the outer loop; defaults follow the reference setup."""

    tau: float = 5.0
    tau_beta: float = 1.66
    tau_beta_tilde: float = 1.0
    theta_low: float = 0.2
    theta_high: float = 0.4999
    c_tc: float = 1e-7
    c2: float = 0.9999
    c3: float = 1e-4
    max_outer: int = 30
    max_inner: int = 12
    max_refine_per_search: int = 4
    enforce_assumptions: bool = True

    def __post_init__(self):
        if self.enforce_assumptions:
            self.validate()

    @property
    def theta_tilde(self) -> float:
        return 0.5 * (self.theta_low + self.theta_high)

    def eta1_gate_coefficient(self) -> float:
        c = self.c_tc
        return self.theta_low - 2.0 * (2.0 * c**2 + (1.0 + 2.0 * c) ** 2 / self.tau**2)

    def validate(self) -> None:
        c = self.c_tc
        if not (0.0 < self.theta_low <= self.theta_high < 1.0):
            raise ValueError("need 0 < theta_low <= theta_high < 1")
        if not 2.0 * (c**2 + (1.0 + c) ** 2 / self.tau**2) < self.theta_low:
            raise ValueError("tau too small for theta_low")
        if not (2.0 * self.theta_high + 4.0 * c**2) / (1.0 - 4.0 * c**2) < 1.0:
            raise ValueError("theta_high too large")
        if not max(1.0, self.tau_beta_tilde) < self.tau_beta <= self.tau:
            raise ValueError("need max(1, tau_beta_tilde) < tau_beta <= tau")
        contraction = (1.0 + self.c3) * (2.0 * self.theta_high + 4.0 * c**2) / (
            1.0 - 4.0 * c**2
        )
        if not contraction <= self.c2 < 1.0:
            raise ValueError("c2/c3 violate the contraction condition")
        if self.eta1_gate_coefficient() <= 0:
            raise ValueError("eta1 gate coefficient is not positive")


@dataclass
class RunRow:
    k: int
    phase: str
    nodes: int
    beta: float
    rho: float = float("nan")
    i1h: float = float("nan")
    i2h: float = float("nan")
    i3h: float = float("nan")
    i4h: float = float("nan")
    eta1: float = float("nan")
    eta2: float = float("nan")
    stationarity: tuple = (float("nan"),) * 3  # KKT residuals (q, v, z)


@dataclass
class RunReport:
    rows: list
    q_final: Field
    u_final: Field
    beta_final: float
    nodes_final: int
    outer_iterations: int
    termination: str
    wall_time: float
    delta: float
    control_error: float
    max_identity_dev: float  # NaN if no identity check was made (NT)
    monotonicity: list  # empty if no check was made (NT)
    i3h_final: float = float("nan")
    warnings: list = dc_field(default_factory=list)
    method: str = "GGN"
    total_forward_solves: int = 0  # nonlinear forward solves (NT only)


def mark_fraction(indicators: np.ndarray, fraction: float):
    """Smallest cell set carrying at least the given indicator mass."""
    total = float(indicators.sum())
    if total <= 0.0:
        return []
    order = np.argsort(indicators)[::-1]
    acc = np.cumsum(indicators[order])
    return order[:np.searchsorted(acc, fraction * total) + 1].tolist()


def refined(mesh, indicators: np.ndarray, cfg):
    """``mesh`` with the cells carrying ``cfg.marking_fraction`` of the
    indicator mass split, up to level ``cfg.max_depth``; None when every
    marked cell is already at that level."""
    new_mesh = refine(mesh, mark_fraction(indicators, cfg.marking_fraction),
                      max_level=cfg.max_depth)
    return None if new_mesh is mesh else new_mesh


class BetaBracket:
    """Bracket/bisect on log10(beta) until a misfit that decreases in
    beta lands in its band.

    ``lo``/``hi`` bracket the band from below/above (None while open); a
    misfit above the band raises beta.  A step widens by one decade until
    the bracket closes, then bisects, and never goes below the floor.
    At most ``cfg.max_beta_steps`` steps are taken, each to a beta in
    ``[cfg.beta_min, cfg.beta_max]``; BetaSearchError otherwise.
    """

    def __init__(self, cfg, floor: float = 0.0):
        self.cfg = cfg
        self.floor = np.log10(floor) if floor > 0.0 else -np.inf
        self.steps = self.refines = 0
        self.lo = self.hi = None

    def reopen(self):
        """Count a refine and forget the bracket: the refine moved the
        misfit curve."""
        self.refines += 1
        self.lo = self.hi = None

    def at_floor(self, beta: float) -> bool:
        return np.log10(beta) <= self.floor + 1e-12

    def count(self, failure: str):
        """Count one step, or fail with ``failure`` ("{cap}" names the
        step cap) when the cap is reached."""
        if self.steps >= self.cfg.max_beta_steps:
            raise BetaSearchError(failure.format(cap=self.cfg.max_beta_steps))
        self.steps += 1

    def step(self, beta: float, raise_beta: bool) -> float:
        """The next beta after ``beta``, whose misfit is above the band
        (``raise_beta``) or below it."""
        lb = np.log10(beta)
        if raise_beta:
            self.lo = lb if self.lo is None else max(self.lo, lb)
            lb = 0.5 * (self.lo + self.hi) if self.hi is not None else lb + 1.0
        else:
            self.hi = lb if self.hi is None else min(self.hi, lb)
            lb = 0.5 * (self.lo + self.hi) if self.lo is not None else lb - 1.0
        beta = 10.0**max(lb, self.floor)
        if not (self.cfg.beta_min <= beta <= self.cfg.beta_max):
            raise BetaSearchError(f"beta left the search range at {beta:.3e}")
        return beta


def _dist_sq(fine: Field, f: Field):
    """(|fine - f|_L2^2, |fine|_L2^2), the cross term from fine's cell
    moments on f's mesh."""
    moments, own = fem.cell_moments(fine, f.mesh)
    cross = np.sum(moments * f.full_values()[f.mesh.cell_corners])
    return max(own - 2.0 * cross + f.coeffs @ (f.space.mass() @ f.coeffs),
               0.0), own


def relative_control_error(q_h: Field, data: pb.NoisyData) -> float:
    """|q_h - q_true|_Q / |q_true|_Q, from the mass moments of q_true on
    q_h's mesh (``_dist_sq``); exact also where q_h's mesh is finer."""
    d2, qt2 = _dist_sq(data.q_true, q_h)
    return float(np.sqrt(d2 / qt2))


def monotonicity_rhs(q0: Field, data: pb.NoisyData) -> float:
    """|q_true - q0|_Q^2 + |u_true|_V^2: the first from q_true's mass
    moments (``_dist_sq``), the second kept in u_true's context."""
    u_true = data.u_true
    return (_dist_sq(data.q_true, q0)[0]
            + fem._cached(u_true, ("norm_h1semi",), u_true.norm_h1semi) ** 2)


def check_monotonicity(q_h: Field, u_h: Field, q0: Field,
                       data: pb.NoisyData) -> bool:
    """Distance-to-initial-guess bound of a run from (q0, 0) against the
    exact pair: |q_h - q0|_Q^2 + |u_h|_V^2 <= |q_true - q0|^2 +
    |u_true|^2, with the V-norm taken as the H^1_0 seminorm."""
    dq = Field(q_h.space, q_h.coeffs - interpolate_onto(q0, q_h.mesh).coeffs)
    lhs = dq.norm_l2() ** 2 + u_h.norm_h1semi() ** 2
    return lhs <= monotonicity_rhs(q0, data) * (1.0 + 1e-12)


class _Run:
    """Mutable state of one run.  NT (``baseline.run_nt``) keeps its mesh,
    beta, iterate, rows, warnings and data vector here too; the rest
    is GGN's."""

    def __init__(self, problem, data, cfg):
        if not 0.0 < cfg.beta_min <= cfg.beta0 <= cfg.beta_max:
            raise ValueError("need 0 < beta_min <= beta0 <= beta_max")
        if not 0.0 < cfg.marking_fraction <= 1.0:
            raise ValueError("need 0 < marking_fraction <= 1")
        if not 1 <= cfg.coarse_levels <= cfg.max_depth:
            raise ValueError("need 1 <= coarse_levels <= max_depth")
        if cfg.max_beta_steps < 0:
            raise ValueError("need max_beta_steps >= 0")
        self.problem = problem
        self.data = data
        self.cfg = cfg
        self.t0 = time.perf_counter()
        self.mesh = uniform_mesh(cfg.coarse_levels)
        # mesh -> the data vector on it (``obs.restrict``), cached for the
        # latest mesh only (an entry would keep its mesh alive)
        self.observed = functools.lru_cache(maxsize=1)(
            lambda mesh: data.obs.restrict(data, mesh))
        self.rows: list[RunRow] = []
        self.identity_devs: list[float] = []
        self.monotonicity: list[bool] = []
        self.warnings: list[str] = []
        if data.fine_levels <= cfg.max_depth:
            self.warnings.append(
                f"fine mesh level {data.fine_levels} does not exceed "
                f"solver depth {cfg.max_depth}")
        self.q_old = self.q0 = qspace(self.mesh).zeros()
        self.u_old = vspace(self.mesh).zeros()
        self.beta = cfg.beta0
        self.beta_floor = cfg.beta0
        self.sub = None  # subproblem at the current mesh and base point
        self.rho = self.i3h = float("nan")  # set by start()
        self.k = 0

    def start(self):
        """Penalty weight rho and gate I3h at the initial point, logged
        as the init row."""
        sub = self.subproblem()
        self.rho = ss.adjoint_at_base(sub).norm_h1semi()
        self.i3h, _ = est.compute_i3h(sub, self.rho)
        self.rows.append(RunRow(
            k=0, phase="init", nodes=self.mesh.n_vertices, beta=self.beta,
            rho=self.rho, i3h=self.i3h))

    def subproblem(self):
        # Operators depend on (mesh, base point) only: beta trials share
        # one subproblem.
        sub = self.sub
        if (sub is None or sub.mesh is not self.mesh
                or sub.q_old is not self.q_old or sub.u_old is not self.u_old):
            self.sub = sub = ss.build_subproblem(
                self.problem, self.mesh, self.q_old, self.u_old, self.q0,
                self.data.obs, self.observed(self.mesh))
        return sub

    def solve(self):
        return ss.solve_kkt(self.subproblem(), self.beta)

    def log(self, phase, sol, check_identity=False, **estimates):
        i2h = sol.misfit_sq()
        i1h, reg = est.compute_i1h(sol)
        if check_identity:
            self.identity_devs.append(abs(i1h - i2h - reg))
        self.rows.append(RunRow(
            k=self.k, phase=phase, nodes=self.mesh.n_vertices, beta=self.beta,
            rho=self.rho, i1h=i1h, i2h=i2h, i3h=self.i3h,
            stationarity=sol.stationarity, **estimates))

    def in_band(self, i2h):
        return (self.cfg.theta_low * self.i3h <= i2h
                <= self.cfg.theta_high * self.i3h)

    def beta_search(self, sol):
        """``BetaBracket`` steps until I2h, nonincreasing in beta, lands
        in the band, starting from the solution ``sol`` at the current
        beta; when |eta2| exceeds its accuracy gate, the mesh is
        refined with respect to the eta2 indicators instead (refine or
        update, never both per pass).

        The regularization weight 1/beta never increases across
        accepted steps: beta is floored at the last accepted value.  If
        the band's lower edge is unreachable at the floor (the state
        residual of the previous step inflated I3h transiently), the
        floored solution is returned and the outer loop proceeds.
        """
        cfg = self.cfg
        bracket = BetaBracket(cfg, floor=self.beta_floor)
        delta_beta_sq = cfg.theta_tilde * self.i3h
        gate2 = 0.5 * cfg.tau_beta_tilde**2 * delta_beta_sq
        while True:
            i2h = sol.misfit_sq()
            eta2, ind2 = est.estimate_eta2(sol, ss.solve_second_order(sol))
            # The accuracy conditions constrain upper bounds on |I - I_h|;
            # the cellwise-absolute sum is the computable surrogate.
            if (ind2.sum() > gate2
                    and bracket.refines < cfg.max_refine_per_search):
                new_mesh = refined(self.mesh, ind2, cfg)
                if new_mesh is not None:
                    self.log("refine2", sol, eta2=eta2)
                    self.mesh = new_mesh
                    bracket.reopen()
                    sol = self.solve()
                    continue
            if self.in_band(i2h):
                return sol
            if i2h < cfg.theta_low * self.i3h and bracket.at_floor(self.beta):
                self.warnings.append(
                    f"k={self.k}: I2h={i2h:.3e} below the band at the "
                    f"beta floor {self.beta_floor:.3e}; accepting")
                return sol
            bracket.count("no beta found in {cap} updates "
                          f"(I2h={i2h:.3e}, I3h={self.i3h:.3e})")
            self.log("beta", sol, eta2=eta2)
            self.beta = bracket.step(self.beta,
                                     i2h > cfg.theta_high * self.i3h)
            sol = self.solve()

    def finalize(self, termination, **extra):
        wall = time.perf_counter() - self.t0  # reporting excluded
        return RunReport(
            rows=self.rows, q_final=self.q_old, u_final=self.u_old,
            beta_final=self.beta,
            nodes_final=self.mesh.n_vertices, outer_iterations=self.k,
            termination=termination, wall_time=wall, delta=self.data.delta,
            control_error=relative_control_error(self.q_old, self.data),
            max_identity_dev=max(self.identity_devs, default=float("nan")),
            monotonicity=self.monotonicity, i3h_final=self.i3h,
            warnings=self.warnings, **extra)


def run_ggn(problem: pb.ModelProblem, data: pb.NoisyData,
            cfg: GgnConfig) -> RunReport:
    """Full adaptive Gauss-Newton run on one data set, from (q0, u0) = 0.

    A failed solve, factorization, data restriction or beta search, at the
    start or inside the loop, ends the run with the error's termination
    ("kkt-failure", "forward-failure", "restriction-failure" or
    "beta-search-failure"); the message goes to the warnings.
    """
    if cfg.enforce_assumptions:
        cfg.validate()
    run = _Run(problem, data, cfg)
    try:
        run.start()
        termination = _iterate(run)
    except fem.SolverError as exc:
        run.warnings.append(str(exc))
        termination = exc.reason
    return run.finalize(termination)


def _iterate(run: _Run) -> str:
    """Outer loop of run_ggn; returns the termination reason."""
    cfg, data = run.cfg, run.data
    tol = cfg.tau**2 * data.delta**2

    while run.i3h > tol:
        if run.k >= cfg.max_outer:
            return "iteration-cap"
        for _ in range(cfg.max_inner):
            sol = run.solve()
            run.log("solve", sol, check_identity=True)
            if not run.in_band(sol.misfit_sq()):
                sol = run.beta_search(sol)
            eta1, ind1 = est.estimate_eta1(sol)
            gate1 = cfg.eta1_gate_coefficient() * run.i3h
            if ind1.sum() > gate1:
                new_mesh = refined(run.mesh, ind1, cfg)
                if new_mesh is not None:
                    run.log("refine1", sol, eta1=eta1)
                    run.mesh = new_mesh
                    continue
                run.warnings.append(
                    f"k={run.k}: eta1 gate unmet at depth cap "
                    f"(indicator sum {ind1.sum():.3e} > {gate1:.3e}); "
                    "accepting step")
            break
        else:
            run.warnings.append("inner pass cap reached without a step")
            return "iteration-cap"

        # Accept the Gauss-Newton step.
        run.q_old = sol.q
        run.u_old = sol.u
        run.beta_floor = max(run.beta_floor, run.beta)
        run.k += 1
        base = run.subproblem()
        run.rho = max(run.rho, ss.adjoint_at_base(base).norm_h1semi())
        # The state term at the new pair is I4h's and the next gate's.
        i3h, state = est.compute_i3h(base, run.rho)
        run.log("accept", sol, eta1=eta1, i4h=sol.misfit_sq() + state)
        t_diag = time.perf_counter()
        run.monotonicity.append(check_monotonicity(
            run.q_old, run.u_old, run.q0, data))
        run.t0 += time.perf_counter() - t_diag  # diagnostics are untimed
        run.i3h = i3h
    return "discrepancy"


# ---------------------------------------------------------------------------
# report output


_CSV_COLUMNS = ["k", "phase", "nodes", "beta", "rho", "i1h", "i2h", "i3h",
                "i4h", "eta1", "eta2", "stat_q", "stat_v", "stat_z"]


def write_run_report(report: RunReport, outdir, config_text: str = "") -> None:
    """Run CSV, final fields as VTK/CSV, and a plain-text manifest."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for r in report.rows:
            w.writerow([r.k, r.phase, r.nodes] + [
                f"{x:.16g}" for x in (r.beta, r.rho, r.i1h, r.i2h, r.i3h,
                                      r.i4h, r.eta1, r.eta2, *r.stationarity)])
    fem.write_field_vtk(report.q_final, os.path.join(outdir, "q_final.vtk"),
                        name="q")
    fem.write_field_csv(report.q_final, os.path.join(outdir, "q_final.csv"))
    fem.write_field_vtk(report.u_final, os.path.join(outdir, "u_final.vtk"),
                        name="u")
    write_mesh_vtk(report.q_final.mesh, os.path.join(outdir, "mesh_final.vtk"))
    cfg_hash = hashlib.sha256(config_text.encode()).hexdigest()[:16]
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write(f"method = {report.method}\n")
        fh.write(f"config_hash = {cfg_hash}\n")
        fh.write(f"termination = {report.termination}\n")
        fh.write(f"outer_iterations = {report.outer_iterations}\n")
        fh.write(f"beta = {report.beta_final:.16g}\n")
        fh.write(f"nodes = {report.nodes_final}\n")
        fh.write(f"delta = {report.delta:.16g}\n")
        fh.write(f"control_error = {report.control_error:.16g}\n")
        fh.write(f"forward_solves = {report.total_forward_solves}\n")
        fh.write(f"wall_time_s = {report.wall_time:.3f}\n")
        if not np.isnan(report.max_identity_dev):
            fh.write(f"max_identity_dev = {report.max_identity_dev:.3e}\n")
        if report.monotonicity:
            fh.write(f"monotonicity_ok = {all(report.monotonicity)}\n")
        for wmsg in report.warnings:
            fh.write(f"warning = {wmsg}\n")
