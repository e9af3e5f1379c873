"""The benchmark workloads: inputs, one operation, output checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  Inputs depend only on the
configuration below and the noise seed.  BENCHMARK.json lists ggn-l2 and
nt-vs-ggn; truth-l8 and ggn-point run by name (see README.md).

  truth-l8   forward simulation of the truth on the level-8 mesh plus
             point and L^2 data; no adaptive solver layer runs.
  ggn-point  deep adaptive all-at-once run on point data, then the run
             report; bypasses L^2 data restriction.
  ggn-l2     the same on L^2 data, where restriction dominates.
  nt-vs-ggn  the criterion-9 pair on small meshes: a GGN run, then the
             reduced nonlinear-Tikhonov run with many small forward solves,
             on each of six noise realisations.

How many outer steps NT takes depends on the noise realisation (3 or 6
at p=1 %), so the time of one pair differs between seeds by up to a third.
One nt-vs-ggn operation therefore runs the pair on ``realisations`` data
sets, with the noise seeds ``noise_seeds(seed, realisations)``.  The first
is the run's own seed, so the reference outputs at seed 1 still apply to it.
"""

from __future__ import annotations

import json
import os
import statistics
import shutil
import tempfile
import time

import numpy as np

from ggnfem import baseline as bl, driver as dv, fem, problem as pb

WORKLOADS = {
    "truth-l8": {"kind": "truth", "case": "a", "zeta": 100.0,
                 "fine_levels": 8, "p": 0.003, "n_side": 9},
    "ggn-point": {"kind": "ggn", "case": "a", "zeta": 100.0,
                  "fine_levels": 8, "p": 0.003, "n_side": 9,
                  "obs": "point", "depth": 7},
    "ggn-l2": {"kind": "ggn", "case": "a", "zeta": 100.0,
               "fine_levels": 8, "p": 0.003, "n_side": 9,
               "obs": "l2", "depth": 7},
    "nt-vs-ggn": {"kind": "pair", "case": "a", "zeta": 1000.0,
                  "fine_levels": 8, "p": 0.01, "n_side": 9,
                  "obs": "point", "depth": 6, "realisations": 6},
}

# Reduced configuration of the self-test: same code paths, seconds to run.
SMOKE = {"fine_levels": 5, "depth": 4, "p": 0.01}

DEFAULT_SEED = 1
SEED_STRIDE = 100_000
REL_TOL = 1e-8

with open(os.path.join(os.path.dirname(__file__), "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def config(name: str, smoke: bool) -> dict:
    cfg = dict(WORKLOADS[name])
    if smoke:
        cfg.update(SMOKE)
    return cfg


def _observation(cfg, kind):
    return pb.PointObs(cfg["n_side"]) if kind == "point" else pb.L2Obs()


def noise_seeds(seed: int, count: int) -> list[int]:
    """Noise seeds of the data sets of one run; the first is ``seed``."""
    return [seed + SEED_STRIDE * i for i in range(count)]


def build_inputs(cfg: dict, seed: int) -> dict:
    """Everything an operation needs; for solver workloads the truth and
    the list of noisy data sets on the fine simulation mesh."""
    problem = pb.ModelProblem(zeta=cfg["zeta"])
    case = pb.synthetic_case(cfg["case"])
    inputs = {"problem": problem, "case": case, "seed": seed}
    if cfg["kind"] != "truth":
        truth = pb.simulate_truth(problem, case, cfg["fine_levels"])
        inputs["data"] = [
            pb.simulate_data(problem, case, _observation(cfg, cfg["obs"]),
                             cfg["fine_levels"], cfg["p"], s, truth=truth)
            for s in noise_seeds(seed, cfg.get("realisations", 1))]
    return inputs


def run_op(cfg: dict, inputs: dict, scratch: str, segment) -> dict:
    """One operation.  Returns its outputs and the solver-side timings.

    ``segment(fn)`` calls ``fn()`` and returns its value; the operation's
    timed work is exactly the work done in these calls, one per ggnfem
    entry point, so the caller can time each piece on its own.
    """
    return _OPS[cfg["kind"]](cfg, inputs, scratch, segment)


def _op_truth(cfg, inputs, scratch, segment):
    problem, case, seed = inputs["problem"], inputs["case"], inputs["seed"]

    def solve():
        t0 = time.perf_counter()
        truth = pb.simulate_truth(problem, case, cfg["fine_levels"])
        return truth, time.perf_counter() - t0

    truth, t_solve = segment(solve)
    data = {kind: segment(lambda: pb.simulate_data(
                problem, case, _observation(cfg, kind), cfg["fine_levels"],
                cfg["p"], seed, truth=truth))
            for kind in ("point", "l2")}
    return {"solver_wall_s": t_solve, "report_s": 0.0, "truth": truth,
            "data": data, "cells_final": truth[0].mesh.n_cells}


def _op_ggn(cfg, inputs, scratch, segment):
    report = segment(lambda: dv.run_ggn(inputs["problem"], inputs["data"][0],
                                        dv.GgnConfig(max_depth=cfg["depth"])))
    outdir = tempfile.mkdtemp(prefix="run-", dir=scratch)

    def write():
        t0 = time.perf_counter()
        dv.write_run_report(report, outdir, config_text=json.dumps(cfg))
        return time.perf_counter() - t0

    try:
        t_write = segment(write)
        written = sum(os.path.getsize(os.path.join(outdir, f))
                      for f in os.listdir(outdir))
    finally:
        shutil.rmtree(outdir)
    return {"solver_wall_s": report.wall_time, "report_s": t_write,
            "report_bytes": written, "ggn": [report],
            "cells_final": report.q_final.mesh.n_cells}


def _op_pair(cfg, inputs, scratch, segment):
    problem, ggn, nt = inputs["problem"], [], []
    for data in inputs["data"]:
        ggn.append(segment(lambda: dv.run_ggn(
            problem, data, dv.GgnConfig(max_depth=cfg["depth"]))))
        nt.append(segment(lambda: bl.run_nt(
            problem, data, bl.NtConfig(max_depth=cfg["depth"]))))
    return {"solver_wall_s": sum(r.wall_time for r in ggn + nt),
            "report_s": 0.0, "ggn": ggn, "nt": nt,
            "cells_final": max(r.q_final.mesh.n_cells for r in ggn)}


_OPS = {"truth": _op_truth, "ggn": _op_ggn, "pair": _op_pair}


# ---------------------------------------------------------------------------
# output checks: reference values at the default seed, invariants otherwise


def _close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _check_ggn(report, data, ref, errors, tag):
    if report.termination != "discrepancy":
        errors.append(f"{tag}: termination {report.termination}")
    if report.i3h_final > dv.GgnConfig().tau**2 * data.delta**2 * (1 + 1e-12):
        errors.append(f"{tag}: I3h {report.i3h_final:.3e} above tau^2 delta^2")
    if not report.max_identity_dev <= 1e-12:
        errors.append(f"{tag}: identity deviation {report.max_identity_dev:.3e}")
    if not all(report.monotonicity):
        errors.append(f"{tag}: monotonicity violated")
    if ref is not None:
        _check_reference(report, ref, errors, tag)


def _check_nt(report, data, ref, errors, tag):
    cfg = bl.NtConfig()
    last = report.rows[-1]
    lo, hi = cfg.tau_low**2 * data.delta**2, cfg.tau_up**2 * data.delta**2
    if report.termination != "discrepancy" or last.phase != "accept":
        errors.append(f"{tag}: termination {report.termination}")
    elif not lo <= last.i2h <= hi:
        errors.append(f"{tag}: discrepancy {last.i2h:.3e} outside the band")
    if ref is not None:
        _check_reference(report, ref, errors, tag)


def _check_reference(report, ref, errors, tag):
    for key in ("termination", "outer_iterations", "nodes_final"):
        if getattr(report, key) != ref[key]:
            errors.append(f"{tag}: {key} {getattr(report, key)} != {ref[key]}")
    for key in ("beta_final", "control_error"):
        if not _close(float(getattr(report, key)), ref[key]):
            errors.append(f"{tag}: {key} {getattr(report, key)!r} != {ref[key]!r}")


def interpolation_error(q: fem.Field, source) -> float:
    """Relative L^2 error of a nodal field against its closed-form source,
    by tensor Gauss quadrature on the field's own mesh."""
    mesh = q.mesh
    pts, wts = fem.gauss_points(4)
    corners = mesh.cell_corners
    x0 = mesh.vertices[corners[:, 0]]
    h = mesh.vertices[corners[:, 1], 0] - x0[:, 0]
    qh = q.full_values()[corners] @ fem.shape_values(pts).T
    gx = x0[:, :1] + h[:, None] * pts[None, :, 0]
    gy = x0[:, 1:] + h[:, None] * pts[None, :, 1]
    exact = source(gx, gy)
    w = h[:, None] ** 2 * wts[None, :]
    return float(np.sqrt(np.sum(w * (qh - exact) ** 2) / np.sum(w * exact**2)))


def _check_truth(cfg, inputs, out, ref, errors):
    q_true, u_true = out["truth"]
    norms = {"q_norm": q_true.norm_l2(), "u_norm": u_true.norm_l2()}
    for key, val in norms.items():
        if not (np.isfinite(val) and val > 0):
            errors.append(f"truth: {key} {val!r}")
        elif ref is not None and not _close(val, ref[key]):
            errors.append(f"truth: {key} {val!r} != {ref[key]!r}")
    p = cfg["p"]
    point, l2 = out["data"]["point"], out["data"]["l2"]
    dev = np.abs(point.g_delta - point.g)
    if dev.max() > p * np.abs(point.g).max() * (1 + 1e-12):
        errors.append("truth: point noise exceeds p max|g|")
    if not _close(point.delta, float(np.linalg.norm(point.g_delta - point.g))):
        errors.append("truth: point delta is not the realized noise norm")
    if not _close(l2.delta, p * l2.g.norm_l2(), 1e-9):
        errors.append("truth: L^2 delta != p |g|")
    if ref is not None and inputs["seed"] == DEFAULT_SEED:
        for key, data in (("delta_point", point), ("delta_l2", l2)):
            if not _close(data.delta, ref[key]):
                errors.append(f"truth: {key} {data.delta!r} != {ref[key]!r}")


def check_op(name: str, cfg: dict, inputs: dict, out: dict,
             smoke: bool) -> tuple[list, float]:
    """Output check of one operation: (list of failures, control error).

    The control error of a solver operation is the mean over its GGN runs.
    """
    errors: list[str] = []
    use_ref = not smoke and inputs["seed"] == DEFAULT_SEED
    ref = REFERENCE[name]
    if cfg["kind"] == "truth":
        _check_truth(cfg, inputs, out, None if smoke else ref, errors)
        err = interpolation_error(out["truth"][0], inputs["case"])
        return errors, err
    for i, data in enumerate(inputs["data"]):
        # Only the first data set has the run's own noise seed.
        first = use_ref and i == 0
        _check_ggn(out["ggn"][i], data, ref["ggn"] if first else None,
                   errors, f"ggn[{i}]")
        if "nt" in out:
            _check_nt(out["nt"][i], data, ref["nt"] if first else None,
                      errors, f"nt[{i}]")
    return errors, statistics.mean(r.control_error for r in out["ggn"])
