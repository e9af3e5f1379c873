"""Command-line front end.

Subcommands:

    simulate      forward-simulate noisy observations and write the bundle
    run-ggn       adaptive Gauss-Newton run on a configuration
    run-nt        nonlinear-Tikhonov reference run
    table         sweep zeta or noise values into one CSV table
    theory-check  block-operator and filter-function validation suites

Configuration is a sectioned key=value file ([experiment], [ggn], [nt])
read with configparser; unknown keys are rejected and command-line
flags override file values.  Exit codes: 0 success, 1 violated
invariant or failed run, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from configparser import ConfigParser
from dataclasses import asdict, dataclass, fields, replace

from . import baseline as bl, driver as dv, problem as pb
from .theory import run_theory_suite

__all__ = ["ExperimentConfig", "load_config", "main"]


@dataclass
class ExperimentConfig:
    case: str = "a"
    observation: str = "point"
    zeta: float = 100.0
    noise: float = 0.01
    seed: int = 1
    fine_levels: int = 8
    n_points: int = 9  # per side of the observation lattice
    out: str = "runs/out"


_SECTIONS = {
    "experiment": ExperimentConfig,
    "ggn": dv.GgnConfig,
    "nt": bl.NtConfig,
}


def _coerce(cls, key, raw):
    ftypes = {f.name: f.type for f in fields(cls)}
    if key not in ftypes:
        raise KeyError(f"unknown key '{key}' for section [{cls.__name__}]")
    t = ftypes[key]
    if t in ("int", int):
        return int(raw)
    if t in ("float", float):
        return float(raw)
    if t in ("bool", bool):
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return raw


def load_config(path=None):
    """(experiment, ggn, nt) configs from a sectioned key=value file."""
    exp, ggn, nt = ExperimentConfig(), dv.GgnConfig(), bl.NtConfig()
    if path is None:
        return exp, ggn, nt
    parser = ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    out = {"experiment": exp, "ggn": ggn, "nt": nt}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise KeyError(f"unknown config section [{section}]")
        cls = type(out[section])
        out[section] = replace(out[section], **{
            key: _coerce(cls, key, raw) for key, raw in parser.items(section)})
    return out["experiment"], out["ggn"], out["nt"]


def config_text(exp, ggn, nt) -> str:
    parts = []
    for name, cfg in (("experiment", exp), ("ggn", ggn), ("nt", nt)):
        parts.append(f"[{name}]")
        for k, v in asdict(cfg).items():
            parts.append(f"{k} = {v}")
    return "\n".join(parts) + "\n"


def _observation(exp: ExperimentConfig):
    if exp.observation == "point":
        return pb.PointObs(exp.n_points)
    if exp.observation == "l2":
        return pb.L2Obs()
    raise ValueError(f"unknown observation '{exp.observation}'")


def _simulate(exp: ExperimentConfig, truths=None) -> pb.NoisyData:
    problem = pb.ModelProblem(zeta=exp.zeta)
    case = pb.synthetic_case(exp.case)
    key = (exp.case, exp.zeta, exp.fine_levels)
    if truths is not None and key not in truths:  # keep the last truth
        truths.clear()
        truths[key] = pb.simulate_truth(problem, case, exp.fine_levels)
    obs = _observation(exp)
    return pb.simulate_data(problem, case, obs, exp.fine_levels, exp.noise,
                            exp.seed, truth=(truths or {}).get(key))


def cmd_simulate(exp, ggn, nt, args) -> int:
    data = _simulate(exp)
    pb.save_data_bundle(data, exp.out)
    print(f"wrote data bundle to {exp.out} (delta = {data.delta:.6g})")
    return 0


def cmd_run(exp, ggn, nt, args) -> int:
    """run-ggn (which also saves the data bundle) or run-nt."""
    data = _simulate(exp)
    problem = pb.ModelProblem(zeta=exp.zeta)
    if args.command == "run-ggn":
        report, steps = dv.run_ggn(problem, data, ggn), "iterations"
        pb.save_data_bundle(data, os.path.join(exp.out, "data"))
    else:
        report, steps = bl.run_nt(problem, data, nt), "beta updates"
    dv.write_run_report(report, exp.out, config_text(exp, ggn, nt))
    print(f"{report.method}: {report.termination} after "
          f"{report.outer_iterations} {steps}, error "
          f"{report.control_error:.4f}, beta {report.beta_final:.6g}, "
          f"{report.nodes_final} nodes, {report.wall_time:.2f} s")
    return 0 if report.termination == "discrepancy" else 1


_TABLE_COLUMNS = ["value", "method", "status", "error", "beta", "nodes",
                  "iterations", "wall_time", "ctr"]


def _table_row(v, rep, ctr=""):
    return [v, rep.method, rep.termination, f"{rep.control_error:.6g}",
            f"{rep.beta_final:.6g}", rep.nodes_final, rep.outer_iterations,
            f"{rep.wall_time:.3f}", ctr]


def _sweep_row(payload, truths=None):
    """One sweep entry; runs in a worker process, failures become rows."""
    exp, ggn, nt, v, sweep, with_nt = payload
    e = replace(exp, **{("zeta" if sweep == "zeta" else "noise"): v})
    try:
        data = _simulate(e, truths)
        problem = pb.ModelProblem(zeta=e.zeta)
        rep_g = dv.run_ggn(problem, data, ggn)
        rows = [_table_row(v, rep_g)]
        if with_nt:
            rep_n = bl.run_nt(problem, data, nt)
            ctr = 1.0 - rep_g.wall_time / rep_n.wall_time
            rows.append(_table_row(v, rep_n, f"{ctr:.3f}"))
        return rows
    except Exception as exc:  # keep sweeping on per-row failures
        return [[v, "GGN", f"failed: {exc}", "", "", "", "", "", ""]]


def cmd_table(exp, ggn, nt, args) -> int:
    values = [float(v) for v in args.values]
    os.makedirs(exp.out, exist_ok=True)
    path = os.path.join(exp.out, f"table_{args.sweep}.csv")
    payloads = [(exp, ggn, nt, v, args.sweep, args.with_nt) for v in values]
    if args.jobs > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_row, payloads))
    else:  # consecutive entries of one (case, zeta, fine) share a truth
        truths = {}
        results = [_sweep_row(p, truths) for p in payloads]
    rows = [row for chunk in results for row in chunk]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_TABLE_COLUMNS)
        w.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0 if all(row[2] == "discrepancy" for row in rows) else 1


def cmd_theory_check(exp, ggn, nt, args) -> int:
    report = run_theory_suite(seed=args.seed if args.seed is not None else 0,
                              trials=args.trials)
    print(report.text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ggnfem",
        description="Adaptive Gauss-Newton PDE parameter identification")
    ap.add_argument("--config", help="sectioned key=value config file")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--fine-levels", type=int, dest="fine_levels")
    ap.add_argument("--zeta", type=float)
    ap.add_argument("--noise", type=float)
    ap.add_argument("--case", choices=["a", "b", "c"])
    ap.add_argument("--obs", choices=["point", "l2"])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate")
    sub.add_parser("run-ggn")
    sub.add_parser("run-nt")
    tab = sub.add_parser("table")
    tab.add_argument("--sweep", choices=["zeta", "noise"], required=True)
    tab.add_argument("--values", nargs="*", default=[], metavar="X")
    tab.add_argument("--with-nt", action="store_true")
    tab.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the sweep")
    thy = sub.add_parser("theory-check")
    thy.add_argument("--trials", type=int, default=100)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp, ggn, nt = load_config(args.config)
        flags = (("seed", "seed"), ("out", "out"),
                 ("fine_levels", "fine_levels"), ("zeta", "zeta"),
                 ("noise", "noise"), ("case", "case"), ("obs", "observation"))
        exp = replace(exp, **{key: getattr(args, flag) for flag, key in flags
                              if getattr(args, flag, None) is not None})
        handler = {
            "simulate": cmd_simulate,
            "run-ggn": cmd_run,
            "run-nt": cmd_run,
            "table": cmd_table,
            "theory-check": cmd_theory_check,
        }[args.command]
        return handler(exp, ggn, nt, args)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
