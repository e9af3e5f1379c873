"""Command-line front end.

Subcommands:

    simulate      forward-simulate noisy observations and write the bundle
    run-ggn       adaptive Gauss-Newton run on a configuration
    run-nt        nonlinear-Tikhonov reference run
    table         sweep zeta or noise values into one CSV table

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
from configparser import ConfigParser, Error as ConfigError
from dataclasses import asdict, dataclass, fields, replace

from . import baseline as bl, driver as dv, fem, problem as pb

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
    # The config modules defer annotations, so each type is its name.
    if ftypes[key] == "bool":
        if raw.strip().lower() not in ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"{key} = {raw!r} is not a boolean")
        return ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    return {"int": int, "float": float}.get(ftypes[key], str)(raw)


def load_config(path=None):
    """(experiment, ggn, nt) configs from a sectioned key=value file."""
    out = {name: cls() for name, cls in _SECTIONS.items()}
    parser = ConfigParser()
    if path is not None:
        with open(path) as fh:
            parser.read_file(fh)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise KeyError(f"unknown config section [{section}]")
        out[section] = replace(out[section], **{
            key: _coerce(_SECTIONS[section], key, raw)
            for key, raw in parser.items(section)})
    return out["experiment"], out["ggn"], out["nt"]


def config_text(exp, ggn, nt) -> str:
    parts = []
    for name, cfg in (("experiment", exp), ("ggn", ggn), ("nt", nt)):
        parts.append(f"[{name}]")
        for k, v in sorted(asdict(cfg).items()):
            parts.append(f"{k} = {v}")
    return "\n".join(parts) + "\n"


def _simulate_truth(exp: ExperimentConfig, truths: dict):
    """The truth of exp's (case, zeta, fine level), simulated into truths
    unless it is there."""
    key = (exp.case, exp.zeta, exp.fine_levels)
    if key not in truths:
        truths[key] = pb.simulate_truth(pb.ModelProblem(zeta=exp.zeta),
                                        pb.synthetic_case(exp.case),
                                        exp.fine_levels)
    return truths[key]


def _simulate(exp: ExperimentConfig, truths=None) -> pb.NoisyData:
    if exp.observation not in ("point", "l2"):
        raise ValueError(f"unknown observation '{exp.observation}'")
    problem = pb.ModelProblem(zeta=exp.zeta)
    case = pb.synthetic_case(exp.case)
    truth = None
    if truths is not None:
        if (exp.case, exp.zeta, exp.fine_levels) not in truths:
            truths.clear()  # keep the last truth
        truth = _simulate_truth(exp, truths)
    obs = (pb.PointObs(exp.n_points) if exp.observation == "point"
           else pb.L2Obs())
    return pb.simulate_data(problem, case, obs, exp.fine_levels, exp.noise,
                            exp.seed, truth=truth)


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


def _sweep_config(payload) -> ExperimentConfig:
    exp, _, _, v, sweep, _ = payload
    return replace(exp, **{("zeta" if sweep == "zeta" else "noise"): v})


def _sweep_row(payload, truths=None):
    """One sweep entry; a failure becomes a row of the method that failed."""
    _, ggn, nt, v, _, with_nt = payload
    e = _sweep_config(payload)
    rows = []
    try:
        data = _simulate(e, truths)
        problem = pb.ModelProblem(zeta=e.zeta)
        rep_g = dv.run_ggn(problem, data, ggn)
        rows.append(_table_row(v, rep_g))
        if with_nt:
            rep_n = bl.run_nt(problem, data, nt)
            ctr = 1.0 - rep_g.wall_time / rep_n.wall_time
            rows.append(_table_row(v, rep_n, f"{ctr:.3f}"))
    except Exception as exc:  # NT failed iff GGN's row is in; sweep on
        rows.append([v, ("GGN", "NT")[len(rows)], f"failed: {exc}"] + [""] * 6)
    return rows


# The truths of a parallel sweep, in its worker processes (``cmd_table``).
_TRUTHS: dict = {}


def _inherited_row(payload):
    return _sweep_row(payload, dict(_TRUTHS))  # a miss must not clear them


def cmd_table(exp, ggn, nt, args) -> int:
    values = [float(v) for v in args.values]
    os.makedirs(exp.out, exist_ok=True)
    path = os.path.join(exp.out, f"table_{args.sweep}.csv")
    payloads = [(exp, ggn, nt, v, args.sweep, args.with_nt) for v in values]
    if args.jobs > 1 and len(payloads) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Each truth is simulated once, here; forked workers inherit them.
        truths = {}
        for p in payloads:
            try:
                _simulate_truth(_sweep_config(p), truths)
            except Exception:  # the entry's worker reports it as a row
                pass
        with ProcessPoolExecutor(
                max_workers=args.jobs, initializer=_TRUTHS.update,
                initargs=(truths,),
                mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_inherited_row, payloads))
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
    ap.add_argument("--obs", choices=["point", "l2"], dest="observation")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate")
    sub.add_parser("run-ggn")
    sub.add_parser("run-nt")
    tab = sub.add_parser("table")
    tab.add_argument("--sweep", choices=["zeta", "noise"], required=True)
    tab.add_argument("--values", nargs="+", required=True, metavar="X")
    tab.add_argument("--with-nt", action="store_true")
    tab.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the sweep")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp, ggn, nt = load_config(args.config)
        keys = ("seed", "out", "fine_levels", "zeta", "noise", "case",
                "observation")
        exp = replace(exp, **{key: getattr(args, key) for key in keys
                              if getattr(args, key) is not None})
        handler = {"simulate": cmd_simulate, "table": cmd_table}.get(
            args.command, cmd_run)  # run-ggn and run-nt
        return handler(exp, ggn, nt, args)
    except (KeyError, ValueError, OSError, ConfigError, fem.SolverError) as exc:
        print("error:", " ".join(str(exc).split()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
