#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs and write
``BENCH_<tag>.json`` in the root of the checkout.

    python3 tools/bench_pairs.py --tag small-mesh-overhead \\
        --change-text "what the change does" [--workloads ggn-point ...]

The parent, ``HEAD``, is exported with ``git archive`` into
``.bench_build/<commit>``; the change is the working tree of this
checkout.  For every
workload of ``BENCHMARK.json`` (or each one ``--workloads`` names, any
that ``perfbench/run.py`` runs, such as ``ggn-point``; an unknown name
exits with status 2 before any run) and every seed from 1 to 10, the two
sides run ``perfbench/run.py --trace 0`` one after the other, the
parent first at odd seeds and the change first at even ones, so that a
drift of the host's speed falls on both sides alike.  One traced run
(``--trace 1``) per side at seed 1 adds the per-layer metrics in
``traced_seed1``.  The file holds every run's result line, per-metric
median, quartiles and pairs won, and, for ``nt-vs-ggn``, the criterion-9
time ratio of the traced runs (``criterion9_ctr``).
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
SIDES = ("parent", "change")
PAIRS = 10  # per workload, at seeds 1..PAIRS
# Per-layer metrics of the traced seed-1 runs kept in the file.
TRACED = (
    "splu.fem.self_s", "splu.fem.calls", "splu.fem.fill_nnz",
    "splu.subsolver.self_s", "splu.subsolver.calls",
    "splu.subsolver.fill_nnz", "splu.problem.self_s", "splu.problem.calls",
    "splu.problem.fill_nnz", "splu.fill_nnz", "splu.self_s",
    "subsolver.self_s", "problem.restrict_data.self_s",
    "problem.solve_forward.self_s", "problem.simulate_truth.self_s",
    "subsolver.solve_kkt.self_s", "driver.write_run_report.self_s",
    "problem.forward_newton_iters", "trace.op_s_p50", "baseline.ctr",
    "baseline.forward_solves", "rss_growth_mb", "fem.self_s",
    "fem.Space.calls", "fem.Space.self_s", "mesh.refine.calls",
    "mesh.self_s", "problem.self_s", "estimators.self_s", "driver.self_s",
    "baseline.self_s", "bench.self_s",
)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export_head() -> tuple[str, str]:
    """(short commit of HEAD, directory holding its committed files)."""
    sha = _git("rev-parse", "--short", "HEAD")
    dest = os.path.join(BUILD, sha)
    if not os.path.isdir(dest):
        tar = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest + ".part", filter="data")
        os.rename(dest + ".part", dest)
    return sha, dest


def run(checkout: str, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in a checkout."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, text=True,
                          stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout} "
                         f"(exit code {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def summarize(pairs: list, metrics: list) -> dict:
    """Per end-to-end metric: both sides' quartiles, the relative change
    of the median and the pairs each side won."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in SIDES}
        won = [sign * (c - p) for p, c in zip(vals["parent"],
                                              vals["change"])]
        parent, change = _stats(vals["parent"]), _stats(vals["change"])
        out[name] = {
            "parent": parent, "change": change,
            "median_change_rel": (change["median"] - parent["median"])
            / parent["median"] if parent["median"] else 0.0,
            "pairs_won_by_change": sum(d < 0 for d in won),
            "pairs_won_by_parent": sum(d > 0 for d in won),
            "pairs": len(pairs),
        }
    return out


def _machine(checkout: str, workload: str) -> dict:
    with open(os.path.join(checkout, "perfbench", "out",
                           f"{workload}-seed1-trace0.json")) as fh:
        return json.load(fh)["machine"]


def _runnable() -> tuple:
    """The workload names ``perfbench/run.py`` accepts."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True,
                    help="names the output file BENCH_<tag>.json")
    ap.add_argument("--change-text", required=True,
                    help="one-line description of the change")
    ap.add_argument("--workloads", nargs="+", metavar="NAME",
                    choices=_runnable(),
                    default=[w["name"] for w in bench["workloads"]],
                    help="workloads to time (default: BENCHMARK.json's)")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    names = args.workloads

    parent_sha, parent_dir = export_head()
    checkout = {"parent": parent_dir, "change": ROOT}
    seeds = list(range(1, PAIRS + 1))
    workloads = {}
    for w in names:
        pairs = []
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run(checkout[side], w, seed, seconds, 0)
                print(f"{w} seed {seed} {side}: op_s_p50 "
                      f"{pair[side]['metrics']['op_s_p50']['value']:.4f}",
                      file=sys.stderr)
            pairs.append(pair)
        ce = [(p["parent"]["metrics"]["control_error"]["value"],
               p["change"]["metrics"]["control_error"]["value"])
              for p in pairs]
        entry = {
            "seeds": seeds,
            "summary": summarize(pairs, bench["end_to_end"]),
            "attempted": {s: [p[s]["attempted"] for p in pairs]
                          for s in SIDES},
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "pairs": pairs,
            "control_error_max_rel_change": max(
                abs(c - p) / abs(p) if p else abs(c) for p, c in ce),
        }
        traced = {s: run(checkout[s], w, 1, seconds, 1)["metrics"]
                  for s in SIDES}
        entry["traced_seed1"] = {
            s: {k: traced[s][k]["value"] for k in TRACED if k in traced[s]}
            for s in SIDES}
        if w == "nt-vs-ggn":
            entry["criterion9_ctr"] = {
                s: entry["traced_seed1"][s]["baseline.ctr"] for s in SIDES}
        workloads[w] = entry

    doc = {
        "description": (
            "perfbench end-to-end metrics of the parent commit and of this "
            "change, run in alternating pairs (python3 perfbench/run.py "
            "--workload W --seed S --seconds "
            f"{seconds:g} --trace 0), one fresh worker per run; times "
            "are in reference seconds (see perfbench/README.md).  'pairs' "
            "lists, per seed, the two runs in the order they ran.  "
            "'traced_seed1' holds selected per-layer metrics of one traced "
            "run (--trace 1, seed 1) per side.  "
            "'control_error_max_rel_change' is the largest relative "
            "difference of control_error within a pair.  'criterion9_ctr' "
            "is baseline.ctr of the traced seed-1 runs.  Built by "
            "tools/bench_pairs.py."),
        "parent_commit": parent_sha,
        "change": args.change_text,
        "machine": _machine(ROOT, names[0]),
        "config": {"seconds": seconds},
        "workloads": workloads,
    }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
