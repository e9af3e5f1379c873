"""One workload in one fresh process: set up, warm up, measure, check.

Started by run.py with BLAS threads pinned to 1 and ``src`` of the
checkout on PYTHONPATH; prints one JSON result line on stdout and writes
the full record (configuration, machine, per-operation values and, for a
traced run, all spans) under the output directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

SETUP_REPS = 3

# Times reported as end-to-end metrics are in reference seconds.  On a
# shared host the speed of a virtual CPU drifts by a quarter or more, from
# seconds to minutes at a time, as other tenants come and go, and raw
# medians of runs a few minutes apart differ by that much.  So each timed
# piece of work is cut into segments (see Clock), a fixed Python loop
# (_probe_s) is timed on the same CPU before and after each segment, and
# the segment's wall time is scaled by REF_PROBE_S / (mean of the two probe
# times).  The probe does not touch ggnfem, so a change to the program
# moves reference times one to one.  Raw wall times and every probe time
# stay in the record.
REF_PROBE_S = 0.007
PROBE_REPS = 3


def _probe_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - t0


def _probe_median_s() -> float:
    return statistics.median(_probe_s() for _ in range(PROBE_REPS))


def pin_fastest_cpu(allowed) -> tuple[int, float]:
    """Pin this process to the allowed CPU that runs a fixed loop fastest.

    On a shared host one virtual CPU can be much slower than another for
    minutes at a time, and which one changes; without pinning, each
    process's timings depend on where the scheduler happened to put it.
    Returns the CPU and its probe time, a record of the host's speed.
    """
    speed = {}
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = _probe_median_s()
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best, speed[best]


class Clock:
    """Times the segments of one piece of work, raw and in reference seconds.

    ``start`` pins the process to the fastest CPU and probes it.  Each call
    ``clock(fn)`` runs one segment, probes again, and adds the segment's
    wall time, scaled by the mean of the probes at its two ends.  In a
    traced operation each segment is one ``bench.segment`` span, so the
    probes fall outside every span.
    """

    def __init__(self, cpus, tracer=None):
        self.cpus = cpus
        self.tracer = tracer
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.probes: list[float] = []

    def start(self) -> "Clock":
        self.probes.append(pin_fastest_cpu(self.cpus)[1])
        return self

    def __call__(self, fn):
        t0 = time.perf_counter()
        if self.tracer is None:
            result = fn()
        else:
            with self.tracer.span("bench.segment"):
                result = fn()
        wall = time.perf_counter() - t0
        self.probes.append(_probe_median_s())
        self.wall_s += wall
        self.ref_s += wall * REF_PROBE_S * 2 / sum(self.probes[-2:])
        return result


def fresh_import() -> None:
    """Start a new interpreter that imports ggnfem."""
    subprocess.run([sys.executable, "-c", "import ggnfem"], check=True)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _import_ggnfem(root: str):
    import ggnfem

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(ggnfem.__file__).startswith(src + os.sep):
        raise ImportError(f"ggnfem imported from {ggnfem.__file__}, "
                          f"not from {src}")
    return ggnfem


class Bench:
    """State of one benchmark process."""

    def __init__(self, args):
        import workloads as wl

        self.args = args
        self.wl = wl
        self.name = args.workload
        self.cfg = wl.config(args.workload, args.smoke)
        self.scratch = os.path.join(args.out, "tmp")
        os.makedirs(self.scratch, exist_ok=True)
        self.ops: list[dict] = []
        self.tracer = None
        self.cpus = os.sched_getaffinity(0)

    def _clocked(self, fn) -> tuple:
        """Run fn as one segment: (result, wall s, reference s, probes)."""
        clock = Clock(self.cpus).start()
        result = clock(fn)
        return result, clock.wall_s, clock.ref_s, clock.probes

    def import_times(self) -> list[tuple]:
        """Start-up plus import of ggnfem in fresh interpreters,
        SETUP_REPS times: (wall s, reference s, probes) each."""
        return [self._clocked(fresh_import)[1:] for _ in range(SETUP_REPS)]

    def setup(self) -> list[tuple]:
        """Build the inputs SETUP_REPS times: (wall s, reference s, probes)
        each."""
        times = []
        for _ in range(SETUP_REPS):
            self.inputs = None  # drop the previous copy before rebuilding
            gc.collect()
            self.inputs, *timing = self._clocked(
                lambda: self.wl.build_inputs(self.cfg, self.args.seed))
            times.append(tuple(timing))
        return times

    def one_op(self, phase: str) -> dict:
        tr = self.tracer if phase == "traced" else None
        rec = {"phase": phase}
        refine_before = tr.calls["mesh.refine"] if tr else 0
        if tr is not None:
            tr.op_id = len(self.ops)
        clock = Clock(self.cpus, tr).start()
        try:
            out = self.wl.run_op(self.cfg, self.inputs, self.scratch, clock)
            rec["op_s"], rec["op_ref_s"] = clock.wall_s, clock.ref_s
            rec["probes_s"] = clock.probes
            errors, rec["control_error"] = self.wl.check_op(
                self.name, self.cfg, self.inputs, out, self.args.smoke)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rec["ok"] = False
            rec["errors"] = ["operation raised"]
            self.ops.append(rec)
            return rec
        rec["solver_wall_s"] = out["solver_wall_s"]
        # The solver's own timer, scaled like the operation as a whole.
        rec["solver_ref_s"] = (out["solver_wall_s"] * rec["op_ref_s"]
                               / rec["op_s"])
        rec["report_s"] = out["report_s"]
        rec["report_bytes"] = out.get("report_bytes", 0)
        rec["cells_final"] = out["cells_final"]
        for key in ("ggn", "nt"):
            if key in out:
                rec[key] = [_summary(r) for r in out[key]]
        if tr is not None:
            # The tracer must see every refinement the reports record,
            # whichever module namespace the call went through.
            refines = sum(s["refines"] for k in ("ggn", "nt")
                          for s in rec.get(k, ()))
            if tr.calls["mesh.refine"] - refine_before < refines:
                errors.append("tracer missed mesh.refine calls")
        rec["ok"] = not errors
        rec["errors"] = errors
        self.ops.append(rec)
        for msg in errors:
            print(f"check failed: {msg}", file=sys.stderr)
        return rec

    def loop(self, phase: str, budget: float) -> list[dict]:
        """Closed loop: operations back to back until the budget is spent."""
        t_start = time.perf_counter()
        done = [self.one_op(phase)]
        # Peak RSS after a fixed amount of work (set-up, warm-up and one
        # operation), so that a faster program running more operations
        # in the same time does not read as using more memory.
        self.peak_rss_mb = _maxrss_mb()
        while time.perf_counter() - t_start < budget:
            done.append(self.one_op(phase))
        return done


def _summary(report) -> dict:
    phases = [r.phase for r in report.rows]
    return {"termination": report.termination,
            "outer_iterations": report.outer_iterations,
            "nodes_final": report.nodes_final,
            "beta_final": float(report.beta_final),
            "control_error": report.control_error,
            "wall_time": report.wall_time,
            "accepted": phases.count("accept"),
            "beta_trials": phases.count("beta"),
            "refines": phases.count("refine1") + phases.count("refine2")}


def _wall_time(summaries) -> float:
    return sum(s["wall_time"] for s in summaries)


def _median(recs, key):
    return statistics.median(r[key] for r in recs)


def end_to_end(bench, import_times, setup_times, timed) -> dict:
    ok = [r for r in timed if r["ok"]]
    attempted = len(bench.ops)
    passed = sum(r["ok"] for r in bench.ops)
    return {
        "setup_s": (statistics.median(t[1] for t in import_times)
                    + statistics.median(t[1] for t in setup_times), "s"),
        "op_s_p50": (_median(ok, "op_ref_s"), "s"),
        "solver_wall_s": (_median(ok, "solver_ref_s"), "s"),
        "peak_rss_mb": (bench.peak_rss_mb, "MB"),
        "control_error": (_median(ok, "control_error"), "ratio"),
        "pass_ratio": (passed / attempted, "ratio"),
    }


def per_layer(bench, untraced, traced, rss_growth) -> dict:
    import tracer as trc

    tr = bench.tracer
    ok_u = [r for r in untraced if r["ok"]]
    ok_t = [r for r in traced if r["ok"]]
    n = len(traced)
    calls, self_s, cnt = tr.calls, tr.self_s, tr.counters
    m = {}

    def per_op(key, val):
        m[key] = val / n

    layer_self = tr.layer_self_s()
    for layer, s in layer_self.items():
        per_op(f"{layer}.self_s", s)
    for layer, attr in trc.TRACED:
        name = f"{layer}.{attr}"
        per_op(f"{name}.calls", calls[name])
        per_op(f"{name}.self_s", self_s[name])
    per_op("splu.calls", calls["splu"])
    per_op("splu.fill_nnz", cnt["splu.fill_nnz"])
    for layer in trc.SPLU_CALLERS:
        for what in ("calls", "self_s", "fill_nnz"):
            per_op(f"splu.{layer}.{what}", cnt[f"splu.{layer}.{what}"])
    per_op("problem.forward_newton_iters", cnt["problem.forward_newton_iters"])
    m["subsolver.kkt_dim_max"] = cnt["subsolver.kkt_dim_max"]
    kkt_solves = (calls["subsolver.solve_kkt"]
                  + calls["subsolver.solve_second_order"])
    m["subsolver.solves_per_factorization"] = (
        kkt_solves / cnt["splu.kkt_calls"] if cnt["splu.kkt_calls"] else 0.0)
    m["mesh.cells_final"] = max(r["cells_final"] for r in ok_t)

    ggn = [s for r in ok_t for s in r.get("ggn", ())]
    for key in ("beta_trials", "refines", "outer_iterations"):
        m[f"driver.{key}"] = sum(g[key] for g in ggn) / n
    m["driver.accept_ratio"] = (
        sum(g["accepted"] for g in ggn) / cnt["driver.kkt_solves"]
        if cnt["driver.kkt_solves"] else 0.0)
    m["driver.diagnostics_s"] = (statistics.median(
        r["op_s"] - r["solver_wall_s"] - r["report_s"] for r in ok_u)
        if ggn else 0.0)
    per_op("driver.write_run_report.bytes",
           sum(r["report_bytes"] for r in ok_t))

    per_op("baseline.forward_solves", cnt["baseline.forward_solves"])
    nt_u = [r for r in ok_u if "nt" in r]
    m["baseline.ctr"] = (1.0 - statistics.median(
        _wall_time(r["ggn"]) for r in nt_u) / statistics.median(
        _wall_time(r["nt"]) for r in nt_u)) if nt_u else 0.0

    traced_s = sum(r["op_s"] for r in traced if "op_s" in r)
    m["trace.op_s_p50"] = _median(ok_t, "op_ref_s")
    m["trace.overhead_s"] = m["trace.op_s_p50"] - _median(ok_u, "op_ref_s")
    m["trace.unattributed_s"] = (traced_s - sum(layer_self.values())) / n
    m["trace.spans_per_op"] = len(tr.spans) / n
    m["rss_growth_mb"] = rss_growth
    return {k: (v, _unit(k)) for k, v in m.items()}


def _unit(key: str) -> str:
    if key.endswith(("_s", "_s_p50")):
        return "s"
    if key == "rss_growth_mb":
        return "MB/op"
    if key.endswith(".bytes"):
        return "bytes"
    if key.endswith(("_ratio", ".ctr", "per_factorization")):
        return "ratio"
    return "count"


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    _import_ggnfem(args.root)
    import tracer as trc

    bench = Bench(args)
    import_times = bench.import_times()
    setup_times = bench.setup()

    bench.one_op("warmup")
    gc.collect()
    rss_warm = _rss_mb()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = bench.loop("timed", budget)
    gc.collect()
    rss_growth = (_rss_mb() - rss_warm) / len(untraced)
    traced = []
    if args.trace:
        bench.tracer = trc.Tracer()
        bench.tracer.install()
        try:
            traced = bench.loop("traced", budget)
        finally:
            bench.tracer.uninstall()

    if not any(r["ok"] for r in untraced) or (
            args.trace and not any(r["ok"] for r in traced)):
        print("no operation passed its output check", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(bench, untraced, traced, rss_growth)
    else:
        metrics = end_to_end(bench, import_times, setup_times, untraced)

    failed = sum(not r["ok"] for r in bench.ops)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-smoke" if args.smoke else ""))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "config": bench.cfg, "machine": machine(),
              "ref_probe_s": REF_PROBE_S,
              "import_times_s": import_times, "setup_times_s": setup_times,
              "ops": bench.ops,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(os.path.join(args.out, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        bench.tracer.write(os.path.join(args.out, stem + "-spans.json"))

    for key, (val, unit) in metrics.items():
        print(f"{key} {val!r} {unit}")
    result = {"correct": failed == 0, "attempted": len(bench.ops),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
