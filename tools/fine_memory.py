#!/usr/bin/env python3
"""Time and memory of the simulation-mesh path, one fresh process per
fine level.

    python3 tools/fine_memory.py 9 10 11 [--zeta 100] [--case a]

For each level a child process builds, one after the other:

* ``uniform_mesh(level)``, dropped again once measured;
* the truth, ``simulate_truth``;
* L^2 data on that truth, ``simulate_data`` (p = 1 %, seed 1).

After each phase it prints the phase's wall time, the RSS after it
(``/proc/self/statm``) and the peak RSS of the process so far
(``getrusage``), in MB (10^6 bytes); the ``start`` row is the process
before the first phase.  The children run with one BLAS thread.
"""

from __future__ import annotations

import argparse
import os
import resource
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = (f"{'level':>5} {'phase':<15} {'time_s':>8} {'rss_mb':>9} "
          f"{'peak_mb':>9}")


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _row(level: int, phase: str, seconds: float) -> None:
    print(f"{level:>5} {phase:<15} {seconds:>8.3f} {_rss_mb():>9.1f} "
          f"{_peak_mb():>9.1f}", flush=True)


def measure(level: int, zeta: float, case: str) -> None:
    """The rows of one level, in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ggnfem import problem as pb
    from ggnfem.mesh import uniform_mesh

    problem, source = pb.ModelProblem(zeta=zeta), pb.synthetic_case(case)
    _row(level, "start", 0.0)
    t = time.perf_counter()
    mesh = uniform_mesh(level)
    _row(level, "uniform_mesh", time.perf_counter() - t)
    del mesh
    t = time.perf_counter()
    truth = pb.simulate_truth(problem, source, level)
    _row(level, "simulate_truth", time.perf_counter() - t)
    t = time.perf_counter()
    pb.simulate_data(problem, source, pb.L2Obs(), level, 0.01, 1, truth=truth)
    _row(level, "simulate_data", time.perf_counter() - t)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("levels", nargs="+", type=int)
    ap.add_argument("--zeta", type=float, default=100.0)
    ap.add_argument("--case", default="a", choices=["a", "b", "c"])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # End by SIGPIPE, as a Unix filter does, when the reader goes away.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    if args.child:
        measure(args.levels[0], args.zeta, args.case)
        return 0
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    print(HEADER, flush=True)
    for level in args.levels:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), str(level), "--child",
             "--zeta", repr(args.zeta), "--case", args.case], env=env)
        if done.returncode:
            print(f"level {level}: exit code {done.returncode}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
