"""Benchmark entry point: one workload, one fresh worker process.

    python3 perfbench/run.py --workload ggn-l2 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The worker imports ggnfem from the
checkout's ``src`` directory with BLAS threads pinned to 1, so module
caches and peak RSS never carry over between workloads.  The last line
of standard output is the JSON result; with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced pass.  ``--smoke`` runs a reduced configuration in a few
seconds.  Full records land in ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170
WORKLOADS = ("truth-l8", "ggn-point", "ggn-l2", "nt-vs-ggn")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="noise seed of the data (default 1)")
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced configuration for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ggnfem", "__init__.py")):
        print(f"no ggnfem sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print(f"malformed result line: {lines[-1]}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
