#!/usr/bin/env python3
"""Dump and compare the solver outputs of the benchmark runs, bit for bit.

    python3 tools/row_digest.py dump before.json --src OTHER_CHECKOUT/src
    python3 tools/row_digest.py dump after.json
    python3 tools/row_digest.py compare before.json after.json

``dump`` runs the benchmark operations of ggn-l2 and nt-vs-ggn and the
ggn-point operation, with the configurations of ``perfbench/workloads.py``,
at noise seeds 1-3: one GGN run on L^2 data, 6 GGN/NT pairs and one GGN
run on point data per seed, 42 runs in all.  ggn-point is the one that
reaches the Woodbury route of the point-data KKT solve, above
``DENSE_MAX_NV`` state dofs, and the switch to it.  For every
run it writes each report row (floats as ``float.hex``), the termination,
the warnings, the outer iteration count, the realized noise level delta,
the control error, the forward-solve count, the monotonicity flags and
the largest I1h identity deviation.  ggnfem is imported from
``--src`` (default: the ``src`` of this checkout), so one copy of this
tool dumps any checkout.
``compare`` names every run whose dump differs, with its differing
fields and the first differing row and columns, and exits 1 if any does.
It counts the differing runs that differ only in the fields at rounding
level (``ABSOLUTE``) and those that differ anywhere else, so a change
that moves only the stationarity residuals reads at a glance.
It then prints, over the runs in both dumps, the largest move of each
float field and column: relative, |b - a| / |a|, except for the fields
at rounding level (the stationarity residuals and the I1h identity
deviation, ~1e-16), whose largest absolute move |b - a| it prints.  Last
come the runs whose acceptance fields changed: k, phase, nodes or beta
of a row, the termination, the outer iteration count, the forward-solve
count or the warnings.
BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ggn-l2", "nt-vs-ggn", "ggn-point")
SEEDS = (1, 2, 3)
COLUMNS = ("k", "phase", "nodes", "beta", "rho", "i1h", "i2h", "i3h", "i4h",
           "eta1", "eta2", "stat_q", "stat_v", "stat_z")
RUN_FLOATS = ("delta", "control_error", "max_identity_dev")
# Per-run fields and row columns whose change changes what a run did.
ACCEPTANCE = ("termination", "outer_iterations", "forward_solves",
              "warnings")
ACCEPTANCE_COLUMNS = ("k", "phase", "nodes", "beta")
# Fields near rounding level, where a relative move says nothing.
ABSOLUTE = ("max_identity_dev", "stat_q", "stat_v", "stat_z")


def _hex(x) -> str:
    return float(x).hex()


def digest(report) -> dict:
    rows = [[r.k, r.phase, r.nodes]
            + [_hex(x) for x in (r.beta, r.rho, r.i1h, r.i2h, r.i3h, r.i4h,
                                 r.eta1, r.eta2, *r.stationarity)]
            for r in report.rows]
    return {"termination": report.termination,
            "warnings": list(report.warnings),
            "outer_iterations": report.outer_iterations,
            "delta": _hex(report.delta),
            "control_error": _hex(report.control_error),
            "forward_solves": report.total_forward_solves,
            "monotonicity": [bool(m) for m in report.monotonicity],
            "max_identity_dev": _hex(report.max_identity_dev),
            "rows": rows}


def dump(src: str) -> dict:
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import workloads as wl

    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in WORKLOADS:
            cfg = wl.config(name, smoke=False)
            for seed in SEEDS:
                res = wl.run_op(cfg, wl.build_inputs(cfg, seed), scratch,
                                lambda fn: fn())
                for method in ("ggn", "nt"):
                    for i, rep in enumerate(res.get(method, [])):
                        out[f"{name}/seed{seed}/{method}[{i}]"] = digest(rep)
    return out


def compare(a: dict, b: dict) -> list[str]:
    diffs = [f"only in one dump: {k}" for k in sorted(set(a) ^ set(b))]
    for key in sorted(set(a) & set(b)):
        fields = [f for f in a[key] if a[key][f] != b[key].get(f)]
        if fields:
            diffs.append(f"{key}: {', '.join(fields)} differ"
                         + _first_row_diff(a[key]["rows"], b[key]["rows"]))
    return diffs


def differing_names(ra: dict, rb: dict) -> set:
    """The fields and row columns in which two runs' dumps differ
    ("rows" too if their row counts differ)."""
    names = {f for f in ra.keys() | rb.keys()
             if f != "rows" and ra.get(f) != rb.get(f)}
    if len(ra["rows"]) != len(rb["rows"]):
        names.add("rows")
    for x, y in zip(ra["rows"], rb["rows"]):
        names.update(c for c, p, q in zip(COLUMNS, x, y) if p != q)
    return names


def rounding_level_split(a: dict, b: dict) -> tuple[int, int]:
    """(runs in both dumps that differ only in ``ABSOLUTE`` fields, runs
    that differ in any other field or column)."""
    moved = [differing_names(a[k], b[k]) for k in set(a) & set(b)]
    only = sum(bool(m) and m <= set(ABSOLUTE) for m in moved)
    return only, sum(bool(m) for m in moved) - only


def _move(name: str, x: str, y: str) -> float:
    """|y - x| of two hex floats for a field in ABSOLUTE, else
    |y - x| / |x|: 0 if they are equal (NaN and NaN too), inf if only one
    is NaN or, for a relative move, x = 0."""
    x, y = float.fromhex(x), float.fromhex(y)
    if x == y or (x != x and y != y):
        return 0.0
    if x != x or y != y:
        return float("inf")
    if name in ABSOLUTE:
        return abs(y - x)
    return abs(y - x) / abs(x) if x else float("inf")


def largest_moves(a: dict, b: dict) -> dict:
    """Largest move (``_move``) of each float field and row column over
    the runs in both dumps (rows paired by position)."""
    moves = dict.fromkeys(RUN_FLOATS + COLUMNS[3:], 0.0)
    for key in set(a) & set(b):
        for f in RUN_FLOATS:
            moves[f] = max(moves[f], _move(f, a[key][f], b[key][f]))
        for ra, rb in zip(a[key]["rows"], b[key]["rows"]):
            for col, x, y in zip(COLUMNS[3:], ra[3:], rb[3:]):
                moves[col] = max(moves[col], _move(col, x, y))
    return moves


def acceptance_changes(a: dict, b: dict) -> list[str]:
    """The runs in both dumps whose acceptance fields differ, each with
    those fields."""
    out = []
    for key in sorted(set(a) & set(b)):
        fields = [f for f in ACCEPTANCE if a[key][f] != b[key][f]]
        fields += [col for i, col in enumerate(ACCEPTANCE_COLUMNS)
                   if [r[i] for r in a[key]["rows"]]
                   != [r[i] for r in b[key]["rows"]]]
        if fields:
            out.append(f"{key}: {', '.join(fields)}")
    return out


def _first_row_diff(a: list, b: list) -> str:
    """The first differing row and its columns, as a message suffix."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        cols = [c for c, x, y in zip(COLUMNS, ra, rb) if x != y]
        if cols:
            return f"; row {i}: {', '.join(cols)}"
    if len(a) != len(b):
        return f"; row counts {len(a)} and {len(b)}"
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run the 42 runs and write their digest")
    d.add_argument("out")
    d.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory that holds the ggnfem package")
    c = sub.add_parser("compare", help="compare two digests")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)

    if args.command == "dump":
        runs = dump(os.path.abspath(args.src))
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1, sort_keys=True)
        print(f"wrote {len(runs)} runs to {args.out}")
        return 0
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    diffs = compare(a, b)
    for line in diffs:
        print(line)
    if not diffs:
        print(f"identical: {len(a)} runs")
    common = len(set(a) & set(b))
    only, elsewhere = rounding_level_split(a, b)
    print(f"of {common} runs, {only} differ only in {', '.join(ABSOLUTE)} "
          f"and {elsewhere} differ elsewhere")
    print(f"largest move over {common} runs, relative |b - a| / |a| or, "
          "where marked, absolute |b - a|:")
    for name, move in largest_moves(a, b).items():
        print(f"  {name:<17} {move:.3g}"
              + (" (absolute)" if name in ABSOLUTE else ""))
    changed = acceptance_changes(a, b)
    print(f"acceptance fields changed in {len(changed)} of {common} runs"
          + (":" if changed else ""))
    for line in changed:
        print(f"  {line}")
    return 1 if diffs else 0


if __name__ == "__main__":
    # Die by SIGPIPE, as a Unix filter does, when the reader goes away
    # (``compare a b | head``); exit statuses are unchanged otherwise.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
