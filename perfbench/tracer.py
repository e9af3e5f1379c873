"""Outside-in span tracer for the ggnfem benchmark.

The tracer replaces selected functions of the ``ggnfem`` modules (and the
``scipy.sparse.linalg.splu`` library boundary) with thin wrappers that
open a span on entry and close it on exit.  Spans live in memory as
``(name, start, end, parent index, operation id)`` rows; the self time of
a span is its duration minus the time covered by its direct children.

Several ggnfem modules bind functions by name (``from .mesh import
refine``), so patching only the defining module would miss those calls.
``Tracer.install`` therefore rebinds the function in every loaded
``ggnfem`` module whose namespace holds the original object.

Nothing here changes results: each wrapper calls the original with the
same arguments and returns its value unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (layer, attribute) of every traced function; the layer is the ggnfem
# module that defines it.  The span name is "<layer>.<attribute>";
# "fem.Space" traces the Space constructor.
TRACED = [
    ("mesh", "uniform_mesh"),
    ("mesh", "refine"),
    ("mesh", "locate"),
    ("fem", "Space"),
    ("fem", "assemble_weighted_mass"),
    ("fem", "interpolate_onto"),
    ("fem", "riesz_dual_norm"),
    ("fem", "patch_interpolate"),
    ("problem", "simulate_truth"),
    ("problem", "simulate_data"),
    ("problem", "solve_forward"),
    ("problem", "linearized_state_operator"),
    ("problem", "semilinear_residual"),
    ("problem", "restrict_data"),
    ("subsolver", "build_subproblem"),
    ("subsolver", "solve_kkt"),
    ("subsolver", "solve_second_order"),
    ("subsolver", "adjoint_at_base"),
    ("estimators", "estimate_eta1"),
    ("estimators", "estimate_eta2"),
    ("estimators", "compute_qoi"),
    ("driver", "run_ggn"),
    ("driver", "write_run_report"),
    ("baseline", "run_nt"),
]

LAYERS = ("bench", "mesh", "fem", "problem", "splu", "subsolver",
          "estimators", "driver", "baseline")

# Layers whose splu calls are attributed separately.
SPLU_CALLERS = ("problem", "fem", "subsolver")


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name idx, start, end, parent, op)
        self._stack: list[list] = []  # [index, name, start, child_s, parent]
        self.open = Counter()  # name -> number of open spans
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.op_id = -1
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str) -> None:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([idx, name, time.perf_counter(), 0.0, parent])
        self.open[name] += 1

    def exit(self) -> None:
        end = time.perf_counter()
        idx, name, start, child_s, parent = self._stack.pop()
        dur = end - start
        self.open[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        if self._stack:
            self._stack[-1][3] += dur
        ni = self._name_idx.get(name)
        if ni is None:
            ni = self._name_idx[name] = len(self.names)
            self.names.append(name)
        self.spans[idx] = (ni, start, end, parent, self.op_id)

    def caller(self) -> str | None:
        """Name of the innermost open span, or None outside any span."""
        return self._stack[-1][1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        """Open one span around a block."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each of its ggnfem bind sites."""
        import scipy.sparse.linalg as spla

        mods = [mod for name, mod in sys.modules.items()
                if name == "ggnfem" or name.startswith("ggnfem.")]
        for layer, attr in TRACED:
            span_name = f"{layer}.{attr}"
            original = getattr(sys.modules[f"ggnfem.{layer}"], attr, None)
            if original is None:
                continue
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", init,
                            self._wrap(span_name, init))
                continue
            wrapped = self._wrap(span_name, original)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapped)
        self._patch(spla, "splu", spla.splu, self._wrap_splu(spla.splu))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _patch(self, target, key, original, wrapped) -> None:
        setattr(target, key, wrapped)
        self._patches.append((target, key, original))

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def _wrap_splu(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = self.caller()
            layer = caller.split(".", 1)[0] if caller else "bench"
            idx = len(self.spans)
            self.enter("splu")
            try:
                lu = fn(*args, **kwargs)
            finally:
                self.exit()
            _, start, end, _, _ = self.spans[idx]
            fill = lu.L.nnz + lu.U.nnz
            self.counters["splu.fill_nnz"] += fill
            if layer in SPLU_CALLERS:
                self.counters[f"splu.{layer}.calls"] += 1
                self.counters[f"splu.{layer}.self_s"] += end - start
                self.counters[f"splu.{layer}.fill_nnz"] += fill
            if caller in ("subsolver.solve_kkt", "subsolver.solve_second_order"):
                self.counters["splu.kkt_calls"] += 1
            return lu

        return traced

    # -- aggregates --------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def write(self, path) -> None:
        """Dump all spans as JSON: a name table plus one row per span."""
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "names": self.names,
                       "spans": [list(s) for s in self.spans]}, fh)


def _count_newton_iter(tracer: Tracer, args) -> None:
    if tracer.open["problem.solve_forward"]:
        tracer.counters["problem.forward_newton_iters"] += 1


def _count_nt_forward(tracer: Tracer, args) -> None:
    if tracer.open["baseline.run_nt"]:
        tracer.counters["baseline.forward_solves"] += 1


def _count_kkt_solve(tracer: Tracer, args) -> None:
    sub = args[0]
    dim = sub.Q.dim + 2 * sub.V.dim
    if dim > tracer.counters["subsolver.kkt_dim_max"]:
        tracer.counters["subsolver.kkt_dim_max"] = dim
    if tracer.open["driver.run_ggn"]:
        tracer.counters["driver.kkt_solves"] += 1


# Per-call hooks, run before the span opens; they see the call arguments.
_HOOKS = {
    "problem.linearized_state_operator": _count_newton_iter,
    "problem.solve_forward": _count_nt_forward,
    "subsolver.solve_kkt": _count_kkt_solve,
}
