"""Self-test of the benchmark in its reduced (smoke) configuration.

    python3 -m pytest perfbench/tests -q

Runs every workload once untraced and once traced through run.py, then
checks that every metric named in BENCHMARK.json is emitted, that the
layer counters are non-zero where the workload exercises the layer, and
that the layer self times add up to the traced operation time.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import WORKLOADS  # noqa: E402  (every runnable workload)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Per-layer metrics that must be positive on a workload, and those that
# must stay zero because the workload bypasses the layer.
EXERCISED = {
    "truth-l8": ["mesh.uniform_mesh.self_s", "fem.assemble_weighted_mass.self_s",
                 "problem.solve_forward.calls",
                 "problem.forward_newton_iters", "splu.problem.calls",
                 "splu.problem.fill_nnz", "mesh.cells_final"],
    "ggn-point": ["mesh.refine.calls", "fem.patch_interpolate.calls",
                  "fem.Space.calls", "subsolver.build_subproblem.calls",
                  "subsolver.solve_kkt.calls", "subsolver.adjoint_at_base.calls",
                  "splu.subsolver.calls", "subsolver.kkt_dim_max",
                  "subsolver.solves_per_factorization",
                  "estimators.estimate_eta1.calls",
                  "estimators.estimate_eta2.calls", "driver.outer_iterations",
                  "driver.accept_ratio", "driver.write_run_report.bytes"],
    "ggn-l2": ["problem.restrict_data.calls", "fem.interpolate_onto.calls",
               "mesh.refine.calls", "subsolver.solve_kkt.calls"],
    "nt-vs-ggn": ["baseline.run_nt.self_s", "baseline.forward_solves",
                  "problem.solve_forward.calls",
                  "problem.forward_newton_iters", "driver.outer_iterations"],
}
BYPASSED = {
    "truth-l8": ["subsolver.solve_kkt.calls", "mesh.refine.calls"],
    "ggn-point": ["problem.restrict_data.calls", "baseline.forward_solves"],
    "ggn-l2": ["baseline.forward_solves"],
    "nt-vs-ggn": ["problem.restrict_data.calls"],
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def results(request):
    return request.param, _run(request.param, 0), _run(request.param, 1)


def test_every_metric_emitted_and_checked(results):
    _, plain, traced = results
    for res, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        assert {m["name"]: m["unit"] for m in spec} == {
            k: v["unit"] for k, v in res["metrics"].items()}
    for key, val in plain["metrics"].items():
        assert val["value"] > 0, key


def test_layer_counters(results):
    workload, _, traced = results
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    for key in EXERCISED[workload]:
        assert m[key] > 0, key
    for key in BYPASSED[workload]:
        assert m[key] == 0, key
    # Bind-site coverage: every refinement in the report went through
    # the traced refine, whichever module namespace called it.
    assert m["mesh.refine.calls"] >= m["driver.refines"]


def test_self_times_add_up(results):
    _, _, traced = results
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    layers = ("bench", "mesh", "fem", "problem", "splu", "subsolver",
              "estimators", "driver", "baseline")
    total = sum(m[f"{layer}.self_s"] for layer in layers)
    # unattributed = mean traced operation time minus all self time.
    assert 0.0 <= m["trace.unattributed_s"] <= 0.01 * total


def test_tracer_patches_every_bind_site():
    import tracer as trc

    env_src = os.path.join(ROOT, "src")
    sys.path.insert(0, env_src)
    try:
        from ggnfem import baseline, driver, mesh

        original = mesh.refine
        tr = trc.Tracer()
        tr.install()
        try:
            assert driver.refine is mesh.refine is baseline.refine
            assert driver.refine is not original
            m = mesh.uniform_mesh(1)
            driver.refine(m, [0])
            baseline.refine(m, [1])
        finally:
            tr.uninstall()
        assert driver.refine is original and mesh.refine is original
        assert tr.calls["mesh.refine"] == 2
        assert tr.calls["mesh.uniform_mesh"] == 1
    finally:
        sys.path.remove(env_src)
