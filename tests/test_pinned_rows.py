"""Acceptance lines pinned to a recorded run.

Eight small runs: GGN and NT on point and L^2 data, fine level 5, solver
depth 4, zeta = 100, p = 1 %, noise seeds 1 and 2.  Every report row's
k, phase and node count and each run's termination and forward-solve
count must match the record in ``pinned_rows.json`` exactly, every beta
to 1e-12 relative, every QoI column of a row (rho, I1h-I4h, eta1, eta2;
NaN where the row leaves it unset) to 1e-8 relative, and each run's
control error to 1e-8 relative (the benchmark's reference tolerance).  A refactoring that claims to leave
the solvers' outputs alone is checked by this test.  NT's line search
accepts on j_new <= j_old, but a fit whose linearized model predicts no
decrease starts at the floor step, so a change of 1e-12 in its forward
solves no longer moves its steps or control errors
(``test_baseline.py::test_nt_does_not_decide_at_rounding_level``); it
may still move its forward-solve counts, through trials that all fail.

Regenerate the record, only for a change that is meant to move these
lines, with ``PYTHONPATH=src python tests/test_pinned_rows.py``.
"""

import json
import os

import pytest

from ggnfem import baseline as bl, driver as dv, problem as pb

RECORD = os.path.join(os.path.dirname(__file__), "pinned_rows.json")
FINE, DEPTH, ZETA, NOISE, SEEDS = 5, 4, 100.0, 0.01, (1, 2)
QOI_COLUMNS = ("rho", "i1h", "i2h", "i3h", "i4h", "eta1", "eta2")


def _runs(methods=("ggn", "nt")):
    """{"<method>-<obs>-<seed>": report} of the eight pinned runs, or of
    those of the given methods."""
    problem = pb.ModelProblem(zeta=ZETA)
    case = pb.synthetic_case("a")
    truth = pb.simulate_truth(problem, case, FINE)
    out = {}
    for kind, obs in (("point", pb.PointObs(9)), ("l2", pb.L2Obs())):
        for seed in SEEDS:
            data = pb.simulate_data(problem, case, obs, FINE, NOISE, seed,
                                    truth=truth)
            if "ggn" in methods:
                out[f"ggn-{kind}-{seed}"] = dv.run_ggn(
                    problem, data, dv.GgnConfig(max_depth=DEPTH))
            if "nt" in methods:
                out[f"nt-{kind}-{seed}"] = bl.run_nt(
                    problem, data, bl.NtConfig(max_depth=DEPTH))
    return out


def _lines(report) -> dict:
    return {"termination": report.termination,
            "forward_solves": report.total_forward_solves,
            "control_error": report.control_error,
            "rows": [[r.k, r.phase, r.nodes, r.beta]
                     + [getattr(r, c) for c in QOI_COLUMNS]
                     for r in report.rows]}


@pytest.fixture(scope="module")
def pinned():
    with open(RECORD) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reports():
    return _runs()


def test_pinned_acceptance_lines(pinned, reports):
    assert sorted(reports) == sorted(pinned)
    for name, report in reports.items():
        want, got = pinned[name], _lines(report)
        assert got["termination"] == want["termination"], name
        assert got["forward_solves"] == want["forward_solves"], name
        assert got["control_error"] == pytest.approx(
            want["control_error"], rel=1e-8, abs=0.0), name
        assert len(got["rows"]) == len(want["rows"]), name
        for i, (g, w) in enumerate(zip(got["rows"], want["rows"])):
            assert g[:3] == w[:3], (name, i)
            assert g[3] == pytest.approx(w[3], rel=1e-12, abs=0.0), (name, i)
            assert g[4:] == pytest.approx(w[4:], rel=1e-8, abs=0.0,
                                          nan_ok=True), (name, i)


if __name__ == "__main__":
    runs = []  # one report row per line
    for name, report in sorted(_runs().items()):
        lines = _lines(report)
        rows = ",\n  ".join(json.dumps(r) for r in lines["rows"])
        runs.append(f'"{name}": {{"termination": "{lines["termination"]}", '
                    f'"forward_solves": {lines["forward_solves"]}, '
                    f'"control_error": {lines["control_error"]!r}, '
                    f'"rows": [\n  {rows}]}}')
    with open(RECORD, "w") as fh:
        fh.write("{\n" + ",\n".join(runs) + "\n}\n")
