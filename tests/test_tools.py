"""``tools/row_digest.py compare``: the count of differing runs that
differ only at rounding level and elsewhere, the largest move of each
float field and row column (absolute for the fields at rounding level,
relative for the others), the runs whose acceptance fields changed, the
exit status (1 whenever the dumps differ at all), and a quiet end on a
closed pipe."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
from unittest import mock

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def row_digest():
    spec = importlib.util.spec_from_file_location(
        "row_digest", os.path.join(ROOT, "tools", "row_digest.py"))
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # it pins the BLAS threads on import
        spec.loader.exec_module(module)
    return module


def _run(beta=10.0, i1h=2.0, control_error=0.25, forward_solves=0,
         stat_v=1e-16, identity_dev=1e-17):
    h = float.hex
    row = ([1, "solve", 25, h(beta), h(0.5), h(i1h)] + [h(1.0)] * 5
           + [h(1e-16), h(stat_v), h(1e-16)])
    return {"termination": "discrepancy", "warnings": [],
            "outer_iterations": 1, "delta": h(0.1),
            "control_error": h(control_error),
            "forward_solves": forward_solves, "monotonicity": [True],
            "max_identity_dev": h(identity_dev), "rows": [row]}


def test_compare_reports_moves_and_acceptance_changes(row_digest, tmp_path,
                                                      capsys):
    a = {"w/seed1/ggn[0]": _run(), "w/seed1/nt[0]": _run()}
    b = {"w/seed1/ggn[0]": _run(i1h=2.0 * (1 + 2**-40),
                                control_error=0.25 * (1 + 2**-50),
                                stat_v=2**-50, identity_dev=3e-17),
         "w/seed1/nt[0]": _run(beta=100.0, forward_solves=3)}
    moves = row_digest.largest_moves(a, b)
    assert moves["i1h"] == 2**-40 and moves["control_error"] == 2**-50
    assert moves["beta"] == 9.0 and moves["delta"] == moves["i2h"] == 0.0
    # Fields at rounding level move by |b - a|, not |b - a| / |a|.
    assert moves["stat_v"] == 2**-50 - 1e-16
    assert moves["max_identity_dev"] == 3e-17 - 1e-17
    assert moves["stat_q"] == moves["stat_z"] == 0.0
    assert row_digest.acceptance_changes(a, b) == [
        "w/seed1/nt[0]: forward_solves, beta"]
    assert row_digest.rounding_level_split(a, b) == (0, 2)

    paths = []
    for name, dump in (("a", a), ("b", b), ("a2", a)):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(dump, fh)
    assert row_digest.main(["compare", paths[0], paths[1]]) == 1
    out = capsys.readouterr().out
    assert "acceptance fields changed in 1 of 2 runs:" in out
    assert ("of 2 runs, 0 differ only in max_identity_dev, stat_q, stat_v, "
            "stat_z and 2 differ elsewhere\n") in out
    assert "  w/seed1/nt[0]: forward_solves, beta" in out
    assert f"  {'stat_v':<17} {2**-50 - 1e-16:.3g} (absolute)\n" in out
    assert f"  {'i1h':<17} {2**-40:.3g}\n" in out
    assert row_digest.main(["compare", paths[0], paths[2]]) == 0
    out = capsys.readouterr().out
    assert "identical: 2 runs" in out
    assert "acceptance fields changed in 0 of 2 runs" in out
    assert "of 2 runs, 0 differ only in" in out and "0 differ elsewhere" in out


def test_compare_counts_runs_moved_only_at_rounding_level(row_digest,
                                                          tmp_path, capsys):
    """A run whose stationarity residuals or identity deviation alone
    moved counts as rounding-level only; any other field or column, a
    row count included, counts as elsewhere.  The exit status stays 1."""
    a = {f"w/seed1/ggn[{i}]": _run() for i in range(5)}
    b = dict(a)
    b["w/seed1/ggn[0]"] = _run(stat_v=2e-16)
    b["w/seed1/ggn[1]"] = _run(stat_v=2e-16, identity_dev=2e-17)
    b["w/seed1/ggn[2]"] = _run(stat_v=2e-16, i1h=3.0)
    b["w/seed1/ggn[3]"] = dict(_run(), rows=_run()["rows"] * 2)
    assert row_digest.differing_names(a["w/seed1/ggn[1]"],
                                      b["w/seed1/ggn[1]"]) == {
        "stat_v", "max_identity_dev"}
    assert row_digest.differing_names(a["w/seed1/ggn[3]"],
                                      b["w/seed1/ggn[3]"]) == {"rows"}
    assert row_digest.rounding_level_split(a, b) == (2, 2)
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path, dump in zip(paths, (a, b)):
        with open(path, "w") as fh:
            json.dump(dump, fh)
    assert row_digest.main(["compare", *paths]) == 1
    assert ("of 5 runs, 2 differ only in max_identity_dev, stat_q, stat_v, "
            "stat_z and 2 differ elsewhere\n") in capsys.readouterr().out


def test_compare_ends_quietly_on_a_closed_pipe(tmp_path):
    """``compare a b | head``: a reader that goes away ends the tool by
    SIGPIPE, with no BrokenPipeError traceback."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"w/seed1/ggn[0]": _run()}))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "tools", "row_digest.py"),
         "compare", str(path), str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the tool writes
    err = proc.stderr.read()
    assert proc.wait() == -signal.SIGPIPE
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
