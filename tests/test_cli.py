import csv
import dataclasses
import functools
import math
import os
import re
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf

from ggnfem import cli, fem, problem as pb, subsolver as ss


def test_config_roundtrip(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[experiment]\ncase = a\nzeta = 50\nnoise = 0.02\nseed = 4\n"
        "fine_levels = 5\n\n[ggn]\nmax_depth = 4\nbeta0 = 20\n")
    exp, ggn, nt = cli.load_config(cfg)
    assert exp.zeta == 50.0 and exp.seed == 4 and exp.noise == 0.02
    assert ggn.max_depth == 4 and ggn.beta0 == 20.0
    assert nt.tau_up == 5.0  # untouched defaults


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nbogus = 1\n")
    with pytest.raises(KeyError):
        cli.load_config(cfg)
    cfg.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(KeyError):
        cli.load_config(cfg)


def test_config_rejects_misspelled_booleans(tmp_path, capsys):
    """A boolean takes configparser's spellings only; a misspelled one
    must not read False and switch the assumption check off."""
    cfg = tmp_path / "typo.cfg"
    for spelling, enforce in (("off", False), ("No", False), ("1", True)):
        cfg.write_text(f"[ggn]\nenforce_assumptions = {spelling}\n")
        assert cli.load_config(cfg)[1].enforce_assumptions is enforce
    cfg.write_text("[ggn]\nenforce_assumptions = flase\ntau = 0.5\n")
    out = tmp_path / "run"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "run-ggn"]) == 1
    err = capsys.readouterr().err
    assert "enforce_assumptions" in err and "'flase'" in err
    assert not out.exists()


def test_config_text_ignores_field_order():
    """The manifest's config_hash hashes config_text, so the text must
    depend on the settings only: the same values declared in another
    order give the same text."""
    exp, ggn, nt = cli.load_config()
    reordered = dataclasses.make_dataclass(
        "Reordered", [(f.name, f.type) for f in dataclasses.fields(ggn)][::-1])
    flipped = reordered(**dataclasses.asdict(ggn))
    assert cli.config_text(exp, flipped, nt) == cli.config_text(exp, ggn, nt)


def test_simulate_idempotent(tmp_path):
    out = tmp_path / "bundle"
    args = ["--zeta", "100", "--noise", "0", "--fine-levels", "4",
            "--seed", "2", "--out", str(out), "simulate"]
    assert cli.main(args) == 0
    first = (out / "observations.csv").read_bytes()
    manifest = (out / "manifest.txt").read_text()
    assert "delta = 0" in manifest
    assert cli.main(args) == 0
    assert (out / "observations.csv").read_bytes() == first


def test_run_ggn_cli(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["--zeta", "100", "--noise", "0.01", "--fine-levels", "6",
                   "--seed", "3", "--out", str(out), "run-ggn"])
    assert rc == 0
    assert (out / "manifest.txt").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "control_error" in manifest
    assert _manifest_value(out, "forward_solves") == "0"
    rows = _report_rows(out)
    assert rows[0]["phase"] == "init"
    assert all(math.isnan(x) for x in _stationarity(rows[0]))
    assert all(0.0 <= x <= 1e-8 for r in rows[1:] for x in _stationarity(r))


def _report_rows(outdir):
    with open(outdir / "report.csv") as fh:
        return list(csv.DictReader(fh))


def _manifest_value(outdir, key):
    """The value of ``key = value`` in the run's manifest."""
    for line in (outdir / "manifest.txt").read_text().splitlines():
        name, _, value = line.partition(" = ")
        if name == key:
            return value
    raise KeyError(key)


def _stationarity(row):
    """The KKT stationarity residuals (q, v, z) of a report row."""
    return [float(row[k]) for k in ("stat_q", "stat_v", "stat_z")]


def test_run_nt_cli(tmp_path):
    out = tmp_path / "nt"
    rc = cli.main(["--zeta", "1", "--noise", "0.01", "--fine-levels", "5",
                   "--seed", "3", "--out", str(out), "run-nt"])
    assert rc == 0
    assert "method = NT" in (out / "manifest.txt").read_text()
    assert int(_manifest_value(out, "forward_solves")) > 0
    rows = _report_rows(out)
    assert rows and rows[-1]["phase"] == "accept"
    assert all(0.0 <= x <= 1e-8 for r in rows for x in _stationarity(r))


def test_table_sweep(tmp_path):
    out = tmp_path / "tab"
    rc = cli.main(["--noise", "0.01", "--fine-levels", "5", "--seed", "2",
                   "--out", str(out), "table", "--sweep", "zeta",
                   "--values", "1", "100"])
    assert rc == 0
    with open(out / "table_zeta.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["1.0", "100.0"]
    assert all(r["status"] == "discrepancy" for r in rows)


def test_noise_sweep_builds_one_truth(tmp_path, monkeypatch):
    """A serial noise sweep simulates the truth once and writes the rows
    that simulating each entry on its own gives, up to the timing
    columns."""
    calls = []
    simulate_truth = pb.simulate_truth
    monkeypatch.setattr(pb, "simulate_truth",
                        lambda *a: calls.append(a) or simulate_truth(*a))
    out = tmp_path / "noise"
    argv = ["--fine-levels", "5", "--seed", "3", "--out", str(out), "table",
            "--sweep", "noise", "--values", "0.005", "0.01", "0.02",
            "--with-nt"]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    with open(out / "table_noise.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    exp, ggn, nt = cli.load_config()
    exp = dataclasses.replace(exp, fine_levels=5, seed=3, out=str(out))
    alone = [row for v in (0.005, 0.01, 0.02)
             for row in cli._sweep_row((exp, ggn, nt, v, "noise", True))]
    timing = cli._TABLE_COLUMNS.index("wall_time")
    assert [r[:timing] for r in rows] == [
        [str(x) for x in r[:timing]] for r in alone]
    assert len(calls) == 4


def test_parallel_noise_sweep_inherits_its_truth(tmp_path, monkeypatch):
    """With --jobs 2 the truth is simulated once, in the parent: a worker
    that simulated one would fail its row.  The table equals the serial
    one up to the timing columns."""
    calls, parent = [], os.getpid()
    simulate_truth = pb.simulate_truth

    def parent_only(*a):
        if os.getpid() != parent:
            raise RuntimeError("a worker simulated a truth")
        calls.append(a)
        return simulate_truth(*a)

    monkeypatch.setattr(pb, "simulate_truth", parent_only)
    tables = []
    for jobs in ("2", "1"):
        out = tmp_path / jobs
        assert cli.main(["--fine-levels", "5", "--seed", "3", "--out",
                         str(out), "table", "--sweep", "noise", "--values",
                         "0.005", "0.01", "0.02", "--jobs", jobs]) == 0
        with open(out / "table_noise.csv") as fh:
            tables.append([r[:cli._TABLE_COLUMNS.index("wall_time")]
                           for r in csv.reader(fh)])
    assert len(calls) == 2
    assert tables[0] == tables[1]


def test_table_empty_sweep(tmp_path):
    """A sweep without values, or with an empty --values, is a usage
    error (exit code 2) and writes no table."""
    out = tmp_path / "empty"
    for values in ([], ["--values"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(out), "table", "--sweep", "noise"]
                     + values)
        assert exc.value.code == 2
    assert not out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-command"])
    assert exc.value.code == 2


def test_missing_config_is_reported(tmp_path):
    """A config path that names no file, or a directory, ends in exit
    code 1, not a traceback."""
    assert cli.main(["--config", "/nonexistent.cfg", "simulate"]) == 1
    assert cli.main(["--config", str(tmp_path), "simulate"]) == 1


_BETA_RANGE = "need 0 < beta_min <= beta0 <= beta_max"
_MARKING = "need 0 < marking_fraction <= 1"
_LEVELS = "need 1 <= coarse_levels <= max_depth"
_MALFORMED = ("no section headers", "parsing errors", "already exists")


@pytest.mark.parametrize("flags, config, message", [
    (["--zeta", "nan", "run-ggn"], "", "finite zeta"),
    (["--zeta", "1e300", "simulate"], "", "Newton did not converge"),
    (["--noise", "-0.1", "simulate"], "", "finite noise level"),
    (["--noise", "nan", "simulate"], "", "finite noise level"),
    (["run-ggn"], "[ggn]\nbeta0 = 0\n", _BETA_RANGE),
    (["--obs", "l2", "run-ggn"], "[ggn]\nbeta0 = 0\n", _BETA_RANGE),
    (["run-nt"], "[nt]\nbeta0 = 0\n", _BETA_RANGE),
    (["run-ggn"], "[ggn]\nbeta0 = 1e20\n", _BETA_RANGE),
    (["run-nt"], "[nt]\ngn_cap = -1\n", "gn_cap >= 0"),
    (["run-ggn"], "[ggn]\nmarking_fraction = 0\n", _MARKING),
    (["run-ggn"], "[ggn]\nmarking_fraction = 2\n", _MARKING),
    (["run-ggn"], "[ggn]\nmax_depth = 1\n", _LEVELS),
    (["run-ggn"], "[ggn]\ncoarse_levels = 0\n", _LEVELS),
    (["run-nt"], "[nt]\ncoarse_levels = 0\n", _LEVELS),
    (["run-ggn"], "[ggn]\nmax_beta_steps = -1\n", "max_beta_steps >= 0"),
    (["run-ggn"], "[experiment]\nn_points = 0\n", "n_side >= 1"),
    (["simulate"], "zeta = 1\n", "no section headers"),
    (["simulate"], "[ggn]\nmax_depth\n", "parsing errors"),
    (["simulate"], "[ggn]\nbeta0 = 1\n[ggn]\n", "already exists"),
], ids=["zeta-nan", "zeta-1e300", "noise-negative", "noise-nan",
        "beta0-zero", "beta0-zero-l2", "beta0-zero-nt", "beta0-above-max",
        "gn-cap-negative", "marking-zero", "marking-two",
        "depth-below-coarse", "coarse-zero", "coarse-zero-nt",
        "beta-steps-negative", "points-zero", "no-section-header",
        "key-without-value", "repeated-section"])
def test_bad_zeta_or_noise_is_reported(tmp_path, capsys, flags, config,
                                       message):
    """An out-of-range zeta, noise level, beta0, gn_cap, refinement
    setting or observation lattice, a truth build that fails, or a
    malformed config file ends with exit code 1 and one error line, not
    a traceback.  All but zeta and the noise level come from a config
    file."""
    path = tmp_path / "run.cfg"
    path.write_text(config)
    rc = cli.main(["--config", str(path), "--fine-levels", "4",
                   "--out", str(tmp_path / "x")] + flags)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n")
    if message in _MALFORMED:  # the one line names the file and the line
        assert str(path) in err and re.search(r"line:? \d", err)


def test_table_failed_row_exit_code(tmp_path):
    """A failed entry becomes a "failed:" row of the method that failed
    and the exit code is 1.  When NT fails, the GGN row of its entry
    stays as GGN ran."""
    out = tmp_path / "bad"
    rc = cli.main(["--fine-levels", "3", "--out", str(out), "table",
                   "--sweep", "zeta", "--values", "-1"])
    assert rc == 1
    with open(out / "table_zeta.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"].startswith("failed:")
    path = tmp_path / "nt.cfg"
    path.write_text("[nt]\nmax_depth = 1\n")
    rc = cli.main(["--config", str(path), "--fine-levels", "5", "--out",
                   str(out), "table", "--sweep", "noise", "--values", "0.01",
                   "--with-nt"])
    assert rc == 1
    with open(out / "table_noise.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["status"]) for r in rows] == [
        ("GGN", "discrepancy"),
        ("NT", "failed: need 1 <= coarse_levels <= max_depth")]


def _singular(A, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _splu_failing_if(fails, A, kwargs):
    if fails:
        _singular(A)
    return spla.splu(A, **kwargs)


def _singular_kkt(A, **kwargs):
    """splu that fails on the complex KKT matrix of L^2 data and
    factorizes every real SPD matrix as usual."""
    return _splu_failing_if(np.iscomplexobj(A), A, kwargs)


def _singular_dense_lu(A, **kwargs):
    """dgetrf of a zero matrix in place of the dense point-data KKT
    matrix: LAPACK reports a zero pivot."""
    return dgetrf(np.zeros_like(A), **kwargs)


def _singular_woodbury_k(A, name):
    """symmetric_lu of a zero matrix in place of K on the Woodbury route
    of point data, its one factorization named KKT: SuperLU fails."""
    return _SYMMETRIC_LU(A * 0.0 if name == "KKT" else A, name)


_SYMMETRIC_LU = fem.symmetric_lu


def _cg_breakdown_on_mass(A, *args):
    """The CG with a zero matrix in place of the Q mass matrix of the L^2
    data restriction, the only matrix it sees with no negative entry:
    p' A p = 0 is a breakdown.  The adjoint's CG runs as usual."""
    return _PCG(A * 0.0 if (A.data > 0).all() else A, *args)


_PCG = pb._pcg


def _singular_stiffness(A, **kwargs):
    """splu that fails on stiffness matrices, the only real ones with a
    positive diagonal and negative entries."""
    return _splu_failing_if(
        not np.iscomplexobj(A) and (A.diagonal() > 0).all()
        and (A.data < 0).any(), A, kwargs)


def _fail_after_simulation(monkeypatch, module, name, value):
    """Replace ``module.name`` by ``value`` once the data exist, so the
    fault hits the solver run and not the forward simulation."""
    simulate = cli._simulate

    def simulate_then_fail(exp):
        data = simulate(exp)
        monkeypatch.setattr(module, name, value)
        return data

    monkeypatch.setattr(cli, "_simulate", simulate_then_fail)


def _run_failing(tmp_path, command, *options):
    """Run a command that must fail; returns its manifest text."""
    out = tmp_path / "failed"
    rc = cli.main([*options, "--zeta", "100", "--noise", "0.01",
                   "--fine-levels", "5", "--seed", "3", "--out", str(out),
                   command])
    assert rc == 1
    return (out / "manifest.txt").read_text()


_SOLVER_FAILURES = [
    # Point data: the dense LU of the small KKT systems, and K's
    # factorization on the Woodbury route, forced by a zero size bound.
    ((), "run-ggn", ss, _singular_dense_lu, "kkt-failure",
     "KKT factorization failed"),
    ((), "run-ggn", fem, _singular_woodbury_k, "kkt-failure",
     "KKT factorization failed"),
    ((), "run-nt", ss, _singular_dense_lu, "kkt-failure",
     "KKT factorization failed"),
    # The forward solve factorizes only the stiffness matrix, in fem.
    ((), "run-nt", fem, _singular, "forward-failure",
     "stiffness factorization failed"),
    # GGN first factorizes it for the adjoint at the base point.
    ((), "run-ggn", fem, _singular, "kkt-failure",
     "stiffness factorization failed"),
    # On L^2 data every factorized matrix is symmetric and factorized in
    # fem: the complex form of the reduced KKT matrix and the stiffness
    # matrix of NT's forward solve.  The data restriction factorizes
    # nothing; its CG can break down.
    (("--obs", "l2"), "run-ggn", fem, _singular_kkt, "kkt-failure",
     "KKT factorization failed"),
    (("--obs", "l2"), "run-ggn", pb, _cg_breakdown_on_mass,
     "restriction-failure", "data restriction CG broke down"),
    (("--obs", "l2"), "run-nt", fem, _singular_stiffness, "forward-failure",
     "stiffness factorization failed"),
]
# The attribute each fault replaces; splu stand-ins go in as spla.splu.
_FAULT_SITES = {_singular_dense_lu: "dgetrf",
                _singular_woodbury_k: "symmetric_lu",
                _cg_breakdown_on_mass: "_pcg"}


@pytest.mark.parametrize(
    "options,command,module,fault,termination,warning", _SOLVER_FAILURES,
    ids=["-".join([*o[1:], c, m.__name__, f.__name__, t])
         for o, c, m, f, t, _ in _SOLVER_FAILURES])
def test_solver_failure_ends_run_cleanly(tmp_path, monkeypatch, options,
                                         command, module, fault, termination,
                                         warning):
    site = _FAULT_SITES.get(fault, "spla")
    if fault is _singular_woodbury_k:
        monkeypatch.setattr(ss, "DENSE_MAX_NV", 0)
    _fail_after_simulation(monkeypatch, module, site, fault if site != "spla"
                           else types.SimpleNamespace(splu=fault))
    manifest = _run_failing(tmp_path, command, *options)
    assert f"termination = {termination}" in manifest
    assert f"warning = {warning}" in manifest
    if "factorization" in warning:
        assert "singular" in manifest


def test_non_finite_kkt_solution_ends_run_cleanly(tmp_path, monkeypatch):
    """A KKT solution with NaN entries fails the stationarity gate (NaN
    residuals compare false against any tolerance)."""
    solve = ss._solve_reduced

    def nan_once(*args):
        monkeypatch.setattr(ss, "_solve_reduced", solve)
        q, v, z = solve(*args)
        return q, np.full_like(v, np.nan), z

    _fail_after_simulation(monkeypatch, ss, "_solve_reduced", nan_once)
    manifest = _run_failing(tmp_path, "run-ggn")
    assert "termination = kkt-failure" in manifest
    assert "warning = stationarity residuals too large: (" in manifest
    assert "nan" in manifest


@pytest.mark.parametrize("command,config,warning", [
    ("run-ggn", "[ggn]\nmax_beta_steps = 0\n", "no beta found in 0 updates"),
    ("run-nt", "[nt]\nmax_beta_steps = 0\n",
     "beta search exhausted in the reduced solver"),
], ids=["run-ggn", "run-nt"])
def test_beta_search_failure_ends_run_cleanly(tmp_path, command, config,
                                              warning):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    manifest = _run_failing(tmp_path, command, "--config", str(cfg))
    assert "termination = beta-search-failure" in manifest
    assert f"warning = {warning}" in manifest


def test_forward_failure_ends_nt_run_cleanly(tmp_path, monkeypatch):
    _fail_after_simulation(monkeypatch, pb, "solve_forward",
                           functools.partial(pb.solve_forward, max_iter=1))
    manifest = _run_failing(tmp_path, "run-nt")
    assert "termination = forward-failure" in manifest
    assert "warning = Newton did not converge" in manifest
