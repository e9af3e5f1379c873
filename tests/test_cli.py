import csv
import dataclasses
import functools
import math
import types

import pytest
import scipy.sparse.linalg as spla

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
    that simulating each entry on its own (as --jobs workers do) gives,
    up to the timing columns."""
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


def test_table_empty_sweep(tmp_path):
    out = tmp_path / "empty"
    rc = cli.main(["--out", str(out), "table", "--sweep", "noise"])
    assert rc == 0
    text = (out / "table_noise.csv").read_text().splitlines()
    assert len(text) == 1  # header only


def test_theory_check_exit_codes(capsys):
    assert cli.main(["theory-check", "--trials", "20"]) == 0
    outerr = capsys.readouterr()
    assert "RESULT: PASS" in outerr.out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-command"])
    assert exc.value.code == 2


def test_missing_config_is_reported():
    assert cli.main(["--config", "/nonexistent.cfg", "theory-check"]) == 1


def test_table_failed_row_exit_code(tmp_path):
    out = tmp_path / "bad"
    rc = cli.main(["--fine-levels", "3", "--out", str(out), "table",
                   "--sweep", "zeta", "--values", "-1"])
    assert rc == 1
    with open(out / "table_zeta.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"].startswith("failed:")


def _singular(A, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _splu_failing_if(fails, A, kwargs):
    if fails:
        _singular(A)
    return spla.splu(A, **kwargs)


def _singular_kkt(A, **kwargs):
    """splu that fails on the KKT matrix (its -beta M_V block has a
    negative diagonal) and factorizes every SPD matrix as usual (their
    diagonals are positive)."""
    return _splu_failing_if((A.diagonal() < 0).any(), A, kwargs)


def _singular_mass(A, **kwargs):
    """splu that fails on mass matrices, the only ones with no negative
    entry."""
    return _splu_failing_if((A.data > 0).all(), A, kwargs)


def _singular_stiffness(A, **kwargs):
    """splu that fails on stiffness matrices, the only ones with a
    positive diagonal and negative entries."""
    return _splu_failing_if(
        (A.diagonal() > 0).all() and (A.data < 0).any(), A, kwargs)


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
    ((), "run-ggn", ss, _singular_kkt, "kkt-failure", "KKT"),
    ((), "run-ggn", ss, _singular, "kkt-failure", "KKT"),
    ((), "run-nt", ss, _singular_kkt, "kkt-failure", "KKT"),
    # The forward solve factorizes only the stiffness matrix, in fem.
    ((), "run-nt", fem, _singular, "forward-failure", "stiffness"),
    # GGN first factorizes it for the adjoint at the base point.
    ((), "run-ggn", fem, _singular, "kkt-failure", "stiffness"),
    # On L^2 data every matrix is symmetric and factorized in fem: the
    # reduced KKT matrix, the Q mass matrix of the data restriction and
    # the stiffness matrix of NT's forward solve.
    (("--obs", "l2"), "run-ggn", fem, _singular_kkt, "kkt-failure", "KKT"),
    (("--obs", "l2"), "run-ggn", fem, _singular_mass, "kkt-failure", "mass"),
    (("--obs", "l2"), "run-nt", fem, _singular_stiffness, "forward-failure",
     "stiffness"),
]


@pytest.mark.parametrize(
    "options,command,module,splu,termination,matrix", _SOLVER_FAILURES,
    ids=["-".join([*o[1:], c, m.__name__, s.__name__, t])
         for o, c, m, s, t, _ in _SOLVER_FAILURES])
def test_solver_failure_ends_run_cleanly(tmp_path, monkeypatch, options,
                                         command, module, splu, termination,
                                         matrix):
    _fail_after_simulation(monkeypatch, module, "spla",
                           types.SimpleNamespace(splu=splu))
    manifest = _run_failing(tmp_path, command, *options)
    assert f"termination = {termination}" in manifest
    assert "warning = " in manifest and "singular" in manifest
    assert f"{matrix} factorization failed" in manifest


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
