"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_reference as ref
from sixbeam import cli
from sixbeam.cli import _table_text, main
from sixbeam import coefficients as cf
from sixbeam import eigenbasis as eb
from sixbeam import galerkin as gk
from sixbeam import oracle as oc
from sixbeam.eigenbasis import Parity, build_basis


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalues_table(capsys):
    code, out, err = run(capsys, ["eigenvalues", "--m-max", "6"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,lambda_even,asymptotic_even,lambda_odd,asymptotic_odd"
    assert len(lines) == 8  # header + m = 0..6
    assert lines[1].split(",") == ["0", "0", "", "", ""]
    row1 = lines[2].split(",")
    assert float(row1[1]) == pytest.approx(ref.LAM_EVEN[1], rel=1e-14)
    assert float(row1[3]) == pytest.approx(ref.LAM_ODD[1], rel=1e-14)
    assert float(row1[4]) == pytest.approx((1 - 1 / 3) * np.pi, rel=1e-14)


def test_eigenvalues_m_max_zero_emits_constant_mode_row(capsys):
    code, out, _ = run(capsys, ["eigenvalues", "--m-max", "0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0,0,")


def test_eigenvalues_single_odd_row_json(capsys):
    code, out, _ = run(capsys, ["eigenvalues", "--m-max", "1",
                                "--parity", "odd", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert doc[0]["m"] == 1
    assert doc[0]["lambda_odd"] == pytest.approx(ref.LAM_ODD[1], rel=1e-14)


def test_eigenvalues_defaults_to_M(capsys):
    code, out, _ = run(capsys, ["eigenvalues", "--M", "2"])
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_eigenvalues_file_output(tmp_path, capsys):
    stem = str(tmp_path / "eig")
    code, out, _ = run(capsys, ["eigenvalues", "--m-max", "3", "--out", stem])
    assert code == 0
    table = (tmp_path / "eig.table.csv").read_bytes()
    assert table.endswith(b"\n") and b"\r" not in table
    summary = json.loads((tmp_path / "eig.summary.json").read_text())
    assert summary["rows"] == 4 and "timings_ms" in summary


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_small_basis_runs(capsys):
    code, out, _ = run(capsys, ["solve", "--model", "I", "--M", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["u0c"] == pytest.approx(ref.U0C_EXACT, rel=1e-13)
    assert doc["decay_fit"] is None  # window [50, M] empty at M = 4
    assert doc["error_tier"] == "unmet"


def test_solve_model_ii_summary(capsys):
    code, out, _ = run(capsys, ["solve", "--model", "II", "--M", "100"])
    assert code == 0
    doc = json.loads(out)
    assert doc["max_error"] <= 5e-13
    assert doc["error_tier"] == "stretch"
    assert doc["solver"]["path"] == "cholesky" and doc["solver"]["pivots_all_negative"]
    assert -8.3 < doc["decay_fit"]["exponent"] < -7.6
    assert doc["decay_fit"]["window"] == [50, 100]


def test_solve_summary_reports_the_path_the_solver_took(capsys):
    # A warning would mean the solver fell back to LU behind the summary.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["solve", "--model", "II",
                                      "--M", str(gk._KRYLOV_CROSSOVER)])
    assert code == 0 and err == ""
    solver = json.loads(out)["solver"]
    assert solver["path"] == "cholesky" and solver["pivots_all_negative"]
    code, out, err = run(capsys, ["solve", "--model", "II", "--a4", "10",
                                  "--M", "100"])
    assert code == 0 and err == ""
    assert json.loads(out)["solver"]["path"] == "gmres"
    code, out, err = run(capsys, ["solve", "--model", "I", "--M", "100"])
    assert code == 0 and err == ""
    assert json.loads(out)["solver"] == {"path": "diagonal"}


@pytest.mark.parametrize("a4", [0.0, -20.0])
def test_solve_summary_reports_the_gmres_record(capsys, a4):
    # Model II above the crossover takes the GMRES path, whatever a4 is; an
    # explicit --a4 makes the spec custom, so a4 = 0 leaves it unset.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["solve", "--model", "II", "--M", "600"]
                             + (["--a4", str(a4)] if a4 else []))
    assert code == 0 and err == ""
    doc = json.loads(out)
    solver = doc["solver"]
    assert set(solver) == {"path", "iterations", "residual", "cond_estimate"}
    assert solver["path"] == "gmres"
    assert solver["iterations"] > 0 and solver["residual"] <= 1e-14
    if a4 == 0.0:
        assert doc["error_tier"] == "stretch"


def test_unforced_gmres_solve_reports_zero_iterations_and_no_decay_fit(tmp_path, capsys):
    # With no forcing GMRES returns before its first product, and every
    # coefficient is 0, so the decay fit (5 nonzero coefficients or more)
    # has nothing to fit.
    code, out, err = run(capsys, ["solve", "--a6", "1", "--a2", "1000", "--a0", "-300000",
                                  "--M", "400", "--out", str(tmp_path / "z")])
    assert (code, out, err) == (0, "", "")
    doc = json.loads((tmp_path / "z.summary.json").read_text())
    assert doc["solver"] == {"path": "gmres", "iterations": 0, "residual": 0.0,
                             "cond_estimate": None}
    assert doc["decay_fit"] is None and doc["u0c"] == 0.0
    rows = (tmp_path / "z.coefficients.csv").read_text().split("\n")[1:-1]
    assert rows == [f"{n},0,0" for n in range(401)]


def test_solve_summary_reports_stage_timings(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve", "--model", "II", "--M", "40",
                                "--out", str(tmp_path / "s")])
    assert code == 0
    doc = json.loads((tmp_path / "s.summary.json").read_text())
    timings = doc["timings_ms"]
    assert set(timings) == {"build_basis", "solve", "synthesize", "write", "total"}
    assert sum(v for k, v in timings.items() if k != "total") <= timings["total"]


def _reference_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return format(v, ".17g")


def _per_cell_table(header, rows, fmt):
    """The reference writer: every cell of a list of rows formatted on its own."""
    if fmt == "csv":
        return "".join(",".join(_reference_cell(v) for v in row) + "\n"
                       for row in [header, *rows])
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _cells(columns):
    """Each column as a list of Python values."""
    return [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]


def _held(columns, stationary_from):
    """The columns after the first cut after row ``stationary_from`` (None
    keeps them whole): the writer repeats that row after the first cell."""
    if stationary_from is None:
        return columns
    return [columns[0], *(c[:stationary_from + 1] for c in columns[1:])]


def _as_columns(rows, width):
    """The columns of a list of rows, each a float array where it can be one."""
    columns = [[row[j] for row in rows] for j in range(width)]
    return [np.array(c, dtype=float) if all(type(v) is float for v in c) else c
            for c in columns]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [["--model", "II", "--M", "60"],
                                  ["--a6", "1", "--a0", "100", "--forcing", "2:1,4:-2",
                                   "--M", "40"],
                                  ["--model", "II", "--a4", "-20", "--M", "400"]],
                         ids=["model-II", "custom", "gmres"])
def test_coefficient_table_matches_the_per_cell_writer(tmp_path, capsys, fmt, argv):
    # The column-wise writer gives the bytes of formatting each cell (n as an
    # integer) on its own.
    stem = str(tmp_path / "c")
    code, _, _ = run(capsys, ["solve", *argv, "--format", fmt, "--out", stem])
    assert code == 0
    summary = json.loads((tmp_path / "c.summary.json").read_text())
    spec = gk.BvpSpec(a6=summary["spec"]["a6"], a4=summary["spec"]["a4"],
                      a2=summary["spec"]["a2"], a0=summary["spec"]["a0"],
                      forcing=summary["spec"]["forcing"])
    sol = gk.solve_steady(spec, build_basis(summary["M"]))
    rows = [[0, float(sol.u0c), abs(float(sol.u0c))]]
    rows += [[n, float(sol.uc[n]), abs(float(sol.uc[n]))]
             for n in range(1, summary["M"] + 1)]
    expected = _per_cell_table(["n", "u_even", "abs_u_even"], rows, fmt)
    assert (tmp_path / f"c.coefficients.{fmt}").read_text() == expected
    if fmt == "json":
        assert all(type(row["n"]) is int for row in json.loads(expected))


def test_solve_outputs_are_byte_identical(tmp_path, capsys):
    stems = []
    for rep in (1, 2):
        stem = str(tmp_path / f"run{rep}")
        code, _, _ = run(capsys, ["solve", "--model", "II", "--M", "60",
                                  "--out", stem])
        assert code == 0
        stems.append(stem)
    for suffix in (".solution.csv", ".coefficients.csv"):
        a = open(stems[0] + suffix, "rb").read()
        b = open(stems[1] + suffix, "rb").read()
        assert a == b
    s1 = json.load(open(stems[0] + ".summary.json"))
    s2 = json.load(open(stems[1] + ".summary.json"))
    for s in (s1, s2):
        s.pop("timings_ms")
        s.pop("files")
    assert s1 == s2


_A4ZERO_FORCING = ("0:-338400.0,2:2462400.0,4:-6607200.0,6:8345280.0,8:-5580000.0,"
                   "10:2064000.0,12:-300000.0")
_GMRES_FORCING = ("0:-154656.0,2:645984.0,4:-1078560.0,6:604800.0,8:-237600.0,"
                  "10:465696.0,12:-199584.0")


@pytest.mark.parametrize("argv", [
    ["solve", "--model", "I", "--M", "100"],
    ["solve", "--model", "II", "--M", "100"],
    ["solve", "--M", "100", "--a6", "1", "--a4", "-20", "--a2", "-5544", "--a0", "-199584",
     "--forcing", _GMRES_FORCING],
    ["solve", "--M", "2000", "--a6", "1", "--a2", "2000", "--a0", "-300000",
     "--forcing", _A4ZERO_FORCING],
    ["solve", "--M", "2000", "--a6", "1", "--a4", "-20", "--a2", "-5544", "--a0", "-199584",
     "--forcing", _GMRES_FORCING],
    ["evolve", "--M", "500", "--forcing", "model-II", "--theta", "1", "--dt", "1e-4",
     "--steps", "1000", "--T", "20", "--B", "3000", "--reaction=-300000"],
    ["evolve", "--M", "500", "--forcing", "model-II", "--theta", "1", "--dt", "1e-4",
     "--steps", "1000", "--T", "20"],
], ids=["diagonal", "cholesky", "gmres-m100", "gmres-a4zero", "gmres", "bench-dominant",
        "bench-evolve"])
def test_warm_runs_write_the_bytes_of_cold_runs(tmp_path, capsys, argv):
    # The first run builds the basis, its tables and its plan; the second, in
    # the same process, reuses them.
    eb._build_basis.cache_clear()
    cli._build_parser.cache_clear()
    for run_name in ("cold", "warm"):
        code, _, _ = run(capsys, argv + ["--out", str(tmp_path / run_name)])
        assert code == 0
    cold = sorted(p.name[len("cold"):] for p in tmp_path.glob("cold.*"))
    assert cold == sorted(p.name[len("warm"):] for p in tmp_path.glob("warm.*"))
    for suffix in cold:
        a, b = (tmp_path / f"{run_name}{suffix}" for run_name in ("cold", "warm"))
        if suffix == ".summary.json":
            a, b = (json.loads(p.read_text()) for p in (a, b))
            for doc in (a, b):
                doc.pop("timings_ms")
                doc.pop("files")
            assert a == b
        else:
            assert a.read_bytes() == b.read_bytes(), suffix


def test_solve_solution_file_contents(tmp_path, capsys):
    stem = str(tmp_path / "sol")
    code, _, _ = run(capsys, ["solve", "--model", "I", "--M", "60",
                              "--out", stem, "--samples", "11"])
    assert code == 0
    lines = (tmp_path / "sol.solution.csv").read_text().strip().split("\n")
    assert lines[0] == "x,u,exact,error"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    assert abs(float(first[1])) < 1e-9  # u(-1) = 0 for the model solution
    coef = (tmp_path / "sol.coefficients.csv").read_text().strip().split("\n")
    assert coef[0] == "n,u_even,abs_u_even"
    assert len(coef) == 62
    assert float(coef[1].split(",")[1]) == pytest.approx(ref.U0C_EXACT, rel=1e-13)


def test_solve_custom_spec_without_exact_solution(capsys):
    code, out, _ = run(capsys, ["solve", "--a6", "1", "--a0", "100",
                                "--forcing", "2:1,4:-2", "--M", "20"])
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "custom"
    assert doc["max_error"] is None and doc["error_tier"] is None


def test_solve_json_format(tmp_path, capsys):
    stem = str(tmp_path / "j")
    code, _, _ = run(capsys, ["solve", "--model", "I", "--M", "10",
                              "--out", stem, "--format", "json",
                              "--samples", "5"])
    assert code == 0
    rows = json.loads((tmp_path / "j.solution.json").read_text())
    assert len(rows) == 5 and set(rows[0]) == {"x", "u", "exact", "error"}


def test_solve_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "I", "M": 30, "samples": 11}))
    code, out, _ = run(capsys, ["solve", "--config", str(cfg), "--M", "35"])
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] == 35  # the flag wins
    assert doc["samples"] == 11  # the file fills the rest


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_empty_sweep_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--max-index", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 0 and doc["failed"] == 0


def test_verify_sweep_passes_with_notes(capsys):
    code, out, _ = run(capsys, ["verify", "--max-index", "6"])
    assert code == 0
    doc = json.loads(out)
    # per parity: beta 6x6 + gamma 6x6, plus even gamma mean col 6, plus chi 6x6
    assert doc["total"] == 2 * 36 * 2 + 6 + 36
    assert doc["failed"] == 0
    assert doc["worst"]["rel_error"] < 1e-8
    assert len(doc["misprint_notes"]) == 4
    kinds = {r["kind"] for r in doc["reports"]}
    assert kinds == {"beta", "gamma", "chi"}


def test_verify_file_output(tmp_path, capsys):
    stem = str(tmp_path / "ver")
    code, _, _ = run(capsys, ["verify", "--max-index", "4", "--out", stem])
    assert code == 0
    report = (tmp_path / "ver.report.csv").read_text().strip().split("\n")
    assert report[0].startswith("kind,parity,n,m_or_p")
    summary = json.loads((tmp_path / "ver.summary.json").read_text())
    assert summary["failed"] == 0


def test_verify_rows_agree_with_verify_formula(capsys):
    code, out, _ = run(capsys, ["verify", "--max-index", "3"])
    assert code == 0
    reports = json.loads(out)["reports"]
    rows = {(r["kind"], r["parity"], r["n"], r["m_or_p"]): r for r in reports}
    basis = build_basis(3)
    for key in [("beta", "odd", 1, 2),     # corrected off-diagonal form
                ("beta", "even", 2, 2),    # corrected diagonal form
                ("chi", "even", 1, 12),    # corrected p = 12 form
                ("gamma", "even", 1, 3)]:  # shipped as published
        rep = oc.verify_formula(basis, *key)
        assert (rows[key]["note"], rows[key]["passed"]) == (rep.note, rep.passed)
    # The sweep's array rule and the single-entry record agree on every row,
    # whether the parity comes as a string or as a Parity.
    assert len(rows) == len(reports) == 2 * 2 * 9 + 3 + 6 * 3
    for r in reports:
        for parity in (r["parity"], Parity(r["parity"])):
            rep = oc.VerificationReport.compare(r["kind"], parity, r["n"], r["m_or_p"],
                                                r["closed"], r["quadrature"])
            assert rep.to_dict() == r
            assert rep.rel_error.hex() == r["rel_error"].hex()


@pytest.mark.parametrize("K", ["0", "3"])
def test_verify_stdout_has_the_bytes_of_json_dumps(capsys, K):
    # The reports are encoded by the table writer and spliced in as the last
    # key; the text must be json.dumps(summary, indent=2) byte for byte.
    code, out, _ = run(capsys, ["verify", "--max-index", K])
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[-2:] == ["timings_ms", "reports"]
    assert set(doc["timings_ms"]) == {"quadrature", "closed_forms", "write", "total"}
    doc["timings_ms"] = dict.fromkeys(doc["timings_ms"], 0.0)
    timings = json.dumps(doc["timings_ms"], indent=2).replace("\n", "\n  ")
    normalised = re.sub(r'"timings_ms": \{[^}]*\}', lambda _: '"timings_ms": ' + timings, out)
    assert normalised == json.dumps(doc, indent=2) + "\n"


def test_verify_summary_reports_stage_timings(tmp_path, capsys):
    for K in ("0", "3"):
        code, _, _ = run(capsys, ["verify", "--max-index", K,
                                  "--out", str(tmp_path / "v")])
        assert code == 0
        timings = json.loads((tmp_path / "v.summary.json").read_text())["timings_ms"]
        assert set(timings) == {"quadrature", "closed_forms", "write", "total"}
        assert sum(v for k, v in timings.items() if k != "total") <= timings["total"]


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_trajectory_shape(tmp_path, capsys):
    stem = str(tmp_path / "ev")
    code, _, _ = run(capsys, ["evolve", "--M", "10", "--initial", "even:1",
                              "--dt", "1e-4", "--steps", "3", "--out", stem])
    assert code == 0
    lines = (tmp_path / "ev.trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 5  # header + initial + 3 steps
    header = lines[0].split(",")
    assert header[:3] == ["t", "u0c", "uc_1"]
    assert "u_at_0" in header
    first = lines[1].split(",")
    assert float(first[2]) == 1.0  # initial amplitude to the requested mode


def test_evolve_sample_columns_equal_single_state_synthesis(tmp_path, capsys):
    stem = str(tmp_path / "odd")
    code, _, _ = run(capsys, ["evolve", "--M", "10", "--initial", "odd:2:0.5",
                              "--dt", "1e-5", "--steps", "6", "--out", stem])
    assert code == 0
    lines = (tmp_path / "odd.trajectory.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    cols = [header.index(f"u_at_{x:g}") for x in (-0.5, 0.0, 0.5)]
    basis = build_basis(10)
    us = np.zeros(11)
    us[2] = 0.5
    traj = gk.evolve(gk.assemble_semi_discrete(basis),
                     cf.CoefficientSet(basis=basis, u0c=0.0, uc=np.zeros(11), us=us),
                     dt=1e-5, steps=6)
    assert len(table) == len(traj.us) == 7
    for k, row in enumerate(table):
        state = cf.CoefficientSet(basis=basis, u0c=float(traj.u0c[k]),
                                  uc=traj.uc[k], us=traj.us[k])
        np.testing.assert_allclose(row[cols], cf.synthesize(state, [-0.5, 0.0, 0.5]),
                                   rtol=1e-14, atol=1e-16)
    assert np.max(np.abs(table[:, cols[1]])) < 1e-15  # odd modes vanish at x = 0


def test_evolve_reaches_steady_state_of_forced_system(capsys):
    code, out, _ = run(capsys, ["evolve", "--M", "60", "--forcing", "model-II",
                                "--theta", "1", "--dt", "1e-4",
                                "--steps", "200"])
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == gk.MODEL_II.a2 and doc["reaction"] == gk.MODEL_II.a0
    assert doc["steady_residual"] <= 1e-14
    assert doc["paths"] == {"even": "step-map", "odd": "zero"}


def test_evolve_summary_reports_the_stationary_step_and_stage_timings(tmp_path, capsys):
    stem = str(tmp_path / "ev")
    code, _, _ = run(capsys, ["evolve", "--M", "60", "--forcing", "model-II",
                              "--theta", "1", "--dt", "1e-4", "--steps", "200",
                              "--out", stem])
    assert code == 0
    doc = json.loads((tmp_path / "ev.summary.json").read_text())
    assert set(doc["timings_ms"]) == {"assemble", "evolve", "synthesize", "write", "total"}
    k = doc["stationary_from"]
    assert 0 < k < 200
    lines = (tmp_path / "ev.trajectory.csv").read_text().strip().split("\n")[1:]
    # Every cell after the time column, the samples included.
    cells = [line.split(",", 1)[1] for line in lines]
    assert cells[k - 1] != cells[k] and set(cells[k:]) == {cells[k]}
    code, out, _ = run(capsys, ["evolve", "--M", "5", "--initial", "odd:2",
                                "--theta", "0.5", "--steps", "30"])
    assert code == 0 and json.loads(out)["stationary_from"] is None


def test_evolve_samples_are_those_of_the_first_stationary_state(tmp_path, capsys):
    # One matrix product over all rows rounded the last row's samples of the
    # README example one ulp away from the identical states before it.
    stem = str(tmp_path / "ev")
    code, _, _ = run(capsys, ["evolve", "--M", "60", "--forcing", "model-II",
                              "--theta", "1", "--dt", "1e-4", "--steps", "200",
                              "--out", stem])
    assert code == 0
    basis = build_basis(60)
    traj = gk.evolve(gk.model_ii_semi_discrete(basis), cf.CoefficientSet.zeros(basis),
                     1e-4, 200, theta=1.0)
    k = traj.stationary_from
    head = cf.CoefficientSet(basis, traj.u0c[:k + 1], traj.uc[:k + 1], traj.us[:k + 1])
    # Each row k' is state min(k', k).
    rows = np.minimum(np.arange(201), k)
    want = cf.synthesize(head, np.array([-0.5, 0.0, 0.5])).view(np.int64)[rows]
    lines = (tmp_path / "ev.trajectory.csv").read_text().strip().split("\n")[1:]
    samples = np.array([[float(v) for v in line.split(",")[-3:]] for line in lines])
    bits = samples.view(np.int64)
    assert 0 < k < 200 and samples.shape == (201, 3)
    assert np.array_equal(bits, want)
    # The coefficient cells of every row, those reusing the stationary row's
    # text included, are the trajectory's own bits.
    coefs = np.array([[float(v) for v in line.split(",")[1:-3]] for line in lines])
    want = np.column_stack([traj.u0c, traj.uc[:, 1:9], traj.us[:, 1:9]])[rows]
    assert np.array_equal(coefs.view(np.int64), want.view(np.int64))


def test_evolve_rows_do_not_depend_on_the_steps_after_the_stationary_one(tmp_path, capsys):
    # A product over all 201 or 1001 stacked states rounded each state by the
    # stack's shape: 42 sample cells before the stationary step (17) differed,
    # and the stationary row's 3, which every later row repeats.
    tables = []
    for steps in ("200", "1000"):
        stem = str(tmp_path / f"ev{steps}")
        code, _, _ = run(capsys, ["evolve", "--M", "500", "--forcing", "model-II",
                                  "--theta", "1", "--dt", "1e-4", "--T", "20",
                                  "--steps", steps, "--out", stem])
        assert code == 0
        tables.append((tmp_path / f"ev{steps}.trajectory.csv").read_text().split("\n"))
    assert tables[0][:202] == tables[1][:202]   # the header and 201 data rows


def test_a_stationary_evolve_holds_memory_independent_of_its_steps(tmp_path):
    # Past its stationary step (20) an evolve steps, keeps and synthesizes no
    # more states, so only the CSV text grows with --steps: the peak RSS of a
    # fresh 20000-step run stays within 30 MB of a 1000-step run's (~9 MB
    # apart measured; copying the stationary state into every later row
    # grew it by ~95 MB).  Each run is the only child of its own interpreter,
    # whose RUSAGE_CHILDREN peak is then that run's.
    code = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "sixbeam.cli", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
    peaks = []
    for steps in ("1000", "20000"):
        stem = str(tmp_path / f"ev{steps}")
        proc = _fresh("-c", code, "evolve", "--M", "500", "--forcing", "model-II",
                      "--theta", "1", "--steps", steps, "--out", stem)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(Path(stem + ".summary.json").read_text())["stationary_from"] == 20
        peaks.append(int(proc.stdout) * 1024)   # ru_maxrss is in KiB
    assert peaks[1] - peaks[0] < 30e6, peaks


def test_evolve_steady_residual_uses_the_evolved_spec(capsys):
    # With --T the long-time limit solves a6=1, a4=-T, a2=B, a0=reaction,
    # not model II itself.
    code, out, _ = run(capsys, ["evolve", "--M", "60", "--forcing", "model-II",
                                "--theta", "1", "--dt", "1e-4",
                                "--steps", "400", "--T", "20"])
    assert code == 0
    assert json.loads(out)["steady_residual"] <= 1e-14


def test_evolve_honours_an_explicit_zero_B(capsys):
    code, out, _ = run(capsys, ["evolve", "--M", "20", "--forcing", "model-II",
                                "--theta", "1", "--steps", "50", "--B", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == 0.0 and doc["reaction"] == gk.MODEL_II.a0
    # The residual is that of the a2 = 0 system, whose even block is diagonal.
    assert doc["paths"] == {"even": "diagonal", "odd": "zero"}
    assert doc["steady_residual"] <= 1e-14


def test_evolve_with_zero_reaction_reads_residual_one_instead_of_substituting(capsys):
    # With B = reaction = 0 the constant mode has no steady state under the
    # model-II forcing: row 0 of A is zero and its forcing is not, so the
    # residual reads exactly 1.  The run must not fall back to model II.
    code, out, err = run(capsys, ["evolve", "--M", "10", "--forcing", "model-II",
                                  "--steps", "5", "--B", "0", "--reaction", "0"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["B"] == doc["reaction"] == 0.0
    assert doc["steady_residual"] == 1.0


def test_evolve_zero_steps(capsys):
    code, out, _ = run(capsys, ["evolve", "--M", "5", "--initial", "odd:2:0.25",
                                "--steps", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["state_count"] == 1 and doc["final_max_abs"] == 0.25
    assert doc["paths"] == {"even": "zero", "odd": "diagonal"}


def test_evolve_instability_aborts_with_exit_2(capsys):
    code, _, err = run(capsys, ["evolve", "--M", "40", "--initial", "even:40",
                                "--theta", "0", "--dt", "1", "--steps", "50"])
    assert code == 2
    assert "numerical failure" in err


def test_evolve_above_the_dense_bound_exits_1(capsys):
    code, out, err = run(capsys, ["evolve", "--M", "5001", "--forcing", "model-II",
                                  "--steps", "3"])
    assert code == 1 and out == ""
    assert "only up to M = 5000, got M = 5001" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Exit codes and argument errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["eigenvalues", "--m-max", "3"],
    ["verify", "--max-index", "1"],
    ["evolve", "--M", "5", "--steps", "3"],
])
def test_unwritable_out_path_exits_1(tmp_path, capsys, argv):
    stem = tmp_path / "missing" / "x"
    code, out, err = run(capsys, argv + ["--out", str(stem)])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert str(stem.parent) in err and not stem.parent.exists()


@pytest.mark.parametrize("argv", [
    ["solve"],                                # no model and no operator
    ["solve", "--model", "III"],
    ["solve", "--model", "I", "--forcing", "3:1"],
    ["solve", "--model", "I", "--forcing", "2-1"],
    ["solve", "--model", "I", "--samples", "1"],
    ["eigenvalues", "--M", "0"],
    ["eigenvalues", "--parity", "sideways"],
    ["verify", "--max-index", "51"],
    ["verify", "--max-index", "-1"],
    ["evolve", "--theta", "1.5", "--M", "5"],
    ["evolve", "--dt", "0", "--M", "5"],
    ["evolve", "--M", "5", "--initial", "even:9"],
    ["evolve", "--M", "5", "--initial", "sideways:1"],
    ["evolve", "--M", "5", "--forcing", "model-I"],
    ["no-such-command"],
])
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.strip() != ""


@pytest.mark.parametrize("argv,field", [
    (["solve", "--a6", "nan", "--M", "10"], "a6"),
    (["solve", "--a6", "1", "--a2", "nan", "--a0", "1", "--forcing", "2:1", "--M", "10"],
     "a2"),
    (["solve", "--model", "II", "--a0", "inf", "--M", "10"], "a0"),
    (["solve", "--model", "I", "--forcing", "2:1,4:-inf", "--M", "10"], "x^4"),
    (["evolve", "--M", "5", "--initial", "even:1:nan"], "initial amplitude"),
    (["evolve", "--M", "5", "--T", "inf"], "--T"),
    (["evolve", "--M", "5", "--B", "nan"], "--B"),
    (["evolve", "--M", "5", "--forcing", "model-II", "--reaction=-inf"], "--reaction"),
])
def test_non_finite_inputs_exit_1(capsys, argv, field):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"{field} must be finite" in err


@pytest.mark.parametrize("initial, message", [
    ("even:6", "initial mode 6 out of range [0, 5]"),
    ("odd:0", "initial mode 0 out of range [1, 5]"),
    ("sideways:1", "initial parity must be even or odd, got 'sideways'"),
    ("even:1:nan", "initial amplitude must be finite, got nan"),
])
def test_initial_state_errors_name_the_mode_range(capsys, initial, message):
    argv = ["evolve", "--M", "5", "--initial", initial]
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


def test_initial_constant_mode_sets_u0c(tmp_path, capsys):
    stem = str(tmp_path / "c")
    code, _, err = run(capsys, ["evolve", "--M", "5", "--initial", "even:0:2.5",
                                "--steps", "0", "--out", stem])
    assert code == 0, err
    header, row = (tmp_path / "c.trajectory.csv").read_text().split("\n")[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["u0c"] == "2.5"
    assert all(cells[k] == "0" for k in cells if k.startswith(("uc_", "us_")))


def test_help_exits_0(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["solve", "--help"])[0] == 0


def test_numerical_failure_exits_2(capsys):
    lam1 = ref.LAM_EVEN[1]
    code, _, err = run(capsys, ["solve", "--a6", "1", "--a0", str(lam1 ** 6),
                                "--forcing", "2:1", "--M", "10"])
    assert code == 2
    assert "numerical failure" in err


def test_gmres_failure_above_the_dense_bound_exits_2(capsys, monkeypatch):
    # The iteration cap makes GMRES fail at M = 5001, above the size up to
    # which the dense fallback runs; the solve runs in this interpreter.
    monkeypatch.setattr(gk, "_GMRES_MAX_ITERATIONS", 2)
    spec = gk.manufactured_spec(1.0, -20.0, gk.MODEL_II.a2, gk.MODEL_II.a0)
    forcing = ",".join(f"{p}:{c!r}" for p, c in spec.forcing)
    code, _, err = run(capsys, ["solve", "--M", "5001", "--a6", "1", "--a4=-20",
                                "--a2", f"{spec.a2!r}", "--a0", f"{spec.a0!r}",
                                "--forcing", forcing])
    assert code == 2
    assert "numerical failure: block-Jacobi GMRES failed (no convergence)" in err


@pytest.mark.parametrize("argv", [
    ["--a6", "-1", "--a2", "1e300", "--a0", "1", "--M", "40"],
    ["--a6", "-1", "--a2", "1e300", "--a0", "1", "--M", "400"],
    ["--a6", "1", "--a4", "1e300", "--a0", "-1", "--M", "40"],
], ids=["a2-cholesky-range", "a2-gmres-range", "a4-lu-range"])
def test_overflowing_solve_exits_2_and_writes_nothing(tmp_path, argv):
    # Finite coefficients whose generator form overflows are refused at
    # assembly, before the path of their range runs: one stderr line and no
    # numpy warning, which a fresh interpreter would print on stderr.
    proc = _fresh("-m", "sixbeam.cli", "solve", *argv, "--forcing", "0:1",
                  "--out", str(tmp_path / "x"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "numerical failure: the even mode block overflows double precision\n"
    assert list(tmp_path.iterdir()) == []


def test_a_dense_block_that_overflows_from_a_finite_form_exits_2_without_a_warning(tmp_path):
    # a4 = 1e300 at M = 30 leaves the generator form finite, but its dense
    # block overflows.  The block is formed with numpy's overflow warnings
    # off and refused like an overflowed form before LU runs, so a fresh
    # interpreter prints the one failure line.
    proc = _fresh("-m", "sixbeam.cli", "solve", "--a6", "1", "--a4", "1e300", "--a0", "-1",
                  "--M", "30", "--forcing", "0:1", "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr == "numerical failure: the even mode block overflows double precision\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("forcing", ["0:1", "2:1"], ids=["no-mode-forcing", "mode-forcing"])
@pytest.mark.parametrize("argv", [
    ["--a2", "1e300", "--M", "30"],
    ["--a4", "1e290", "--M", "200"],
    ["--a4", "1e290", "--M", "400"],
], ids=["cholesky-range", "gmres-range-200", "gmres-range-400"])
def test_a_block_that_overflows_from_a_finite_form_is_refused_in_every_range(
        tmp_path, argv, forcing):
    # Each generator form is finite, but the dense block (Cholesky range) or
    # GMRES's leading block overflows.  Either is refused before a
    # factorization runs or the zero-forcing return is taken: one failure
    # line, no numpy warning or fallback warning (a fresh interpreter prints
    # them on stderr) and no file.
    proc = _fresh("-m", "sixbeam.cli", "solve", "--a6", "1", "--a0", "-1", *argv,
                  "--forcing", forcing, "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr == "numerical failure: the even mode block overflows double precision\n"
    assert list(tmp_path.iterdir()) == []


def test_overflowing_evolve_exits_2_at_assembly(capsys):
    # B = 1e300 overflows the blocks' generator form, so the run stops at
    # assembly, with no warning under the suite's error::RuntimeWarning
    # filter: a divergence report would advise a smaller dt or a larger
    # theta, and neither could mend it.
    code, out, err = run(capsys, ["evolve", "--M", "60", "--B", "1e300", "--forcing",
                                  "model-II", "--theta", "1"])
    assert (code, out) == (2, "")
    assert err == "numerical failure: the even mode block overflows double precision\n"


@pytest.mark.parametrize("flag", [["--B", "1e300"], ["--T", "1e295"]], ids=["B", "T"])
def test_an_evolve_block_that_overflows_from_a_finite_form_exits_2_without_a_warning(
        tmp_path, flag):
    # At M = 30 the generator form is finite but the dense even block
    # overflows.  It is refused where it is formed, before a step, so a fresh
    # interpreter prints the one failure line, not numpy warnings and a
    # divergence report that advises a smaller dt.
    proc = _fresh("-m", "sixbeam.cli", "evolve", "--M", "30", *flag, "--forcing", "model-II",
                  "--theta", "1", "--dt", "1e-4", "--steps", "10",
                  "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr == "numerical failure: the even mode block overflows double precision\n"
    assert list(tmp_path.iterdir()) == []


def test_diagonal_solve_beyond_the_double_range_matches_its_scaled_spec(tmp_path):
    # a6 lam^6 passes 1.8e308 from mode 8 on; dividing each row by a6 keeps
    # the quotient, so the spec scaled by 1e-300 gives the same coefficients.
    # A fresh interpreter shows any numpy overflow warning on stderr.
    coefs = []
    for stem, argv in (("big", ["--a6", "1e300", "--a0=-1e300", "--forcing", "2:1e300"]),
                       ("small", ["--a6", "1", "--a0=-1", "--forcing", "2:1"])):
        proc = _fresh("-m", "sixbeam.cli", "solve", *argv, "--M", "40",
                      "--out", str(tmp_path / stem))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        rows = (tmp_path / f"{stem}.coefficients.csv").read_text().split("\n")[1:-1]
        coefs.append(np.array([float(r.split(",")[1]) for r in rows]))
    big, small = coefs
    assert len(big) == 41 and np.all(small != 0.0)
    assert np.all(np.abs(big - small) <= 1e-12 * np.abs(small))


def test_a_coupled_solve_beyond_the_double_range_matches_its_scaled_spec(tmp_path):
    # a6 lam^6 passes the double range from mode ~7, so the unscaled even
    # form overflows; its rows divided by 4^498 near a6 solve, with the
    # coefficient bytes of the spec scaled so, and no warning.
    scale = 2.0 ** -996
    texts = []
    for stem, argv in (("big", ["--a6", "1e300", "--a2", "1", "--a0=-1", "--forcing", "2:1"]),
                       ("small", [f"--a6={1e300 * scale!r}", f"--a2={scale!r}",
                                  f"--a0={-scale!r}", "--forcing", f"2:{scale!r}"])):
        proc = _fresh("-m", "sixbeam.cli", "solve", *argv, "--M", "40",
                      "--out", str(tmp_path / stem))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        texts.append((tmp_path / f"{stem}.coefficients.csv").read_text())
        summary = json.loads((tmp_path / f"{stem}.summary.json").read_text())
        assert summary["solver"]["path"] == "cholesky"
        assert summary["solver"].get("pivot_scale") == (2.0 ** 996 if stem == "big" else None)
    assert texts[0] == texts[1] and texts[0].count("\n") == 42


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(capsys, ["solve", "--config", str(bad)])[0] == 1
    bad.write_text(json.dumps({"no_such_field": 1}))
    assert run(capsys, ["solve", "--config", str(bad)])[0] == 1
    bad.write_text(json.dumps([1, 2]))
    assert run(capsys, ["solve", "--config", str(bad)])[0] == 1
    assert run(capsys, ["solve", "--config", str(tmp_path / "absent.json")])[0] == 1
    # The parser's own entries are not flags.
    for key in ("command", "config", "run"):
        bad.write_text(json.dumps({"model": "I", key: "verify"}))
        assert run(capsys, ["solve", "--config", str(bad)]) == (
            1, "", f"error: config file {str(bad)!r}: unknown field {key!r}\n")


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_null_leaves_the_default(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "II", "M": None})
    code, out, _ = run(capsys, ["solve", "--config", cfg])
    assert code == 0
    assert json.loads(out)["M"] == 100


@pytest.mark.parametrize("command, doc", [
    ("solve", {"model": "I", "M": 30.7}),       # not an integer
    ("solve", {"model": "I", "max_index": 3}),  # verify's flag, not solve's
    ("solve", {"model": "I", "config": "other.json"}),
    ("solve", {"model": "I", "samples": "many"}),
    ("solve", {"model": "I", "M": True}),
    ("solve", {"model": "III"}),
    ("solve", {"model": "I", "samples": 1}),
    ("eigenvalues", {"parity": "sideways"}),
    ("verify", {"max_index": 51}),
    ("evolve", {"theta": [0.5]}),
    ("evolve", {"forcing": "model-I"}),
])
def test_bad_config_values_exit_1(tmp_path, capsys, command, doc):
    code, _, err = run(capsys, [command, "--config", write_config(tmp_path, doc)])
    assert code == 1
    assert err.strip() != ""


@pytest.mark.parametrize("argv, key, value", [
    (["evolve"], "M", 0),
    (["evolve"], "dt", 0),
    (["evolve"], "theta", 1.5),
    (["evolve"], "steps", -1),
    (["solve", "--model", "I"], "samples", 1),
    (["verify"], "max_index", 51),
    (["eigenvalues"], "m_max", -1),
    (["evolve"], "T", "inf"),
])
def test_config_range_error_is_the_flags(tmp_path, capsys, argv, key, value):
    # Each flag's parser checks its range, so a config value fails with the
    # flag's own message.
    flag = f"--{key.replace('_', '-')}"
    by_flag = run(capsys, argv + [f"{flag}={value}"])
    by_file = run(capsys, argv + ["--config", write_config(tmp_path, {key: value})])
    assert by_flag[0] == 1 and by_flag[1] == ""
    assert by_flag[2].startswith(f"error: {flag} must ") and by_flag[2].count("\n") == 1
    assert by_file == by_flag


@pytest.mark.parametrize("argv, key, value", [
    (["eigenvalues", "--M", "5"], "m_max", 3),
    (["eigenvalues", "--M", "5"], "parity", "odd"),
    (["solve", "--model", "I", "--M", "20"], "samples", 7),
    (["solve", "--a6", "1", "--a0", "100", "--forcing", "2:1", "--M", "20"],
     "a2", 3.5),
    (["verify"], "max_index", 2),
    (["evolve", "--M", "10", "--initial", "odd:2", "--steps", "5"], "theta", 0.75),
    (["evolve", "--M", "10", "--forcing", "model-II", "--theta", "1",
      "--steps", "5"], "B", 2500.0),
])
def test_config_value_equals_flag(tmp_path, capsys, argv, key, value):
    flag = f"--{key.replace('_', '-')}"
    cfg = write_config(tmp_path, {key: value})
    summaries = []
    for stem, extra in (("flag", [flag, str(value)]), ("file", ["--config", cfg])):
        code, _, err = run(capsys, argv + extra + ["--out", str(tmp_path / stem)])
        assert code == 0, err
        summary = json.loads((tmp_path / f"{stem}.summary.json").read_text())
        summary.pop("timings_ms")
        summary.pop("files")
        summaries.append(summary)
    assert summaries[0] == summaries[1]


def test_abbreviated_flags_are_rejected(capsys):
    code, _, err = run(capsys, ["solve", "--model", "I", "--sam", "5"])
    assert code == 1 and err.strip() != ""


def test_eigenvalues_and_verify_do_not_import_scipy(tmp_path):
    code = f"""
import sys
from sixbeam.cli import main
assert main(["eigenvalues", "--m-max", "6", "--out", {str(tmp_path / "e")!r}]) == 0
assert main(["verify", "--max-index", "2", "--out", {str(tmp_path / "v")!r}]) == 0
assert main(["evolve", "--initial", "odd:2", "--out", {str(tmp_path / "ev")!r}]) == 0
assert main(["solve", "--model", "II", "--M", "100", "--out", {str(tmp_path / "s1")!r}]) == 0
assert main(["solve", "--model", "II", "--M", "600", "--out", {str(tmp_path / "s2")!r}]) == 0
assert main(["solve", "--model", "II", "--a4", "10", "--M", "100",
             "--out", {str(tmp_path / "s3")!r}]) == 0
assert main(["evolve", "--forcing", "model-II", "--theta", "1", "--steps", "50",
             "--out", {str(tmp_path / "ev2")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(code) == "[]"


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout run with ``args``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _fresh_python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this checkout."""
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_SOLVE_MODULES = ["cli", "coefficients", "eigenbasis", "galerkin"]


@pytest.mark.parametrize("argv,modules", [
    (None, []),
    (["eigenvalues", "--m-max", "6"], ["cli", "eigenbasis"]),
    (["solve", "--model", "II", "--M", "20"], _SOLVE_MODULES),
    (["verify", "--max-index", "2"], ["cli", "coefficients", "eigenbasis", "oracle"]),
    (["evolve", "--M", "5", "--forcing", "model-II", "--steps", "3"], _SOLVE_MODULES),
], ids=["import", "eigenvalues", "solve", "verify", "evolve"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    # numpy.fft serves solve's grid samples alone.
    run_it = "import sixbeam" if argv is None else (
        "from sixbeam.cli import main\n"
        f"assert main({argv + ['--out', str(tmp_path / 'run')]!r}) == 0")
    code = f"""{run_it}
import sys
print(sorted(m for m in sys.modules if m.split(".")[0] == "sixbeam"))
print("numpy.fft" in sys.modules)
"""
    fft = argv is not None and argv[0] == "solve"
    assert _fresh_python(code).split("\n") == [
        repr(["sixbeam"] + [f"sixbeam.{m}" for m in modules]), repr(fft)]


def test_csv_floats_use_17_significant_digits(tmp_path, capsys):
    stem = str(tmp_path / "digits")
    run(capsys, ["solve", "--model", "I", "--M", "10", "--out", stem,
                 "--samples", "3"])
    coef = (tmp_path / "digits.coefficients.csv").read_text().strip().split("\n")
    u0c_text = coef[1].split(",")[1]
    assert float(u0c_text) == 2048.0 / 3003.0  # round-trips exactly
    assert len(u0c_text.replace("-", "").replace(".", "").lstrip("0")) >= 16


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_table_repeated_rows_print_as_each_cell_would(fmt):
    # Rows 1-3 differ only in the sign of zeros, rows 4-6 in NaN payloads;
    # rows 6 and 7 repeat row 5 after the first cell.  Every row is written
    # from its own cells unless the columns after the first end before it.
    quiet_nan = np.frombuffer(np.int64(0x7FF8000000000001).tobytes())[0]
    rows = np.array([[0.0, 0.0, 1.0, -0.0],
                     [1.0, -0.0, 1.0, -0.0],
                     [2.0, -0.0, 1.0, 0.0],
                     [3.0, -0.0, 1.0, 0.0],
                     [4.0, np.nan, np.nan, 2.0],
                     [5.0, -np.nan, quiet_nan, 2.0],
                     [6.0, -np.nan, quiet_nan, 2.0],
                     [-0.0, -np.nan, quiet_nan, 2.0]])
    header = ["t", "a", "b", "c"]
    text = _table_text(header, list(rows.T), fmt)
    assert text == _per_cell_table(header, rows.tolist(), fmt)
    if fmt == "csv":
        assert text.split("\n")[1:5] == ["0,0,1,-0", "1,-0,1,-0", "2,-0,1,0", "3,-0,1,0"]
        assert text.split("\n")[5:9] == ["4,nan,nan,2", "5,nan,nan,2", "6,nan,nan,2",
                                          "-0,nan,nan,2"]
    # Rows past the last of shorter columns reuse its text after the first
    # cell, which is still written per row (-0 in the last one).
    assert _table_text(header, _held(list(rows.T), 5), fmt) == text
    held = np.array([[0.0, 1.0, 0.0, 3.0],
                     [1.0, -0.0, -np.nan, quiet_nan],
                     [2.0, -0.0, -np.nan, quiet_nan],
                     [-0.0, -0.0, -np.nan, quiet_nan]])
    for stationary_from in (None, 1, 2, 3):
        held_text = _table_text(header, _held(list(held.T), stationary_from), fmt)
        assert held_text == _per_cell_table(header, held.tolist(), fmt)
    if fmt == "csv":
        assert held_text.split("\n")[2:5] == ["1,-0,nan,nan", "2,-0,nan,nan",
                                              "-0,-0,nan,nan"]
    one_column = np.array([0.0, -0.0, -0.0])
    assert _table_text(["t"], [one_column], fmt) == _per_cell_table(
        ["t"], [[0.0], [-0.0], [-0.0]], fmt)
    empty = [np.empty(0)] * 4
    assert _table_text(header, empty, fmt) == _per_cell_table(header, [], fmt)
    assert _table_text(header, _held(empty, 0), fmt) == _per_cell_table(header, [], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_table_writes_columns_of_positive_zeros_as_a_literal(monkeypatch, fmt):
    # A float column of +0.0 alone after the first is the literal field 0 or
    # 0.0 ("%.17g" % 0.0, repr(0.0)); one -0.0 keeps the column formatted.
    # A zero first column, shorter columns after the first and a table whose
    # other columns are all literals (one named with a "%") keep the
    # per-cell bytes.
    rows = np.array([[0.0, 0.0, 1.5, 0.0, 0.0],
                     [0.0, 0.0, 2.5, -0.0, 0.0],
                     [0.0, 0.0, 2.5, 0.0, 0.0]])
    header = ["t", "a", "b", "c", "d%"]
    want = _per_cell_table(header, rows.tolist(), fmt)
    if fmt == "csv":
        assert want.split("\n")[1:4] == ["0,0,1.5,0,0", "0,0,2.5,-0,0", "0,0,2.5,0,0"]
    else:
        assert want.count('"a": 0.0') == 3 and want.count('"c": -0.0') == 1
    for stationary_from in (None, 2):
        assert _table_text(header, _held(list(rows.T), stationary_from), fmt) == want
    zeros = np.zeros((4, 3))
    for stationary_from in (None, 0, 3):
        assert _table_text(header[3:], _held(list(zeros[:, :2].T), stationary_from),
                           fmt) == _per_cell_table(header[3:], zeros[:, :2].tolist(), fmt)
        assert _table_text(header[:3], _held(list(zeros.T), stationary_from), fmt) == (
            _per_cell_table(header[:3], zeros.tolist(), fmt))
    assert _table_text(["t", "m"], [np.zeros(2), ["a", None]], fmt) == _per_cell_table(
        ["t", "m"], [[0.0, "a"], [0.0, None]], fmt)
    # The finite float columns and the literals are fields of the row
    # template: no cell of them is written by a call of its own.
    monkeypatch.setattr(cli, "_cell", None)
    monkeypatch.setattr(cli, "_json_cell", None)
    assert _table_text(header, list(rows.T), fmt) == want


def test_json_str_column_encodes_each_distinct_value_once(monkeypatch):
    # verify's kind, parity and note columns repeat a few values over
    # thousands of rows: each distinct value of a str array is encoded once,
    # with the per-cell bytes, also for escaped and non-ASCII text.
    kinds = np.array(["beta", "gamma", 'q"\u00e9', "beta", "", "gamma"] * 40)
    header = ["kind", "n", "note"]
    columns = [kinds, np.arange(len(kinds)), kinds[::-1].copy()]
    want = _per_cell_table(header, [list(r) for r in zip(*_cells(columns))], "json")
    calls = []

    def counted(v, encode=cli._json_cell):
        calls.append(v)
        return encode(v)
    monkeypatch.setattr(cli, "_json_cell", counted)
    assert _table_text(header, columns, "json") == want
    assert sorted(calls) == sorted([*set(kinds.tolist())] * 2)


def test_float_table_fast_path_matches_the_per_cell_path():
    specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf,
                np.nan, 1.0 / 3.0, 1e22, 12345.0, -7.0]
    rows = np.array([specials, specials[::-1], specials[::-1]])
    header = [f"c{j}" for j in range(rows.shape[1])]
    for fmt in ("json", "csv"):
        text = _table_text(header, list(rows.T), fmt)
        assert text == _per_cell_table(header, rows.tolist(), fmt)
    assert text.split("\n")[1].split(",")[:3] == ["0", "-0", "4.9406564584124654e-324"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_column_of_magnitudes_takes_the_text_of_the_column_before(monkeypatch, fmt):
    # A float column with the bits of np.abs of the column before it is
    # written from that column's cell text with the leading "-" removed:
    # the per-cell bytes for zeros, infinities and NaNs of either sign and
    # for subnormals, after an int column, after the first column, after
    # another such column, and for shorter columns after the first.
    u = np.array([1.5, -1.5, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                  -5e-324, -2.2250738585072014e-308, 1.0 / 3.0, -1e22, -7.0])
    n = np.arange(len(u))
    # A twin of a shared column shares the column that one shares.
    for header, columns, twin in ((["n", "u", "abs_u"], [n, u, np.abs(u)], (1, "abs")),
                                  (["u", "abs_u", "again"], [u, np.abs(u), np.abs(u)],
                                   (0, "abs"))):
        assert cli._shared_text(2, columns, {}) is None  # not a candidate yet
        assert cli._shared_text(2, columns, _candidates(columns, 2)) == twin
        rows = [list(row) for row in zip(*_cells(columns))]
        assert _table_text(header, columns, fmt) == _per_cell_table(header, rows, fmt)
        for stationary_from in (0, 5):
            held = _held(columns, stationary_from)
            want = rows[:stationary_from + 1] + [
                [row[0], *rows[stationary_from][1:]] for row in rows[stationary_from + 1:]]
            assert _table_text(header, held, fmt) == _per_cell_table(header, want, fmt)
    unsigned = []
    monkeypatch.setattr(cli, "_resigned", lambda texts, sign: unsigned.append(sign) or [
        t.lstrip("-") for t in texts])
    _table_text(["n", "u", "abs_u"], [n, u, np.abs(u)], fmt)
    assert unsigned == ["abs"]
    monkeypatch.undo()
    # A column that differs from |u| in one entry (a zero's sign, one ulp, a
    # NaN payload) is not one, and neither is a shorter column after a full
    # first one, nor |u| as another float type: each is formatted on its own.
    payload = np.frombuffer(np.int64(0x7FF8000000000001).tobytes())[0]
    for i, value in ((2, -0.0), (0, np.nextafter(1.5, 2.0)), (6, payload)):
        near = np.abs(u)
        near[i] = value
        columns = [n, u, near]
        assert cli._shared_text(2, columns, _candidates(columns, 2)) is None
        rows = [list(row) for row in zip(*_cells(columns))]
        assert _table_text(["n", "u", "a"], columns, fmt) == _per_cell_table(
            ["n", "u", "a"], rows, fmt)
    for other in (np.abs(u)[:5], np.abs(u).astype(np.float32), list(np.abs(u))):
        assert cli._shared_text(1, [u, other], _candidates([u], 1)) is None


def _candidates(columns, i):
    """``_table_text``'s candidate map after its first i columns."""
    floats = {}
    for j in range(i):
        cli._shared_text(j, columns, floats)
    return floats


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mirrored_columns_share_the_text_of_an_earlier_column(monkeypatch, fmt):
    # evolve's sample columns at x = -0.5 and 0.5 have the same bits for an
    # even state and negated ones for an odd state.  A float column with
    # the bits of any earlier column of its length, their negation or their
    # absolute value is written from that column's texts with each sign
    # flipped or stripped, formatted once: the per-cell bytes, for zeros,
    # infinities and NaNs of either sign, with a column between them, for
    # held columns and after the first column.
    u = np.array([1.5, -1.5, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                  -5e-324, -2.2250738585072014e-308, 1.0 / 3.0, -1e22, -7.0])
    other = np.linspace(-1.0, 1.0, len(u))
    header = ["n", "u", "v", "w", "same", "neg", "abs", "neg_neg"]
    columns = [np.arange(len(u)), u, other, np.zeros(len(u)), u.copy(), -u, np.abs(u),
               -(-u)]
    rows = [list(row) for row in zip(*_cells(columns))]
    assert _table_text(header, columns, fmt) == _per_cell_table(header, rows, fmt)
    # u's cells are formatted once; each twin takes their texts re-signed.
    assert [cli._shared_text(i, columns, _candidates(columns, i)) for i in (4, 5, 6, 7)] == [
        (1, ""), (1, "-"), (1, "abs"), (1, "")]
    signs = []
    monkeypatch.setattr(cli, "_resigned", lambda texts, sign, resign=cli._resigned: (
        signs.append(sign) or resign(texts, sign)))
    assert _table_text(header, columns, fmt) == _per_cell_table(header, rows, fmt)
    assert signs == ["", "-", "abs", ""]
    monkeypatch.undo()
    for stationary_from in (0, 5):
        held = _held(columns, stationary_from)
        want = rows[:stationary_from + 1] + [
            [row[0], *rows[stationary_from][1:]] for row in rows[stationary_from + 1:]]
        assert _table_text(header, held, fmt) == _per_cell_table(header, want, fmt)
    # -0.0 against +0.0 and one ulp apart are other bits (the negation of
    # such a column shares its text).
    n = np.arange(len(u))
    for near in (np.where(u == 0.0, -u, u), np.nextafter(u, 0.0)):
        cols = [n, u, near, -near]
        table = [list(row) for row in zip(*_cells(cols))]
        assert cli._shared_text(2, cols, _candidates(cols, 2)) is None
        assert cli._shared_text(3, cols, _candidates(cols, 3)) == (2, "-")
        assert _table_text(["n", "u", "a", "b"], cols, fmt) == _per_cell_table(
            ["n", "u", "a", "b"], table, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mixed_table_matches_the_per_cell_path(fmt):
    # The cell types of the verify and eigenvalues tables: str, int, bool and
    # None next to floats.  Each row is written from its own cells, so -0
    # after 0 and a new note after an old one come out as they are; rows past
    # the last of shorter columns (here the last three repeat row 4 after the
    # first cell) reuse its text, in JSON too.
    header = ["kind", "n", "closed", "passed", "note", "lam"]
    rows = [["beta", 1, 0.5, True, "", 0.0],
            ["beta", 2, 0.0, True, "", None],
            ["beta", 3, -0.0, True, "", None],
            ["gamma", 3, -0.0, True, "", None],
            ["gamma", 4, -0.0, True, "", None],
            ["gamma", 5, -0.0, True, "corrected", None],
            ["chi", 6, np.nan, False, "corrected", 2.5]]
    kinds = [np.array, np.array, np.array, np.array, np.array, list]
    columns = [make([row[j] for row in rows]) for j, make in enumerate(kinds)]
    assert [c.dtype.kind for c in columns[:5]] == ["U", "i", "f", "b", "U"]
    assert _table_text(header, columns, fmt) == _per_cell_table(header, rows, fmt)
    lists = _as_columns(rows, len(header))
    assert _table_text(header, lists, fmt) == _per_cell_table(header, rows, fmt)
    held = rows[:5] + [[kind, 4, -0.0, True, "", None]
                       for kind in ("chi", "beta", "gamma")]
    held_arrays = [make([row[j] for row in held]) for j, make in enumerate(kinds)]
    for held_columns in (held_arrays, _as_columns(held, len(header))):
        for stationary_from in (None, 4, 6):
            assert _table_text(header, _held(held_columns, stationary_from), fmt) == (
                _per_cell_table(header, held, fmt))
    stationary = [["chi", 6, np.nan, False, "corrected", 2.5],
                  ["beta", 6, np.nan, False, "corrected", 2.5]]
    assert _table_text(header, _held(_as_columns(stationary, len(header)), 0), fmt) == (
        _per_cell_table(header, stationary, fmt))
    # Bool arrays of one value, after the first column and as it, written
    # "true"/"false" as each bool cell would be.
    flags = [np.array([False, True, False]), np.ones(3, bool), np.zeros(3, bool)]
    bools = [[False, True, False], [True, True, False], [False, True, False]]
    assert _table_text(["a", "b", "c"], flags, fmt) == _per_cell_table(
        ["a", "b", "c"], bools, fmt)
    assert _table_text(["a", "b", "c"], _held(flags, 0), fmt) == _per_cell_table(
        ["a", "b", "c"], bools, fmt)
    # One text column, and empty tables of an int array and a list, and of
    # two bool arrays.
    assert _table_text(["n", "ok", "ok2"], [np.arange(0), np.zeros(0, bool),
                                            np.ones(0, bool)], fmt) == _per_cell_table(
        ["n", "ok", "ok2"], [], fmt)
    one = [[None], ["a"], ["a"]]
    assert _table_text(["m"], [[None, "a", "a"]], fmt) == _per_cell_table(["m"], one, fmt)
    assert _table_text(["m"], _held([[None, "a", "a"]], 1), fmt) == (
        _per_cell_table(["m"], one, fmt))
    assert _table_text(header[:2], [np.arange(1, 1), []], fmt) == _per_cell_table(
        header[:2], [], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("columns, name", [
    ([np.arange(3.0), np.empty(0)], "b"),
    ([np.arange(3.0), []], "b"),
    ([np.arange(3.0), np.arange(4.0)], "b"),
    ([np.arange(3.0), np.arange(2.0), np.arange(1.0)], "c"),
], ids=["empty-float", "empty-list", "longer", "unequal"])
def test_later_columns_out_of_shape_are_refused(fmt, columns, name):
    # The columns after the first share one length from 1 to the first's
    # (0 in an empty table); any other shape names the column that breaks it.
    with pytest.raises(ValueError, match=f"column '{name}' has {len(columns[-1])} cells"):
        _table_text(["a", "b", "c"][:len(columns)], columns, fmt)


_NAN_BITS = [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF]
_FLOATS = st.one_of(st.sampled_from([
    0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1e22, 1.0 / 3.0,
    *np.array(_NAN_BITS, dtype=np.uint64).view(np.float64).tolist()]), st.floats())
_TEXTS = st.one_of(
    st.sampled_from(["%", "%%", "%s", ",", "\n", ",\n", '"', "été ≤ \U0001d70b", ""]),
    st.text(st.characters(exclude_characters="\x00"), max_size=3))
_CELLS = st.one_of(st.none(), _FLOATS, st.integers(-10**20, 10**20), st.booleans(), _TEXTS)


@st.composite
def _tables(draw):
    """A header, columns of every kind the writer tells apart (each later one
    of the held length) and the rows they stand for."""
    n = draw(st.integers(0, 8))
    held = draw(st.integers(min(n, 1), n))
    kinds = draw(st.lists(st.sampled_from(
        ["float", "int", "bool", "str", "list", "abs", "neg", "same", "zeros"]),
        min_size=1, max_size=6))
    columns = []
    for j, kind in enumerate(kinds):
        size = held if j else n
        # Twins of any earlier float column: its bits, their negation or their
        # absolute value, of the held length (shorter than a longer first one).
        floats = [c for c in columns if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
        if kind in ("abs", "neg", "same") and floats:
            prev = draw(st.sampled_from(floats))[:size]
            col = np.abs(prev) if kind == "abs" else -prev if kind == "neg" else prev.copy()
        elif kind in ("float", "abs", "neg", "same"):
            wide = draw(st.booleans())
            col = np.array(draw(st.lists(_FLOATS if wide else st.floats(width=32),
                                         min_size=size, max_size=size)),
                           dtype=np.float64 if wide else np.float32)
        elif kind == "int":
            col = np.array(draw(st.lists(st.integers(0, 2**15), min_size=size, max_size=size)),
                           dtype=draw(st.sampled_from([np.int64, np.uint16])))
        elif kind == "bool":
            col = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), bool)
        elif kind == "str":
            col = np.array(draw(st.lists(_TEXTS, min_size=size, max_size=size)), dtype=str)
        elif kind == "list":
            col = draw(st.lists(_CELLS, min_size=size, max_size=size))
        else:
            col = np.zeros(size)
        columns.append(col)
    cells = _cells(columns)
    rows = [[cells[0][i], *(c[min(i, held - 1)] for c in cells[1:])] for i in range(n)]
    header = [draw(st.sampled_from(["c", "%", "%s", 'q"%', "ü%"])) + str(j)
              for j in range(len(columns))]
    return header, columns, rows


@settings(max_examples=100, deadline=None)
@given(table=_tables())
def test_table_text_matches_the_per_cell_writer_on_random_tables(table):
    # Mixed columns with every float class (+-0.0, +-inf and NaNs of either
    # sign among them), twins of earlier columns (the same bits, negated or
    # absolute) and chains of them, +0.0 literals and held later columns of
    # any length: both formats,
    # and JSON one level deeper, give the per-cell bytes.
    header, columns, rows = table
    assert _table_text(header, columns, "csv") == _per_cell_table(header, rows, "csv")
    assert _table_text(header, columns, "json") == _per_cell_table(header, rows, "json")
    records = [dict(zip(header, row)) for row in rows]
    nested = '{\n  "reports": ' + _table_text(header, columns, "json", "  ") + "}"
    assert nested == json.dumps({"reports": records}, indent=2)


def _records(header, columns):
    """The table as one JSON object per row: what json.dumps writes."""
    return [dict(zip(header, row)) for row in zip(*_cells(columns))]


def test_json_tables_have_the_bytes_of_json_dumps():
    # The JSON writer fills one row template instead of running json.dumps
    # with an indent; its text must be that of json.dumps byte for byte, and
    # one level deeper that of the table as a key's value.
    basis = build_basis(50)
    columns = cli._verify_columns(basis, 50, oc.quadrature_tables(basis, 50, tol=1e-10))
    assert len(columns[0]) == 10350
    want = json.dumps(_records(cli._VERIFY_HEADER, columns), indent=2) + "\n"
    assert _table_text(cli._VERIFY_HEADER, columns, "json") == want
    floats = np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300, 0.1, -5e-324])
    columns = [floats, np.arange(-3, 4), np.array([True, False] * 3 + [True]),
               np.array(['say "hi"', "back\\slash", "\u00e9t\u00e9 \u2264 \U0001d70b",
                         "100%", '", "', "%s", ""]),
               [None, 2.5, -0.0, None, np.nan, 7, True],
               [None] * 7, ["a", None, 1, 2.0, False, -np.inf, "\n\t"]]
    header = ["float", "int", "bool", 'str "%s"', "mixed", "none", "\u00fcber%"]
    assert _table_text(header, columns, "json") == json.dumps(
        _records(header, columns), indent=2) + "\n"
    assert _table_text(header, [np.empty(0)] * 3 + [[]] * 4, "json") == "[]\n"
    for cols in (columns, [np.empty(0)] * 3 + [[]] * 4):
        nested = '{\n  "reports": ' + _table_text(header, cols, "json", "  ") + "}"
        assert nested == json.dumps({"reports": _records(header, cols)}, indent=2)
