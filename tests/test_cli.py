"""Command-line interface: exit codes, output formats, determinism."""

import json
import warnings

import numpy as np
import pytest

import frozen_reference as ref
from sixbeam.cli import main
from sixbeam import galerkin as gk


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
    assert doc["ldlt"]["used"] and doc["ldlt"]["pivots_all_negative"]
    assert -8.3 < doc["decay_fit"]["exponent"] < -7.6
    assert doc["decay_fit"]["window"] == [50, 100]


def test_solve_summary_reports_the_path_the_solver_took(capsys):
    # A warning would mean the solver fell back to LU behind the summary.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["solve", "--model", "II", "--M", "300"])
    assert code == 0 and err == ""
    ldlt = json.loads(out)["ldlt"]
    assert ldlt["used"] and ldlt["pivots_all_negative"]
    code, out, err = run(capsys, ["solve", "--model", "II", "--a4", "10",
                                  "--M", "100"])
    assert code == 0 and err == ""
    assert json.loads(out)["ldlt"] == {"used": False,
                                       "reason": "matrix not symmetric"}


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


def test_evolve_reaches_steady_state_of_forced_system(capsys):
    code, out, _ = run(capsys, ["evolve", "--M", "60", "--forcing", "model-II",
                                "--theta", "1", "--dt", "1e-4",
                                "--steps", "200"])
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == gk.MODEL_II.a2 and doc["reaction"] == gk.MODEL_II.a0
    assert doc["steady_deviation"] < 1e-8


def test_evolve_steady_deviation_uses_the_evolved_spec(capsys):
    # With --T the long-time limit solves a6=1, a4=-T, a2=B, a0=reaction,
    # not model II itself.
    code, out, _ = run(capsys, ["evolve", "--M", "60", "--forcing", "model-II",
                                "--theta", "1", "--dt", "1e-4",
                                "--steps", "400", "--T", "20"])
    assert code == 0
    assert json.loads(out)["steady_deviation"] < 1e-8


def test_evolve_zero_steps(capsys):
    code, out, _ = run(capsys, ["evolve", "--M", "5", "--initial", "odd:2:0.25",
                                "--steps", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["state_count"] == 1 and doc["final_max_abs"] == 0.25


def test_evolve_instability_aborts_with_exit_2(capsys):
    code, _, err = run(capsys, ["evolve", "--M", "40", "--initial", "even:40",
                                "--theta", "0", "--dt", "1", "--steps", "50"])
    assert code == 2
    assert "numerical failure" in err


# ---------------------------------------------------------------------------
# Exit codes and argument errors
# ---------------------------------------------------------------------------

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


def test_help_exits_0(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["solve", "--help"])[0] == 0


def test_numerical_failure_exits_2(capsys):
    lam1 = ref.LAM_EVEN[1]
    code, _, err = run(capsys, ["solve", "--a6", "1", "--a0", str(lam1 ** 6),
                                "--forcing", "2:1", "--M", "10"])
    assert code == 2
    assert "numerical failure" in err


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(capsys, ["solve", "--config", str(bad)])[0] == 1
    bad.write_text(json.dumps({"no_such_field": 1}))
    assert run(capsys, ["solve", "--config", str(bad)])[0] == 1
    bad.write_text(json.dumps([1, 2]))
    assert run(capsys, ["solve", "--config", str(bad)])[0] == 1
    assert run(capsys, ["solve", "--config", str(tmp_path / "absent.json")])[0] == 1


def test_csv_floats_use_17_significant_digits(tmp_path, capsys):
    stem = str(tmp_path / "digits")
    run(capsys, ["solve", "--model", "I", "--M", "10", "--out", stem,
                 "--samples", "3"])
    coef = (tmp_path / "digits.coefficients.csv").read_text().strip().split("\n")
    u0c_text = coef[1].split(",")[1]
    assert float(u0c_text) == 2048.0 / 3003.0  # round-trips exactly
    assert len(u0c_text.replace("-", "").replace(".", "").lstrip("0")) >= 16
