"""Tests of the benchmark's own checkers and generator.

    python3 -m pytest perfbench -q

They need neither the program nor its dependencies: each checker is fed a
hand-written file that is right, then the same file with one defect, and the
tracer runs on stand-in modules.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

XS = [-1.0 + 2.0 * i / 20 for i in range(21)]


def write_csv(path: Path, header: list, rows: list) -> str:
    lines = [",".join(header)]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def solution_file(tmp_path, bump=0.0):
    rows = [[x, checks.exact_solution(x) + (bump if i == 7 else 0.0)]
            for i, x in enumerate(XS)]
    return write_csv(tmp_path / "s.solution.csv", ["x", "u"], rows)


def test_solution_exact_passes(tmp_path):
    ok, err, _ = checks.check_solution(solution_file(tmp_path), 1e-9)
    assert ok and err == 0.0


def test_solution_sample_off_by_1e6_is_flagged(tmp_path):
    ok, err, _ = checks.check_solution(solution_file(tmp_path, 1e-6), 1e-9)
    assert not ok and err == pytest.approx(1e-6)


def report_file(tmp_path, failed_row=None):
    header = ["kind", "parity", "n", "m_or_p", "closed", "quadrature",
              "rel_error", "passed", "note"]
    rows = [["beta", "even", n, 1, 1.0, 1.0, 0.0,
             "false" if n == failed_row else "true", ""] for n in range(1, 6)]
    return write_csv(tmp_path / "v.report.csv", header, rows)


def test_verify_report_clean_passes(tmp_path):
    assert checks.check_verify(report_file(tmp_path), 0) == (True, 5, 0)


def test_verify_report_with_one_failed_entry_is_flagged(tmp_path):
    assert checks.check_verify(report_file(tmp_path, failed_row=3), 0) == (False, 5, 1)


def test_verify_nonzero_exit_is_flagged(tmp_path):
    assert not checks.check_verify(report_file(tmp_path), 2)[0]


STEADY = {"u_at_-0.5": 0.177978515625, "u_at_0": 1.0, "u_at_0.5": 0.177978515625}


def trajectory_file(tmp_path, last):
    header = ["t", "u0c", "uc_1", "us_1", *STEADY]
    rows = [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1e-4, 1.0, 0.5, 0.0, *last]]
    return write_csv(tmp_path / "e.trajectory.csv", header, rows)


def test_evolve_at_steady_state_passes(tmp_path):
    path = trajectory_file(tmp_path, list(STEADY.values()))
    assert checks.check_evolve_steady(path, STEADY, 1e-10)[0]


def test_evolve_sample_off_by_1e6_is_flagged(tmp_path):
    last = list(STEADY.values())
    last[1] += 1e-6
    ok, err, _ = checks.check_evolve_steady(trajectory_file(tmp_path, last), STEADY, 1e-10)
    assert not ok and err == pytest.approx(1e-6)


def decay_file(tmp_path, amp, z, bump=0.0):
    r = checks.amplification(z, 0.5)
    rows = [[k * 1e-6, 0.0, amp * r ** k * (1.0 + (bump if k == 3 else 0.0)), 0.0]
            for k in range(6)]
    return write_csv(tmp_path / "d.trajectory.csv", ["t", "u0c", "uc_1", "us_1"], rows)


def test_decay_matches_amplification_factor(tmp_path):
    assert checks.check_evolve_decay(decay_file(tmp_path, 1.5, -0.1), "uc_1",
                                     1.5, -0.1, 0.5, 1e-10)[0]


def test_decay_off_by_1e6_is_flagged(tmp_path):
    path = decay_file(tmp_path, 1.5, -0.1, bump=1e-6)
    assert not checks.check_evolve_decay(path, "uc_1", 1.5, -0.1, 0.5, 1e-10)[0]


def test_characteristic_roots_match_asymptotics():
    for parity, shift in (("even", 1.0 / 6.0), ("odd", -1.0 / 3.0)):
        lam = checks.eigenvalue(parity, 40)
        assert abs(lam - (40 + shift) * math.pi) < 1e-10
        assert checks.root_offset(parity, lam) < 1e-13


def test_eigenvalue_off_by_1e6_is_flagged(tmp_path):
    header = ["m", "lambda_even", "asymptotic_even", "lambda_odd", "asymptotic_odd"]
    rows = [[0, 0.0, None, None, None]]
    rows += [[m, checks.eigenvalue("even", m), 0.0, checks.eigenvalue("odd", m), 0.0]
             for m in (1, 2, 3)]
    assert checks.check_eigenvalues(write_csv(tmp_path / "t.table.csv", header, rows), 1e-10)[0]
    rows[2][3] *= 1.0 + 1e-6
    ok, err, _ = checks.check_eigenvalues(write_csv(tmp_path / "t.table.csv", header, rows), 1e-10)
    assert not ok and err == pytest.approx(1e-6, rel=1e-3)


def first_argv(name: str, seed: int, n_rounds: int = 3) -> list:
    gen = workloads.rounds(name, seed)
    return [op.argv for _ in range(n_rounds) for op in next(gen)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_argv(name):
    assert first_argv(name, 7) == first_argv(name, 7)
    assert first_argv(name, 7) != first_argv(name, 8)


def test_manufactured_forcing_is_exact_for_the_model_problem():
    # MODEL_II: u'''''' - 5544 u'' - 199584 u = f with u = (x^2 - 1)^6.
    assert workloads.manufactured_forcing(1.0, 0.0, -5544.0, -199584.0) == (
        "0:-147456.0,2:501984.0,4:-574560.0,10:465696.0,12:-199584.0")


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def fake_layer(monkeypatch, name: str, source: str, public: list, **names):
    module = types.ModuleType(f"sixbeam.{name}")
    module.__dict__.update(names)
    exec(source, module.__dict__)
    module.__all__ = public
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_tracer_nests_spans_and_skips_removed_names(monkeypatch):
    for layer in tracer.LAYERS:
        monkeypatch.delitem(sys.modules, f"sixbeam.{layer}", raising=False)
    galerkin = fake_layer(monkeypatch, "galerkin",
                          "def build(x):\n    return 2 * x\n"
                          "def solve(x):\n    return build(x) + 1\n",
                          ["solve", "build", "a_name_a_later_version_removed"])
    cli = fake_layer(monkeypatch, "cli", "def main(x):\n    return solve(x)\n",
                     ["main"], solve=galerkin.solve)
    t = tracer.Tracer()
    t.install()
    t.active, t.op = True, 0
    assert cli.main(3) == 7
    t.active = False
    assert [(s[0], s[3]) for s in t.spans] == [
        ("cli.main", None), ("galerkin.solve", 0), ("galerkin.build", 1)]
    own = tracer.self_times(t.spans)
    assert sum(own) == pytest.approx(t.spans[0][2] - t.spans[0][1])
    assert cli.main(3) == 7 and len(t.spans) == 3   # inactive: no spans
