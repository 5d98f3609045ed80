"""Command-line interface: eigenvalue tables, BVP solves, formula verification,
and time evolution of the semi-discrete system.

Subcommands: ``eigenvalues``, ``solve``, ``verify``, ``evolve``.  Every
subcommand accepts ``--M``, ``--out``, ``--format {csv,json}``, and
``--config FILE`` (flat JSON whose keys are the flag names; explicit flags
override file values).

Output contract: for a fixed configuration the emitted data files are
byte-identical across runs.  CSV cells use 17-significant-digit decimal
(``%.17g``); JSON uses Python's shortest round-trip float representation.
Summaries carry wall-clock timings under the single key ``timings_ms``,
which is excluded from the determinism contract.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure
(including verification sweeps with failing entries).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import coefficients, galerkin, oracle
from .eigenbasis import Basis, Parity, build_basis, eigenvalue_asymptotic, solve_eigenvalue

__all__ = ["RunConfig", "UsageError", "main",
           "cmd_eigenvalues", "cmd_solve", "cmd_verify", "cmd_evolve"]

_VERIFY_TOL = 1e-8
_MAX_VERIFY_INDEX = 50
_CHI_POWERS = coefficients.CHI_POWERS


class UsageError(Exception):
    """Invalid flags or configuration; maps to exit code 1."""


@dataclass
class RunConfig:
    """Merged command configuration (config file < explicit flags)."""

    command: str
    M: int = 100
    out: str | None = None
    format: str = "csv"
    # eigenvalues
    m_max: int | None = None
    parity: str = "both"
    # solve
    model: str | None = None
    a6: float | None = None
    a4: float | None = None
    a2: float | None = None
    a0: float | None = None
    forcing: str | None = None
    samples: int = 201
    # verify
    max_index: int = 20
    # evolve
    B: float = 0.0
    T: float = 0.0
    reaction: float = 0.0
    dt: float = 1e-4
    steps: int = 200
    theta: float = 0.5
    initial: str | None = None

    def validate(self) -> None:
        if self.M < 1:
            raise UsageError(f"--M must be >= 1, got {self.M}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"--format must be csv or json, got {self.format!r}")
        if self.command == "eigenvalues":
            if self.parity not in ("both", "even", "odd"):
                raise UsageError(f"--parity must be both, even, or odd, got {self.parity!r}")
            if self.m_max is not None and self.m_max < 0:
                raise UsageError(f"--m-max must be >= 0, got {self.m_max}")
        if self.command == "solve" and self.samples < 2:
            raise UsageError(f"--samples must be >= 2, got {self.samples}")
        if self.command == "verify" and not (0 <= self.max_index <= _MAX_VERIFY_INDEX):
            raise UsageError(
                f"--max-index must be in [0, {_MAX_VERIFY_INDEX}], got {self.max_index}")
        if self.command == "evolve":
            if not (self.dt > 0.0):
                raise UsageError(f"--dt must be positive, got {self.dt}")
            if self.steps < 0:
                raise UsageError(f"--steps must be >= 0, got {self.steps}")
            if not (0.0 <= self.theta <= 1.0):
                raise UsageError(f"--theta must lie in [0, 1], got {self.theta}")


# ---------------------------------------------------------------------------
# Formatting and file emission
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _jsonable(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _table_text(header: list, rows: list, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    body = [dict(zip(header, (_jsonable(v) for v in row))) for row in rows]
    return json.dumps(body, indent=2) + "\n"


def _emit_table(cfg: RunConfig, stem: str, header: list, rows: list,
                files: dict) -> None:
    text = _table_text(header, rows, cfg.format)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        path = f"{cfg.out}.{stem}.{cfg.format}"
        _write_text(path, text)
        files[stem] = path


def _emit_summary(cfg: RunConfig, summary: dict, files: dict) -> None:
    summary = _jsonable(summary)
    text = json.dumps(summary, indent=2) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        path = f"{cfg.out}.summary.json"
        _write_text(path, text)
        files["summary"] = path


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def cmd_eigenvalues(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    m_max = cfg.m_max if cfg.m_max is not None else cfg.M
    rows = []
    if cfg.parity == "both":
        header = ["m", "lambda_even", "asymptotic_even", "lambda_odd", "asymptotic_odd"]
    elif cfg.parity == "even":
        header = ["m", "lambda_even", "asymptotic_even"]
    else:
        header = ["m", "lambda_odd", "asymptotic_odd"]
    start = 0 if cfg.parity in ("both", "even") else 1
    for m in range(start, m_max + 1):
        row: list = [m]
        if cfg.parity in ("both", "even"):
            if m == 0:
                row += [0.0, None]
            else:
                row += [solve_eigenvalue("even", m).lam,
                        eigenvalue_asymptotic("even", m)]
        if cfg.parity in ("both", "odd"):
            if m == 0:
                row += [None, None]
            else:
                row += [solve_eigenvalue("odd", m).lam,
                        eigenvalue_asymptotic("odd", m)]
        rows.append(row)
    files: dict = {}
    _emit_table(cfg, "table", header, rows, files)
    if cfg.out is not None:
        summary = {"command": "eigenvalues", "m_max": m_max, "parity": cfg.parity,
                   "rows": len(rows), "files": files,
                   "timings_ms": {"total": 1e3 * (time.perf_counter() - t0)}}
        _emit_summary(cfg, summary, files)
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _parse_forcing(text: str) -> tuple:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise UsageError(
                f"forcing term {chunk!r} must have the form power:coefficient")
        try:
            p = int(parts[0])
            c = float(parts[1])
        except ValueError as exc:
            raise UsageError(f"forcing term {chunk!r}: {exc}") from None
        pairs.append((p, c))
    if not pairs:
        raise UsageError("forcing string contains no terms")
    return tuple(pairs)


def _spec_from_config(cfg: RunConfig) -> galerkin.BvpSpec:
    base = None
    if cfg.model is not None:
        key = cfg.model.upper()
        if key not in ("I", "II"):
            raise UsageError(f"--model must be I or II, got {cfg.model!r}")
        base = galerkin.MODEL_I if key == "I" else galerkin.MODEL_II
    if base is None and cfg.a6 is None:
        raise UsageError("solve requires --model I|II or explicit --a6 (with "
                         "--a4/--a2/--a0/--forcing)")
    a6 = cfg.a6 if cfg.a6 is not None else (base.a6 if base else None)
    a4 = cfg.a4 if cfg.a4 is not None else (base.a4 if base else 0.0)
    a2 = cfg.a2 if cfg.a2 is not None else (base.a2 if base else 0.0)
    a0 = cfg.a0 if cfg.a0 is not None else (base.a0 if base else 0.0)
    if cfg.forcing is not None:
        forcing = _parse_forcing(cfg.forcing)
    elif base is not None:
        forcing = base.forcing
    else:
        forcing = ()
    name = base.name if base is not None and cfg.a6 is None and cfg.a4 is None \
        and cfg.a2 is None and cfg.a0 is None and cfg.forcing is None else "custom"
    try:
        return galerkin.BvpSpec(a6=a6, a4=a4, a2=a2, a0=a0, forcing=forcing,
                                name=name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _decay_fit(values: np.ndarray, lo: int) -> dict | None:
    """OLS fit of log|u_n| vs log n over n in [lo, M], zeros excluded."""
    M = len(values) - 1
    if M < lo + 4:
        return None
    n = np.arange(lo, M + 1)
    v = np.abs(values[lo:M + 1])
    keep = v > 0.0
    if np.count_nonzero(keep) < 5:
        return None
    ln = np.log(n[keep])
    lv = np.log(v[keep])
    design = np.vstack([ln, np.ones_like(ln)]).T
    slope, intercept = np.linalg.lstsq(design, lv, rcond=None)[0]
    return {"window": [lo, M], "exponent": float(slope),
            "coefficient": float(np.exp(intercept))}


_EXACT_MODEL_SOLUTION = {"model-I", "model-II"}


def cmd_solve(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = _spec_from_config(cfg)
    basis = build_basis(cfg.M)
    t1 = time.perf_counter()
    sol = galerkin.solve_steady(spec, basis)
    t2 = time.perf_counter()
    xs = np.linspace(-1.0, 1.0, cfg.samples)
    u = coefficients.synthesize(sol, xs)
    has_exact = spec.name in _EXACT_MODEL_SOLUTION
    files: dict = {}
    if has_exact:
        exact = (xs * xs - 1.0) ** 6
        err = u - exact
        max_error = float(np.max(np.abs(err)))
        sol_header = ["x", "u", "exact", "error"]
        sol_rows = [[x, v, e, d] for x, v, e, d in zip(xs, u, exact, err)]
    else:
        max_error = None
        sol_header = ["x", "u"]
        sol_rows = [[x, v] for x, v in zip(xs, u)]
    coef_header = ["n", "u_even", "abs_u_even"]
    coef_rows = [[0, sol.u0c, abs(sol.u0c)]]
    coef_rows += [[n, sol.uc[n], abs(sol.uc[n])] for n in range(1, cfg.M + 1)]
    t3 = time.perf_counter()
    tier = None
    if max_error is not None:
        tier = ("stretch" if max_error <= 5e-13
                else "required" if max_error <= 1e-10 else "unmet")
    if cfg.out is not None:
        _emit_table(cfg, "solution", sol_header, sol_rows, files)
        _emit_table(cfg, "coefficients", coef_header, coef_rows, files)
    summary = {
        "command": "solve",
        "M": cfg.M,
        "model": spec.name,
        "spec": {"a6": spec.a6, "a4": spec.a4, "a2": spec.a2, "a0": spec.a0,
                 "forcing": [[p, c] for p, c in spec.forcing]},
        "samples": cfg.samples,
        "u0c": sol.u0c,
        "max_error": max_error,
        "error_tier": tier,
        "decay_fit": _decay_fit(sol.uc, 50),
        "ldlt": sol.record,
        "files": files,
        "timings_ms": {
            "build_basis": 1e3 * (t1 - t0),
            "solve": 1e3 * (t2 - t1),
            "postprocess": 1e3 * (t3 - t2),
            "total": 1e3 * (time.perf_counter() - t0),
        },
    }
    _emit_summary(cfg, summary, files)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_CORRECTED_NOTE = ("corrected closed form; a superseded variant is documented "
                   "in the misprint notes")


def _verify_reports(basis: Basis, K: int) -> list:
    tabs = oracle.quadrature_tables(basis, K, tol=1e-10)
    reports = []

    def add(kind, parity, n, m_or_p, closed, quad, note=""):
        rel = abs(closed - quad) / max(abs(quad), 1e-30)
        reports.append({
            "kind": kind, "parity": parity, "n": n, "m_or_p": m_or_p,
            "closed": float(closed), "quadrature": float(quad),
            "rel_error": float(rel), "passed": bool(rel < _VERIFY_TOL),
            "note": note,
        })

    for parity in ("even", "odd"):
        beta_q = tabs[f"beta_{parity}"]
        gamma_q = tabs[f"gamma_{parity}"]
        beta_c = coefficients.operator_matrix(basis, parity, "second_derivative").entries
        gamma_m = coefficients.operator_matrix(basis, parity, "fourth_derivative")
        for n in range(1, K + 1):
            for m in range(1, K + 1):
                note = ""
                if parity == "odd" or (parity == "even" and n == m):
                    note = _CORRECTED_NOTE
                add("beta", parity, n, m, beta_c[n - 1, m - 1],
                    beta_q[n - 1, m - 1], note)
        for n in range(1, K + 1):
            for m in range(1, K + 1):
                add("gamma", parity, n, m, gamma_m.entries[n - 1, m - 1],
                    gamma_q[n - 1, m - 1])
        if parity == "even":
            for n in range(1, K + 1):
                add("gamma", parity, n, 0, gamma_m.mean_row[n - 1],
                    tabs["gamma0_even"][n - 1])
    for p in _CHI_POWERS:
        chi_c = coefficients.chi_vector(basis, p)
        chi_q = tabs["chi"][p]
        for m in range(1, K + 1):
            add("chi", "even", m, p, chi_c[m - 1], chi_q[m - 1],
                _CORRECTED_NOTE if p == 12 else "")
    return reports


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    K = cfg.max_index
    files: dict = {}
    if K == 0:
        reports = []
        notes = []
    else:
        basis = build_basis(max(K, 2))
        reports = _verify_reports(basis, K)
        notes = coefficients.superseded_variant_notes(basis)
    failed = [r for r in reports if not r["passed"]]
    worst = max(reports, key=lambda r: r["rel_error"]) if reports else None
    summary = {
        "command": "verify",
        "max_index": K,
        "tolerance": _VERIFY_TOL,
        "total": len(reports),
        "passed": len(reports) - len(failed),
        "failed": len(failed),
        "worst": worst,
        "misprint_notes": notes,
        "files": files,
        "timings_ms": {"total": 1e3 * (time.perf_counter() - t0)},
    }
    header = ["kind", "parity", "n", "m_or_p", "closed", "quadrature",
              "rel_error", "passed", "note"]
    rows = [[r[k] for k in header] for r in reports]
    if cfg.out is None:
        doc = dict(summary)
        doc.pop("files")
        doc["reports"] = reports
        sys.stdout.write(json.dumps(_jsonable(doc), indent=2) + "\n")
    else:
        _emit_table(cfg, "report", header, rows, files)
        summary["timings_ms"]["total"] = 1e3 * (time.perf_counter() - t0)
        _emit_summary(cfg, summary, files)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _parse_initial(text: str, basis: Basis) -> coefficients.CoefficientSet:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(
            f"initial state {text!r} must have the form parity:m[:amplitude]")
    parity, m_str = parts[0].strip().lower(), parts[1]
    amp = 1.0
    if len(parts) == 3:
        try:
            amp = float(parts[2])
        except ValueError as exc:
            raise UsageError(f"initial amplitude: {exc}") from None
    try:
        m = int(m_str)
    except ValueError as exc:
        raise UsageError(f"initial mode index: {exc}") from None
    uc = np.zeros(basis.M + 1)
    us = np.zeros(basis.M + 1)
    u0c = 0.0
    if parity == "even":
        if not (0 <= m <= basis.M):
            raise UsageError(f"initial mode {m} out of range [0, {basis.M}]")
        if m == 0:
            u0c = amp
        else:
            uc[m] = amp
    elif parity == "odd":
        if not (1 <= m <= basis.M):
            raise UsageError(f"initial mode {m} out of range [1, {basis.M}]")
        us[m] = amp
    else:
        raise UsageError(f"initial parity must be even or odd, got {parity!r}")
    return coefficients.CoefficientSet(basis=basis, u0c=u0c, uc=uc, us=us)


_TRACK_MODES = 8
_SAMPLE_X = (-0.5, 0.0, 0.5)


def cmd_evolve(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    preset = (cfg.forcing or "none").strip()
    if preset not in ("none", "model-II"):
        raise UsageError(f"--forcing must be none or model-II, got {cfg.forcing!r}")
    basis = build_basis(cfg.M)
    if preset == "model-II":
        B = cfg.B if cfg.B != 0.0 else galerkin.MODEL_II.a2
        reaction = cfg.reaction if cfg.reaction != 0.0 else galerkin.MODEL_II.a0
        f0, fc = galerkin.forcing_projection(galerkin.MODEL_II, basis)
        forcing = coefficients.CoefficientSet(
            basis=basis, u0c=-f0, uc=np.concatenate(([0.0], -fc)),
            us=np.zeros(basis.M + 1))
        system = galerkin.assemble_semi_discrete(basis, B=B, T=cfg.T,
                                                 forcing=forcing,
                                                 reaction=reaction)
    else:
        system = galerkin.assemble_semi_discrete(basis, B=cfg.B, T=cfg.T,
                                                 forcing=None,
                                                 reaction=cfg.reaction)
    initial = (coefficients.CoefficientSet.zeros(basis) if cfg.initial is None
               else _parse_initial(cfg.initial, basis))
    t1 = time.perf_counter()
    traj = galerkin.evolve(system, initial, cfg.dt, cfg.steps, cfg.theta)
    t2 = time.perf_counter()
    k_track = min(basis.M, _TRACK_MODES)
    header = (["t", "u0c"]
              + [f"uc_{n}" for n in range(1, k_track + 1)]
              + [f"us_{n}" for n in range(1, k_track + 1)]
              + [f"u_at_{x:g}" for x in _SAMPLE_X])
    rows = []
    xs = np.asarray(_SAMPLE_X)
    for k, state in enumerate(traj):
        vals = coefficients.synthesize(state, xs)
        rows.append([k * cfg.dt, state.u0c]
                    + [state.uc[n] for n in range(1, k_track + 1)]
                    + [state.us[n] for n in range(1, k_track + 1)]
                    + list(vals))
    final = traj[-1]
    steady_dev = None
    if preset == "model-II":
        steady = galerkin.solve_steady(galerkin.BvpSpec(
            a6=1.0, a4=-system.T, a2=system.B, a0=system.reaction,
            forcing=galerkin.MODEL_II.forcing), basis)
        steady_dev = float(max(abs(final.u0c - steady.u0c),
                               np.max(np.abs(final.uc - steady.uc)),
                               np.max(np.abs(final.us - steady.us))))
    files: dict = {}
    if cfg.out is not None:
        _emit_table(cfg, "trajectory", header, rows, files)
    final_norm = float(max(abs(final.u0c),
                           np.max(np.abs(final.uc)), np.max(np.abs(final.us))))
    summary = {
        "command": "evolve",
        "M": cfg.M,
        "B": system.B, "T": system.T, "reaction": system.reaction,
        "dt": cfg.dt, "steps": cfg.steps, "theta": cfg.theta,
        "initial": cfg.initial, "forcing": preset,
        "state_count": len(traj),
        "final_max_abs": final_norm,
        "steady_deviation": steady_dev,
        "files": files,
        "timings_ms": {
            "assemble": 1e3 * (t1 - t0),
            "evolve": 1e3 * (t2 - t1),
            "total": 1e3 * (time.perf_counter() - t0),
        },
    }
    _emit_summary(cfg, summary, files)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and config merging
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--M", type=int, default=None,
                        help="number of modes per parity family (default 100)")
    common.add_argument("--out", type=str, default=None,
                        help="output path stem; omit to print to stdout")
    common.add_argument("--format", type=str, default=None,
                        choices=("csv", "json"), help="data file format")
    common.add_argument("--config", type=str, default=None,
                        help="JSON config file; explicit flags override")
    parser = _Parser(prog="sixbeam",
                     description="Sixth-order eigenfunction spectral solver")
    sub = parser.add_subparsers(dest="command", required=True)
    p_eig = sub.add_parser("eigenvalues", parents=[common],
                           help="tabulate eigenvalues against asymptotics")
    p_eig.add_argument("--m-max", dest="m_max", type=int, default=None)
    p_eig.add_argument("--parity", type=str, default=None,
                       choices=("both", "even", "odd"))
    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve a steady sixth-order BVP")
    p_solve.add_argument("--model", type=str, default=None,
                         help="built-in problem: I or II")
    for coef in ("a6", "a4", "a2", "a0"):
        p_solve.add_argument(f"--{coef}", type=float, default=None)
    p_solve.add_argument("--forcing", type=str, default=None,
                         help="even polynomial as power:coeff[,power:coeff...]")
    p_solve.add_argument("--samples", type=int, default=None)
    p_verify = sub.add_parser("verify", parents=[common],
                              help="verify closed forms against quadrature")
    p_verify.add_argument("--max-index", dest="max_index", type=int, default=None)
    p_evolve = sub.add_parser("evolve", parents=[common],
                              help="integrate the semi-discrete system")
    p_evolve.add_argument("--B", type=float, default=None)
    p_evolve.add_argument("--T", type=float, default=None)
    p_evolve.add_argument("--reaction", type=float, default=None)
    p_evolve.add_argument("--dt", type=float, default=None)
    p_evolve.add_argument("--steps", type=int, default=None)
    p_evolve.add_argument("--theta", type=float, default=None)
    p_evolve.add_argument("--initial", type=str, default=None,
                          help="initial state as parity:m[:amplitude]")
    p_evolve.add_argument("--forcing", type=str, default=None,
                          help="forcing preset: none or model-II")
    return parser


_CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig) if f.name != "command"}
_INT_FIELDS = {"M", "m_max", "samples", "max_index", "steps"}
_FLOAT_FIELDS = {"a6", "a4", "a2", "a0", "B", "T", "reaction", "dt", "theta"}
_STR_FIELDS = {"out", "format", "parity", "model", "forcing", "initial"}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path!r} must hold a flat JSON object")
    out = {}
    for key, value in data.items():
        field_name = key.replace("-", "_")
        if field_name not in _CONFIG_FIELDS:
            raise UsageError(f"config file {path!r}: unknown field {key!r}")
        try:
            if value is None:
                out[field_name] = None
            elif field_name in _INT_FIELDS:
                out[field_name] = int(value)
            elif field_name in _FLOAT_FIELDS:
                out[field_name] = float(value)
            elif field_name in _STR_FIELDS:
                out[field_name] = str(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(
                f"config file {path!r}: field {key!r}: {exc}") from None
    return out


def _merge(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_values = _load_config_file(args.config) if args.config else {}
    for name, value in file_values.items():
        setattr(cfg, name, value)
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            setattr(cfg, name, flag)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help or argparse-internal exits
            code = exc.code
            return 0 if code in (0, None) else int(code)
        cfg = _merge(args)
        dispatch = {
            "eigenvalues": cmd_eigenvalues,
            "solve": cmd_solve,
            "verify": cmd_verify,
            "evolve": cmd_evolve,
        }
        return dispatch[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
