"""Command-line interface: eigenvalue tables, BVP solves, formula verification,
and time evolution of the semi-discrete system.

Subcommands: ``eigenvalues``, ``solve``, ``verify``, ``evolve``.  Every
subcommand accepts ``--M``, ``--out``, ``--format {csv,json}``, and
``--config FILE``: a flat JSON object whose keys name the subcommand's own
flags.  Each non-null value goes through the same parser as the flag's text;
explicit flags override file values.

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

import numpy as np

from . import coefficients, galerkin, oracle
from .eigenbasis import Basis, build_basis, eigenvalue_asymptotic, solve_eigenvalue

__all__ = ["UsageError", "main",
           "cmd_eigenvalues", "cmd_solve", "cmd_verify", "cmd_evolve"]

_MAX_VERIFY_INDEX = 50


class UsageError(Exception):
    """Invalid flags or configuration; maps to exit code 1."""


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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _table_text(header: list, rows, fmt: str) -> str:
    """``rows`` is a list of rows or a 2-D float array (one row template per line).

    In a float array, a row whose cells after the first have the bits of the
    previous row's reuses that row's text; only its first cell is formatted.
    """
    if fmt == "csv":
        lines = [",".join(header)]
        if isinstance(rows, np.ndarray) and rows.dtype == float:
            # "%.17g" % x gives the same text as _cell(x) for every float.
            bits = rows[:, 1:].view(np.int64)
            repeats = [False] + np.all(bits[1:] == bits[:-1], axis=1).tolist()
            template, rest = ",%.17g" * (rows.shape[1] - 1), ""
            for first, row, repeat in zip(rows[:, 0].tolist(),
                                          rows[:, 1:].tolist(), repeats):
                if not repeat:
                    rest = template % tuple(row)
                lines.append("%.17g" % first + rest)
        else:
            lines.extend(",".join(_cell(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    body = [dict(zip(header, (_jsonable(v) for v in row))) for row in rows]
    return json.dumps(body, indent=2) + "\n"


def _emit_table(args: argparse.Namespace, stem: str, header: list, rows,
                files: dict) -> None:
    text = _table_text(header, rows, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        path = f"{args.out}.{stem}.{args.format}"
        _write_text(path, text)
        files[stem] = path


def _emit_summary(args: argparse.Namespace, summary: dict, files: dict) -> None:
    summary = _jsonable(summary)
    text = json.dumps(summary, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        path = f"{args.out}.summary.json"
        _write_text(path, text)
        files["summary"] = path


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def cmd_eigenvalues(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    m_max = args.m_max if args.m_max is not None else args.M
    rows = []
    if args.parity == "both":
        header = ["m", "lambda_even", "asymptotic_even", "lambda_odd", "asymptotic_odd"]
    elif args.parity == "even":
        header = ["m", "lambda_even", "asymptotic_even"]
    else:
        header = ["m", "lambda_odd", "asymptotic_odd"]
    start = 0 if args.parity in ("both", "even") else 1
    for m in range(start, m_max + 1):
        row: list = [m]
        if args.parity in ("both", "even"):
            if m == 0:
                row += [0.0, None]
            else:
                row += [solve_eigenvalue("even", m).lam,
                        eigenvalue_asymptotic("even", m)]
        if args.parity in ("both", "odd"):
            if m == 0:
                row += [None, None]
            else:
                row += [solve_eigenvalue("odd", m).lam,
                        eigenvalue_asymptotic("odd", m)]
        rows.append(row)
    files: dict = {}
    _emit_table(args, "table", header, rows, files)
    if args.out is not None:
        summary = {"command": "eigenvalues", "m_max": m_max, "parity": args.parity,
                   "rows": len(rows), "files": files,
                   "timings_ms": {"total": 1e3 * (time.perf_counter() - t0)}}
        _emit_summary(args, summary, files)
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


def _spec_from_args(args: argparse.Namespace) -> galerkin.BvpSpec:
    base = {None: None, "I": galerkin.MODEL_I, "II": galerkin.MODEL_II}[args.model]
    if base is None and args.a6 is None:
        raise UsageError("solve requires --model I|II or explicit --a6 (with "
                         "--a4/--a2/--a0/--forcing)")
    a6 = args.a6 if args.a6 is not None else (base.a6 if base else None)
    a4 = args.a4 if args.a4 is not None else (base.a4 if base else 0.0)
    a2 = args.a2 if args.a2 is not None else (base.a2 if base else 0.0)
    a0 = args.a0 if args.a0 is not None else (base.a0 if base else 0.0)
    if args.forcing is not None:
        forcing = _parse_forcing(args.forcing)
    elif base is not None:
        forcing = base.forcing
    else:
        forcing = ()
    name = base.name if base is not None and args.a6 is None and args.a4 is None \
        and args.a2 is None and args.a0 is None and args.forcing is None else "custom"
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


def cmd_solve(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = _spec_from_args(args)
    basis = build_basis(args.M)
    t1 = time.perf_counter()
    sol = galerkin.solve_steady(spec, basis)
    t2 = time.perf_counter()
    xs = np.linspace(-1.0, 1.0, args.samples)
    u = coefficients.synthesize(sol, xs)
    has_exact = spec.name in _EXACT_MODEL_SOLUTION
    files: dict = {}
    if has_exact:
        exact = (xs * xs - 1.0) ** 6
        err = u - exact
        max_error = float(np.max(np.abs(err)))
        sol_header = ["x", "u", "exact", "error"]
        sol_rows = np.column_stack((xs, u, exact, err))
    else:
        max_error = None
        sol_header = ["x", "u"]
        sol_rows = np.column_stack((xs, u))
    coef_header = ["n", "u_even", "abs_u_even"]
    u_even = np.concatenate(([sol.u0c], sol.uc[1:]))
    coef_rows = np.column_stack((np.arange(args.M + 1), u_even, np.abs(u_even)))
    if args.format == "json":  # where n must stay an integer
        coef_rows = [[int(n), u, a] for n, u, a in coef_rows.tolist()]
    tier = None
    if max_error is not None:
        tier = ("stretch" if max_error <= 5e-13
                else "required" if max_error <= 1e-10 else "unmet")
    decay_fit = _decay_fit(sol.uc, 50)
    t3 = time.perf_counter()
    if args.out is not None:
        _emit_table(args, "solution", sol_header, sol_rows, files)
        _emit_table(args, "coefficients", coef_header, coef_rows, files)
    t4 = time.perf_counter()
    summary = {
        "command": "solve",
        "M": args.M,
        "model": spec.name,
        "spec": {"a6": spec.a6, "a4": spec.a4, "a2": spec.a2, "a0": spec.a0,
                 "forcing": [[p, c] for p, c in spec.forcing]},
        "samples": args.samples,
        "u0c": sol.u0c,
        "max_error": max_error,
        "error_tier": tier,
        "decay_fit": decay_fit,
        "ldlt": sol.record,
        "files": files,
        "timings_ms": {
            "build_basis": 1e3 * (t1 - t0),
            "solve": 1e3 * (t2 - t1),
            "synthesize": 1e3 * (t3 - t2),
            "write": 1e3 * (t4 - t3),
            "total": 1e3 * (time.perf_counter() - t0),
        },
    }
    _emit_summary(args, summary, files)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_reports(basis: Basis, K: int) -> list:
    tabs = oracle.quadrature_tables(basis, K, tol=1e-10)
    compare = oracle.VerificationReport.compare
    indices = [(n, m) for n in range(1, K + 1) for m in range(1, K + 1)]
    reports = []
    for parity in ("even", "odd"):
        for kind, table in (("beta", "second_derivative"),
                            ("gamma", "fourth_derivative")):
            closed = coefficients.operator_matrix(basis, parity, table)
            quad = tabs[f"{kind}_{parity}"]
            reports += [compare(kind, parity, n, m, closed.entries[n - 1, m - 1],
                                quad[n - 1, m - 1]) for n, m in indices]
        if parity == "even":  # closed is the fourth-derivative table here
            reports += [compare("gamma", parity, n, 0, closed.mean_row[n - 1],
                                tabs["gamma0_even"][n - 1])
                        for n in range(1, K + 1)]
    for p, quad in tabs["chi"].items():
        closed = coefficients.chi_vector(basis, p)
        reports += [compare("chi", "even", m, p, closed[m - 1], quad[m - 1])
                    for m in range(1, K + 1)]
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    K = args.max_index
    files: dict = {}
    if K == 0:
        reports = []
        notes = []
    else:
        basis = build_basis(max(K, 2))
        reports = _verify_reports(basis, K)
        notes = coefficients.superseded_variant_notes(basis)
    failed = [r for r in reports if not r.passed]
    worst = max(reports, key=lambda r: r.rel_error) if reports else None
    summary = {
        "command": "verify",
        "max_index": K,
        "tolerance": oracle.REL_THRESHOLD,
        "total": len(reports),
        "passed": len(reports) - len(failed),
        "failed": len(failed),
        "worst": worst.to_dict() if worst is not None else None,
        "misprint_notes": notes,
        "files": files,
        "timings_ms": {"total": 1e3 * (time.perf_counter() - t0)},
    }
    rows = [r.to_dict() for r in reports]
    if args.out is None:
        doc = dict(summary)
        doc.pop("files")
        doc["reports"] = rows
        sys.stdout.write(json.dumps(_jsonable(doc), indent=2) + "\n")
    else:
        header = ["kind", "parity", "n", "m_or_p", "closed", "quadrature",
                  "rel_error", "passed", "note"]
        _emit_table(args, "report", header,
                    [[r[k] for k in header] for r in rows], files)
        summary["timings_ms"]["total"] = 1e3 * (time.perf_counter() - t0)
        _emit_summary(args, summary, files)
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


def cmd_evolve(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    basis = build_basis(args.M)
    # An unset --B/--reaction takes the assembler's default; 0 is kept as 0.
    given = {k: v for k, v in (("B", args.B), ("reaction", args.reaction))
             if v is not None}
    assemble = (galerkin.model_ii_semi_discrete if args.forcing == "model-II"
                else galerkin.assemble_semi_discrete)
    system = assemble(basis, T=args.T, **given)
    initial = (coefficients.CoefficientSet.zeros(basis) if args.initial is None
               else _parse_initial(args.initial, basis))
    t1 = time.perf_counter()
    traj = galerkin.evolve(system, initial, args.dt, args.steps, args.theta)
    t2 = time.perf_counter()
    n_states = len(traj.u0c)
    final_u0c, final_uc, final_us = traj.u0c[-1], traj.uc[-1], traj.us[-1]
    steady_dev = None
    if args.forcing == "model-II":
        steady = galerkin.solve_steady(galerkin.BvpSpec(
            a6=1.0, a4=-system.T, a2=system.B, a0=system.reaction,
            forcing=galerkin.MODEL_II.forcing), basis)
        steady_dev = float(max(abs(final_u0c - steady.u0c),
                               np.max(np.abs(final_uc - steady.uc)),
                               np.max(np.abs(final_us - steady.us))))
    t3 = time.perf_counter()
    files: dict = {}
    if args.out is not None:
        k_track = min(basis.M, _TRACK_MODES)
        header = (["t", "u0c"]
                  + [f"uc_{n}" for n in range(1, k_track + 1)]
                  + [f"us_{n}" for n in range(1, k_track + 1)]
                  + [f"u_at_{x:g}" for x in _SAMPLE_X])
        samples = coefficients.synthesize(traj, np.asarray(_SAMPLE_X))
        if traj.stationary_from is not None:
            # The matrix product can round a repeated state differently by its
            # row; every repeat takes the samples of its first occurrence.
            samples[traj.stationary_from + 1:] = samples[traj.stationary_from]
        rows = np.column_stack((
            np.arange(n_states) * args.dt, traj.u0c,
            traj.uc[:, 1:k_track + 1], traj.us[:, 1:k_track + 1], samples))
    t4 = time.perf_counter()
    if args.out is not None:
        _emit_table(args, "trajectory", header, rows, files)
    t5 = time.perf_counter()
    final_norm = float(max(abs(final_u0c),
                           np.max(np.abs(final_uc)), np.max(np.abs(final_us))))
    summary = {
        "command": "evolve",
        "M": args.M,
        "B": system.B, "T": system.T, "reaction": system.reaction,
        "dt": args.dt, "steps": args.steps, "theta": args.theta,
        "initial": args.initial, "forcing": args.forcing,
        "state_count": n_states,
        "final_max_abs": final_norm,
        "steady_deviation": steady_dev,
        "paths": traj.record,
        "stationary_from": traj.stationary_from,
        "files": files,
        "timings_ms": {
            "assemble": 1e3 * (t1 - t0),
            "evolve": 1e3 * (t2 - t1),
            "steady": 1e3 * (t3 - t2),
            "synthesize": 1e3 * (t4 - t3),
            "write": 1e3 * (t5 - t4),
            "total": 1e3 * (time.perf_counter() - t0),
        },
    }
    _emit_summary(args, summary, files)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--M", type=int, default=100,
                        help="number of modes per parity family (default %(default)s)")
    common.add_argument("--out", type=str, default=None,
                        help="output path stem; omit to print to stdout")
    common.add_argument("--format", type=str, default="csv",
                        choices=("csv", "json"), help="data file format")
    common.add_argument("--config", type=str, default=None,
                        help="JSON config file; explicit flags override")
    parser = _Parser(prog="sixbeam", allow_abbrev=False,
                     description="Sixth-order eigenfunction spectral solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, about):
        return sub.add_parser(name, parents=[common], allow_abbrev=False, help=about)

    p_eig = add("eigenvalues", "tabulate eigenvalues against asymptotics")
    p_eig.add_argument("--m-max", type=int, default=None,
                       help="largest mode index (default --M)")
    p_eig.add_argument("--parity", type=str, default="both",
                       choices=("both", "even", "odd"))
    p_solve = add("solve", "solve a steady sixth-order BVP")
    p_solve.add_argument("--model", type=str.upper, default=None,
                         choices=("I", "II"), help="built-in problem")
    for coef in ("a6", "a4", "a2", "a0"):
        p_solve.add_argument(f"--{coef}", type=float, default=None)
    p_solve.add_argument("--forcing", type=str, default=None,
                         help="even polynomial as power:coeff[,power:coeff...]")
    p_solve.add_argument("--samples", type=int, default=201)
    p_verify = add("verify", "verify closed forms against quadrature")
    p_verify.add_argument("--max-index", type=int, default=20)
    p_evolve = add("evolve", "integrate the semi-discrete system")
    p_evolve.add_argument("--B", type=float, default=None,
                          help="default: the preset's value, else 0")
    p_evolve.add_argument("--T", type=float, default=0.0)
    p_evolve.add_argument("--reaction", type=float, default=None,
                          help="default: the preset's value, else 0")
    p_evolve.add_argument("--dt", type=float, default=1e-4)
    p_evolve.add_argument("--steps", type=int, default=200)
    p_evolve.add_argument("--theta", type=float, default=0.5)
    p_evolve.add_argument("--initial", type=str, default=None,
                          help="initial state as parity:m[:amplitude]")
    p_evolve.add_argument("--forcing", type=str, default="none",
                          choices=("none", "model-II"), help="forcing preset")
    return parser


def _config_argv(args: argparse.Namespace) -> list:
    """The config file as ``--flag=value`` arguments for the parser.

    A key must name one of the subcommand's flags (``_`` or ``-``); a null
    value leaves the flag unset.  Strings pass as given, anything else as its
    JSON text, so the flag's own type and choices check it.
    """
    path = args.config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path!r} must hold a flat JSON object")
    out = []
    for key, value in data.items():
        name = key.replace("-", "_")
        if name in ("command", "config") or not hasattr(args, name):
            raise UsageError(f"config file {path!r}: unknown field {key!r}")
        if value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            out.append(f"--{name.replace('_', '-')}={text}")
    return out


def _check(args: argparse.Namespace) -> None:
    """The range checks argparse cannot express."""
    if args.M < 1:
        raise UsageError(f"--M must be >= 1, got {args.M}")
    if args.command == "eigenvalues" and args.m_max is not None and args.m_max < 0:
        raise UsageError(f"--m-max must be >= 0, got {args.m_max}")
    if args.command == "solve" and args.samples < 2:
        raise UsageError(f"--samples must be >= 2, got {args.samples}")
    if args.command == "verify" and not (0 <= args.max_index <= _MAX_VERIFY_INDEX):
        raise UsageError(
            f"--max-index must be in [0, {_MAX_VERIFY_INDEX}], got {args.max_index}")
    if args.command == "evolve":
        if not (args.dt > 0.0):
            raise UsageError(f"--dt must be positive, got {args.dt}")
        if args.steps < 0:
            raise UsageError(f"--steps must be >= 0, got {args.steps}")
        if not (0.0 <= args.theta <= 1.0):
            raise UsageError(f"--theta must lie in [0, 1], got {args.theta}")


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse argv; the parser is freed before the command runs (~0.7 MB RSS)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # After the subcommand, so the command line's own flags override them.
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_argv(args) + argv[at:])
    return args


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:  # --help or argparse-internal exits
            code = exc.code
            return 0 if code in (0, None) else int(code)
        _check(args)
        dispatch = {
            "eigenvalues": cmd_eigenvalues,
            "solve": cmd_solve,
            "verify": cmd_verify,
            "evolve": cmd_evolve,
        }
        return dispatch[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
