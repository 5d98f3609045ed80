"""Command-line interface: eigenvalue tables, BVP solves, formula verification,
and time evolution of the semi-discrete system.

Subcommands: ``eigenvalues``, ``solve``, ``verify``, ``evolve``.  Every
subcommand accepts ``--M``, ``--out``, ``--format {csv,json}``, and
``--config FILE``: a flat JSON object whose keys name the subcommand's own
flags.  Each non-null value goes through the same parser as the flag's text;
explicit flags override file values.

Output contract: for a fixed configuration the emitted data files are
byte-identical across runs.  One writer, ``_table_text``, serves both
formats: CSV cells use 17-significant-digit decimal (``%.17g``); JSON has
the bytes of ``json.dumps(rows, indent=2)``, Python's shortest round-trip
float representation.
Summaries carry wall-clock timings under the single key ``timings_ms``,
which is excluded from the determinism contract.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure
(including verification sweeps with failing entries).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .eigenbasis import Basis, build_basis, eigenvalue_asymptotic, solve_eigenvalue

# Each command imports the other modules it runs, so it loads no more than
# that; these names serve the annotations only.
if TYPE_CHECKING:
    from . import coefficients, galerkin

__all__ = ["UsageError", "main",
           "cmd_eigenvalues", "cmd_solve", "cmd_verify", "cmd_evolve"]

_MAX_VERIFY_INDEX = 50


class UsageError(Exception):
    """Invalid flags or configuration; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Formatting and file emission
# ---------------------------------------------------------------------------

#: The text of False and True, as ``_cell`` and ``_json_cell`` write them.
_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def _cell(v) -> str:
    """The CSV text of one Python value."""
    if v is None or isinstance(v, str):
        return v or ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v) if isinstance(v, int) else format(v, ".17g")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _table_text(header: list, columns: list, fmt: str, indent: str = "") -> str:
    """The table in ``fmt`` (``"csv"`` or ``"json"``), one 1-D array or list
    of cells per header name; every JSON line after the first is indented
    by ``indent`` more.

    One pass classifies the columns for both formats.  A float array is a
    ``"%.17g"`` or ``"%r"`` (``float.__repr__``) field of one row template
    and an integer array a ``"%d"`` field: each cell's ``_cell`` or
    ``_json_cell`` text, save in a JSON float array holding a non-finite
    value.  After the first column a float array of +0.0 alone is a literal,
    and one with the bits of ``np.abs`` of the column before it
    (``_is_abs_of``) takes that column's text unsigned.  A bool array takes
    ``_BOOL_TEXT`` by one index; any other column, its cells' text, with
    one encoding per distinct value of a str array.  The columns after the
    first share one length from 1 to its own (``ValueError`` otherwise):
    the cells of the rows they reach, interleaved, fill the row template
    repeated over those rows in one ``%``, and every later row is its own
    first cell then their last row's text, in one ``str.join``.  Each float
    field's own formatting is the only work left per cell.
    """
    # The format's record: the float field, the +0.0 literal, the cell
    # encoder, whether the float field writes finite floats only, the kinds
    # that are their own text; each field's prefix and the row's end; the
    # table's wrapper (top, row separator, bottom, or the empty table).
    if fmt == "csv":
        number, zero, cell, finite_only, own = "%.17g", "0", _cell, False, "Ub"
        prefixes, end = ["", *[","] * (len(header) - 1)], ""
        empty = top = ",".join(header) + "\n"
        sep = bottom = "\n"
    else:
        number, zero, cell, finite_only, own = "%r", "0.0", _json_cell, True, "b"
        key, *keys = (encode_basestring_ascii(name).replace("%", "%%") for name in header)
        prefixes = [f"{indent}  {{\n{indent}    {key}: ",
                    *(f",\n{indent}    {k}: " for k in keys)]
        end, empty, top = f"\n{indent}  }}", "[]\n", "[\n"
        sep, bottom = ",\n", f"\n{indent}]\n"
    n = len(columns[0])
    held = len(columns[1]) if len(columns) > 1 else n  # the later columns' length
    fields, values = [], []
    for i, col in enumerate(columns):
        if i and (len(col) != held or held > n or not held and n):
            raise ValueError(f"column {header[i]!r} has {len(col)} cells: the columns after "
                             f"the first must share one length, from 1 to the first's {n}")
        kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
        # count_nonzero, since np.any warns on a signaling NaN
        if i and kind == "f" and not (np.count_nonzero(col) or np.any(np.signbit(col))):
            fields.append(zero)  # number % 0.0; -0.0 is "-0" or "-0.0"
            values.append(None)
            continue
        if i and _is_abs_of(col, columns[i - 1]):
            if fields[-1] != "%s":  # the column before: each cell formatted once
                fields[-1], values[-1] = "%s", ("\n".join([number] * len(values[-1]))
                                                % tuple(values[-1])).split("\n")
            fields.append("%s")
            values.append(_unsigned(values[-1]))
            continue
        if kind == "f" and finite_only and not np.all(np.isfinite(col)):
            kind = "O"  # NaN and +-Infinity, as _json_cell writes them
        if kind == "b":  # the two texts of both formats, shared by every cell
            cells = _BOOL_TEXT[col.astype(np.intp)].tolist()
        else:
            cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
        if kind in "fiu":
            fields.append(number if kind == "f" else "%d")
        else:
            fields.append("%s")
            if kind not in own:
                # Each distinct str once; as dict keys 0.0 and -0.0 would merge.
                encode = {v: cell(v) for v in set(cells)}.get if kind == "U" else cell
                cells = list(map(encode, cells))
        values.append(cells)
    if not n:
        return empty
    head = prefixes[0] + fields[0]
    tail = "".join(p + f for p, f in zip(prefixes[1:], fields[1:])) + end
    values = [cells for cells in values if cells is not None]
    k = len(values)
    flat = [None] * (k * held)  # row-major: the cells of each row in turn
    for j, cells in enumerate(values):
        flat[j::k] = cells[:held]
    text = sep.join([head + tail] * held) % tuple(flat)
    if held < n:  # each held row: its first cell, then the last row's rest
        rest = tail % tuple(flat[len(flat) + 1 - k:])
        bottom = rest.join([*map((sep + head).__mod__, values[0][held:]), bottom])
    return "".join((top, text, bottom))


def _is_abs_of(col, prev) -> bool:
    """Whether float array ``col`` has exactly the bits of ``np.abs(prev)``.

    Then each of its cells is that of ``prev`` with the sign bit cleared,
    and its text, in ``"%.17g"`` and in ``_json_cell`` alike, is that of
    ``prev`` with the leading ``-`` removed: both write -0.0, -inf and
    negative numbers with a leading ``-`` and every NaN without one.  Only
    a column with no sign bit set is compared, in O(rows).
    """
    return (isinstance(col, np.ndarray) and col.dtype.kind == "f"
            and isinstance(prev, np.ndarray) and prev.dtype == col.dtype
            and prev.shape == col.shape and not np.any(np.signbit(col))
            and np.abs(prev).tobytes() == col.tobytes())


def _unsigned(texts: list) -> list:
    """Each cell text with its leading ``-`` removed, by one replace over the
    texts joined by newlines (no float's text holds one)."""
    return ("\n" + "\n".join(texts)).replace("\n-", "\n").split("\n")[1:] if texts else []


def _json_cell(v) -> str:
    """The JSON text of one Python value, as ``json.dumps`` writes it."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if not isinstance(v, float):
        raise TypeError(f"a table cell must be str, None, bool, int or float, "
                        f"not {type(v).__name__}")
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else "Infinity" if v > 0.0 else "-Infinity"


def _emit(args: argparse.Namespace, stem: str, ext: str, text: str,
          files: dict) -> None:
    """Write ``text`` to ``{out}.{stem}.{ext}``, or to stdout without ``--out``."""
    if args.out is None:
        sys.stdout.write(text)
    else:
        files[stem] = f"{args.out}.{stem}.{ext}"
        _write_text(files[stem], text)


def _emit_table(args: argparse.Namespace, stem: str, header: list, columns: list,
                files: dict) -> None:
    text = _table_text(header, columns, args.format)
    _emit(args, stem, args.format, text, files)


def _emit_summary(args: argparse.Namespace, summary: dict, files: dict,
                  reports: str | None = None) -> None:
    """Write the summary as ``json.dumps(summary, indent=2)``; ``reports``, a
    JSON ``_table_text`` indented one level, enters as its last key."""
    # A numpy value (a float64 is already a float) enters as its Python value.
    text = json.dumps(summary, indent=2, default=lambda v: v.tolist())
    if reports is not None:
        text = text[:-2] + ',\n  "reports": ' + reports + "}"
    _emit(args, "summary", "json", text + "\n", files)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def cmd_eigenvalues(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    m_max = args.m_max if args.m_max is not None else args.M
    parities = ("even", "odd") if args.parity == "both" else (args.parity,)
    ms = np.arange(0 if "even" in parities else 1, m_max + 1)
    header, columns = ["m"], [ms]
    for parity in parities:
        header += [f"lambda_{parity}", f"asymptotic_{parity}"]
        columns.append([solve_eigenvalue(parity, m).lam if m
                         else (0.0 if parity == "even" else None) for m in ms.tolist()])
        columns.append([eigenvalue_asymptotic(parity, m) if m else None
                        for m in ms.tolist()])
    files: dict = {}
    _emit_table(args, "table", header, columns, files)
    if args.out is not None:
        summary = {"command": "eigenvalues", "m_max": m_max, "parity": args.parity,
                   "rows": len(ms), "files": files,
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
    from . import galerkin

    model = {"I": galerkin.MODEL_I, "II": galerkin.MODEL_II}.get(args.model)
    if model is None and args.a6 is None:
        raise UsageError("solve requires --model I|II or explicit --a6 (with "
                         "--a4/--a2/--a0/--forcing)")
    # Each given flag replaces the model's field, or the default of a spec
    # without one (a4 = a2 = a0 = 0, no forcing).
    given = {k: getattr(args, k) for k in ("a6", "a4", "a2", "a0")
             if getattr(args, k) is not None}
    if args.forcing is not None:
        given["forcing"] = _parse_forcing(args.forcing)
    fields = dataclasses.asdict(model) if model else {"a4": 0.0, "a2": 0.0, "a0": 0.0}
    if given:
        fields.update(given, name="custom")
    try:
        return galerkin.BvpSpec(**fields)
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
    from . import coefficients, galerkin

    t0 = time.perf_counter()
    spec = _spec_from_args(args)
    basis = build_basis(args.M)
    t1 = time.perf_counter()
    sol = galerkin.solve_steady(spec, basis)
    t2 = time.perf_counter()
    u = coefficients._synthesize_grid(basis, sol.u0c, sol.uc, args.samples)
    xs = coefficients._grid_plan(basis, args.samples).x  # the grid u was sampled on
    has_exact = spec.name in _EXACT_MODEL_SOLUTION
    files: dict = {}
    if has_exact:
        exact = (xs * xs - 1.0) ** 6
        err = u - exact
        max_error = float(np.max(np.abs(err)))
        sol_header, sol_columns = ["x", "u", "exact", "error"], [xs, u, exact, err]
    else:
        max_error = None
        sol_header, sol_columns = ["x", "u"], [xs, u]
    u_even = np.concatenate(([sol.u0c], sol.uc[1:]))
    tier = None
    if max_error is not None:
        tier = ("stretch" if max_error <= 5e-13
                else "required" if max_error <= 1e-10 else "unmet")
    decay_fit = _decay_fit(sol.uc, 50)
    t3 = time.perf_counter()
    if args.out is not None:
        _emit_table(args, "solution", sol_header, sol_columns, files)
        _emit_table(args, "coefficients", ["n", "u_even", "abs_u_even"],
                    [np.arange(args.M + 1), u_even, np.abs(u_even)], files)
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
        "solver": sol.record,
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

_VERIFY_HEADER = ["kind", "parity", "n", "m_or_p", "closed", "quadrature",
                  "rel_error", "passed", "note"]


def _verify_columns(basis: Basis, K: int, tabs: dict) -> list:
    """``verify``'s table, one column per ``_VERIFY_HEADER`` name."""
    from . import coefficients, oracle

    idx = np.arange(1, K + 1)
    square = (np.repeat(idx, K), np.tile(idx, K))
    parts = []  # (kind, parity, n, m_or_p, closed, quadrature) per table
    for parity in ("even", "odd"):
        for kind, table in (("beta", "second_derivative"),
                            ("gamma", "fourth_derivative")):
            closed = coefficients.operator_matrix(basis, parity, table)
            parts.append((kind, parity, *square, closed.entries[:K, :K].ravel(),
                          tabs[f"{kind}_{parity}"].ravel()))
        if parity == "even":  # closed is the fourth-derivative table here
            parts.append(("gamma", parity, idx, 0, closed.mean_row[:K],
                          tabs["gamma0_even"]))
    parts += [("chi", "even", idx, p, coefficients.chi_vector(basis, p)[:K], quad)
              for p, quad in tabs["chi"].items()]
    kind, parity, n, m_or_p, closed, quad = (
        np.concatenate([np.broadcast_to(part[i], len(part[2])) for part in parts])
        for i in range(6))
    return [kind, parity, n, m_or_p, closed, quad,
            *oracle.entry_verdicts(kind, parity, n, m_or_p, closed, quad)]


def cmd_verify(args: argparse.Namespace) -> int:
    from . import coefficients, oracle

    t0 = time.perf_counter()
    K = args.max_index
    t1, columns, notes = t0, [np.empty(0)] * len(_VERIFY_HEADER), []
    if K:
        basis = build_basis(max(K, 2))
        tabs = oracle.quadrature_tables(basis, K, tol=1e-10)
        t1 = time.perf_counter()
        columns = _verify_columns(basis, K, tabs)
        notes = coefficients.superseded_variant_notes(basis)
    rel, passed = columns[6].tolist(), int(np.count_nonzero(columns[7]))
    # The first largest error, as max() picks it (a NaN only in first place).
    worst = max(range(len(rel)), key=rel.__getitem__) if rel else None
    t2 = time.perf_counter()
    files: dict = {}
    timings = {"quadrature": 1e3 * (t1 - t0), "closed_forms": 1e3 * (t2 - t1)}
    summary = {
        "command": "verify",
        "max_index": K,
        "tolerance": oracle.REL_THRESHOLD,
        "total": len(rel),
        "passed": passed,
        "failed": len(rel) - passed,
        "worst": None if worst is None else dict(zip(
            _VERIFY_HEADER, (c[worst].item() for c in columns))),
        "misprint_notes": notes,
        "files": files,
        "timings_ms": timings,
    }
    reports = None
    if args.out is None:
        summary.pop("files")
        reports = _table_text(_VERIFY_HEADER, columns, "json", "  ")
    else:
        _emit_table(args, "report", _VERIFY_HEADER, columns, files)
    timings.update(write=1e3 * (time.perf_counter() - t2),
                   total=1e3 * (time.perf_counter() - t0))
    _emit_summary(args, summary, files, reports)
    return 2 if passed < len(rel) else 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _parse_initial(text: str, basis: Basis) -> coefficients.CoefficientSet:
    from . import coefficients

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
        if not math.isfinite(amp):
            raise UsageError(f"initial amplitude must be finite, got {amp!r}")
    try:
        m = int(m_str)
    except ValueError as exc:
        raise UsageError(f"initial mode index: {exc}") from None
    if parity not in ("even", "odd"):
        raise UsageError(f"initial parity must be even or odd, got {parity!r}")
    modes = basis.mode_range(parity)
    if m not in modes:
        raise UsageError(f"initial mode {m} out of range [{modes.start}, {basis.M}]")
    u0c, uc, us = 0.0, np.zeros(basis.M + 1), np.zeros(basis.M + 1)
    if m == 0:
        u0c = amp
    else:
        (uc if parity == "even" else us)[m] = amp
    return coefficients.CoefficientSet(basis=basis, u0c=u0c, uc=uc, us=us)


_TRACK_MODES = 8
_SAMPLE_X = (-0.5, 0.0, 0.5)


def cmd_evolve(args: argparse.Namespace) -> int:
    from . import coefficients, galerkin

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
    n_states = args.steps + 1
    final = coefficients.CoefficientSet(basis, traj.u0c[-1], traj.uc[-1], traj.us[-1])
    files: dict = {}
    if args.out is not None:
        k_track = min(basis.M, _TRACK_MODES)
        header = (["t", "u0c"]
                  + [f"uc_{n}" for n in range(1, k_track + 1)]
                  + [f"us_{n}" for n in range(1, k_track + 1)]
                  + [f"u_at_{x:g}" for x in _SAMPLE_X])
        samples = coefficients.synthesize(traj, np.asarray(_SAMPLE_X))
        columns = [np.arange(n_states) * args.dt, traj.u0c,
                   *traj.uc[:, 1:k_track + 1].T, *traj.us[:, 1:k_track + 1].T,
                   *samples.T]
    t3 = time.perf_counter()
    if args.out is not None:
        _emit_table(args, "trajectory", header, columns, files)
    t4 = time.perf_counter()
    final_norm = float(np.max(np.abs(np.concatenate(([final.u0c], final.uc, final.us)))))
    summary = {
        "command": "evolve",
        "M": args.M,
        "B": system.B, "T": system.T, "reaction": system.reaction,
        "dt": args.dt, "steps": args.steps, "theta": args.theta,
        "initial": args.initial, "forcing": args.forcing,
        "state_count": n_states,
        "final_max_abs": final_norm,
        "steady_residual": system.steady_residual(final),
        "paths": traj.record,
        "stationary_from": traj.stationary_from,
        "files": files,
        "timings_ms": {
            "assemble": 1e3 * (t1 - t0),
            "evolve": 1e3 * (t2 - t1),
            "synthesize": 1e3 * (t3 - t2),
            "write": 1e3 * (t4 - t3),
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


def _ranged(flag: str, cast, ok, rule: str):
    """A flag's type: ``cast`` the text, then ``{flag} must {rule}`` unless ``ok``."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise UsageError(f"{flag} must {rule}, got {value}")
        return value
    parse.__name__ = cast.__name__  # as argparse's "invalid int value" names it
    return parse


@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--M", type=_ranged("--M", int, lambda v: v >= 1, "be >= 1"),
                        default=100,
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

    def add(name, run, about):
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, help=about)
        p.set_defaults(run=run)
        return p

    p_eig = add("eigenvalues", cmd_eigenvalues,
                "tabulate eigenvalues against asymptotics")
    p_eig.add_argument("--m-max", default=None, help="largest mode index (default --M)",
                       type=_ranged("--m-max", int, lambda v: v >= 0, "be >= 0"))
    p_eig.add_argument("--parity", type=str, default="both",
                       choices=("both", "even", "odd"))
    p_solve = add("solve", cmd_solve, "solve a steady sixth-order BVP")
    p_solve.add_argument("--model", type=str.upper, default=None,
                         choices=("I", "II"), help="built-in problem")
    for coef in ("a6", "a4", "a2", "a0"):
        p_solve.add_argument(f"--{coef}", type=float, default=None)
    p_solve.add_argument("--forcing", type=str, default=None,
                         help="even polynomial as power:coeff[,power:coeff...]")
    p_solve.add_argument("--samples", default=201,
                         type=_ranged("--samples", int, lambda v: v >= 2, "be >= 2"))
    p_verify = add("verify", cmd_verify, "verify closed forms against quadrature")
    p_verify.add_argument("--max-index", default=20, type=_ranged(
        "--max-index", int, lambda v: 0 <= v <= _MAX_VERIFY_INDEX,
        f"be in [0, {_MAX_VERIFY_INDEX}]"))
    p_evolve = add("evolve", cmd_evolve, "integrate the semi-discrete system")
    finite = (float, math.isfinite, "be finite")
    p_evolve.add_argument("--B", type=_ranged("--B", *finite), default=None,
                          help="default: the preset's value, else 0")
    p_evolve.add_argument("--T", type=_ranged("--T", *finite), default=0.0)
    p_evolve.add_argument("--reaction", type=_ranged("--reaction", *finite), default=None,
                          help="default: the preset's value, else 0")
    p_evolve.add_argument("--dt", default=1e-4,
                          type=_ranged("--dt", float, lambda v: v > 0.0, "be positive"))
    p_evolve.add_argument("--steps", default=200,
                          type=_ranged("--steps", int, lambda v: v >= 0, "be >= 0"))
    p_evolve.add_argument("--theta", default=0.5, type=_ranged(
        "--theta", float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"))
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
        if name in ("command", "config", "run") or not hasattr(args, name):
            raise UsageError(f"config file {path!r}: unknown field {key!r}")
        if value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            out.append(f"--{name.replace('_', '-')}={text}")
    return out


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse argv with the parser built once per process and kept (~0.7 MB RSS)."""
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
        return args.run(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
