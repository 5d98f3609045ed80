"""Independent checks of the files the ``sixbeam`` CLI writes.

Nothing here imports ``sixbeam``: each checker reads an output file and
compares it with a reference derived from first principles (the manufactured
solution, the theta-scheme amplification factor, the characteristic
determinant) or handed in by the caller.  Summary fields are never read,
because they are derived a second time by the program and are known to
disagree with the data files in places.

Every checker returns ``(ok, error, message)``; ``error`` is the worst
deviation it saw, in the units its docstring states.
"""

from __future__ import annotations

import cmath
import csv
import math


def exact_solution(x: float) -> float:
    """The manufactured solution (x^2 - 1)^6 shared by every solve op."""
    return (x * x - 1.0) ** 6


def read_table(path: str) -> tuple[list, list]:
    """Header and rows of a CLI CSV file; numeric cells become floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_number(c) for c in row] for row in reader]
    return header, rows


def _number(cell: str):
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def _worst(errors, tol: float, what: str):
    worst = max(errors, default=math.inf)
    if not math.isfinite(worst) or worst > tol:
        return False, worst, f"{what}: error {worst:.3e} exceeds {tol:.1e}"
    return True, worst, ""


def check_solution(path: str, tol: float):
    """Max |u(x) - (x^2-1)^6| over the samples of a ``*.solution.csv``."""
    header, rows = read_table(path)
    ix, iu = header.index("x"), header.index("u")
    if len(rows) < 2:
        return False, math.inf, f"{path}: only {len(rows)} samples"
    return _worst((abs(r[iu] - exact_solution(r[ix])) for r in rows), tol, path)


def check_evolve_steady(path: str, reference: dict, tol: float):
    """Max |u_at_x - reference[x]| on the last row of a ``*.trajectory.csv``.

    ``reference`` maps the column name (``u_at_-0.5`` ...) to the steady
    solution's value there.
    """
    header, rows = read_table(path)
    last = rows[-1]
    missing = [k for k in reference if k not in header]
    if missing:
        return False, math.inf, f"{path}: missing columns {missing}"
    errors = [abs(last[header.index(k)] - v) for k, v in reference.items()]
    return _worst(errors, tol, path)


def amplification(z: float, theta: float) -> float:
    """Theta-scheme growth factor R(z) = (1 + (1-theta) z) / (1 - theta z)."""
    return (1.0 + (1.0 - theta) * z) / (1.0 - theta * z)


def check_evolve_decay(path: str, column: str, amp: float, z: float,
                       theta: float, tol: float):
    """Max relative deviation of a single decaying mode from amp * R(z)^k.

    Every other tracked coefficient column must stay exactly zero.
    """
    header, rows = read_table(path)
    if column not in header:
        return False, math.inf, f"{path}: no column {column}"
    col = header.index(column)
    others = [i for i, h in enumerate(header)
              if h.startswith(("u0c", "uc_", "us_")) and i != col]
    r = amplification(z, theta)
    errors = []
    for k, row in enumerate(rows):
        want = amp * r ** k
        errors.append(abs(row[col] - want) / abs(want))
        if any(row[i] != 0.0 for i in others):
            return False, math.inf, f"{path}: row {k} excites other modes"
    return _worst(errors, tol, path)


def check_verify(path: str, exit_code: int):
    """A ``*.report.csv`` from ``verify``: exit 0 and no failed entry.

    Returns ``(ok, entries, failed)`` instead of an error value.
    """
    header, rows = read_table(path)
    ip = header.index("passed")
    failed = sum(1 for r in rows if r[ip] != "true")
    ok = exit_code == 0 and failed == 0 and len(rows) > 0
    return ok, len(rows), failed


# ---------------------------------------------------------------------------
# Eigenvalues from the characteristic determinant
# ---------------------------------------------------------------------------

_OMEGA = cmath.exp(1j * math.pi / 6.0)   # lam * omega is a root of r^6 = -lam^6


def characteristic_det(parity: str, lam: float) -> float:
    """Scaled determinant of the free-edge conditions psi' = psi'' = psi^(5) = 0.

    The even (odd) solutions of -psi^(6) = lam^6 psi are cos(lam x) (sin) and
    the real and imaginary parts of cosh(lam omega x) (sinh).  Row k holds the
    k-th derivatives at x = 1 divided by lam^k; the hyperbolic column is
    divided by exp(Re(lam omega)), so every entry is O(1) for any lam.
    """
    a, b = lam * _OMEGA.real, lam * _OMEGA.imag
    grow = cmath.exp(1j * b) / 2.0               # exp(z - a) / 2
    decay = cmath.exp(-2.0 * a - 1j * b) / 2.0   # exp(-z - a) / 2
    cosh_s, sinh_s = grow + decay, grow - decay
    rows = []
    for k in (1, 2, 5):
        if parity == "even":
            trig = math.cos(lam + k * math.pi / 2.0)
            hyp = _OMEGA ** k * (cosh_s if k % 2 == 0 else sinh_s)
        else:
            trig = math.sin(lam + k * math.pi / 2.0)
            hyp = _OMEGA ** k * (sinh_s if k % 2 == 0 else cosh_s)
        rows.append((trig, hyp.real, hyp.imag))
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = rows
    return (a1 * (b2 * c3 - b3 * c2) - b1 * (a2 * c3 - a3 * c2)
            + c1 * (a2 * b3 - a3 * b2))


def root_offset(parity: str, lam: float) -> float:
    """Newton step |det / det'| at lam, relative to lam: the characteristic
    residual expressed as a relative eigenvalue error."""
    h = 1e-6 * lam
    slope = (characteristic_det(parity, lam + h)
             - characteristic_det(parity, lam - h)) / (2.0 * h)
    return abs(characteristic_det(parity, lam) / slope) / lam


def eigenvalue(parity: str, m: int) -> float:
    """m-th positive root of the characteristic determinant, by bisection.

    The root lies within pi/2 of the asymptote (m + 1/6) pi (even) or
    (m - 1/3) pi (odd); the determinant changes sign there.
    """
    guess = (m + 1.0 / 6.0) * math.pi if parity == "even" else (m - 1.0 / 3.0) * math.pi
    lo, hi = guess - 0.5 * math.pi, guess + 0.5 * math.pi
    flo = characteristic_det(parity, lo)
    if flo * characteristic_det(parity, hi) > 0.0:
        raise ArithmeticError(f"no sign change around {parity} m={m}")
    while hi - lo > 4.0 * math.ulp(hi):
        mid = 0.5 * (lo + hi)
        fmid = characteristic_det(parity, mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_eigenvalues(path: str, tol: float):
    """Worst characteristic residual (relative root offset) of an
    ``eigenvalues`` table; the m = 0 row must read lambda_even = 0."""
    header, rows = read_table(path)
    errors = []
    for row in rows:
        rec = dict(zip(header, row))
        if rec["m"] == 0:
            if rec.get("lambda_even", 0.0) != 0.0:
                return False, math.inf, f"{path}: constant mode has lambda != 0"
            continue
        for parity in ("even", "odd"):
            lam = rec.get(f"lambda_{parity}")
            if lam is not None:
                errors.append(root_offset(parity, lam))
    return _worst(errors, tol, path)
