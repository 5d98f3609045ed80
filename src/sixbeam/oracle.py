"""Independent numerical verification for the spectral basis and its closed forms.

This module is the brute-force ground truth: adaptive composite Gauss-Legendre
quadrature for inner products, a second eigenfunction evaluator built on a
*different* representation than the production one, and entrywise verification
of every closed-form expansion coefficient.

Independence policy: nothing here calls the closed-form coefficient code or the
production complex-exponential eigenfunction kernel.  Eigenfunctions are
re-evaluated from their real product form

    psi/c = (trig in lam*x) + sum_i v_i * {sin|cos}(lam*x/2) * {gs|gc}(x)

with gs, gc the exponent-scaled hyperbolic half-angle factors, and derivatives
taken by an exact recursion on the (trig, v) coefficient vector.  Only the
eigenvalues and normalization constants are shared data; an error in either is
still caught because it perturbs the Gram matrix away from the identity.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import coefficients
from .eigenbasis import (SQRT3, Basis, Parity, _check_eval_args, _check_mode,
                         _is_int, _parity)

__all__ = [
    "QuadratureRule",
    "VerificationReport",
    "REL_THRESHOLD",
    "make_rule",
    "integrate",
    "inner_product",
    "psi_reference",
    "gram_matrix",
    "adjointness_defect",
    "quadrature_tables",
    "entry_verdicts",
    "verify_formula",
    "projection_l2_error",
    "residual_scan",
]

#: Gauss-Legendre points per panel (exact through polynomial degree 31).
PANEL_ORDER = 16

#: Refinement cap for adaptive integration (total nodes).
_MAX_POINTS = 4_000_000

#: Refinement cap for adaptive integration (panel doublings).
_MAX_DOUBLINGS = 8

#: Relative error below which a closed form passes verification.
REL_THRESHOLD = 1e-8

_CORRECTED_NOTE = ("corrected closed form; a superseded variant is documented "
                   "in the misprint notes")


# ---------------------------------------------------------------------------
# Quadrature engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on [-1, 1] with equal panels."""

    panels: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=4)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def make_rule(panels: int) -> QuadratureRule:
    """Build a composite rule and verify its basic integration invariants."""
    if not _is_int(panels) or panels < 1:
        raise ValueError(f"panel count must be a positive integer, got {panels!r}")
    if panels * PANEL_ORDER > _MAX_POINTS:
        raise ValueError(
            f"panel count {panels} exceeds the node budget "
            f"({_MAX_POINTS // PANEL_ORDER} panels)")
    x0, w0 = _gauss_legendre(PANEL_ORDER)
    h = 2.0 / panels
    left = -1.0 + h * np.arange(panels)
    nodes = (left[:, None] + 0.5 * h * (x0[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * h * w0, (panels, PANEL_ORDER)).ravel().copy()
    # Build-time invariants: weights sum to the interval length and the rule
    # integrates an even power at half the panel order exactly.
    if abs(math.fsum(weights) - 2.0) > 1e-14:
        raise ArithmeticError("quadrature weights do not sum to 2")
    hi = math.fsum(weights * nodes ** PANEL_ORDER)
    if abs(hi - 2.0 / (PANEL_ORDER + 1)) > 1e-14 * (2.0 / (PANEL_ORDER + 1)):
        raise ArithmeticError("quadrature rule failed polynomial exactness check")
    return QuadratureRule(panels=int(panels), nodes=nodes, weights=weights)


def integrate(f: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> float:
    """Integrate a vectorized function over [-1, 1] with the given rule."""
    return float(np.sum(rule.weights * np.asarray(f(rule.nodes), dtype=float)))


def _initial_panels(lam_hint: float) -> int:
    # At least 4 panels per oscillation wavelength 2*pi/lam over [-1, 1].
    return max(8, int(math.ceil(4.0 * abs(lam_hint) / math.pi)))


def _table_panels(basis: Basis, n_max: int) -> int:
    """Initial panels for integrands up to mode n_max of both parities."""
    return _initial_panels(max(float(basis.lam_even[n_max]),
                               float(basis.lam_odd[n_max])))


def _refine(evaluate: Callable[[QuadratureRule], object], panels: int,
            converged: Callable[[object, object], bool]):
    """Evaluate on ``panels``, 2*panels, ... until two successive rules agree.

    Returns the finer value of the first pair for which
    ``converged(coarse, fine)`` holds.  Raises RuntimeError after
    ``_MAX_DOUBLINGS`` doublings or once the next rule would exceed
    ``_MAX_POINTS`` nodes, whichever comes first.
    """
    coarse = evaluate(make_rule(panels))
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        if panels * PANEL_ORDER > _MAX_POINTS:
            break
        fine = evaluate(make_rule(panels))
        if converged(coarse, fine):
            return fine
        coarse = fine
    raise RuntimeError(
        f"quadrature did not converge within {_MAX_DOUBLINGS} panel doublings "
        f"or {_MAX_POINTS} nodes")


def _agree(coarse, fine, tol: float, floor=0.0) -> bool:
    """Entrywise |fine - coarse| < tol * max(1, |fine|) + floor."""
    return bool(np.all(np.abs(fine - coarse)
                       < tol * np.maximum(1.0, np.abs(fine)) + floor))


def inner_product(f, g, tol: float = 1e-12, lam_hint: float = 0.0) -> float:
    """L2 inner product on [-1, 1] by adaptive composite quadrature.

    Panels double until two successive refinements differ by less than
    tol * max(1, |integral|).  ``lam_hint`` sets the initial panel density for
    oscillatory integrands (highest wavenumber present).
    """
    if not (tol >= 1e-14):
        raise ValueError(f"tol must be >= 1e-14, got {tol!r}")
    return _refine(
        lambda rule: integrate(
            lambda x: np.asarray(f(x), float) * np.asarray(g(x), float), rule),
        _initial_panels(lam_hint),
        lambda coarse, fine: _agree(coarse, fine, tol))


# ---------------------------------------------------------------------------
# Reference eigenfunction evaluation (independent representation)
# ---------------------------------------------------------------------------

def _reference_coeffs(basis: Basis, parity: Parity, m: int):
    """(lam, c, t, v): coefficients of the real product representation.

    psi/c = t1*cos(lam x) + t2*sin(lam x)
            + v1*sin(lam x/2)*gs + v2*sin(lam x/2)*gc
            + v3*cos(lam x/2)*gs + v4*cos(lam x/2)*gc

    with gs = e^{-s/2} sinh(s x/2), gc = e^{-s/2} cosh(s x/2), s = sqrt(3) lam.
    """
    if parity is Parity.EVEN:
        lam = float(basis.lam_even[m])
        q, e1, c = float(basis.q_even[m]), float(basis.e1_even[m]), float(basis.c_even[m])
    else:
        lam = float(basis.lam_odd[m])
        q, e1, c = float(basis.q_odd[m]), float(basis.e1_odd[m]), float(basis.c_odd[m])
    gg = 0.5 * (1.0 - e1)   # e^{-s/2} sinh(s/2)
    hh = 0.5 * (1.0 + e1)   # e^{-s/2} cosh(s/2)
    sh, ch = math.sin(0.5 * lam), math.cos(0.5 * lam)
    if parity is Parity.EVEN:
        t = (1.0, 0.0)
        v = (8.0 * math.sin(lam) * ch * gg / q, 0.0,
             0.0, -8.0 * math.sin(lam) * sh * hh / q)
    else:
        t = (0.0, 1.0)
        v = (0.0, -8.0 * math.cos(lam) * ch * hh / q,
             8.0 * math.cos(lam) * sh * gg / q, 0.0)
    return lam, c, t, v


def _differentiate_coeffs(lam: float, t, v, k: int):
    """Exact derivative recursion on the product-representation coefficients."""
    half_l, half_s = 0.5 * lam, 0.5 * SQRT3 * lam
    for _ in range(k):
        t = (lam * t[1], -lam * t[0])
        v = (half_s * v[1] - half_l * v[2],
             half_s * v[0] - half_l * v[3],
             half_l * v[0] + half_s * v[3],
             half_l * v[1] + half_s * v[2])
    return t, v


def psi_reference(basis: Basis, parity, m: int, x, k: int = 0):
    """Reference evaluation of psi_m^{(k)}(x) (independent of the production path)."""
    parity = _parity(parity)
    xa = _check_eval_args(x, k)
    _check_mode(basis, parity, m)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if parity is Parity.EVEN and m == 0:
        out = np.ones_like(xa) if k == 0 else np.zeros_like(xa)
    else:
        out = _reference_block(basis, parity, (m,), xa, (int(k),))[0, 0]
    return float(out[0]) if scalar else out


def _reference_block(basis: Basis, parity: Parity, modes, x: np.ndarray,
                     orders: tuple) -> np.ndarray:
    """psi_m^{(k)}(x) for m in ``modes`` (rows), one block per k in ``orders``.

    Each mode's six elementary functions are evaluated once for all orders.
    """
    blocks = np.empty((len(orders), len(modes)) + x.shape)
    for i, m in enumerate(modes):
        lam, c, t0, v0 = _reference_coeffs(basis, parity, m)
        s = SQRT3 * lam
        rise, fall = np.exp(0.5 * s * (x - 1.0)), np.exp(-0.5 * s * (x + 1.0))
        gs, gc = 0.5 * (rise - fall), 0.5 * (rise + fall)
        sin_h, cos_h = np.sin(0.5 * lam * x), np.cos(0.5 * lam * x)
        cos_l, sin_l = np.cos(lam * x), np.sin(lam * x)
        for block, k in zip(blocks, orders):
            t, v = _differentiate_coeffs(lam, t0, v0, k)
            block[i] = c * (t[0] * cos_l + t[1] * sin_l
                            + v[0] * sin_h * gs + v[1] * sin_h * gc
                            + v[2] * cos_h * gs + v[3] * cos_h * gc)
    return blocks


# ---------------------------------------------------------------------------
# Structural checks: orthonormality, self-adjointness, completeness
# ---------------------------------------------------------------------------

def gram_matrix(basis: Basis, parity, n_max: int, tol: float = 1e-12) -> np.ndarray:
    """Gram matrix <psi_n, psi_m> for modes 1..n_max by converged quadrature."""
    parity = _parity(parity)

    def gram(rule):
        rows, = _reference_block(basis, parity, range(1, n_max + 1), rule.nodes,
                                 (0,))
        return (rows * rule.weights) @ rows.T

    return _refine(gram, _table_panels(basis, n_max),
                   lambda coarse, fine: _agree(coarse, fine, tol))


def adjointness_defect(basis: Basis, parity, n: int, m: int,
                       tol: float = 1e-12) -> float:
    """|<psi_n^{(6)}, psi_m> - <psi_n, psi_m^{(6)}>| by adaptive quadrature."""
    parity = _parity(parity)
    lam_n = basis.eigenvalue(parity, n).lam
    lam_m = basis.eigenvalue(parity, m).lam
    hint = max(lam_n, lam_m)
    # Both integrals are O(lam^6) with near-total cancellation for n != m, so
    # the convergence target must be absolute at the integrand's scale.
    scaled = tol * max(1.0, hint ** 6)
    a = inner_product(lambda x: psi_reference(basis, parity, n, x, 6),
                      lambda x: psi_reference(basis, parity, m, x, 0),
                      tol=scaled, lam_hint=hint)
    b = inner_product(lambda x: psi_reference(basis, parity, n, x, 0),
                      lambda x: psi_reference(basis, parity, m, x, 6),
                      tol=scaled, lam_hint=hint)
    return abs(a - b)


# ---------------------------------------------------------------------------
# Quadrature value tables for sweep verification
# ---------------------------------------------------------------------------

def quadrature_tables(basis: Basis, max_index: int, tol: float = 1e-10) -> dict:
    """Quadrature values of every expansion coefficient up to ``max_index``.

    Returns arrays indexed [n-1, m-1]:
      - ``beta_even``/``beta_odd``:   <psi_n'', psi_m>
      - ``gamma_even``/``gamma_odd``: <psi_n'''', psi_m>
      - ``gamma0_even``: <psi_n'''', 1>  (vector, index n-1)
      - ``chi``: {p: vector of <x^p, psi_m^c>, index m-1} for p = 2..12 even

    Entrywise converged: two successive grid resolutions differ by less than
    tol * max(1, |value|) plus a rounding floor of 500 eps scaled by the row's
    integrand magnitude lam_n^k (off-diagonal entries are near-zero results
    of O(lam^k) cancellation and can never meet an absolute target below
    that floor).
    """
    if not _is_int(max_index) or not (1 <= max_index <= basis.M):
        raise ValueError(f"max_index must be in [1, M={basis.M}], got {max_index!r}")
    K = int(max_index)
    out: dict = {}
    eps_floor = 500.0 * np.finfo(float).eps
    for parity in (Parity.EVEN, Parity.ODD):
        key = parity.value
        lam_rows = basis.lam(parity)[1:K + 1]
        floors = {
            f"beta_{key}": eps_floor * np.maximum(1.0, lam_rows ** 2)[:, None],
            f"gamma_{key}": eps_floor * np.maximum(1.0, lam_rows ** 4)[:, None],
            "gamma0_even": eps_floor * np.maximum(1.0, lam_rows ** 4),
            "chi": eps_floor,
        }
        out.update(_refine(
            lambda rule: _sweep_tables(basis, parity, K, rule, coefficients.CHI_POWERS),
            _table_panels(basis, K),
            lambda coarse, fine: all(_agree(coarse[name], fine[name], tol,
                                            floors[name]) for name in fine)))
    out["chi"] = dict(zip(coefficients.CHI_POWERS, out["chi"]))
    return out


def _sweep_tables(basis: Basis, parity: Parity, K: int, rule, powers) -> dict:
    """One grid's quadrature tables for ``quadrature_tables``.

    ``chi`` is stacked one row per power so it converges like the others.
    """
    key = parity.value
    rows0, rows2, rows4 = _reference_block(basis, parity, range(1, K + 1),
                                           rule.nodes, (0, 2, 4))
    tables = {
        f"beta_{key}": (rows2 * rule.weights) @ rows0.T,
        f"gamma_{key}": (rows4 * rule.weights) @ rows0.T,
    }
    if parity is Parity.EVEN:
        tables["gamma0_even"] = rows4 @ rule.weights
        tables["chi"] = np.stack([rows0 @ (rule.weights * rule.nodes ** p)
                                  for p in powers])
    return tables


# ---------------------------------------------------------------------------
# Entrywise closed-form verification
# ---------------------------------------------------------------------------

def entry_verdicts(kind, parity, n, m_or_p, closed, quad) -> tuple:
    """Relative error, pass flag and note of closed forms against quadrature.

    Entrywise over arrays (or scalars) of one length: ``kind`` and ``parity``
    name each entry's table, ``n`` its row and ``m_or_p`` its column (the
    power p for chi).  Entries whose closed form replaces a superseded
    variant (every beta of the odd family, the even beta diagonal, chi at
    p = 12) carry the corrected-form note.
    """
    rel = np.abs(closed - quad) / np.maximum(np.abs(quad), 1e-30)
    corrected = (((kind == "beta") & ((parity == "odd") | (n == m_or_p)))
                 | ((kind == "chi") & (m_or_p == 12)))
    return rel, rel < REL_THRESHOLD, np.where(corrected, _CORRECTED_NOTE, "")


@dataclass(frozen=True)
class VerificationReport:
    """Closed form vs quadrature for one expansion coefficient."""

    kind: str            # "beta" | "gamma" | "chi"
    parity: str          # "even" | "odd"
    n: int               # row index (mode m for chi)
    m_or_p: int          # column index (power p for chi)
    closed: float
    quadrature: float
    rel_error: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def compare(cls, kind: str, parity, n: int, m_or_p: int, closed: float,
                quad: float) -> "VerificationReport":
        """The record for one entry, by the rule of ``entry_verdicts``."""
        parity = _parity(parity).value
        rel, passed, note = entry_verdicts(kind, parity, n, m_or_p, closed, quad)
        return cls(kind=kind, parity=parity, n=int(n), m_or_p=int(m_or_p),
                   closed=float(closed), quadrature=float(quad),
                   rel_error=float(rel), passed=bool(passed), note=str(note))


def verify_formula(basis: Basis, kind: str, parity, n: int, m_or_p: int,
                   tol: float = 1e-12) -> VerificationReport:
    """Compare one closed-form coefficient against adaptive quadrature.

    For kind "beta"/"gamma": (n, m_or_p) are the mode indices (n, m).
    For kind "chi": n is the even-mode index m and m_or_p is the power p.
    """
    parity = _parity(parity)
    if kind == "beta":
        closed = coefficients.beta(basis, parity, n, m_or_p)
        lam_n = basis.eigenvalue(parity, n).lam
        lam_m = basis.eigenvalue(parity, m_or_p).lam
        quad = inner_product(lambda x: psi_reference(basis, parity, n, x, 2),
                             lambda x: psi_reference(basis, parity, m_or_p, x, 0),
                             tol=tol, lam_hint=max(lam_n, lam_m))
    elif kind == "gamma":
        closed = coefficients.gamma(basis, parity, n, m_or_p)
        lam_n = basis.eigenvalue(parity, n).lam
        if m_or_p == 0:
            quad = inner_product(lambda x: psi_reference(basis, parity, n, x, 4),
                                 lambda x: np.ones_like(x),
                                 tol=tol, lam_hint=lam_n)
        else:
            lam_m = basis.eigenvalue(parity, m_or_p).lam
            quad = inner_product(lambda x: psi_reference(basis, parity, n, x, 4),
                                 lambda x: psi_reference(basis, parity, m_or_p, x, 0),
                                 tol=tol, lam_hint=max(lam_n, lam_m))
    elif kind == "chi":
        if parity is not Parity.EVEN:
            raise ValueError("chi coefficients exist for the even family only")
        closed = coefficients.chi(basis, m_or_p, n)
        lam_m = basis.eigenvalue(parity, n).lam
        quad = inner_product(lambda x: x ** m_or_p,
                             lambda x: psi_reference(basis, parity, n, x, 0),
                             tol=tol, lam_hint=lam_m)
    else:
        raise ValueError(f"kind must be 'beta', 'gamma' or 'chi', got {kind!r}")
    return VerificationReport.compare(kind, parity, n, m_or_p, closed, quad)


# ---------------------------------------------------------------------------
# Completeness and residual scans
# ---------------------------------------------------------------------------

def projection_l2_error(basis: Basis, f, m_max: int, tol: float = 1e-12) -> float:
    """L2 error of the orthogonal projection of f onto modes m <= m_max.

    Computed via Parseval with quadrature coefficients:
    err^2 = <f, f> - u0c^2/2 - sum uc_m^2 - sum us_m^2.
    """
    if not _is_int(m_max) or not (1 <= m_max <= basis.M):
        raise ValueError(f"m_max must be in [1, M={basis.M}], got {m_max!r}")
    lam_hint = max(float(basis.lam_even[m_max]), float(basis.lam_odd[m_max]))
    norm2 = inner_product(f, f, tol=tol)
    u0 = inner_product(f, lambda x: np.ones_like(x), tol=tol)
    total = norm2 - 0.5 * u0 * u0
    for parity in (Parity.EVEN, Parity.ODD):
        for m in range(1, m_max + 1):
            um = inner_product(f, lambda x: psi_reference(basis, parity, m, x, 0),
                               tol=tol, lam_hint=lam_hint)
            total -= um * um
    return math.sqrt(max(total, 0.0))


def residual_scan(spec, solution, points: int) -> float:
    """Max abs of a6 u^(6) + a4 u^(4) + a2 u'' + a0 u - f at interior points."""
    if not _is_int(points) or points < 1:
        raise ValueError(f"points must be a positive integer, got {points!r}")
    x = np.linspace(-1.0, 1.0, int(points) + 2)[1:-1]
    acc = spec.a0 * coefficients.synthesize(solution, x, 0)
    if spec.a2 != 0.0:
        acc = acc + spec.a2 * coefficients.synthesize(solution, x, 2)
    if spec.a4 != 0.0:
        acc = acc + spec.a4 * coefficients.synthesize(solution, x, 4)
    acc = acc + spec.a6 * coefficients.synthesize(solution, x, 6)
    acc = acc - spec.forcing_values(x)
    return float(np.max(np.abs(acc)))
