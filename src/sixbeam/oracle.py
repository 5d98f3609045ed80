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
    """Composite Gauss-Legendre rule on [-1, 1] with equal panels.

    Node ``p * PANEL_ORDER + q`` is ``left[p] + offsets[q]``, rounded once.
    ``left`` rounds the panel edges -1 + 2p/panels and ``left_lo`` holds what
    that rounding drops: the panels at ``left + left_lo`` tile [-1, 1]
    exactly, while those at ``left`` leave gaps and overlaps of ~1e-16,
    each an O(eps |integrand|) error that does not cancel.
    """

    panels: int
    nodes: np.ndarray
    weights: np.ndarray
    left: np.ndarray
    left_lo: np.ndarray
    offsets: np.ndarray


@lru_cache(maxsize=4)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def make_rule(panels: int) -> QuadratureRule:
    """A composite rule, its basic integration invariants verified; the last
    few are built once per process and kept (read-only), for reuse."""
    if not _is_int(panels) or panels < 1:
        raise ValueError(f"panel count must be a positive integer, got {panels!r}")
    if panels * PANEL_ORDER > _MAX_POINTS:
        raise ValueError(
            f"panel count {panels} exceeds the node budget "
            f"({_MAX_POINTS // PANEL_ORDER} panels)")
    return _composite_rule(int(panels))


@lru_cache(maxsize=4)
def _composite_rule(panels: int) -> QuadratureRule:
    x0, w0 = _gauss_legendre(PANEL_ORDER)
    h = 2.0 / panels
    index = np.arange(panels)
    left = -1.0 + h * index
    edge, err = _two_product(float(panels), left)   # panels * left, exactly
    left_lo = ((2.0 * index - panels - edge) - err) / panels
    offsets = 0.5 * h * (x0 + 1.0)
    nodes = (left[:, None] + offsets).ravel()
    weights = np.broadcast_to(0.5 * h * w0, (panels, PANEL_ORDER)).ravel().copy()
    # Build-time invariants: weights sum to the interval length and the rule
    # integrates an even power at half the panel order exactly.
    if abs(math.fsum(weights) - 2.0) > 1e-14:
        raise ArithmeticError("quadrature weights do not sum to 2")
    hi = math.fsum(weights * nodes ** PANEL_ORDER)
    if abs(hi - 2.0 / (PANEL_ORDER + 1)) > 1e-14 * (2.0 / (PANEL_ORDER + 1)):
        raise ArithmeticError("quadrature rule failed polynomial exactness check")
    for array in (nodes, weights, left, left_lo, offsets):
        array.flags.writeable = False
    return QuadratureRule(panels=panels, nodes=nodes, weights=weights,
                          left=left, left_lo=left_lo, offsets=offsets)


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

def _reference_coeffs(basis: Basis, parity: Parity, modes: np.ndarray):
    """(lam, c, t, v): coefficients of the real product representation.

    psi/c = t1*cos(lam x) + t2*sin(lam x)
            + v1*sin(lam x/2)*gs + v2*sin(lam x/2)*gc
            + v3*cos(lam x/2)*gs + v4*cos(lam x/2)*gc

    with gs = e^{-s/2} sinh(s x/2), gc = e^{-s/2} cosh(s x/2), s = sqrt(3) lam,
    entrywise over the mode indices ``modes`` (an integer array).
    """
    key = parity.value
    lam = basis.lam(parity)[modes]
    q, e1, c = (getattr(basis, f"{name}_{key}")[modes] for name in ("q", "e1", "c"))
    gg = 0.5 * (1.0 - e1)   # e^{-s/2} sinh(s/2)
    hh = 0.5 * (1.0 + e1)   # e^{-s/2} cosh(s/2)
    sh, ch = np.sin(0.5 * lam), np.cos(0.5 * lam)
    if parity is Parity.EVEN:
        t = (1.0, 0.0)
        v = (8.0 * np.sin(lam) * ch * gg / q, 0.0,
             0.0, -8.0 * np.sin(lam) * sh * hh / q)
    else:
        t = (0.0, 1.0)
        v = (0.0, -8.0 * np.cos(lam) * ch * hh / q,
             8.0 * np.cos(lam) * sh * gg / q, 0.0)
    return lam, c, t, v


def _differentiate_coeffs(lam, t, v, k: int):
    """Exact derivative recursion on the product-representation coefficients."""
    half_l, half_s = 0.5 * lam, 0.5 * SQRT3 * lam
    for _ in range(k):
        t = (lam * t[1], -lam * t[0])
        v = (half_s * v[1] - half_l * v[2],
             half_s * v[0] - half_l * v[3],
             half_l * v[0] + half_s * v[3],
             half_l * v[1] + half_s * v[2])
    return t, v


#: Veltkamp's splitter 2**27 + 1: it cuts a double into two 26-bit halves.
_SPLITTER = 134217729.0

#: The offsets of ``psi_reference``: every point is its own panel.
_NO_OFFSETS = np.zeros(1)


def _split(a):
    """(hi, lo) with hi + lo = a exactly and at most 26 significant bits each."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker 1971, no FMA)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _product_factors(lam: np.ndarray, y, shift: float, y_lo=0.0) -> np.ndarray:
    """The six product functions at the points y + y_lo, a (6, len(y)) block
    per lam:

        cos(lam y), sin(lam y), sin(lam y/2) r, cos(lam y/2) r,
        sin(lam y/2) f, cos(lam y/2) f

    with r = e^{s (y - shift)/2}, f = e^{-s (y + shift)/2}, s = sqrt(3) lam,
    for ``lam`` a column of eigenvalues.  The half angle lam*y/2 is taken as
    p + e exactly (``_two_product``, e gaining lam*y_lo/2), its sine and
    cosine are corrected to first order in e, sin(p + e) = sin p + e cos p,
    and the full angle's follow by the double-angle formulas.  The block is
    filled in place, with p and e as its only scratch.
    """
    s, y = SQRT3 * lam, np.asarray(y, dtype=float)
    p, e = _two_product(lam, y)
    e += lam * y_lo
    p *= 0.5
    e *= 0.5
    out = np.empty(lam.shape[:1] + (6, y.size))
    cos, sin, sin_h, cos_h = out[:, 0], out[:, 1], out[:, 2], out[:, 3]
    np.sin(p, out=sin_h)
    np.cos(p, out=cos_h)
    np.multiply(e, cos_h, out=cos)  # cos and sin are scratch here
    np.multiply(e, sin_h, out=sin)
    sin_h += cos
    cos_h -= sin
    np.multiply(sin_h, cos_h, out=sin)
    sin *= 2.0
    np.subtract(cos_h, sin_h, out=cos)
    cos *= np.add(cos_h, sin_h, out=p)
    for buf, sign in ((p, 1.0), (e, -1.0)):
        np.subtract(y, sign * shift, out=buf)
        buf += y_lo
        buf *= 0.5 * sign * s
        np.exp(buf, out=buf)
    np.multiply(sin_h, e, out=out[:, 4])
    np.multiply(cos_h, e, out=out[:, 5])
    sin_h *= p
    cos_h *= p
    return out


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
        out = _reference_block(basis, parity, (m,), xa.ravel(), _NO_OFFSETS,
                               (int(k),))[0, 0].reshape(xa.shape)
    return float(out[0]) if scalar else out


def _reference_block(basis: Basis, parity: Parity, modes, left, offsets,
                     orders: tuple, left_lo=0.0) -> np.ndarray:
    """psi_m^{(k)}(left[p] + left_lo[p] + offsets[q]) for m in ``modes``
    (rows), at column ``p * len(offsets) + q``, one block per k in ``orders``.

    By the angle-addition formulas each product function at left + offset
    is a sum of its panel factors (``_product_factors`` at ``left``) times
    offset factors (the same functions at ``offsets``), so each mode's rows
    are the rank-6 product F @ K of its panel factors F (len(left) x 6) and
    offset coefficients K (6 x len(offsets)) per order, the derivative
    recursion folded into K.  That is O(len(left) + len(offsets)) sines,
    cosines and exponentials per mode, and rows at the exact sums.
    """
    lam, c, t0, v0 = _reference_coeffs(basis, parity, np.asarray(modes)[:, None])
    # The rows before the factors: the factors' scratch is then freed above
    # them, where the table products that follow reuse it.
    rows = np.empty((len(orders), len(modes), np.size(left), np.size(offsets)))
    panel = _product_factors(lam, left, 1.0, left_lo)
    cos, sin, sin_rise, cos_rise, sin_fall, cos_fall = np.moveaxis(
        _product_factors(lam, offsets, 0.0), 1, 0)
    coupling = []
    for k in orders:
        (a, b), (v1, v2, v3, v4) = _differentiate_coeffs(lam, t0, v0, k)
        a, b = c * a, c * b
        # psi^(k)/c = a cos + b sin + rise (A sin_h + C cos_h)
        #             + fall (B sin_h + D cos_h), with rise/fall = gc +- gs
        A, B, C, D = (0.5 * c * w for w in (v1 + v2, v2 - v1, v3 + v4, v4 - v3))
        coupling.append(np.stack([a * cos + b * sin, b * cos - a * sin,
                                  A * cos_rise - C * sin_rise,
                                  C * cos_rise + A * sin_rise,
                                  B * cos_fall - D * sin_fall,
                                  D * cos_fall + B * sin_fall], axis=-2))
    np.matmul(panel.transpose(0, 2, 1), np.stack(coupling), out=rows)
    return rows.reshape(len(orders), len(modes), -1)


# ---------------------------------------------------------------------------
# Structural checks: orthonormality, self-adjointness, completeness
# ---------------------------------------------------------------------------

def gram_matrix(basis: Basis, parity, n_max: int, tol: float = 1e-12) -> np.ndarray:
    """Gram matrix <psi_n, psi_m> for modes 1..n_max by converged quadrature."""
    parity = _parity(parity)

    def gram(rule):
        rows, = _reference_block(basis, parity, range(1, n_max + 1), rule.left,
                                 rule.offsets, (0,), rule.left_lo)
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
                                           rule.left, rule.offsets, (0, 2, 4),
                                           rule.left_lo)
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
