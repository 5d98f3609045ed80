"""Eigenvalues and orthonormal eigenfunctions of the sixth-order operator.

The eigenvalue problem is

    -psi''''''(x) = lam^6 psi(x)  on [-1, 1],
    psi'(+-1) = psi''(+-1) = psi'''''(+-1) = 0,

which splits into an even ("c") and an odd ("s") family.  Eigenvalues are
roots of transcendental relations mixing trigonometric and hyperbolic terms;
eigenfunctions combine cos/sin(lam*x) with products of half-angle circular
and hyperbolic factors.  Everything here is evaluated in a scaled form:
all hyperbolic growth exp(sqrt(3)*lam*...) is folded away analytically so
that every stored quantity is O(1)-bounded and nothing overflows even for
lam ~ 3e4, where cosh(2*sqrt(3)*lam) is far outside double range.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Parity",
    "Eigenvalue",
    "Basis",
    "MAX_MODES",
    "eigenvalue_asymptotic",
    "characteristic_residual",
    "solve_eigenvalue",
    "build_basis",
    "eval_psi",
    "psi_block",
]

SQRT3 = float(np.sqrt(3.0))
_EPS = float(np.finfo(float).eps)

#: Largest supported truncation order for build_basis.
MAX_MODES = 10_000


class Parity(str, enum.Enum):
    """Symmetry family of a mode: even ("c"-like) or odd ("s"-like)."""

    EVEN = "even"
    ODD = "odd"


def _is_int(v) -> bool:
    """True for Python and numpy integers; bool is not an integer here."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _parity(parity) -> Parity:
    try:
        return Parity(parity)
    except ValueError:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}") from None


@dataclass(frozen=True)
class Eigenvalue:
    """One eigenvalue with its scaled characteristic residual."""

    parity: Parity
    m: int
    lam: float
    residual: float


def _asymptotic(parity: Parity, m):
    """(m+1/6)*pi even, (m-1/3)*pi odd, for m scalar or array."""
    return (m + (1.0 / 6.0 if parity is Parity.EVEN else -1.0 / 3.0)) * np.pi


def eigenvalue_asymptotic(parity, m: int) -> float:
    """Large-m eigenvalue approximation: (m+1/6)*pi even, (m-1/3)*pi odd."""
    parity = _parity(parity)
    if not _is_int(m) or m < 1:
        raise ValueError(f"asymptotic formula requires integer m >= 1, got {m!r}")
    return _asymptotic(parity, m)


def _sech_tanh(s):
    """sech and tanh of s >= 0 via decaying exponentials only."""
    e2 = np.exp(-2.0 * s)
    sech = 2.0 * np.exp(-s) / (1.0 + e2)
    tanh = (1.0 - e2) / (1.0 + e2)
    return sech, tanh


def characteristic_residual(parity, lam):
    """Scaled characteristic function whose positive roots are the eigenvalues.

    The raw relations are divided through by cosh(sqrt(3)*lam), keeping every
    term O(1) for arbitrarily large lam.  Vectorized over lam.
    """
    return _residual_and_derivative(_parity(parity), lam)[0]


def _residual_and_derivative(parity, lam):
    lam = np.asarray(lam, dtype=float)
    sech, tanh = _sech_tanh(SQRT3 * lam)
    sin1, cos1 = np.sin(lam), np.cos(lam)
    sin2, cos2 = np.sin(2.0 * lam), np.cos(2.0 * lam)
    if parity is Parity.EVEN:
        r = cos2 * sech + SQRT3 * sin1 * tanh - cos1
        dr = (-2.0 * sin2 * sech - SQRT3 * cos2 * sech * tanh
              + SQRT3 * cos1 * tanh + 3.0 * sin1 * sech * sech + sin1)
    else:
        r = sin2 * sech + SQRT3 * cos1 * tanh + sin1
        dr = (2.0 * cos2 * sech - SQRT3 * sin2 * sech * tanh
              - SQRT3 * sin1 * tanh + 3.0 * cos1 * sech * sech + cos1)
    return r, dr


def _residual_gate(lam):
    # Hard 1e-12 is unattainable near the double-precision rounding floor of
    # lam itself once lam ~ 5e3 (half an ulp of lam maps to ~eps*lam residual).
    return np.maximum(1e-12, 50.0 * _EPS * np.abs(lam))


def _gated(parity: Parity, ms, lam):
    """|residual| at roots lam of modes ms (scalars or arrays), gated."""
    res = np.abs(characteristic_residual(parity, lam))
    over = res - _residual_gate(lam)
    if (over > 0.0).any():
        m, lam, r = (np.ravel(v)[np.argmax(over)] for v in (ms, lam, res))
        raise ArithmeticError(
            f"eigenvalue solve did not meet residual gate: parity={parity.value} "
            f"m={m} lam={float(lam)!r} residual={r:.3e}")
    return res


#: Newton steps allowed from the asymptotic guess; modes 1-6 take 1-4 and
#: every m >= 7 takes one.
_NEWTON_STEPS = 8


def _newton(parity: Parity, ms):
    """Roots of modes ms >= 1 (scalar or array) by Newton from the asymptotic
    guess, gated.  Stops once no step exceeds 2 eps |lam|."""
    lam = _asymptotic(parity, ms)
    for _ in range(_NEWTON_STEPS):
        r, dr = _residual_and_derivative(parity, lam)
        nxt = lam - r / dr
        done = np.all(np.abs(nxt - lam) <= 2.0 * _EPS * np.abs(lam))
        lam = nxt
        if done:
            break
    return lam, _gated(parity, ms, lam)


@functools.cache
def _low_roots(parity: Parity):
    """(lam, residual) of modes 1..6, memoized per parity.  They take up to
    four steps; modes >= 7 are solved apart, each in the one step it needs."""
    return _newton(parity, np.arange(1, 7))


def solve_eigenvalue(parity, m: int) -> Eigenvalue:
    """Solve for the m-th eigenvalue of the given parity.

    m = 0 exists only for the even family (lam = 0, psi = 1).  Every other
    mode is Newton's root from the asymptotic guess; for m >= 7 the guess is
    already accurate to ~1e-16 relative, so one step suffices.
    """
    parity = _parity(parity)
    if not _is_int(m) or m < 0:
        raise ValueError(f"mode index must be a nonnegative integer, got {m!r}")
    if m == 0:
        if parity is Parity.EVEN:
            return Eigenvalue(Parity.EVEN, 0, 0.0, 0.0)
        raise ValueError("the odd family has no m = 0 mode")
    lam, res = (v[m - 1] for v in _low_roots(parity)) if m <= 6 else _newton(parity, m)
    return Eigenvalue(parity, int(m), float(lam), float(res))


# ---------------------------------------------------------------------------
# Basis construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Basis:
    """Eigenvalues plus scaled normalization/evaluation data for m <= M.

    Arrays are indexed by the mode number m; index 0 of the odd arrays is
    unused (NaN/zero).  Stored per mode:

    - ``lam``: eigenvalue;
    - ``residual``: scaled characteristic residual at lam;
    - ``c``: normalization constant (c_even[0] = 1 for the constant mode,
      which is deliberately *not* unit-normalized: <psi_0, psi_0> = 2);
    - ``q``: 1 -+ 2 cos(lam) e^{-s} + e^{-2s} with s = sqrt(3) lam (sign by
      parity) — the overflow-free surrogate of -+2 e^{-s} (cos lam -+ cosh s);
    - ``e1``: e^{-s};
    - ``w``: complex weight of the hyperbolic part of the eigenfunction after
      folding e^{-s/2} into the evaluation kernel (all O(1));
    - ``edge``: shape (3, M + 1), the boundary values (psi, psi''', psi'''')
      at x = 1, from which ``coefficients`` derives every off-diagonal table
      entry, gamma's mean row and every chi.  The even constant mode has
      (1, 0, 0); column 0 of the odd array is unused (zero).
    """

    M: int
    lam_even: np.ndarray
    lam_odd: np.ndarray
    residual_even: np.ndarray
    residual_odd: np.ndarray
    c_even: np.ndarray
    c_odd: np.ndarray
    q_even: np.ndarray
    q_odd: np.ndarray
    e1_even: np.ndarray
    e1_odd: np.ndarray
    w_even: np.ndarray
    w_odd: np.ndarray
    edge_even: np.ndarray
    edge_odd: np.ndarray

    def lam(self, parity) -> np.ndarray:
        return self.lam_even if _parity(parity) is Parity.EVEN else self.lam_odd

    def mode_range(self, parity) -> range:
        return range(0, self.M + 1) if _parity(parity) is Parity.EVEN else range(1, self.M + 1)

    def eigenvalue(self, parity, m: int) -> Eigenvalue:
        parity = _parity(parity)
        _check_mode(self, parity, m)
        if parity is Parity.EVEN:
            return Eigenvalue(parity, m, float(self.lam_even[m]), float(self.residual_even[m]))
        return Eigenvalue(parity, m, float(self.lam_odd[m]), float(self.residual_odd[m]))


def _check_mode(basis: Basis, parity: Parity, m) -> None:
    if not _is_int(m):
        raise ValueError(f"mode index must be an integer, got {m!r}")
    lo = 0 if parity is Parity.EVEN else 1
    if not (lo <= m <= basis.M):
        raise ValueError(
            f"mode ({parity.value}, {m}) not in basis with M={basis.M}")


def _solve_family(parity: Parity, M: int):
    high = _newton(parity, np.arange(7, M + 1))
    return tuple(np.concatenate(([0.0], low[:M], rest))
                 for low, rest in zip(_low_roots(parity), high))


def _normalization(parity: Parity, lam: np.ndarray):
    """Scaled normalization data (q, c, e1, w) for lam[1:] of one family."""
    s = SQRT3 * lam
    e1 = np.exp(-s)
    e2 = e1 * e1
    e4 = e2 * e2
    sin1, cos1 = np.sin(lam), np.cos(lam)
    sin2, cos2 = np.sin(2.0 * lam), np.cos(2.0 * lam)
    sinh_half = 0.5 * (1.0 - e1)   # e^{-s/2} sinh(s/2)
    cosh_half = 0.5 * (1.0 + e1)   # e^{-s/2} cosh(s/2)
    if parity is Parity.EVEN:
        sin3, cos3 = np.sin(3.0 * lam), np.cos(3.0 * lam)
        sin4 = np.sin(4.0 * lam)
        q = 1.0 - 2.0 * cos1 * e1 + e2
        # d * e^{-2s} for the even normalization integral d = 4 lam / c^2 ... :
        D = (e2 * (sin4 - 6.0 * lam * (cos2 - 2.0))
             + lam * (1.0 + e4)
             + 0.5 * sin2 * (1.0 + e2) ** 2
             + 0.5 * e1 * (1.0 + e2) * (sin1 - 3.0 * sin3 + 4.0 * lam * (cos3 - 3.0 * cos1))
             - SQRT3 * sin1 ** 2 * (1.0 - e2) * q)
        c = -q * np.sqrt(lam / D)
        w = (-8.0 * sin1 / q) * (np.sin(0.5 * lam) * cosh_half
                                 + 1j * np.cos(0.5 * lam) * sinh_half)
    else:
        sin4 = np.sin(4.0 * lam)
        q = 1.0 + 2.0 * cos1 * e1 + e2
        D = (e2 * (12.0 * lam - 3.0 * sin2 - sin4 + 10.0 * lam * cos2)
             - 0.5 * (sin2 - 2.0 * lam) * (1.0 + e4)
             - SQRT3 * cos1 ** 2 * (1.0 - e2) * q
             + cos1 * e1 * (1.0 + e2) * (4.0 * lam * (cos2 + 2.0) - 3.0 * sin2))
        c = q * np.sqrt(lam / D)
        w = (8.0 * cos1 / q) * (np.sin(0.5 * lam) * sinh_half
                                + 1j * np.cos(0.5 * lam) * cosh_half)
    return q, c, e1, w


def _edge_values(parity: Parity, lam, c, w):
    """(psi, psi''', psi'''') at x = 1 for the modes lam, one row each.

    The expression of ``_psi_core``, c (lam^k trig + L), except that the
    trigonometric part comes from sin lam and cos lam directly: adding
    k pi/2 to the phase lam would lose ~lam eps of it.
    """
    sin1, cos1 = np.sin(lam), np.cos(lam)
    k = np.array([[0], [3], [4]])
    if parity is Parity.EVEN:   # cos(lam + k pi/2)
        trig, sigma = np.stack((cos1, sin1, cos1)), np.array([[1.0], [-1.0], [1.0]])
    else:                       # sin(lam + k pi/2)
        trig, sigma = np.stack((sin1, -cos1, sin1)), -np.array([[1.0], [-1.0], [1.0]])
    s = SQRT3 * lam
    z, half = 0.5 * (s + 1j * lam), 0.5 * s
    return c * (lam ** k * trig + _layer(z, half, w * z ** k, 1.0, sigma))


def build_basis(M: int) -> Basis:
    """Construct the complete basis data for modes m <= M of both parities."""
    if not _is_int(M) or not (1 <= M <= MAX_MODES):
        raise ValueError(f"M must be an integer in [1, {MAX_MODES}], got {M!r}")
    M = int(M)
    data = {}
    for parity in (Parity.EVEN, Parity.ODD):
        lam, res = _solve_family(parity, M)
        q = np.zeros(M + 1)
        c = np.zeros(M + 1)
        e1 = np.zeros(M + 1)
        w = np.zeros(M + 1, dtype=complex)
        edge = np.zeros((3, M + 1))
        q[1:], c[1:], e1[1:], w[1:] = _normalization(parity, lam[1:])
        edge[:, 1:] = _edge_values(parity, lam[1:], c[1:], w[1:])
        if parity is Parity.EVEN:
            c[0] = 1.0       # constant mode psi_0 = 1 (un-normalized by convention)
            e1[0] = 1.0
            edge[0, 0] = 1.0
        else:
            lam[0] = np.nan
            res[0] = np.nan
        if not (np.all(np.isfinite(c[1:])) and np.all(c[1:] != 0.0)):
            raise ArithmeticError("non-finite or zero normalization constant")
        key = parity.value
        data[f"lam_{key}"], data[f"residual_{key}"] = lam, res
        data[f"c_{key}"], data[f"q_{key}"] = c, q
        data[f"e1_{key}"], data[f"w_{key}"] = e1, w
        data[f"edge_{key}"] = edge
    return Basis(M=M, **data)


# ---------------------------------------------------------------------------
# Eigenfunction evaluation
# ---------------------------------------------------------------------------

#: Entries whose trigonometric part is below this fraction of lam^k (near
#: the zeros of cos/sin) always get their boundary layer.
_NEAR_ZERO = 2.0 ** -20
#: ln(2^54 / _NEAR_ZERO) + 1, the part of a row's reach common to all rows.
_REACH_LN = 74.0 * np.log(2.0) + 1.0
#: Below this many masked entries the mask costs more than the exponentials
#: it saves, so the call evaluates the layer at every point.
_MASK_MIN = 1024
#: Entries of S evaluated at a time: their indices, gathered inputs and
#: complex temporaries take ~150 bytes each.
_LAYER_ENTRIES = 2 ** 16


def _layer(z, half, wzk, x, sigma):
    """Re[w z^k Phi_k(x)], the boundary-layer term, at every point given."""
    zu = z * x
    return np.real(wzk * (0.5 * (np.exp(zu - half) + sigma * np.exp(-zu - half))))


def _psi_core(parity: Parity, lam, c, w, x, k: int):
    """Scaled evaluation of psi^{(k)}; lam/c/w may be column vectors.

    Writing z = (s + i*lam)/2 (so z^6 = -lam^6), the mode is

        psi/c = Re_or_Im[(i lam)^k e^{i lam x}] + Re[w z^k Phi_k(x)]

    where Phi_k(x) = e^{-s/2} * d^k/dx^k of cosh(zx) (even) or sinh(zx)
    (odd).  Both exponentials inside Phi_k have nonpositive real exponent for
    |x| <= 1, so the evaluation never overflows.

    With h = s/2 the layer term L has |L| <= |w z^k| e^{h(|x| - 1)}
    (1 + O(eps)).  Outside the set S of points with |x| >= a = 1 - reach/h,
    reach = ln(|w z^k| / lam^k) + _REACH_LN (~55), or with
    |trig| < _NEAR_ZERO lam^k, that is below 2^-54 |trig|: less than half an
    ulp of trig, so trig + L rounds to trig exactly.  So a row may add L at
    every point or only on S (NaN points included), entry by entry with the
    same expression: every other entry is c * trig, and the bits are those
    of L at every point either way.  Rows with a <= 0 (the low modes, which
    lead in sorted order) and small calls take every point.
    """
    s = SQRT3 * lam
    lamk = lam ** k
    trig = lam * x   # the phase lam x + k pi/2, then trig in place
    trig += 0.5 * np.pi * k
    if parity is Parity.EVEN:
        np.cos(trig, out=trig)
        sigma = 1.0 if k % 2 == 0 else -1.0
    else:
        np.sin(trig, out=trig)
        sigma = -1.0 if k % 2 == 0 else 1.0
    trig *= lamk
    z = 0.5 * (s + 1j * lam)
    half = 0.5 * s
    wzk = w * z ** k   # in the caller's types: a Python complex for one mode
    if trig.size >= _MASK_MIN:
        edge = np.reshape(1.0 - (np.log(abs(wzk) / lamk) + _REACH_LN) / half, (-1, 1))
        p = np.count_nonzero(edge <= 0.0)   # rows [:p] take every point
        if (edge.size - p) * np.size(x) >= _MASK_MIN:
            z, half, wzk, lamk, xs = (np.ravel(v) for v in (z, half, wzk, lamk, x))
            rows = trig.reshape(edge.size, xs.size)   # one row per mode
            rows[:p] += _layer(z[:p, None], half[:p, None], wzk[:p, None], xs, sigma)
            near = abs(rows[p:]) < _NEAR_ZERO * lamk[p:, None]
            near |= ~(abs(xs) < edge[p:])
            flat = rows.reshape(-1)
            i = np.flatnonzero(near) + p * xs.size   # S as indices into flat
            for b in range(0, i.size, _LAYER_ENTRIES):
                r, j = np.divmod(i[b:b + _LAYER_ENTRIES], xs.size)
                flat[i[b:b + _LAYER_ENTRIES]] += _layer(z[r], half[r], wzk[r], xs[j], sigma)
            return np.multiply(c, rows, out=rows).reshape(trig.shape)
    trig += _layer(z, half, wzk, x, sigma)
    trig *= c
    return trig


def _check_eval_args(x, k) -> np.ndarray:
    if not _is_int(k) or not (0 <= k <= 6):
        raise ValueError(f"derivative order k must be an integer in [0, 6], got {k!r}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.abs(xa) <= 1.0):   # NaN fails this too
        raise ValueError("evaluation points must satisfy |x| <= 1")
    return xa


def eval_psi(basis: Basis, parity, m: int, x, k: int = 0):
    """Evaluate psi_m^{(k)}(x) for one mode; x may be scalar or array."""
    parity = _parity(parity)
    _check_mode(basis, parity, m)
    xa = _check_eval_args(x, k)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if parity is Parity.EVEN and m == 0:
        out = np.ones_like(xa) if k == 0 else np.zeros_like(xa)
    elif parity is Parity.EVEN:
        out = _psi_core(parity, float(basis.lam_even[m]), float(basis.c_even[m]),
                        complex(basis.w_even[m]), xa, int(k))
    else:
        out = _psi_core(parity, float(basis.lam_odd[m]), float(basis.c_odd[m]),
                        complex(basis.w_odd[m]), xa, int(k))
    return float(out[0]) if scalar else out


def psi_block(basis: Basis, parity, x, k: int = 0) -> np.ndarray:
    """Matrix psi_m^{(k)}(x_j) for m = 1..M (rows) over sample points (cols)."""
    parity = _parity(parity)
    xa = np.atleast_1d(_check_eval_args(x, k))
    if parity is Parity.EVEN:
        lam, c, w = basis.lam_even[1:], basis.c_even[1:], basis.w_even[1:]
    else:
        lam, c, w = basis.lam_odd[1:], basis.c_odd[1:], basis.w_odd[1:]
    col = (slice(None), None)
    return _psi_core(parity, lam[col], c[col], w[col], xa[None, :], int(k))
