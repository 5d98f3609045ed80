"""Closed-form Galerkin expansion coefficients and projection/synthesis.

Provides the inner products of derivatives and monomials against the
orthonormal eigenbasis:

- ``beta``  : <psi_n'', psi_m>      (second derivative)
- ``gamma`` : <psi_n'''', psi_m>    (fourth derivative, including the even
  m = 0 row <psi_n'''', 1>)
- ``chi``   : <x^p, psi_m^c>        (even powers p = 2..12)

Off the diagonal, beta and gamma, gamma's mean row and every chi come from
three boundary values per mode, psi(1), psi'''(1) and psi''''(1)
(``Basis.edge_even``/``edge_odd``): with psi^(6) = -lam^6 psi and the
free-edge conditions psi' = psi'' = psi^(5) = 0 at +-1, Green's identity makes
each of them bilinear in those values.  The diagonals keep their own closed
forms, evaluated like the eigenfunction kernel in exponent-scaled form: the
cosh/sinh(sqrt(3) lam) factors that overflow doubles at moderate mode numbers
are refolded into O(1) quantities built from e^{-s} and e^{-2s}.

Commonly tabulated variants of three branches fail independent quadrature
verification: the even diagonal beta (exactly 1/4 of the true integral), the
odd-family beta (garbled off-diagonal symbols; a structurally wrong diagonal,
replaced here by a form derived from elementary integrals of (psi')^2), and
the hand-expanded p = 12 monomial coefficient (prefactor exponent 10, not 12;
Green's identity leaves no per-power formula to get wrong).  They survive as
private superseded variants, which ``superseded_variant_notes`` documents; the
``verify`` command cross-checks every shipped form against quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigenbasis import (SQRT3, Basis, Parity, _check_eval_args, _is_int, _layer,
                         _parity, psi_block)

__all__ = [
    "CoefficientSet",
    "OperatorMatrix",
    "CHI_POWERS",
    "beta",
    "gamma",
    "chi",
    "chi_vector",
    "operator_matrix",
    "project",
    "synthesize",
    "superseded_variant_notes",
]

#: Monomial powers with closed-form expansion coefficients.
CHI_POWERS = (2, 4, 6, 8, 10, 12)


# ---------------------------------------------------------------------------
# Scaled per-family data
# ---------------------------------------------------------------------------

def _family(basis: Basis, parity: Parity):
    """(lam, c, q, e1) arrays for modes 1..M of one family."""
    if parity is Parity.EVEN:
        return (basis.lam_even[1:], basis.c_even[1:],
                basis.q_even[1:], basis.e1_even[1:])
    return (basis.lam_odd[1:], basis.c_odd[1:],
            basis.q_odd[1:], basis.e1_odd[1:])


def _edge(basis: Basis, parity: Parity):
    """(psi, psi''', psi'''') at x = 1 for modes 1..M of one family, (3, M)."""
    return (basis.edge_even if parity is Parity.EVEN else basis.edge_odd)[:, 1:]


# ---------------------------------------------------------------------------
# Diagonal closed forms
# ---------------------------------------------------------------------------

def _beta_diagonal(parity: Parity, lam, c, q, e1):
    """<psi_n'', psi_n> = -int (psi_n')^2, from elementary product integrals.

    The eigenfunction is written as c*(trig + A cos(l x/2) {sinh|cosh}(s x/2)
    + B sin(l x/2) {cosh|sinh}(s x/2)); squaring the derivative leaves
    integrals of cos(a x) cosh(b x) and sin(a x) sinh(b x) only.  Everything
    is stored in exponent-scaled form (factors of e^{-s/2}, e^{-s} folded).
    """
    L = lam
    S = SQRT3 * L
    e2 = e1 * e1
    sh1, ch1 = 0.5 * (1.0 - e2), 0.5 * (1.0 + e2)   # e^{-s} sinh/cosh(s)
    gg, hh = 0.5 * (1.0 - e1), 0.5 * (1.0 + e1)     # e^{-s/2} sinh/cosh(s/2)
    sinL, cosL = np.sin(L), np.cos(L)
    sin_h, cos_h = np.sin(0.5 * L), np.cos(0.5 * L)
    if parity is Parity.EVEN:
        a = 8.0 * sinL * cos_h * gg / q
        b = -8.0 * sinL * sin_h * hh / q
    else:
        a = -8.0 * cosL * cos_h * hh / q
        b = 8.0 * cosL * sin_h * gg / q
    p = 0.5 * (a * L + b * S)
    r = 0.5 * (a * S - b * L)
    L2 = L * L
    # Full-band integrals, scaled by e^{-s}:
    icc = 2.0 * (L * sinL * ch1 + S * cosL * sh1) / (4.0 * L2)
    iss = 2.0 * (S * sinL * ch1 - L * cosL * sh1) / (4.0 * L2)
    i6 = 0.25 * iss
    # Half-band integrals at frequencies 3L/2 and L/2, scaled by e^{-s/2}:
    s15, c15 = np.sin(1.5 * L), np.cos(1.5 * L)
    icc3 = 2.0 * (1.5 * L * s15 * hh + 0.5 * S * c15 * gg) / (3.0 * L2)
    icc1 = 2.0 * (0.5 * L * sin_h * hh + 0.5 * S * cos_h * gg) / L2
    iss3 = 2.0 * (0.5 * S * s15 * hh - 1.5 * L * c15 * gg) / (3.0 * L2)
    iss1 = 2.0 * (0.5 * S * sin_h * hh - 0.5 * L * cos_h * gg) / L2
    sin2_term = np.sin(2.0 * L) / (2.0 * L)
    se_L = sinL * e1 / L
    sh_S = sh1 / S
    if parity is Parity.EVEN:
        j1 = 1.0 - sin2_term
        j2 = 0.25 * (2.0 * sh_S - 2.0 * e1 + icc - 2.0 * se_L)
        j3 = 0.25 * (2.0 * e1 + 2.0 * sh_S - 2.0 * se_L - icc)
        cross_p = 0.5 * (iss3 + iss1)
        cross_r = 0.5 * (icc1 - icc3)
        val = (L2 * j1 + p * p * j2 + r * r * j3
               - 2.0 * L * p * cross_p - 2.0 * L * r * cross_r + 2.0 * p * r * i6)
    else:
        j1 = 1.0 + sin2_term
        j2 = 0.25 * (2.0 * e1 + 2.0 * se_L + 2.0 * sh_S + icc)
        j3 = 0.25 * (2.0 * sh_S - 2.0 * e1 - icc + 2.0 * se_L)
        cross_p = 0.5 * (icc3 + icc1)
        cross_r = 0.5 * (iss3 - iss1)
        val = (L2 * j1 + p * p * j2 + r * r * j3
               + 2.0 * L * p * cross_p + 2.0 * L * r * cross_r + 2.0 * p * r * i6)
    return -c * c * val


def _gamma_diagonal(parity: Parity, lam, c, q, e1):
    """<psi_n'''', psi_n> via the scaled diagonal closed form."""
    L = lam
    e2 = e1 * e1
    e4 = e2 * e2
    sh1, ch1 = 0.5 * (1.0 - e2), 0.5 * (1.0 + e2)   # e^{-s} sinh/cosh(s)
    ch2 = 0.5 * (1.0 + e4)                          # e^{-2s} cosh(2s)
    sin1, cos1 = np.sin(L), np.cos(L)
    sin2, cos2 = np.sin(2.0 * L), np.cos(2.0 * L)
    pref = L ** 3 * c * c / (2.0 * q * q)
    if parity is Parity.EVEN:
        bracket = (6.0 * sin2 * (ch2 + 4.0 * e2)
                   - 3.0 * np.sin(4.0 * L) * e2
                   - 48.0 * sin1 * ch1 * e1
                   + 4.0 * L * (-4.0 * SQRT3 * sin1 ** 3 * sh1 * e1
                                - 4.0 * cos1 ** 3 * ch1 * e1
                                + 3.0 * cos2 * e2 + ch2))
    else:
        bracket = (6.0 * sin2 * (cos2 * e2 - ch2)
                   + 4.0 * L * (-cos2 * e2 + ch2
                                + 2.0 * sin2 * e1 * (sin1 * ch1
                                                     + SQRT3 * cos1 * sh1)))
    return pref * bracket


# ---------------------------------------------------------------------------
# Off-diagonal closed forms: one Cauchy-like generator form
# ---------------------------------------------------------------------------
#
# With psi^(6) = -lam^6 psi and psi' = psi'' = psi^(5) = 0 at +-1, Green's
# identity gives, for n != m in one family and every value at x = 1,
#
#   beta_nm  = 2 (psi_n'''' psi_m''' - psi_n''' psi_m'''') / (lam_n^6 - lam_m^6),
#   gamma_nm = 2 lam_n^6 (psi_n''' psi_m - psi_n psi_m''') / (lam_n^6 - lam_m^6).
#
# So off its diagonal each table is a Cauchy-like matrix of displacement rank
# 2, T[i, j] = sum_k X[k, i] Y[k, j] / (lam_j^6 - lam_i^6), whose generators
# X, Y come from the basis's boundary values.  ``_cauchy_dense`` forms T a
# block of rows at a time; ``_cauchy_operator`` applies it to vectors by a fast
# multipole method.  The diagonal comes from the diagonal closed forms.

_CAUCHY_ROWS = 64  # rows of a Cauchy-like table formed at a time; modes per leaf
# Chebyshev nodes per box of _cauchy_operator's far field.  For two boxes that
# are not adjacent, the nearest singularity of 1/(eta^6 - xi^6), eta = xi,
# lies at least 3 half-widths from either box's centre.  The Bernstein ellipse
# through it has rho = 3 + sqrt(8) ~ 5.83, and the interpolation error falls
# like rho^-p: rho^-22 ~ 1.5e-17, a seventh of the unit roundoff.  The other
# singularities, xi e^{+-i pi/3} and beyond, lie farther away.
_CHEBYSHEV_NODES = 22
_CHEBYSHEV_ANGLES = (2 * np.arange(_CHEBYSHEV_NODES) + 1) * np.pi / (2 * _CHEBYSHEV_NODES)


def _derived(basis: Basis, key, build):
    """build(), made once per basis and kept in its derived-data slot."""
    if key not in basis._derived:
        basis._derived[key] = build()
    return basis._derived[key]


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _cauchy_form(basis: Basis, parity, kind: str, modes=None):
    """(lam^6, X, Y, diagonal) of one table over ``modes`` (0-based, into 1..M).

    Over all modes (None) the form is built once per basis, read-only.
    """
    parity = _parity(parity)
    if modes is None:
        return _derived(basis, (parity, kind), lambda: _read_only(
            _cauchy_form(basis, parity, kind, slice(None))))
    lam, c, q, e1 = (a[modes] for a in _family(basis, parity))
    psi, psi3, psi4 = _edge(basis, parity)[:, modes]
    lam6 = lam ** 6
    if kind == "second_derivative":
        return (lam6, np.stack((2.0 * psi3, -2.0 * psi4)), np.stack((psi4, psi3)),
                _beta_diagonal(parity, lam, c, q, e1))
    return (lam6, np.stack((2.0 * lam6 * psi, -2.0 * lam6 * psi3)), np.stack((psi3, psi)),
            _gamma_diagonal(parity, lam, c, q, e1))


def _gap_rows(lam6):
    """Yield (rows, G) for blocks of at most ``_CAUCHY_ROWS`` rows, G[i, j] =
    lam6[j] - lam6[i] over every column; G is inf on the diagonal, so 1/G
    vanishes there."""
    M = len(lam6)
    buffer = np.empty(min(_CAUCHY_ROWS, M) * M)
    for j in range(0, M, _CAUCHY_ROWS):
        rows = slice(j, j + _CAUCHY_ROWS)
        height = len(lam6[rows])
        gap = buffer[:height * M].reshape(height, M)
        np.subtract(lam6, lam6[rows, None], out=gap)
        i = np.arange(height)
        gap[i, j + i] = np.inf
        yield rows, gap


def _cauchy_dense(lam6, X, Y, diagonal, out=None):
    """T[i, j] = sum_k X[k, i] Y[k, j] / (lam6[j] - lam6[i]), T[i, i] = diagonal[i],
    written into ``out`` if given: an M x M float array with unit column
    stride, such as the view A[1:, 1:], which gets the bits of a new array."""
    table = np.empty((len(lam6), len(lam6))) if out is None else out
    if len(X) == 0:  # a rank-0 numerator: nothing off the diagonal
        table[...] = 0.0
    else:
        for rows, gap in _gap_rows(lam6):
            np.matmul(X[:, rows].T, Y, out=table[rows])
            table[rows] /= gap
    np.fill_diagonal(table, diagonal)
    return table


def _chebyshev_nodes(lam, edges):
    """(boxes, p) Chebyshev points of the first kind on each box's
    [lam_first, lam_last]; box k holds modes edges[k]..edges[k + 1] - 1."""
    lo, hi = lam[edges[:-1], None], lam[edges[1:] - 1, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(_CHEBYSHEV_ANGLES)


def _interpolation(nodes, points):
    """L[..., i, a]: the Lagrange polynomial of node a (of ``nodes``, (..., p))
    at ``points[..., i]``, by the barycentric formula; a point on a node
    gets that node's unit row."""
    weights = np.sin(_CHEBYSHEV_ANGLES) * (-1.0) ** np.arange(_CHEBYSHEV_NODES)
    gap = points[..., :, None] - nodes[..., None, :]
    hit = gap == 0.0
    L = weights / np.where(hit, 1.0, gap)
    L /= np.sum(L, axis=-1, keepdims=True)
    rows = np.any(hit, axis=-1)
    L[rows] = hit[rows]
    return L


def _far_kernel(target, source):
    """K[..., a, b] = 1/(s^6 - t^6) for s = source[..., b], t = target[..., a]
    in lam, as 1/((s - t)(s + t)(s^4 + s^2 t^2 + t^4)): only s - t cancels."""
    t, s = target[..., :, None], source[..., None, :]
    t2, s2 = t * t, s * s
    K = s - t
    K *= s + t
    K *= s2 * (s2 + t2) + t2 * t2
    return np.reciprocal(K, out=K)


def _cauchy_plan(lam):
    """(X, Y, v) -> T v for the off-diagonal part of T (see ``_cauchy_dense``,
    with lam6 = lam ** 6) by a Chebyshev fast multipole method in lam: O(p M)
    time and memory per product, p = ``_CHEBYSHEV_NODES``.

    The modes split into a binary tree of boxes, box k of level l holding
    modes (k M) // 2^l up to ((k + 1) M) // 2^l, down to leaves of at most
    ``_CAUCHY_ROWS`` modes.  Near field: each leaf against itself and its two
    neighbours, the reciprocals 1/(lam6[j] - lam6[i]) formed once from lam6.
    Far field: from level 2 on, box k meets the children of its parent's
    neighbours that are not adjacent to it, {k-2, k+2, k+3} for even k and
    {k-3, k-2, k+2} for odd k, through the kernel at the two boxes' p
    Chebyshev nodes in lam.  The kernel is skew, so only the blocks of leaf
    k against k + 1, of box k against k + 2 and of even box k against k + 3
    are kept; their negated transposes serve the other way round.

    A product gathers each leaf's sources onto its nodes, moves them up the
    tree, across the interaction lists and back down, each pass batched over
    one level, and interpolates onto each leaf's modes.  Up to two leaves
    (M <= 128) there is no far field.  The plan, everything but the product,
    depends on lam alone; ``_basis_plan`` keeps one per basis and parity.
    """
    lam6, M = lam ** 6, len(lam)
    levels = 0
    while _CAUCHY_ROWS << levels < M:
        levels += 1
    edges = [np.arange((1 << l) + 1) * M // (1 << l) for l in range(levels + 1)]
    leaves, first = 1 << levels, edges[levels][:-1]
    n = int(np.max(np.diff(edges[levels])))  # modes in the largest leaf
    leaf = np.repeat(np.arange(leaves), np.diff(edges[levels]))
    slot = leaf * n + np.arange(M) - first[leaf]  # mode -> (leaf, row) in padded order
    # Pad rows take lam6 -inf and pad columns +inf, so their reciprocals are 0.
    rows, cols = np.full(leaves * n, -np.inf), np.full(leaves * n, np.inf)
    rows[slot] = cols[slot] = lam6
    rows, cols = rows.reshape(leaves, n, 1), cols.reshape(leaves, 1, n)
    own = cols - rows  # leaf k against itself
    own[:, np.arange(n), np.arange(n)] = np.inf
    np.reciprocal(own, out=own)
    right = np.reciprocal(cols[1:] - rows[:-1])  # leaf k against leaf k + 1

    if levels >= 2:
        points = np.repeat(lam[first], n)  # pad rows take their leaf's first point
        points[slot] = lam
        nodes = [_chebyshev_nodes(lam, e) for e in edges]
        leaf_map = _interpolation(nodes[levels], points.reshape(leaves, n))
        # transfer[l][k][c p + a, b]: node b's polynomial of box k of level
        # l - 1 at node a of its child 2 k + c.
        transfer = {l: _interpolation(nodes[l - 1], nodes[l].reshape(len(nodes[l - 1]), -1))
                    for l in range(2, levels + 1)}
        two = {l: _far_kernel(nodes[l][:-2], nodes[l][2:]) for l in range(2, levels + 1)}
        three = {l: _far_kernel(nodes[l][:-3:2], nodes[l][3::2]) for l in range(2, levels + 1)}

    def product(X, Y, v):
        rank = len(X)
        padded = np.zeros((leaves * n, rank))
        padded[slot] = (Y * v).T
        W = padded.reshape(leaves, n, rank)
        acc = own @ W
        acc[:-1] += right @ W[1:]
        acc[1:] -= right.transpose(0, 2, 1) @ W[:-1]
        if levels >= 2:
            up = {levels: leaf_map.transpose(0, 2, 1) @ W}
            for l in range(levels, 2, -1):
                children = up[l].reshape(len(transfer[l]), -1, rank)
                up[l - 1] = transfer[l].transpose(0, 2, 1) @ children
            down = np.zeros((2, _CHEBYSHEV_NODES, rank))  # level 1 receives nothing
            for l in range(2, levels + 1):
                w, down = up[l], (transfer[l] @ down).reshape(len(up[l]), -1, rank)
                down[:-2] += two[l] @ w[2:]
                down[2:] -= two[l].transpose(0, 2, 1) @ w[:-2]
                down[:-3:2] += three[l] @ w[3::2]
                down[3::2] -= three[l].transpose(0, 2, 1) @ w[:-3:2]
            acc += leaf_map @ down
        return np.sum(X * acc.reshape(-1, rank)[slot].T, axis=0)
    return product


def _basis_plan(basis: Basis, parity):
    """``_cauchy_plan`` of one family's modes 1..M, built once per basis."""
    parity = _parity(parity)
    return _derived(basis, (parity, "plan"), lambda: _cauchy_plan(basis.lam(parity)[1:]))


def _gamma_mean(basis: Basis, modes=slice(None)):
    """<psi_n'''', 1> = 2 psi_n'''(1) for the even modes ``modes`` (0-based, into 1..M)."""
    return 2.0 * _edge(basis, Parity.EVEN)[1, modes]


def _chi(basis: Basis, p: int, modes=slice(None)):
    """<x^p, psi_m> for the even modes ``modes`` (0-based, into 1..M).

    Six integrations by parts against psi = -psi^(6) / lam^6 give, with
    p^(k) = p! / (p - k)! and chi_0 = <1, psi_m> = 0,
    chi_p = -[2 (-p psi'''' + p (p - 1) psi''' - p^(5) psi) + p^(6) chi_{p-6}] / lam^6.
    """
    lam6 = basis.lam_even[1:][modes] ** 6
    psi, psi3, psi4 = _edge(basis, Parity.EVEN)[:, modes]
    value = 0.0
    for k in range(p % 6 or 6, p + 1, 6):
        value = -(2.0 * (-k * psi4 + k * (k - 1) * psi3 - math.perm(k, 5) * psi)
                  + math.perm(k, 6) * value) / lam6
    return value


# ---------------------------------------------------------------------------
# Scalar entry points
# ---------------------------------------------------------------------------

def _check_index(basis: Basis, m, allow_zero: bool) -> int:
    if not _is_int(m):
        raise ValueError(f"mode index must be an integer, got {m!r}")
    lo = 0 if allow_zero else 1
    if not (lo <= m <= basis.M):
        raise ValueError(f"mode index {m} out of range [{lo}, {basis.M}]")
    return int(m)


def _mode_data(basis: Basis, parity: Parity, m: int):
    lam, c, q, e1 = _family(basis, parity)
    i = m - 1
    return lam[i], c[i], q[i], e1[i]


def _entry(basis: Basis, parity: Parity, kind: str, n: int, m: int) -> float:
    """One beta/gamma entry for modes n, m >= 1 from the shared closed forms."""
    modes = [n - 1] if n == m else [n - 1, m - 1]
    return float(_cauchy_dense(*_cauchy_form(basis, parity, kind, modes))[0, -1])


def beta(basis: Basis, parity, n: int, m: int) -> float:
    """<psi_n'', psi_m> within one parity family.

    Index 0 (the even constant mode) gives 0 in either slot: psi_0'' = 0 and
    <psi_n'', psi_0> vanishes because psi_n'(+-1) = 0.  The odd family has no
    mode 0; index 0 gives 0 there by convention.
    """
    parity = _parity(parity)
    n = _check_index(basis, n, allow_zero=True)
    m = _check_index(basis, m, allow_zero=True)
    if n == 0 or m == 0:
        return 0.0
    return _entry(basis, parity, "second_derivative", n, m)


def gamma(basis: Basis, parity, n: int, m: int) -> float:
    """<psi_n'''', psi_m> within one parity family (m = 0 allowed for even)."""
    parity = _parity(parity)
    n = _check_index(basis, n, allow_zero=True)
    m = _check_index(basis, m, allow_zero=True)
    if m == 0:
        if parity is Parity.ODD:
            raise ValueError(
                "gamma(odd, n, 0) is identically zero by parity and is not "
                "a valid request")
        return 0.0 if n == 0 else float(_gamma_mean(basis, n - 1))
    if n == 0:
        return 0.0  # psi_0'''' = 0
    return _entry(basis, parity, "fourth_derivative", n, m)


def _check_power(p) -> int:
    if not _is_int(p) or p not in CHI_POWERS:
        raise ValueError(f"power p must be one of {CHI_POWERS}, got {p!r}")
    return int(p)


def chi(basis: Basis, p: int, m: int) -> float:
    """<x^p, psi_m^c> for even p in [2, 12] and even-family mode m >= 1."""
    p = _check_power(p)
    m = _check_index(basis, m, allow_zero=False)
    return float(_chi(basis, p, slice(m - 1, m))[0])


def chi_vector(basis: Basis, p: int) -> np.ndarray:
    """chi values for modes m = 1..M at one power (vectorized), built once
    per basis and power and kept with the basis, read-only."""
    p = _check_power(p)
    return _derived(basis, ("chi", p), lambda: _read_only((_chi(basis, p),))[0])


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorMatrix:
    """Dense M x M table of expansion coefficients for one derivative order.

    ``entries[n-1, m-1]`` is <psi_n^{(k)}, psi_m>; ``mean_row[n-1]`` holds
    <psi_n'''', 1> for the even fourth-derivative matrix (None otherwise).
    """

    parity: Parity
    kind: str
    entries: np.ndarray
    mean_row: np.ndarray | None = None


_KINDS = ("second_derivative", "fourth_derivative", "sixth_derivative")


def operator_matrix(basis: Basis, parity, kind: str) -> OperatorMatrix:
    """Assemble the full coefficient matrix for modes 1..M (vectorized)."""
    parity = _parity(parity)
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if kind == "sixth_derivative":
        return OperatorMatrix(parity=parity, kind=kind,
                              entries=np.diag(-basis.lam(parity)[1:] ** 6))
    entries = _cauchy_dense(*_cauchy_form(basis, parity, kind))
    mean_row = None
    if kind == "fourth_derivative" and parity is Parity.EVEN:
        mean_row = _gamma_mean(basis)
    return OperatorMatrix(parity=parity, kind=kind, entries=entries,
                          mean_row=mean_row)


# ---------------------------------------------------------------------------
# Coefficient sets: projection and synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Spectral coefficients of a function in the eigenbasis.

    ``uc``/``us`` have length M + 1 and are indexed by mode number; slot 0 is
    unused (fixed to 0) — the constant-mode coefficient lives in ``u0c`` and
    enters synthesis with weight 1/2 because psi_0 = 1 is not unit-normalized.
    A stacked set (``galerkin.evolve``'s trajectory) has an array ``u0c``,
    and ``uc``/``us`` of shape u0c.shape + (M + 1,).
    """

    basis: Basis
    u0c: float
    uc: np.ndarray
    us: np.ndarray

    def __post_init__(self):
        u0c = np.asarray(self.u0c, dtype=float)
        uc = np.asarray(self.uc, dtype=float)
        us = np.asarray(self.us, dtype=float)
        shape = u0c.shape + (self.basis.M + 1,)
        if uc.shape != shape or us.shape != shape:
            raise ValueError(f"coefficient arrays must have shape {shape}")
        if np.any(uc[..., 0] != 0.0) or np.any(us[..., 0] != 0.0):
            raise ValueError("slot 0 of uc/us is unused and must be 0")
        object.__setattr__(self, "u0c", float(u0c) if u0c.ndim == 0 else u0c)
        object.__setattr__(self, "uc", uc)
        object.__setattr__(self, "us", us)

    @classmethod
    def zeros(cls, basis: Basis) -> "CoefficientSet":
        return cls(basis=basis, u0c=0.0, uc=np.zeros(basis.M + 1),
                   us=np.zeros(basis.M + 1))


# synthesize and project evaluate psi_block on at most this many (mode, point)
# entries at a time: their temporaries, not the result, set the peak memory.
# psi_block's are a few real and complex arrays per entry (201 points at
# M = 10000 peak at ~19 MB in chunks; M = 100's project at ~20 MB).  Every
# synthesis at M <= 1000 with <= 262 points is still one block.  A grid plan
# keeps up to this many boundary-layer values (2.1 MB); a call reads them in one.
_SYNTHESIS_ENTRIES = 2 ** 18


def _point_chunks(basis: Basis, n: int):
    """Slices of at most ``max(1, _SYNTHESIS_ENTRIES // M)`` of n points."""
    step = max(1, _SYNTHESIS_ENTRIES // basis.M)
    return (slice(j, j + step) for j in range(0, n, step))


def synthesize(coeffs: CoefficientSet, x, k: int = 0):
    """Evaluate the k-th derivative at x (scalar or array), one row per stacked state.

    The points, flattened, go through ``psi_block`` in chunks of at most
    ``_SYNTHESIS_ENTRIES // M``, so memory stays O(states x points + 2**18).
    The result has shape ``u0c.shape + x.shape``.  Each parity sums the
    modes of a ``galerkin.Trajectory``'s ``modes`` range, or else all M (none
    if all are +-0.0).  One mode gives u0c/2 + a_m psi_m(x), the bits of the
    sum over all M; several short of M may round otherwise (BLAS blocks the
    sum by its length).
    """
    xa = _check_eval_args(x, k)
    flat = xa.reshape(-1)
    vals = np.zeros(np.shape(coeffs.u0c) + flat.shape)
    if k == 0:
        vals += 0.5 * np.expand_dims(coeffs.u0c, -1)
    stepped = getattr(coeffs, "modes", None) or {}
    for parity, u in ((Parity.EVEN, coeffs.uc), (Parity.ODD, coeffs.us)):
        modes = stepped.get(parity.value)
        if modes is None:  # np.any on the strided view, with no copy
            modes = range(1, coeffs.basis.M + 1) if np.any(u[..., 1:]) else range(0)
        for cols in _point_chunks(coeffs.basis, flat.size) if modes else ():
            vals[..., cols] += u[..., modes.start:modes.stop] @ psi_block(
                coeffs.basis, parity, flat[cols], int(k), modes)
    vals = vals.reshape(np.shape(coeffs.u0c) + xa.shape)
    return float(vals) if vals.ndim == 0 else vals


#: pi = _PI_HI + _PI_LO to ~1e-24, _PI_HI with 26 bits.  For m <= MAX_MODES,
#: m * _PI_HI is exact and so are lam_m - m * _PI_HI and the subtraction of
#: fl(pi / 6) after it (Sterbenz's lemma); m * _PI_LO then rounds at ~1e-19.
#: So delta_m = lam_m - (m + 1/6) pi keeps no rounding of (m + 1/6) pi, which
#: would add up over the modes as m * 1.2e-16.
_PI_HI = 3.1415926814079285
_PI_LO = -2.7818135228334233e-08

#: Where h_m (1 - |x|) > _LAYER_BAND, h_m = sqrt(3) lam_m / 2, both
#: exponentials of the layer term underflow to exactly 0 (e^-745.2 already
#: does), so its band |x| >= 1 - _LAYER_BAND / h_m holds every nonzero value.
_LAYER_BAND = 746.0
_LAYER_BLOCK = 2 ** 12  # layer values evaluated at a time (at most)


@dataclass(frozen=True, eq=False)
class _GridPlan:
    """What ``_synthesize_grid`` needs of one basis at one sample count.

    Every array is read-only.  ``band`` holds each mode's layer values
    Re[w_m Phi_0(x_j)] on its band in ``_pairs`` order, mode m's from
    ``offsets[m - 1]`` (x < 0 first); it is None when it would hold more than
    ``_SYNTHESIS_ENTRIES`` values.
    """

    samples: int
    x: np.ndarray        # np.linspace(-1, 1, samples)
    split: int           # points with x < 0: |x| falls before, rises from here
    cos6: np.ndarray     # cos(lam_m x) of modes 1..min(6, M)
    fold: np.ndarray     # m mod N for the modes m >= 7
    delta: np.ndarray    # lam_m - (m + 1/6) pi for the modes m >= 7
    wrap: np.ndarray     # j mod N
    phase: np.ndarray    # e^{i pi x / 6}
    ix: np.ndarray       # i x
    half: np.ndarray     # h_m
    offsets: np.ndarray  # M + 1 band starts, the last its length
    band: np.ndarray | None


def _band_ends(x, split: int, bound):
    """Per mode, how many points lead the grid and how many end it with |x| >= bound."""
    return (np.searchsorted(x[:split], -bound, "right"),
            x.size - split - np.searchsorted(x[split:], bound, "left"))


def _pairs(pre, post, samples: int, block: int):
    """The pairs (mode r, point j), j < pre_r or j >= samples - post_r, mode by
    mode and j in order, ``block`` at a time (the last block fewer): (k, s, j) with
    k the block's slice of that sequence and s = 2 r + (j >= samples - post_r)."""
    lengths = np.ravel((pre, post), "F")
    ends = lengths.cumsum()
    shift = np.ravel((0 * pre, samples - post), "F") - ends + lengths   # j - k
    for k0 in range(0, ends[-1], block):
        k1 = min(k0 + block, ends[-1])
        s0, s1 = np.searchsorted(ends, (k0, k1 - 1), "right") + (0, 1)
        counts = np.minimum(ends[s0:s1], k1) - np.maximum(ends[s0:s1] - lengths[s0:s1], k0)
        yield (slice(k0, k1), np.arange(s0, s1).repeat(counts),
               shift[s0:s1].repeat(counts) + np.arange(k0, k1))


def _layer_z(basis: Basis):
    """z_m = (sqrt(3) + i) lam_m / 2 of the even modes 1..M, as ``_psi_core`` forms it."""
    lam = basis.lam_even[1:]
    return 0.5 * (SQRT3 * lam + 1j * lam)


def _build_grid_plan(basis: Basis, samples: int) -> _GridPlan:
    x = np.linspace(-1.0, 1.0, samples)
    n = samples - 1
    lam = basis.lam_even[1:]
    m = np.arange(7, basis.M + 1)
    half = 0.5 * (SQRT3 * lam)
    split = int(np.searchsorted(x, 0.0, "left"))
    pre, post = _band_ends(x, split, 1.0 - _LAYER_BAND / half)
    offsets = np.concatenate(([0], np.cumsum(pre + post)))
    band = None
    if offsets[-1] <= _SYNTHESIS_ENTRIES:
        z, w = _layer_z(basis), basis.w_even[1:]
        band = np.empty(offsets[-1])
        for k, s, j in _pairs(pre, post, samples, _LAYER_BLOCK):
            r = s >> 1
            band[k] = _layer(z[r], half[r], w[r], x[j], 1.0)
    arrays = dict(
        x=x, cos6=np.cos(lam[:6, None] * x), fold=m % n,
        delta=lam[6:] - m * _PI_HI - np.pi / 6.0 - m * _PI_LO,
        wrap=np.arange(samples) % n, phase=np.exp(1j * np.pi / 6.0 * x), ix=1j * x,
        half=half, offsets=offsets, band=band)
    _read_only(tuple(a for a in arrays.values() if a is not None))
    return _GridPlan(samples=samples, split=split, **arrays)


def _grid_plan(basis: Basis, samples: int) -> _GridPlan:
    """The basis's grid plan at ``samples`` points; a new count replaces the kept one."""
    plan = basis._derived.get("grid")
    if plan is None or plan.samples != samples:
        plan = basis._derived["grid"] = _build_grid_plan(basis, samples)
    return plan


def _synthesize_grid(basis: Basis, u0c: float, uc: np.ndarray, samples: int) -> np.ndarray:
    """``synthesize`` of an even set (no ``us``) at ``np.linspace(-1, 1, samples)``.

    For m >= 7 the stored eigenvalue lies within an ulp of the lattice
    (m + 1/6) pi, and on the grid x_j = -1 + 2j/N, N = samples - 1,
    e^{i (m + 1/6) pi x_j} = e^{i pi x_j / 6} (-1)^m e^{2 pi i m j / N}.  So
    with a_m c_m folded mod N into b_r = sum (-1)^m a_m c_m, and b'_r the same
    times delta_m = lam_m - (m + 1/6) pi, those modes' cosines sum to
    Re[e^{i pi x / 6} (S + i x S')], S and S' the N-point DFTs of b and b'.
    The i x S' term is the first-order correction to the stored eigenvalue
    (the second order is below delta^2 ~ 1e-23).  Modes 1-6 are summed
    directly.

    The boundary layer a_m c_m L_m(x), |L_m(x)| <= |w_m| e^{h_m(|x| - 1)},
    h_m = sqrt(3) lam_m / 2, is added only where |x| >= 1 - reach_m / h_m,
    reach_m = ln(|a_m c_m w_m| M / scale) + 40, scale = max |trig sum|.  Each
    term left out is below e^-40 scale / M, so together they stay below
    4e-18 scale at every point.  Those points lead and end the grid, and
    the ones past the band of nonzero values add nothing.  Each point sums
    its terms in mode order, from the plan's kept values in one block of
    (mode, point) pairs or from _layer in blocks of ``_LAYER_BLOCK``: np.add.at
    adds in index order, as one np.bincount would, wherever the blocks cut.
    """
    from numpy import fft  # here, not at load: only solve samples a grid

    plan = _grid_plan(basis, samples)
    n, M = samples - 1, basis.M
    ac = uc[1:] * basis.c_even[1:]
    u = 0.5 * u0c + ac[:6] @ plan.cos6
    if M >= 7:
        signed = ac[6:].copy()
        signed[::2] = -signed[::2]   # (-1)^m from m = 7
        b = np.stack([np.bincount(plan.fold, weights=signed, minlength=n),
                      np.bincount(plan.fold, weights=signed * plan.delta, minlength=n)])
        S, dS = np.conj(fft.fft(b))[:, plan.wrap]
        u += np.real(plan.phase * (S + plan.ix * dS))
    with np.errstate(divide="ignore", invalid="ignore"):   # a zero a_m or scale
        reach = np.log(np.abs(ac * basis.w_even[1:]) * M / np.max(np.abs(u))) + 40.0
        edge = 1.0 - reach / plan.half
    edge[np.isnan(edge)] = np.inf   # 0/0, a zero a_m and scale: no point
    pre, post = _band_ends(plan.x, plan.split,
                           np.maximum(edge, 1.0 - _LAYER_BAND / plan.half))
    z, w, acs = _layer_z(basis), basis.w_even[1:], np.repeat(ac, 2)
    base = np.ravel((plan.offsets[:-1], plan.offsets[1:] - samples), "F")   # band place - j
    layer = np.zeros(samples)
    block = _LAYER_BLOCK if plan.band is None else plan.band.size
    for _, s, j in _pairs(pre, post, samples, block):
        if plan.band is None:
            r = s >> 1
            values = _layer(z[r], plan.half[r], w[r], plan.x[j], 1.0)
        else:
            values = plan.band[base[s] + j]
        np.add.at(layer, j, acs[s] * values)
    u += layer
    return u


def _projection_at(f, basis: Basis, rule) -> tuple:
    """(u0c, uc, us, int |f|) from one rule, evaluating the basis in point chunks."""
    fx = np.asarray(f(rule.nodes), dtype=float)
    wf = rule.weights * fx
    u0c = float(np.sum(wf))
    uc, us = np.zeros(basis.M), np.zeros(basis.M)
    for cols in _point_chunks(basis, len(wf)):
        uc += psi_block(basis, Parity.EVEN, rule.nodes[cols], 0) @ wf[cols]
        us += psi_block(basis, Parity.ODD, rule.nodes[cols], 0) @ wf[cols]
    l1 = float(np.sum(np.abs(wf)))
    return u0c, uc, us, l1


def project(f, basis: Basis, tol: float = 1e-12) -> CoefficientSet:
    """Project a function onto the basis by adaptive composite quadrature.

    Panels double until every coefficient changes by less than
    tol * max(1, |coefficient|) between successive refinements, plus a
    rounding floor of 500 eps scaled by int |f| (quadrature noise is
    absolute at the integrand's magnitude, so coefficients smaller than
    that can never satisfy a pure relative-or-unit gate).
    """
    from . import oracle  # here, not at load: only project needs the oracle

    if not (tol >= 1e-14):
        raise ValueError(f"tol must be >= 1e-14, got {tol!r}")
    eps_floor = 500.0 * np.finfo(float).eps

    def converged(coarse, fine) -> bool:
        floor = eps_floor * max(1.0, fine[3])
        return all(oracle._agree(a, b, tol, floor) for a, b in zip(coarse[:3], fine[:3]))

    u0c, uc, us, _ = oracle._refine(lambda rule: _projection_at(f, basis, rule),
                                    oracle._table_panels(basis, basis.M), converged)
    return CoefficientSet(basis=basis, u0c=u0c, uc=np.concatenate(([0.0], uc)),
                          us=np.concatenate(([0.0], us)))


# ---------------------------------------------------------------------------
# Superseded-variant documentation
# ---------------------------------------------------------------------------

def _superseded_beta_even_diag(basis: Basis, n: int) -> float:
    """Superseded even-diagonal variant (prefactor denominator 8, not 2)."""
    ln, cn, _, _ = _mode_data(basis, Parity.EVEN, n)
    sn = SQRT3 * ln
    if sn > 700.0:
        raise ValueError("superseded variant evaluated unscaled; index too large")
    pref = -ln * cn ** 2 / (8.0 * (math.cos(ln) - math.cosh(sn)) ** 2)
    b1 = ln * (3.0 * math.cos(2 * ln) + math.sinh(sn) ** 2 + math.cosh(sn) ** 2
               + 4.0 * SQRT3 * math.sin(ln) ** 3 * math.sinh(sn)
               - 4.0 * math.cos(ln) ** 3 * math.cosh(sn))
    b2 = (2.0 * math.sin(ln) * (math.cos(ln) - math.cosh(sn))
          * (SQRT3 * math.sin(ln) * math.sinh(sn)
             + math.cos(ln) * math.cosh(sn) - math.cos(2 * ln)))
    return pref * (b1 + b2)


def _superseded_beta_odd_offdiag(basis: Basis, n: int, m: int) -> float:
    """Superseded odd off-diagonal variant (garbled second term, read literally)."""
    ln, cn, _, _ = _mode_data(basis, Parity.ODD, n)
    lm, cm, _, _ = _mode_data(basis, Parity.ODD, m)
    sn, sm = SQRT3 * ln, SQRT3 * lm
    if max(sn, sm) > 700.0:
        raise ValueError("superseded variant evaluated unscaled; index too large")
    pref = 6.0 * cn * cm * lm ** 3 * ln ** 3 / (lm ** 6 - ln ** 6)
    t1 = -lm * math.cos(ln) * (math.sin(2 * lm) - SQRT3 * math.cos(lm) * math.sinh(sm)
                               + math.sin(lm) * math.cosh(sm)) \
        / (math.cos(lm) + math.cosh(sm))
    t2 = ln * math.cos(lm) * (math.sin(2 * ln) - SQRT3 * math.cos(ln) * math.sinh(sn)
                              + math.cos(ln) * math.cosh(sn)) \
        / (math.cos(ln) - math.cosh(sn))
    return pref * (t1 + t2)


def _superseded_beta_odd_diag(basis: Basis, n: int) -> float:
    """Superseded odd-diagonal variant (structurally wrong; fails quadrature)."""
    ln, cn, _, _ = _mode_data(basis, Parity.ODD, n)
    sn = SQRT3 * ln
    if sn > 700.0:
        raise ValueError("superseded variant evaluated unscaled; index too large")
    pref = ln * cn ** 2 / (2.0 * (math.cos(ln) + math.cosh(sn)) ** 2)
    b1 = ln * (-math.cos(2 * ln) + math.sinh(sn) ** 2 + math.cosh(sn) ** 2
               - 4.0 * SQRT3 * math.cos(ln) ** 2 * math.sin(ln) * math.sinh(sn)
               + 4.0 * math.sin(ln) ** 2 * math.cos(ln) * math.cosh(sn))
    b2 = (2.0 * math.cos(ln) * (math.cos(ln) + math.cosh(sn))
          * (SQRT3 * math.cos(ln) * math.sinh(sn)
             - math.sin(ln) * math.cosh(sn) - math.sin(2 * ln)))
    return pref * (b1 + b2)


def _superseded_chi12(basis: Basis, m: int) -> float:
    """Superseded p = 12 variant: prefactor exponent 10 instead of 12."""
    lam, _, _, _ = _mode_data(basis, Parity.EVEN, m)
    return chi(basis, 12, m) * lam ** 2


def superseded_variant_notes(basis: Basis) -> list:
    """Document the three corrected closed-form branches with examples.

    Each entry compares the shipped (corrected, quadrature-verified) value
    against the superseded variant at a sample index.
    """
    notes = [
        {
            "formula": "beta, even parity, diagonal",
            "issue": "superseded variant carries prefactor denominator 8 "
                     "instead of 2 and evaluates to exactly 1/4 of the "
                     "true integral",
            "example_indices": [1, 1],
            "superseded_value": _superseded_beta_even_diag(basis, 1),
            "corrected_value": beta(basis, Parity.EVEN, 1, 1),
        },
        {
            "formula": "beta, odd parity, off-diagonal",
            "issue": "superseded variant mixes even-family symbols into the "
                     "second term; the shipped form mirrors the first term "
                     "with the index roles swapped",
            "example_indices": [1, 2],
            "superseded_value": _superseded_beta_odd_offdiag(basis, 1, 2),
            "corrected_value": beta(basis, Parity.ODD, 1, 2),
        },
        {
            "formula": "beta, odd parity, diagonal",
            "issue": "superseded variant is structurally wrong (its ratio to "
                     "the true integral varies with the index); the shipped "
                     "form is derived from elementary integrals of (psi')^2",
            "example_indices": [1, 1],
            "superseded_value": _superseded_beta_odd_diag(basis, 1),
            "corrected_value": beta(basis, Parity.ODD, 1, 1),
        },
        {
            "formula": "chi, p = 12",
            "issue": "superseded variant carries prefactor exponent 10 "
                     "(copied from p = 10) instead of 12",
            "example_indices": [12, 1],
            "superseded_value": _superseded_chi12(basis, 1),
            "corrected_value": chi(basis, 12, 1),
        },
    ]
    return notes
