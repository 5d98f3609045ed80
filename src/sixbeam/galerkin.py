"""Steady and semi-discrete Galerkin systems over the eigenfunction basis.

Solves constant-coefficient sixth-order two-point boundary-value problems

    a6 u'''''' + a4 u'''' + a2 u'' + a0 u = f(x),   f an even polynomial,

with the natural boundary conditions u' = u'' = u''''' = 0 at x = +-1 built
into the basis, and assembles the companion time-dependent system

    du_l/dt = sum_n [B beta_nl - T gamma_nl] u_n + (reaction - lam_l^6) u_l + f_l

integrated by a one-parameter theta scheme.

Projecting the BVP onto basis function psi_l gives, for mode rows l >= 1,

    sum_n [a4 gamma_nl + a2 beta_nl] u_n + (a0 - a6 lam_l^6) u_l = <f, psi_l>,

i.e. the system matrix is a4 Gamma^T + a2 Beta^T + diag(a0 - a6 lam^6): the
equation index l is the *second* index of the coefficient tables (Beta is
analytically symmetric so its transpose only matters at rounding level;
Gamma is genuinely asymmetric).  Projection onto the constant mode decouples:
a4 sum_n gamma_n0 u_n + a0 u0c = <f, 1>.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction

import numpy as np

from .coefficients import (CHI_POWERS, CoefficientSet, _basis_plan, _cauchy_dense,
                           _cauchy_form, _gamma_mean, chi_vector)
from .eigenbasis import Basis, _is_int

__all__ = [
    "BvpSpec",
    "MODEL_I",
    "MODEL_II",
    "manufactured_spec",
    "SemiDiscreteSystem",
    "SteadySolution",
    "Trajectory",
    "forcing_projection",
    "assemble_steady",
    "solve_steady",
    "assemble_semi_discrete",
    "model_ii_semi_discrete",
    "evolve",
]

_RESONANCE_GUARD = 1e-6

# Coupled a4 = 0 solves with at most this many modes try dense Cholesky
# before GMRES, which runs every other coupled solve (ladder in CHANGES.md).
# Cholesky's bytes do not depend on the BLAS thread count up to here, where its
# pivot record is part of the documented output (criterion 4 prints it at
# M = 100), and differ from M ~ 128, where GMRES is already the faster path.
_KRYLOV_CROSSOVER = 100
_KRYLOV_RTOL = 1e-15        # stop when the least-squares residual <= this ||f||
_GMRES_MAX_ITERATIONS = 30  # specs tried need 2-4; each holds one more M-vector
_GMRES_ACCEPT = 1e-13       # largest ||A u - f|| / ||f|| a GMRES answer may keep
_JACOBI_BLOCK = 64          # modes in the leading block of the preconditioner
_SUBSTITUTION_BLOCK = 64
_GUARD_BLOCK = 16           # evolve steps between guards, or fewer for a dense map
_INVERSE_LEAF = 64          # largest block _schur_inverse hands to LAPACK
_RESIDUAL_ROWS = 128        # rows of |A| that steady_residual forms at a time
# The largest M at which a dense mode block is formed.  The LU fallback holds
# A and np.linalg.solve's copy of it, 16 M^2 bytes: 400 MB at this many modes.
# Above it a failed GMRES solve raises instead, and so does evolve on a
# coupled block, whose step map holds A and lhs and a pivoted solve's rhs.
_DENSE_MODES = 5000


@dataclass(frozen=True)
class BvpSpec:
    """Constant-coefficient even BVP with even polynomial forcing.

    ``forcing`` is a sequence of (power, coefficient) pairs; powers must be
    even integers in [0, 12] (the range with closed-form projections).
    Duplicated powers are combined and the list is stored sorted.
    """

    a6: float
    a4: float
    a2: float
    a0: float
    forcing: tuple = ()
    name: str = ""

    def __post_init__(self):
        for attr in ("a6", "a4", "a2", "a0"):
            value = float(getattr(self, attr))
            if not math.isfinite(value):
                raise ValueError(f"{attr} must be finite, got {value!r}")
            object.__setattr__(self, attr, value)
        if self.a6 == 0.0:
            raise ValueError("a6 must be nonzero (sixth-order operator)")
        combined: dict = {}
        for item in self.forcing:
            try:
                p, c = item
            except (TypeError, ValueError):
                raise ValueError(
                    f"forcing entries must be (power, coefficient) pairs, got {item!r}")
            if not _is_int(p) or not (p == 0 or p in CHI_POWERS):
                raise ValueError(
                    f"forcing powers must be even integers in [0, 12], got {p!r}")
            combined[int(p)] = combined.get(int(p), 0.0) + float(c)
            if not math.isfinite(combined[int(p)]):
                raise ValueError(f"the forcing coefficient of x^{p} must be "
                                 f"finite, got {combined[int(p)]!r}")
        object.__setattr__(
            self, "forcing",
            tuple((p, combined[p]) for p in sorted(combined) if combined[p] != 0.0))
        object.__setattr__(self, "name", str(self.name))

    def forcing_values(self, x):
        """Evaluate the forcing polynomial at x (scalar or array)."""
        xa = np.asarray(x, dtype=float)
        out = np.zeros_like(xa)
        for p, c in self.forcing:
            out = out + c * xa ** p
        return float(out) if np.ndim(x) == 0 else out


#: u'''''' + 14400 u = f with exact solution (x^2 - 1)^6 (diagonal system).
MODEL_I = BvpSpec(
    a6=1.0, a4=0.0, a2=0.0, a0=14400.0,
    forcing=((2, 216000.0), (4, -691200.0), (6, 377280.0),
             (8, 216000.0), (10, -86400.0), (12, 14400.0)),
    name="model-I",
)

#: u'''''' - 5544 u'' - 199584 u = f with exact solution (x^2 - 1)^6 (dense).
MODEL_II = BvpSpec(
    a6=1.0, a4=0.0, a2=-5544.0, a0=-199584.0,
    forcing=((0, -147456.0), (2, 501984.0), (4, -574560.0),
             (10, 465696.0), (12, -199584.0)),
    name="model-II",
)


def manufactured_spec(a6: float, a4: float, a2: float, a0: float,
                      name: str = "") -> BvpSpec:
    """The spec with these coefficients whose exact solution is (x^2 - 1)^6,
    the solution of both model problems: its forcing is the operator applied
    to that polynomial (``MODEL_I`` and ``MODEL_II`` are two such specs)."""
    u = np.polynomial.Polynomial([1, 0, -1]) ** 6
    f = a6 * u.deriv(6) + a4 * u.deriv(4) + a2 * u.deriv(2) + a0 * u
    return BvpSpec(a6=a6, a4=a4, a2=a2, a0=a0, name=name,
                   forcing=tuple((p, c) for p, c in enumerate(f.coef) if c != 0.0))


# ---------------------------------------------------------------------------
# Forcing projection
# ---------------------------------------------------------------------------

def _f0_exact(spec: BvpSpec) -> Fraction:
    """<f, 1> = int f dx as an exact rational (int x^p = 2/(p+1), p even)."""
    total = Fraction(0)
    for p, c in spec.forcing:
        total += Fraction(c) * Fraction(2, p + 1)
    return total


def _exact_projection(spec: BvpSpec, basis: Basis):
    """(f0, fc) of ``forcing_projection`` with f0 the exact rational."""
    fc = np.zeros(basis.M)
    for p, c in spec.forcing:
        if p == 0:
            continue  # constants are orthogonal to every nonconstant mode
        fc = fc + c * chi_vector(basis, p)
    return _f0_exact(spec), fc


def forcing_projection(spec: BvpSpec, basis: Basis):
    """(f0, fc): projections of the forcing onto the constant and even modes.

    f0 = <f, 1>; fc[i] = <f, psi_{i+1}^c> for i = 0..M-1.  Odd-mode
    projections vanish identically for even forcing.
    """
    f0, fc = _exact_projection(spec, basis)
    return float(f0), fc


# ---------------------------------------------------------------------------
# Steady solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SteadySolution(CoefficientSet):
    """Coefficients of a steady solve plus the solver's record of its path.

    ``record["path"]`` names the path that ran: ``"diagonal"``; ``"cholesky"``,
    with ``pivots_all_negative``, ``pivot_min`` and ``pivot_max`` (pivots of
    A = L diag(D) L^T); ``"gmres"`` (matrix-free block-Jacobi GMRES), with
    ``iterations``, ``residual`` (||A u - f|| / ||f|| from one final product)
    and ``cond_estimate`` (of the block-preconditioned matrix); or ``"lu"``,
    the dense fallback after GMRES failed, with ``reason`` "no convergence".
    """

    record: dict


def _u0c_from_row0(spec: BvpSpec, f0_exact: Fraction, corr: float) -> float:
    """Solve the constant-mode balance a0 u0c + corr = f0 (f0 = <f, 1>, exact)."""
    if spec.a0 != 0.0 and corr == 0.0:
        # Exact-rational path: keeps u0c bit-exact for rational forcing.
        return float(f0_exact / Fraction(spec.a0))
    f0 = float(f0_exact)
    if spec.a0 != 0.0:
        return (f0 - corr) / spec.a0
    residual = f0 - corr
    if abs(residual) > 1e-8 * max(1.0, abs(f0), abs(corr)):
        raise ArithmeticError(
            "constant-mode balance unsatisfiable: a0 = 0 but the projected "
            f"forcing mean leaves residual {residual:.3e}")
    return 0.0  # constant mode undetermined when a0 = 0; fix the mean to 0


def _solve_diagonal(spec: BvpSpec, basis: Basis, fc: np.ndarray):
    """(uc_body, record) for a4 = a2 = 0, where each mode row stands alone."""
    # Rows with |a6| >= 1 are divided by a6, so neither a6 lam^6 nor a0/a6
    # overflows the quotient (lam^6 < 1e28 up to MAX_MODES).
    s = spec.a6 if abs(spec.a6) >= 1.0 else 1.0
    lam6 = basis.lam_even[1:] ** 6
    denom = spec.a0 / s - (spec.a6 / s) * lam6
    bad = np.abs(denom) < _RESONANCE_GUARD * abs(spec.a6 / s) * lam6
    if np.any(bad):
        m = int(np.argmax(bad)) + 1
        raise ArithmeticError(
            f"resonant diagonal: |a0 - a6 lam^6| at mode {m} is below "
            f"{_RESONANCE_GUARD:g} x |a6| lam^6")
    return (fc / s) / denom, {"path": "diagonal"}


def _block_form(spec: BvpSpec, basis: Basis, parity: str):
    """(lam^6, X, Y, d): one parity's block in the form ``_cauchy_dense`` takes.

    block[l-1, n-1] multiplies u_n in the equation projected onto psi_l:
    block = a4 Gamma^T + a2 Beta^T + diag(a0 - a6 lam^6).  A table's
    transpose swaps its generators, (X, Y) -> (-Y, X), so the two tables
    stack into one numerator of rank <= 4.  A form with an inf or NaN in d
    or X (an overflowed assembly) raises ArithmeticError naming the block.
    """
    lam6 = basis.lam(parity)[1:] ** 6
    X, Y = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        d = spec.a0 - spec.a6 * lam6
        for a, kind in ((spec.a2, "second_derivative"), (spec.a4, "fourth_derivative")):
            if a != 0.0:
                _, Xk, Yk, diagonal = _cauchy_form(basis, parity, kind)
                d = d + a * diagonal
                X.append(-a * Yk)
                Y.append(Xk)
    X = np.reshape(X, (-1, basis.M))
    _refuse_overflow(parity, d, X)
    return lam6, X, np.reshape(Y, (-1, basis.M)), d


def _refuse_overflow(parity: str, *arrays):
    """ArithmeticError naming the block if an array holds an inf or NaN."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ArithmeticError(f"the {parity} mode block overflows double precision")


def _dense_block(form, parity: str, out=None) -> np.ndarray:
    """The dense block of the ``_block_form`` tuple ``form`` (written into
    ``out`` if given, as ``_cauchy_dense`` does), formed with numpy's overflow
    warnings off; one with an inf or NaN is refused like its form."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = _cauchy_dense(*form, out=out)
    _refuse_overflow(parity, A)
    return A


def assemble_steady(spec: BvpSpec, basis: Basis):
    """(A, fc, f0): dense even-mode system A u = fc plus the row-0 data.  A
    block that overflows raises ArithmeticError naming it (``_dense_block``)."""
    A = _dense_block(_block_form(spec, basis, "even"), "even")
    f0, fc = forcing_projection(spec, basis)
    return A, fc, f0


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b, by blocked forward then back substitution.

    numpy has no triangular solve, so each diagonal block goes through
    ``np.linalg.solve`` and the rest is one matrix-vector product per block.
    """
    x = np.array(b, dtype=float)
    starts = range(0, len(x), _SUBSTITUTION_BLOCK)
    for j in starts:
        k = slice(j, j + _SUBSTITUTION_BLOCK)
        x[k] = np.linalg.solve(L[k, k], x[k] - L[k, :j] @ x[:j])
    for j in reversed(starts):
        k, rest = slice(j, j + _SUBSTITUTION_BLOCK), slice(j + _SUBSTITUTION_BLOCK, None)
        x[k] = np.linalg.solve(L[k, k].T, x[k] - L[rest, k].T @ x[rest])
    return x


def _solve_cholesky(s: float, A: np.ndarray, fc: np.ndarray):
    """(u, record) from the Cholesky factor of s A, or None if s A is not definite."""
    try:
        L = np.linalg.cholesky(s * A)
    except np.linalg.LinAlgError:
        return None
    D = s * np.diag(L) ** 2
    record = {"path": "cholesky", "pivots_all_negative": bool(np.all(D < 0.0)),
              "pivot_min": float(np.min(D)), "pivot_max": float(np.max(D))}
    return s * _cho_solve(L, fc), record


def _operator(form, basis: Basis, parity: str):
    """v -> A v for the block of ``parity`` that the ``_block_form`` tuple
    describes, without forming A.  The off-diagonal product is the fast
    multipole method of the basis's plan (``_basis_plan``, set up once per
    basis), applied at every Krylov step in O(M) time and memory."""
    lam6, X, Y, d = form
    off_diagonal = _basis_plan(basis, parity)
    return lambda v: d * v + off_diagonal(X, Y, v)


def _block_jacobi(form, parity: str):
    """v -> P^{-1} v for P the leading ``_JACOBI_BLOCK`` x ``_JACOBI_BLOCK`` block
    of A and the diagonal after it, or None if that block is singular; an
    overflowed leading block raises ArithmeticError (``_dense_block``).

    Past the leading block the diagonal a0 - a6 lam^6 outgrows the coupling
    a4 lam^4 + a2 lam^2 (at mode 64, lam ~ 201: (6000 lam^2 + 30 lam^4) / lam^6
    ~ 7e-4), so 1 x 1 blocks keep A P^{-1} close to the identity there.  The
    leading block comes from the generators of the ``_block_form`` tuple and
    is inverted once: O(64^2 + M) memory.
    """
    lam6, X, Y, d = form
    n = _JACOBI_BLOCK
    try:
        inv = np.linalg.inv(_dense_block((lam6[:n], X[:, :n], Y[:, :n], d[:n]), parity))
    except np.linalg.LinAlgError:
        return None
    return lambda v: np.concatenate((inv @ v[:n], v[n:] / d[n:]))


def _solve_gmres(form, basis: Basis, parity: str, b: np.ndarray):
    """(u, record) by block-Jacobi right-preconditioned GMRES on A u = b, A
    the ``parity`` block of the ``_block_form`` tuple ``form`` (sigma I + s A
    is (lam6, s X, Y, sigma + s d)), or None: a singular preconditioner, the
    iteration cap, or a final residual above ``_GMRES_ACCEPT``.

    GMRES minimizes ||b - A P^{-1} y|| over the Krylov space, so its
    least-squares residual is that of A u = b with u = P^{-1} y.  It stops
    when that residual reaches ``_KRYLOV_RTOL`` ||b||, or when a step no
    longer halves it (rounding level); the true residual from one final
    product then decides.  ``cond_estimate`` is the ratio of the extreme
    singular values of the Arnoldi Hessenberg matrix of A P^{-1}.

    GMRES runs on b 2^-e, with 2^(e-1) <= max|b| < 2^e, and scales u back
    by 2^e, so ||b|| and the residual neither overflow nor underflow.  Every
    step is homogeneous in b, so a solve whose b and u stay normal numbers
    under the scaling keeps its bits.
    """
    precondition = _block_jacobi(form, parity)
    if precondition is None:
        return None
    e = int(np.frexp(np.max(np.abs(b)))[1])
    f = np.ldexp(b, -e)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        return np.zeros(len(f)), {"path": "gmres", "iterations": 0,
                                  "residual": 0.0, "cond_estimate": None}
    matvec = _operator(form, basis, parity)
    m = _GMRES_MAX_ITERATIONS
    V, rotations = [f / fnorm], []
    R = np.zeros((m + 1, m))  # the Arnoldi Hessenberg matrix, Givens-rotated
    g = np.zeros(m + 1)       # ||f|| e_1, rotated alike: |g[j + 1]| is the LS residual
    g[0] = fnorm
    for j in range(m):
        w = matvec(precondition(V[j]))
        W = np.array(V)
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = W @ w
            w -= h @ W
            R[:j + 1, j] += h
        R[j + 1, j] = wnorm = np.linalg.norm(w)
        for i, G in enumerate(rotations):
            R[i:i + 2, j] = G @ R[i:i + 2, j]
        a, b = R[j:j + 2, j]
        rotations.append(np.array([[a, b], [-b, a]]) / math.hypot(a, b))
        R[j:j + 2, j] = rotations[-1] @ R[j:j + 2, j]
        previous = abs(g[j])
        g[j:j + 2] = rotations[-1] @ g[j:j + 2]
        k = j + 1
        if (wnorm == 0.0 or abs(g[k]) <= _KRYLOV_RTOL * fnorm
                or abs(g[k]) > 0.5 * previous):
            break
        V.append(w / wnorm)
    else:
        return None
    y = np.linalg.solve(R[:k, :k], g[:k])
    u = precondition(y @ np.array(V))
    residual = float(np.linalg.norm(matvec(u) - f)) / fnorm
    if not residual <= _GMRES_ACCEPT:
        return None
    # The rotations are orthogonal: R[:k, :k] has the Hessenberg matrix's
    # singular values.
    sigma = np.linalg.svd(R[:k, :k], compute_uv=False)
    return np.ldexp(u, e), {"path": "gmres", "iterations": k, "residual": residual,
                            "cond_estimate": float(sigma[0] / sigma[-1])}


def _dense_fallback(form, fc: np.ndarray):
    """(uc_body, record) by dense LU on the block of ``form`` after GMRES
    failed, with a warning.  Above ``_DENSE_MODES`` modes ArithmeticError,
    before forming the block."""
    M, failed = len(fc), "block-Jacobi GMRES failed (no convergence)"
    if M > _DENSE_MODES:
        raise ArithmeticError(
            f"{failed} at M = {M}, and the dense fallback runs only up to "
            f"M = {_DENSE_MODES} ({16 * M ** 2 / 1e6:.0f} MB here)")
    A = _dense_block(form, "even")
    warnings.warn(f"{failed}; falling back to a pivoted dense solve",
                  RuntimeWarning, stacklevel=4)
    return np.linalg.solve(A, fc), {"path": "lu", "reason": "no convergence"}


def _solve_modes(spec: BvpSpec, basis: Basis, fc: np.ndarray):
    """(uc_body, record) for a coupled spec (a2 or a4 nonzero).

    Every path reads the even block's one ``_block_form``.  Up to the
    crossover, a4 = 0 makes the matrix symmetric and, for a well-posed spec,
    definite with the sign of -a6, so with s = -sign a6 Cholesky of s A both
    solves the system and tests definiteness.  Every other coupled solve,
    and one whose s A is not definite, runs GMRES: at M <= 64 its
    preconditioner is the block's own inverse, and above the crossover it
    beats Cholesky (ladder in CHANGES.md).  Its bytes do not depend on the
    BLAS thread count.  When GMRES fails a dense LU solve runs, with a
    warning, up to ``_DENSE_MODES`` modes; above them the solve raises.  A
    formed block (dense, or GMRES's leading one) with an inf or NaN is
    refused like an overflowed form, before anything is factored.  A form
    that overflows is retried over 2^e, a power of four near |a6|, whose
    Cholesky factor scales exactly: ``pivot_scale`` = 2^e times a pivot is A's.
    """
    try:
        form, e = _block_form(spec, basis, "even"), 0
    except ArithmeticError:
        e = 2 * (math.frexp(spec.a6)[1] // 2)
        spec = BvpSpec(*(math.ldexp(a, -e) for a in (spec.a6, spec.a4, spec.a2, spec.a0)))
        form, fc = _block_form(spec, basis, "even"), np.ldexp(fc, -e)
    if spec.a4 == 0.0 and basis.M <= _KRYLOV_CROSSOVER:
        solved = _solve_cholesky(-math.copysign(1.0, spec.a6), _dense_block(form, "even"), fc)
        if solved is not None:
            solved[1].update({"pivot_scale": math.ldexp(1.0, e)} if e else {})
            return solved
    solved = _solve_gmres(form, basis, "even", fc)
    return solved if solved is not None else _dense_fallback(form, fc)


def solve_steady(spec: BvpSpec, basis: Basis) -> SteadySolution:
    """Solve the steady BVP by Galerkin projection onto the even modes.

    The spec and M pick the path: a diagonal solve when a4 = a2 = 0;
    otherwise Cholesky when a4 = 0 and M <= ``_KRYLOV_CROSSOVER`` = 100 and
    the matrix is definite, and matrix-free block-Jacobi GMRES for every
    other coupled solve (falling back to dense LU, with a warning, if it
    does not converge, or raising ArithmeticError above ``_DENSE_MODES``
    modes).  GMRES and Cholesky write the same bytes at any BLAS thread
    count; the LU fallback may not.  A block that overflows, as a form or
    formed densely, raises ArithmeticError before any path solves it.  The
    result's ``record`` says which path ran.
    """
    if basis.M < 1:
        raise ValueError("basis must carry at least one mode")
    f0, fc = _exact_projection(spec, basis)
    if spec.a4 != 0.0:
        uc_body, record = _solve_modes(spec, basis, fc)
        u0c = _u0c_from_row0(spec, f0, spec.a4 * float(_gamma_mean(basis) @ uc_body))
    else:
        # The constant-mode balance needs no mode coefficients here, so an
        # unsatisfiable one fails before the mode solve.
        u0c = _u0c_from_row0(spec, f0, 0.0)
        solve = _solve_modes if spec.a2 != 0.0 else _solve_diagonal
        uc_body, record = solve(spec, basis, fc)
    uc = np.concatenate(([0.0], uc_body))
    return _finite(SteadySolution(basis=basis, u0c=u0c, uc=uc,
                                  us=np.zeros(basis.M + 1), record=record))


def _finite(sol: SteadySolution) -> SteadySolution:
    """sol, or ArithmeticError naming its path if a coefficient is inf or NaN."""
    if np.isfinite(sol.u0c) and np.all(np.isfinite(sol.uc)):
        return sol
    rec = sol.record
    how = f"dense LU, {rec['reason']}" if rec["path"] == "lu" else rec["path"]
    raise ArithmeticError(f"steady solve ({how}) gave non-finite coefficients: "
                          "the spec overflows double precision")


# ---------------------------------------------------------------------------
# Semi-discrete dynamical system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiDiscreteSystem:
    """Parity-blocked linear ODE system du/dt = A u + f.

    The even block has size M+1 (row/column 0 is the constant mode: row 0 is
    [reaction, -T gamma_10, ..., -T gamma_M0] and column 0 is otherwise
    zero); the odd block has size M.  ``reaction`` adds a zeroth-order term
    reaction * u to the operator; with reaction = 0 the diagonal entries of
    the mode rows are exactly -lam_n^6.

    Each block is held in generator form: the ``_block_form`` tuple of its
    mode rows, and for the even block the constant-mode row -T gamma_n0 (None
    when T = 0).  ``A_even`` and ``A_odd`` form the dense block on first read
    and keep it; one that overflows raises ArithmeticError (``_dense_block``).
    Whether a block is coupled is read off that form (``_block``), so
    ``evolve`` and ``steady_residual`` never form a block with no
    off-diagonal generator (B = T = 0, or a 1 x 1 mode block).
    """

    basis: Basis
    B: float
    T: float
    reaction: float
    f_even: np.ndarray
    f_odd: np.ndarray
    _forms: dict = field(repr=False)
    _mean_row: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        M = self.basis.M
        if len(self._forms["even"][3]) != M or self.f_even.shape != (M + 1,):
            raise ValueError("even block must have size M + 1")
        if len(self._forms["odd"][3]) != M or self.f_odd.shape != (M,):
            raise ValueError("odd block must have size M")

    @cached_property
    def A_even(self) -> np.ndarray:
        # The mode block is formed in place, with no zero-filled (M + 1)^2
        # block under it and no second M^2 block to copy from.
        A = np.empty((self.basis.M + 1,) * 2)
        A[0, 0], A[1:, 0] = self.reaction, 0.0
        A[0, 1:] = 0.0 if self._mean_row is None else self._mean_row
        _dense_block(self._forms["even"], "even", out=A[1:, 1:])
        return A

    @cached_property
    def A_odd(self) -> np.ndarray:
        return _dense_block(self._forms["odd"], "odd")

    def _block(self, parity: str):
        """(f, diagonal, coupled) of one block: its forcing, its diagonal, and
        whether its generator form has an entry off the diagonal: a generator
        term over more than one mode (a 1 x 1 table has none), or the even
        block's constant-mode row."""
        _, X, _, d = self._forms[parity]
        coupled = len(X) > 0 and len(d) > 1
        if parity == "odd":
            return self.f_odd, d, coupled
        return (self.f_even, np.concatenate(([self.reaction], d)),
                coupled or self._mean_row is not None)

    def _dense(self, parity: str) -> np.ndarray:
        """One dense block; ValueError above ``_DENSE_MODES`` modes."""
        if self.basis.M > _DENSE_MODES:
            raise ValueError(
                f"a coupled block (B or T nonzero) is formed densely only up to "
                f"M = {_DENSE_MODES}, got M = {self.basis.M} "
                f"({8 * self.basis.M ** 2 / 1e6:.0f} MB per block)")
        return self.A_even if parity == "even" else self.A_odd

    def steady_residual(self, state: CoefficientSet) -> float:
        """max_i |A u + f|_i / (|A||u| + |f|)_i over both blocks, 0/0 read as 0:
        the componentwise backward error of the single ``state`` as a steady state
        (Oettli & Prager, Numer. Math. 6 (1964) 405), at most 1 up to rounding.
        A diagonal block reads its diagonal alone, with the dense rows' bits.
        Each block's u and f are scaled by one power of two, 2^-e with
        2^(e-1) <= max(|u|, |f|) < 2^e, before the products: the ratio is
        homogeneous, so a finite state's A u overflows only where A nearly
        does, and a block whose u and f stay normal numbers keeps its bits.
        ValueError for a state with an inf or NaN coefficient, and for a
        coupled block above ``_DENSE_MODES`` modes."""
        blocks = (("even", np.concatenate(([state.u0c], state.uc[1:]))),
                  ("odd", state.us[1:]))
        if not all(np.all(np.isfinite(u)) for _, u in blocks):
            raise ValueError("steady_residual needs a finite state, got inf or NaN")
        worst = 0.0
        for parity, u in blocks:
            f, diagonal, coupled = self._block(parity)
            if not (np.any(f) or np.any(u)):  # every row reads 0/0
                continue
            A = self._dense(parity) if coupled else None
            e = int(np.frexp(max(np.max(np.abs(u)), np.max(np.abs(f))))[1])
            u, f = np.ldexp(u, -e), np.ldexp(f, -e)
            for j in range(0, len(f), _RESIDUAL_ROWS):
                rows = slice(j, j + _RESIDUAL_ROWS)
                if A is None:
                    Au = diagonal[rows] * u[rows]
                    scale = np.abs(Au) + np.abs(f[rows])
                else:
                    Au = A[rows] @ u
                    scale = np.abs(A[rows]) @ np.abs(u) + np.abs(f[rows])
                ratio = np.abs(Au + f[rows]) / np.where(scale > 0.0, scale, 1.0)
                worst = max(worst, float(np.max(ratio)))
        return worst


def assemble_semi_discrete(basis: Basis, B: float = 0.0, T: float = 0.0,
                           forcing: CoefficientSet | None = None,
                           reaction: float = 0.0) -> SemiDiscreteSystem:
    """Assemble du_l/dt = sum_n [B beta_nl - T gamma_nl] u_n + (reaction - lam_l^6) u_l + f_l.

    ``forcing`` carries the expansion coefficients of the forcing function
    (None means zero forcing).  ``reaction`` is an optional zeroth-order
    coefficient; it is what makes the dense steady problems (a0 != 0)
    realizable as long-time limits.  The blocks are kept in generator form,
    so B = T = 0 assembles in O(M) time and memory, and a B or T that
    overflows a block raises ArithmeticError naming it (``_block_form``).
    """
    B, T, reaction = float(B), float(T), float(reaction)
    M = basis.M
    spec = BvpSpec(a6=1.0, a4=-T, a2=B, a0=reaction)
    forms = {parity: _block_form(spec, basis, parity) for parity in ("even", "odd")}
    mean_row = spec.a4 * _gamma_mean(basis) if spec.a4 != 0.0 else None
    if forcing is None:
        f_even = np.zeros(M + 1)
        f_odd = np.zeros(M)
    else:
        if forcing.basis.M != M:
            raise ValueError("forcing coefficients built for a different basis size")
        f_even = np.concatenate(([forcing.u0c], forcing.uc[1:]))
        f_odd = forcing.us[1:].copy()
    return SemiDiscreteSystem(basis=basis, B=B, T=T, reaction=reaction,
                              f_even=f_even, f_odd=f_odd, _forms=forms,
                              _mean_row=mean_row)


def model_ii_semi_discrete(basis: Basis, B: float = MODEL_II.a2, T: float = 0.0,
                           reaction: float = MODEL_II.a0) -> SemiDiscreteSystem:
    """Semi-discrete system driven by the negated model-II forcing.

    du/dt = u'''''' - T u'''' + B u'' + reaction u - f with f the model-II
    forcing.  Its steady state solves a6 = 1, a4 = -T, a2 = B, a0 = reaction;
    with the defaults (taken from the model-II spec) that is exactly the
    model-II BVP.
    """
    f0, fc = forcing_projection(MODEL_II, basis)
    forcing = CoefficientSet(basis=basis, u0c=-f0,
                             uc=np.concatenate(([0.0], -fc)),
                             us=np.zeros(basis.M + 1))
    return assemble_semi_discrete(basis, B=B, T=T, forcing=forcing,
                                  reaction=reaction)


@dataclass(frozen=True, eq=False)
class Trajectory(CoefficientSet):
    """The stacked states of ``evolve`` plus the path each parity block took.

    ``record`` is ``{"even": path, "odd": path}``, each path one of
    ``"zero"`` (zero forcing and zero start: the block stays exactly 0 and is
    never factored or stepped), ``"diagonal"`` (no off-diagonal generator,
    as B = T = 0 or a 1 x 1 mode block assembles: each mode steps on its
    own, an unforced block's whole run at once) or ``"step-map"`` (the
    dense one-step map), each told from the block's generator form
    (``SemiDiscreteSystem._block``) without forming it.
    ``stationary_from`` is the first step k from which every later state
    equals state k bit for bit (the stepping stopped there, and the stack
    ends with state k), or None if the last step still moved the state.
    ``modes`` is ``{"even": range, "odd": range}``, the modes each block
    stepped (none for a zero block, 1..M for a step map, the moving ones of
    a diagonal block); every other mode is +0.0 in every state, so
    ``synthesize`` sums these alone (all M, or none, when ``modes`` is None).
    """

    record: dict = field(default_factory=dict)
    stationary_from: int | None = None
    modes: dict | None = None


def _schur_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 for a strictly column diagonally dominant L, by recursive 2 x 2
    Schur complements: six matrix products per level, two of them in
    ``_schur_factor``, and ``np.linalg.inv`` on blocks of at most
    ``_INVERSE_LEAF``.

    Every Schur complement of such a matrix is again column dominant, so
    block elimination needs no pivoting across blocks and is stable (Demmel,
    Higham & Schreiber, Numer. Linear Algebra Appl. 2 (1995) 173).
    """
    if len(L) <= _INVERSE_LEAF:
        return np.linalg.inv(L)
    inv11, X, inv_s = _schur_factor(L)
    h = len(inv11)
    out = np.empty_like(L)
    out[h:, h:] = inv_s
    Y = L[h:, :h] @ inv11                        # L21 L11^-1
    out[:h, h:] = Z = -(X @ inv_s)
    out[h:, :h] = -(inv_s @ Y)
    out[:h, :h] = inv11 - Z @ Y
    return out


def _schur_factor(L: np.ndarray):
    """(inv11, X, inv_s) of the top level of ``_schur_inverse``, half its work:
    L11^-1, L11^-1 L12 and the inverse of S = L22 - L21 X, splitting at
    h = n // 2, or at h = n for a leaf (inv11 = L^-1, X and inv_s empty)."""
    h = len(L) // 2 if len(L) > _INVERSE_LEAF else len(L)
    inv11 = _schur_inverse(L[:h, :h])
    X = inv11 @ L[:h, h:]                        # L11^-1 L12
    S = L[h:, h:] - L[h:, :h] @ X                # the Schur complement
    return inv11, X, _schur_inverse(S)


def _schur_solve(L: np.ndarray, factor, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = L^-1 b from L's ``_schur_factor``, in four matrix-vector products."""
    inv11, X, inv_s = factor
    h = len(inv11)
    x1, x2 = out[:h], out[h:]
    np.matmul(inv11, b[:h], out=x1)
    np.matmul(inv_s, b[h:] - L[h:, :h] @ x1, out=x2)
    x1 -= X @ x2
    return out


def _diagonal_map(mu: np.ndarray, f: np.ndarray, dt: float, theta: float):
    """(P, g) with u^{k+1} = P u^k + g elementwise for a diagonal block mu.

    P = R(dt mu) is written with the reciprocal ``inv`` because OpenBLAS's
    triangular solve multiplies by the pivot's reciprocal, so there it gives
    the dense solve's bits exactly (``rhs / lhs`` differs in the last place).
    """
    inv = 1.0 / (1.0 + (-theta * dt) * mu)
    return (1.0 + ((1.0 - theta) * dt) * mu) * inv, (dt * f) * inv


def _diagonal_run(mu: np.ndarray, f: np.ndarray, u0: np.ndarray, dt: float,
                  theta: float):
    """(cols, P, g) for a diagonal block mu that starts at ``u0``: the slice of
    the columns that move, and their elementwise map u <- P u + g.

    A mode whose one step leaves its bits unchanged never moves, so only the
    columns from the first to the last mode that moves or is not +0.0 are
    stepped; the rest stay +0.0.
    """
    P, g = _diagonal_map(mu, f, dt, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        first = P * u0 + g
    live = np.flatnonzero((first.view(np.int64) != u0.view(np.int64))
                          | (u0.view(np.int64) != 0))
    cols = slice(live[0], live[-1] + 1) if live.size else slice(0, 0)
    return cols, P[cols], g[cols]


def _step_map(A: np.ndarray, f: np.ndarray, dt: float, theta: float):
    """(step, g) with u^{k+1} = step(u^k, out) + g for a dense block.

    (I - theta dt A) u^{k+1} = (I + (1-theta) dt A) u^k + dt f.  With
    theta > 0 and a strictly column diagonally dominant lhs = I - theta dt A,
    lhs is factored once (``_schur_factor``), and g and every step are
    solves with the factor.  Any other block takes P and g from one pivoted
    solve and steps by P u.
    """
    # The operands are built in place, because transient M x M copies set a
    # run's peak memory.
    n, d = len(f), np.arange(len(f))
    lhs = (-theta * dt) * A  # I - theta dt A
    lhs[d, d] += 1.0
    if theta > 0.0 and np.all(2.0 * np.abs(lhs.diagonal()) > np.abs(lhs).sum(axis=0)):
        factor = _schur_factor(lhs)

        def step(u, out):
            # I + (1 - theta) dt A = (I - (1 - theta) lhs) / theta, so
            # P u = (lhs^-1 u - (1 - theta) u) / theta solves with u itself;
            # forming (I + (1 - theta) dt A) u first would cost accuracy.
            _schur_solve(lhs, factor, u, out)
            out -= (1.0 - theta) * u
            out /= theta
            return out
        return step, _schur_solve(lhs, factor, dt * f, np.empty(n))
    # Otherwise one pivoted solve gives [P | g].
    rhs = np.empty((n, n + 1))  # [I + (1 - theta) dt A | dt f]
    np.multiply((1.0 - theta) * dt, A, out=rhs[:, :n])
    rhs[d, d] += 1.0
    rhs[:, n] = dt * f
    Pg = np.linalg.solve(lhs, rhs)
    return partial(np.matmul, Pg[:, :-1]), Pg[:, -1]


def _guard(moved: list, k: int, end: int, limit: float) -> int | None:
    """The divergence guard and fixed-point exit over rows k..end of the
    stepped columns ``moved``; every other column stays +0.0 past row 0.

    Returns the first step j in [k, end) whose next state repeats it bit for
    bit, by bisection, or None if the last step still moved the state: the
    step maps are deterministic, so once a state repeats, every later state
    repeats it.  Raises ArithmeticError instead at the first row from k + 1
    to j + 1 (or ``end``) whose max norm passes ``limit`` or is not finite.
    """
    def repeats(j):
        return all(np.array_equal(u[j + 1].view(np.int64), u[j].view(np.int64))
                   for u in moved)
    # Most guard blocks still move, so their last step is read first.
    stop = (k + bisect_left(range(k, end - 1), True, key=repeats)
            if repeats(end - 1) else None)
    last = end if stop is None else stop + 1
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.zeros(last - k)
        for u in moved:
            rows = np.max(np.abs(u[k + 1:last + 1]), axis=1, initial=0.0)
            norms = np.maximum(norms, rows)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms > limit))
    if bad.size:
        raise ArithmeticError(
            f"time integration diverged (state norm {norms[bad[0]]:.3e}); "
            "reduce dt or use theta >= 1/2")
    return stop


def evolve(system: SemiDiscreteSystem, initial: CoefficientSet, dt: float,
           steps: int, theta: float = 0.5) -> Trajectory:
    """Integrate the semi-discrete system by the theta scheme.

    Each parity block moves by the path its generator form names (see
    ``Trajectory``): a zero block is left at 0, an unforced diagonal one
    runs every step at once over the modes that move (``_diagonal_run``),
    and every other block steps by its (step, g) map, u <- step(u) + g
    (``_step_map``, which alone forms the dense block, or
    ``_diagonal_run``'s elementwise one), one guard block at a time.
    Returns the trajectory as one stacked coefficient set with a leading
    step axis, initial state included: ``u0c[k]``, ``uc[k]``, ``us[k]``.
    Once a step leaves the state bit-identical (``_guard`` bisects each
    guard block for the first such step; dense maps end a block where the
    coefficient of each one's mode 1 repeats), stepping stops and the stack
    ends with that state, step ``Trajectory.stationary_from``, which every
    later step repeats; otherwise it holds all steps + 1 states.  The stacks are
    allocated for the rows stepped, doubling from two guard blocks, so a
    run that stops early allocates few rows whatever ``steps`` is; only an
    unforced diagonal run, filled at once, takes all steps + 1 from the
    start.  ``Trajectory.modes`` names the modes each block stepped.
    Raises ArithmeticError at the first state whose max norm passes 1e12
    (1 + the initial max norm) or is not finite (or at a dense block that
    overflows, before a step), and ValueError for a coupled block above
    ``_DENSE_MODES`` modes before forming it.
    """
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not _is_int(steps) or steps < 0:
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    basis = system.basis
    if initial.basis.M != basis.M or not np.array_equal(
            initial.basis.lam_even, basis.lam_even):
        raise ValueError("initial coefficients built for a different basis")
    if np.ndim(initial.u0c) != 0:
        raise ValueError("initial coefficients must be a single state")
    dt, theta, steps = float(dt), float(theta), int(steps)
    # Row 0 of the even and the odd stack.  Column 0 of the even one holds
    # u0c (A_even's constant mode) until the end; that of the odd one is 0.
    start = np.zeros((2, basis.M + 1))
    start[0, 0], start[0, 1:], start[1, 1:] = initial.u0c, initial.uc[1:], initial.us[1:]
    record, modes, maps, runs = {}, {}, [], []
    for i, parity in enumerate(("even", "odd")):
        f, diagonal, coupled = system._block(parity)
        record[parity] = ("zero" if not (np.any(f) or np.any(start[i]))
                          else "step-map" if coupled else "diagonal")
        modes[parity] = range(0) if record[parity] == "zero" else range(1, basis.M + 1)
        if not steps or record[parity] == "zero":
            continue
        if coupled:
            cols, (step, g) = slice(i, None), _step_map(system._dense(parity), f, dt, theta)
        else:
            cols, P, g = _diagonal_run(diagonal, f, start[i, i:], dt, theta)
            cols, step = slice(cols.start + i, cols.stop + i), partial(np.multiply, P)
            modes[parity] = range(max(cols.start, 1), max(cols.stop, 1))
        if coupled or np.any(g):
            maps.append((i, cols, step, g))
        else:
            runs.append((i, cols, P, g))
    # A dense block's lowest mode, 1, settles last: a guard block ends where
    # it repeats.  A test per elementwise step would cost ~10% of the step.
    watch = "diagonal" not in record.values()
    # The stacks hold only the rows stepped: an unforced diagonal run fills
    # all steps + 1 at once, and the maps start with two guard blocks' rows
    # and double them as they step on.  Unwritten rows are not free: once a
    # process has freed a large block, glibc serves np.zeros from its heap
    # and zero-fills every row (its dynamic mmap threshold).
    rows = steps + 1 if runs else min(steps + 1, 2 * _GUARD_BLOCK + 1)
    stack = np.zeros((2, rows, basis.M + 1))
    stack[:, 0] = start
    for i, cols, P, g in runs:
        # Adding a zero g (of either sign) to the product changes at most a
        # zero's sign, and the product of a zero is a zero, so an unforced
        # run is one np.multiply.accumulate over the step axis with g added
        # once, with the bits of one step at a time.
        run = stack[i][:, cols]
        with np.errstate(over="ignore", invalid="ignore"):
            run[1:] = P
            np.multiply.accumulate(run, axis=0, out=run)
            run[1:] += g
    scale0 = 1.0 + float(np.max(np.abs(start)))
    limit, stationary_from, k, views = 1e12 * scale0, None, 0, None
    while k < steps and stationary_from is None:
        # Every run is filled already, so without a map one guard reads it whole.
        end = min(k + _GUARD_BLOCK, steps) if maps else steps
        if maps and end >= len(stack[0]):
            grown = np.zeros((2, min(steps + 1, 2 * len(stack[0])), basis.M + 1))
            grown[:, :k + 1] = stack[:, :k + 1]
            stack, views = grown, None
        if views is None:  # each block's view of the stacks, once per allocation
            views = [(step, g, stack[i][:, cols]) for i, cols, step, g in maps]
            moved = [stack[i][:, cols] for i, cols, *_ in maps + runs]
            lowest = [stack[i, :, 1].view(np.int64) for i, *_ in maps]  # mode 1
        # Steps past a divergence overflow silently; the guard reports the
        # first row that crossed the limit, as a per-step check would.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(k, end):
                for step, g, u in views:
                    step(u[j], u[j + 1])
                    u[j + 1] += g
                if watch and all(c[j + 1] == c[j] for c in lowest):
                    end = j + 1
                    break
        stationary_from = _guard(moved, k, end, limit)
        k = end
    n = steps + 1 if stationary_from is None else stationary_from + 1
    even, odd = stack[0, :n], stack[1, :n]
    u0c = even[:, 0].copy()
    if np.any(u0c.view(np.int64)):  # else writing +0.0 would only touch every page
        even[:, 0] = 0.0
    return Trajectory(basis=basis, u0c=u0c, uc=even, us=odd, record=record,
                      stationary_from=stationary_from, modes=modes)
