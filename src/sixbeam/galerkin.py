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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coefficients import (CoefficientSet, _cauchy_apply, _cauchy_dense, _cauchy_form,
                           _gamma_mean, chi_vector)
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

# Coupled solves (a2 or a4 nonzero) with more than this many modes run
# matrix-free right-preconditioned block-Jacobi GMRES, whatever a4 is, instead
# of dense Cholesky or LU (ladder in CHANGES.md).
# Cholesky keeps M <= 301, where its pivot record is part of the documented
# output (criterion 4 prints it at M = 100); LU keeps the same range, where
# it is as fast as GMRES or faster.
_KRYLOV_CROSSOVER = 301
_KRYLOV_RTOL = 1e-15        # stop when the least-squares residual <= this ||f||
_GMRES_MAX_ITERATIONS = 30  # specs tried need 2-4; each holds one more M-vector
_GMRES_ACCEPT = 1e-13       # largest ||A u - f|| / ||f|| a GMRES answer may keep
_JACOBI_BLOCK = 64          # modes per diagonal block of the preconditioner
_SUBSTITUTION_BLOCK = 64
_GUARD_BLOCK = 16           # evolve steps between divergence guards


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
            if not _is_int(p) or p % 2 != 0 or not (0 <= p <= 12):
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


def forcing_projection(spec: BvpSpec, basis: Basis):
    """(f0, fc): projections of the forcing onto the constant and even modes.

    f0 = <f, 1>; fc[i] = <f, psi_{i+1}^c> for i = 0..M-1.  Odd-mode
    projections vanish identically for even forcing.
    """
    f0 = float(_f0_exact(spec))
    fc = np.zeros(basis.M)
    for p, c in spec.forcing:
        if p == 0:
            continue  # constants are orthogonal to every nonconstant mode
        fc = fc + c * chi_vector(basis, p)
    return f0, fc


# ---------------------------------------------------------------------------
# Steady solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadySolution(CoefficientSet):
    """Coefficients of a steady solve plus the solver's record of its path.

    ``record`` is ``{"used": True, "pivots_all_negative", "pivot_min",
    "pivot_max"}`` when the Cholesky path ran (pivots of A = L diag(D) L^T),
    ``{"used": False, "path": "gmres", "iterations", "residual",
    "cond_estimate"}`` when the matrix-free block-Jacobi GMRES path ran:
    ``residual`` is ||A u - f|| / ||f|| from one final product and
    ``cond_estimate`` describes the block-preconditioned matrix.
    ``{"used": False, "reason": ...}`` when a dense LU solve ran, and
    ``{"used": False}`` for the diagonal path.
    """

    record: dict = field(default_factory=lambda: {"used": False})


def _u0c_from_row0(spec: BvpSpec, f0: float, corr: float) -> float:
    """Solve the constant-mode balance a0 u0c + corr = f0."""
    if spec.a0 != 0.0:
        if corr == 0.0:
            # Exact-rational path: keeps u0c bit-exact for rational forcing.
            return float(_f0_exact(spec) / Fraction(spec.a0))
        return (f0 - corr) / spec.a0
    residual = f0 - corr
    if abs(residual) > 1e-8 * max(1.0, abs(f0), abs(corr)):
        raise ArithmeticError(
            "constant-mode balance unsatisfiable: a0 = 0 but the projected "
            f"forcing mean leaves residual {residual:.3e}")
    return 0.0  # constant mode undetermined when a0 = 0; fix the mean to 0


def _resonance_check(spec: BvpSpec, lam: np.ndarray, denom: np.ndarray) -> None:
    guard = _RESONANCE_GUARD * abs(spec.a6) * lam ** 6
    bad = np.abs(denom) < guard
    if np.any(bad):
        m = int(np.argmax(bad)) + 1
        raise ArithmeticError(
            f"resonant diagonal: |a0 - a6 lam^6| = {abs(denom[m - 1]):.3e} at "
            f"mode {m} is below {_RESONANCE_GUARD:g} x a6 lam^6")


def _solve_diagonal(spec: BvpSpec, basis: Basis) -> SteadySolution:
    lam = basis.lam_even[1:]
    denom = spec.a0 - spec.a6 * lam ** 6
    _resonance_check(spec, lam, denom)
    f0, fc = forcing_projection(spec, basis)
    uc = np.concatenate(([0.0], fc / denom))
    u0c = _u0c_from_row0(spec, f0, 0.0)
    return SteadySolution(basis=basis, u0c=u0c, uc=uc,
                          us=np.zeros(basis.M + 1))


def _block_form(spec: BvpSpec, basis: Basis, parity: str):
    """(lam^6, X, Y, d): one parity's block in the form ``_cauchy_dense`` takes.

    block[l-1, n-1] multiplies u_n in the equation projected onto psi_l:
    block = a4 Gamma^T + a2 Beta^T + diag(a0 - a6 lam^6).  A table's
    transpose swaps its generators, (X, Y) -> (-Y, X), so the two tables
    stack into one numerator of rank <= 4.
    """
    lam6 = basis.lam(parity)[1:] ** 6
    d = spec.a0 - spec.a6 * lam6
    X, Y = [], []
    for a, kind in ((spec.a2, "second_derivative"), (spec.a4, "fourth_derivative")):
        if a != 0.0:
            _, Xk, Yk, diagonal = _cauchy_form(basis, parity, kind)
            d = d + a * diagonal
            X.append(-a * Yk)
            Y.append(Xk)
    return lam6, np.reshape(X, (-1, basis.M)), np.reshape(Y, (-1, basis.M)), d


def _mode_block(spec: BvpSpec, basis: Basis, parity: str):
    """(block, mean_row): one parity's block (see ``_block_form``); Gamma's
    mean row for even a4 != 0, else None."""
    mean_row = _gamma_mean(basis) if spec.a4 != 0.0 and parity == "even" else None
    return _cauchy_dense(*_block_form(spec, basis, parity)), mean_row


def assemble_steady(spec: BvpSpec, basis: Basis):
    """(A, fc, f0): dense even-mode system A u = fc plus the row-0 data."""
    A, _ = _mode_block(spec, basis, "even")
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
    record = {"used": True, "pivots_all_negative": bool(np.all(D < 0.0)),
              "pivot_min": float(np.min(D)), "pivot_max": float(np.max(D))}
    return s * _cho_solve(L, fc), record


def _operator(form):
    """v -> A v for the block that the ``_block_form`` tuple describes, without
    forming A: ``_cauchy_apply`` forms its off-diagonal part a block of rows at
    a time."""
    lam6, X, Y, d = form
    return lambda v: d * v + _cauchy_apply(lam6, X, Y, v)


def _block_jacobi(form):
    """v -> P^{-1} v for P the 64 x 64 diagonal blocks of A, or None if one
    is singular.

    The blocks (``_JACOBI_BLOCK`` modes each) come straight from the
    generators of the ``_block_form`` tuple and are inverted once, batched,
    in O(64 M) memory; the last one is padded with the identity.
    """
    lam6, X, Y, d = form
    M, n = len(d), _JACOBI_BLOCK
    blocks = np.tile(np.eye(n), (-(-M // n), 1, 1))
    for k, j in enumerate(range(0, M, n)):
        b, size = slice(j, j + n), min(n, M - j)
        blocks[k, :size, :size] = _cauchy_dense(lam6[b], X[:, b], Y[:, b], d[b])
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        return None
    padded = np.zeros(len(blocks) * n)

    def apply(v):
        padded[:M] = v
        return (inv @ padded.reshape(-1, n, 1)).reshape(-1)[:M]
    return apply


def _solve_gmres(spec: BvpSpec, basis: Basis, fc: np.ndarray):
    """(u, record) by block-Jacobi right-preconditioned GMRES on A u = f, or
    None (a singular diagonal block, the iteration cap, or a final residual
    above ``_GMRES_ACCEPT``).

    GMRES minimizes ||f - A P^{-1} y|| over the Krylov space, so its
    least-squares residual is that of A u = f with u = P^{-1} y.  It stops
    when that residual reaches ``_KRYLOV_RTOL`` ||f||, or when a step no
    longer halves it (rounding level); the true residual from one final
    product then decides.  ``cond_estimate`` is the ratio of the extreme
    singular values of the Arnoldi Hessenberg matrix of A P^{-1}.
    """
    form = _block_form(spec, basis, "even")
    precondition = _block_jacobi(form)
    if precondition is None:
        return None
    matvec = _operator(form)
    fnorm = float(np.linalg.norm(fc))
    if fnorm == 0.0:
        return np.zeros(basis.M), {"used": False, "path": "gmres", "iterations": 0,
                                   "residual": 0.0, "cond_estimate": None}
    m = _GMRES_MAX_ITERATIONS
    V, rotations = [fc / fnorm], []
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
    residual = float(np.linalg.norm(matvec(u) - fc)) / fnorm
    if not residual <= _GMRES_ACCEPT:
        return None
    # The rotations are orthogonal: R[:k, :k] has the Hessenberg matrix's
    # singular values.
    sigma = np.linalg.svd(R[:k, :k], compute_uv=False)
    return u, {"used": False, "path": "gmres", "iterations": k,
               "residual": residual, "cond_estimate": float(sigma[0] / sigma[-1])}


def _dense_fallback(method: str, reason: str, spec: BvpSpec, basis: Basis,
                    fc: np.ndarray, A: np.ndarray | None = None):
    """(uc_body, record) by dense LU after ``method`` failed, with a warning;
    ``A`` is the dense mode block if the failed method formed it."""
    warnings.warn(f"{method} failed ({reason}); falling back to a pivoted dense solve",
                  RuntimeWarning, stacklevel=4)
    if A is None:
        A, _ = _mode_block(spec, basis, "even")
    return np.linalg.solve(A, fc), {"used": False, "reason": reason}


def _solve_modes(spec: BvpSpec, basis: Basis, fc: np.ndarray):
    """(uc_body, record) for a coupled spec (a2 or a4 nonzero).

    Above the crossover block-Jacobi GMRES runs, whatever a4 is.  Up to it,
    a4 = 0 makes the matrix symmetric and, for a well-posed spec, definite
    with the sign of -a6, so with s = -sign a6 Cholesky of s A both solves
    the system and tests definiteness; a4 != 0 (Gamma is genuinely
    asymmetric) goes straight to LU.  When GMRES does not converge or s A
    is not definite a dense LU solve runs, with a warning.
    """
    if basis.M > _KRYLOV_CROSSOVER:
        solved = _solve_gmres(spec, basis, fc)
        if solved is not None:
            return solved
        return _dense_fallback("block-Jacobi GMRES", "no convergence", spec, basis, fc)
    A, _ = _mode_block(spec, basis, "even")
    if spec.a4 != 0.0:
        return np.linalg.solve(A, fc), {"used": False, "reason": "matrix not symmetric"}
    solved = _solve_cholesky(-math.copysign(1.0, spec.a6), A, fc)
    if solved is not None:
        return solved
    return _dense_fallback("Cholesky factorization", "not definite", spec, basis, fc, A)


def solve_steady(spec: BvpSpec, basis: Basis) -> SteadySolution:
    """Solve the steady BVP by Galerkin projection onto the even modes.

    The spec and M pick the path: a diagonal solve when a4 = a2 = 0;
    otherwise matrix-free block-Jacobi GMRES above ``_KRYLOV_CROSSOVER``
    modes (falling back to LU, with a warning, if it does not converge) and,
    up to the crossover, Cholesky when a4 = 0 (falling back to LU, with a
    warning, if the matrix is not definite) or LU when a4 != 0 (Gamma is
    genuinely asymmetric).
    The result's ``record`` says which path ran.
    """
    if basis.M < 1:
        raise ValueError("basis must carry at least one mode")
    if spec.a4 == 0.0 and spec.a2 == 0.0:
        return _solve_diagonal(spec, basis)
    f0, fc = forcing_projection(spec, basis)
    if spec.a4 != 0.0:
        uc_body, record = _solve_modes(spec, basis, fc)
        u0c = _u0c_from_row0(spec, f0, spec.a4 * float(_gamma_mean(basis) @ uc_body))
    else:
        # The constant-mode balance needs no mode coefficients here, so an
        # unsatisfiable one fails before the mode solve.
        u0c = _u0c_from_row0(spec, f0, 0.0)
        uc_body, record = _solve_modes(spec, basis, fc)
    uc = np.concatenate(([0.0], uc_body))
    return SteadySolution(basis=basis, u0c=u0c, uc=uc,
                          us=np.zeros(basis.M + 1), record=record)


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
    """

    basis: Basis
    B: float
    T: float
    reaction: float
    A_even: np.ndarray
    A_odd: np.ndarray
    f_even: np.ndarray
    f_odd: np.ndarray

    def __post_init__(self):
        M = self.basis.M
        if self.A_even.shape != (M + 1, M + 1) or self.f_even.shape != (M + 1,):
            raise ValueError("even block must have size M + 1")
        if self.A_odd.shape != (M, M) or self.f_odd.shape != (M,):
            raise ValueError("odd block must have size M")


def assemble_semi_discrete(basis: Basis, B: float = 0.0, T: float = 0.0,
                           forcing: CoefficientSet | None = None,
                           reaction: float = 0.0) -> SemiDiscreteSystem:
    """Assemble du_l/dt = sum_n [B beta_nl - T gamma_nl] u_n + (reaction - lam_l^6) u_l + f_l.

    ``forcing`` carries the expansion coefficients of the forcing function
    (None means zero forcing).  ``reaction`` is an optional zeroth-order
    coefficient; it is what makes the dense steady problems (a0 != 0)
    realizable as long-time limits.
    """
    B, T, reaction = float(B), float(T), float(reaction)
    M = basis.M
    spec = BvpSpec(a6=1.0, a4=-T, a2=B, a0=reaction)
    A_even = np.zeros((M + 1, M + 1))
    A_even[0, 0] = reaction
    A_even[1:, 1:], mean_row = _mode_block(spec, basis, "even")
    if mean_row is not None:
        A_even[0, 1:] = spec.a4 * mean_row
    A_odd, _ = _mode_block(spec, basis, "odd")
    if forcing is None:
        f_even = np.zeros(M + 1)
        f_odd = np.zeros(M)
    else:
        if forcing.basis.M != M:
            raise ValueError("forcing coefficients built for a different basis size")
        f_even = np.concatenate(([forcing.u0c], forcing.uc[1:]))
        f_odd = forcing.us[1:].copy()
    return SemiDiscreteSystem(basis=basis, B=B, T=T, reaction=reaction,
                              A_even=A_even, A_odd=A_odd,
                              f_even=f_even, f_odd=f_odd)


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


@dataclass(frozen=True)
class Trajectory(CoefficientSet):
    """The stacked states of ``evolve`` plus the path each parity block took.

    ``record`` is ``{"even": path, "odd": path}``, each path one of
    ``"zero"`` (zero forcing and zero start: the block stays exactly 0 and is
    never factored or stepped), ``"diagonal"`` (no off-diagonal entry, as
    B = T = 0 assembles: each mode steps on its own) or ``"step-map"`` (the
    dense one-step map).  ``stationary_from`` is the first step k from which
    every later state equals state k bit for bit (the stepping stopped there
    and copied it forward), or None if the last step still moved the state.
    """

    record: dict = field(default_factory=dict)
    stationary_from: int | None = None


def _same_bits(rows: np.ndarray, row: np.ndarray):
    """Whether each of ``rows`` (or the single row) has exactly the bits of ``row``."""
    return np.all(rows.view(np.int64) == row.view(np.int64), axis=-1)


def _block_path(A: np.ndarray, f: np.ndarray, u0: np.ndarray) -> str:
    """Which ``Trajectory.record`` path a parity block takes, from its own data."""
    if not np.any(f) and not np.any(u0):
        return "zero"
    if np.count_nonzero(A) == np.count_nonzero(A.diagonal()):
        return "diagonal"
    return "step-map"


def _step_map(path: str, A: np.ndarray, f: np.ndarray, dt: float, theta: float):
    """(step, P, g) with u^{k+1} = step(P, u^k) + g for a "diagonal" or "step-map" block.

    (I - theta dt A) u^{k+1} = (I + (1-theta) dt A) u^k + dt f.  A diagonal
    block gives the elementwise factor P = R(dt mu).  It is written with the
    reciprocal ``inv`` because OpenBLAS's triangular solve multiplies by the
    pivot's reciprocal, so there it gives the dense solve's bits exactly
    (``rhs / lhs`` differs in the last place).
    """
    if path == "diagonal":
        mu = A.diagonal()
        inv = 1.0 / (1.0 + (-theta * dt) * mu)
        return np.multiply, (1.0 + ((1.0 - theta) * dt) * mu) * inv, (dt * f) * inv
    # One solve gives [P | g]; its operands are built in place, because
    # transient M x M copies set a run's peak memory.
    n, d = len(f), np.arange(len(f))
    lhs = (-theta * dt) * A  # I - theta dt A
    lhs[d, d] += 1.0
    rhs = np.empty((n, n + 1))  # [I + (1 - theta) dt A | dt f]
    np.multiply((1.0 - theta) * dt, A, out=rhs[:, :n])
    rhs[d, d] += 1.0
    rhs[:, n] = dt * f
    Pg = np.linalg.solve(lhs, rhs)
    return np.matmul, Pg[:, :-1], Pg[:, -1]


def evolve(system: SemiDiscreteSystem, initial: CoefficientSet, dt: float,
           steps: int, theta: float = 0.5) -> Trajectory:
    """Integrate the semi-discrete system by the theta scheme.

    Each parity block moves by its own path (see ``Trajectory``): a zero
    block is left at 0, a diagonal one steps elementwise in O(M), and any
    other solves once for the step map u <- P u + g.  Returns the trajectory
    as one stacked coefficient set with a leading step axis of length
    steps + 1 (initial state included): ``u0c[k]``, ``uc[k]``, ``us[k]``.
    Once a step leaves the state bit-identical, stepping stops and that
    state fills the remaining rows (``Trajectory.stationary_from``).  Raises
    ArithmeticError at the first state whose max norm passes
    1e12 (1 + the initial max norm) or is not finite.
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
    # Column 0 of the even stack holds u0c (A_even's constant mode) until the end.
    even = np.zeros((steps + 1, basis.M + 1))
    odd = np.zeros((steps + 1, basis.M + 1))
    even[0, 0], even[0, 1:] = initial.u0c, initial.uc[1:]
    odd[0, 1:] = initial.us[1:]
    record, maps = {}, []
    for parity, A, f, u in (("even", system.A_even, system.f_even, even),
                            ("odd", system.A_odd, system.f_odd, odd[:, 1:])):
        record[parity] = _block_path(A, f, u[0])
        if steps and record[parity] != "zero":
            maps.append((*_step_map(record[parity], A, f, dt, theta), u))
    scale0 = 1.0 + max(float(np.max(np.abs(even[0]))), float(np.max(np.abs(odd[0]))))
    limit, stationary_from, k = 1e12 * scale0, None, 0
    while k < steps and stationary_from is None:
        end = min(k + _GUARD_BLOCK, steps)
        # Steps past a divergence overflow silently; the guard below reports
        # the first row that crossed the limit, as a per-step check would.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(k, end):
                for step, P, g, u in maps:
                    step(P, u[j], out=u[j + 1])
                    u[j + 1] += g
            norms = np.maximum(np.max(np.abs(even[k + 1:end + 1]), axis=1),
                               np.max(np.abs(odd[k + 1:end + 1]), axis=1))
        bad = np.flatnonzero(~np.isfinite(norms) | (norms > limit))
        if bad.size:
            raise ArithmeticError(
                f"time integration diverged (state norm {norms[bad[0]]:.3e}); "
                "reduce dt or use theta >= 1/2")
        # The step map is deterministic: once a state repeats bit for bit,
        # every later state is that state.
        if all(_same_bits(u[end], u[end - 1]) for *_, u in maps):
            at_end = np.ones(end + 1 - k, dtype=bool)
            for *_, u in maps:
                at_end &= _same_bits(u[k:end + 1], u[end])
            stationary_from = k + int(np.argmax(at_end))
            for *_, u in maps:
                u[end + 1:] = u[end]
        k = end
    u0c = even[:, 0].copy()
    even[:, 0] = 0.0
    return Trajectory(basis=basis, u0c=u0c, uc=even, us=odd, record=record,
                      stationary_from=stationary_from)
