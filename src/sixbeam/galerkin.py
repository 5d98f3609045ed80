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
import scipy.linalg

from .coefficients import CoefficientSet, chi_vector, operator_matrix
from .eigenbasis import Basis

__all__ = [
    "BvpSpec",
    "MODEL_I",
    "MODEL_II",
    "SemiDiscreteSystem",
    "SteadySolution",
    "forcing_projection",
    "assemble_steady",
    "solve_steady",
    "assemble_semi_discrete",
    "model_ii_semi_discrete",
    "evolve",
]

_RESONANCE_GUARD = 1e-6


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
            object.__setattr__(self, attr, float(getattr(self, attr)))
        if self.a6 == 0.0:
            raise ValueError("a6 must be nonzero (sixth-order operator)")
        combined: dict = {}
        for item in self.forcing:
            try:
                p, c = item
            except (TypeError, ValueError):
                raise ValueError(
                    f"forcing entries must be (power, coefficient) pairs, got {item!r}")
            if not isinstance(p, (int, np.integer)) or p % 2 != 0 or not (0 <= p <= 12):
                raise ValueError(
                    f"forcing powers must be even integers in [0, 12], got {p!r}")
            combined[int(p)] = combined.get(int(p), 0.0) + float(c)
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


def _steady_matrix(spec: BvpSpec, basis: Basis):
    """(A, gamma0): the even-mode matrix and, when a4 != 0, Gamma's mean row.

    A[l-1, n-1] multiplies u_n in the equation projected onto psi_l:
    A = a4 Gamma^T + a2 Beta^T + diag(a0 - a6 lam^6).
    """
    lam = basis.lam_even[1:]
    A = np.diag(spec.a0 - spec.a6 * lam ** 6)
    gamma0 = None
    if spec.a2 != 0.0:
        A += spec.a2 * operator_matrix(basis, "even", "second_derivative").entries.T
    if spec.a4 != 0.0:
        gamma = operator_matrix(basis, "even", "fourth_derivative")
        A += spec.a4 * gamma.entries.T
        gamma0 = gamma.mean_row
    return A, gamma0


def assemble_steady(spec: BvpSpec, basis: Basis):
    """(A, fc, f0): dense even-mode system A u = fc plus the row-0 data."""
    A, _ = _steady_matrix(spec, basis)
    f0, fc = forcing_projection(spec, basis)
    return A, fc, f0


def _solve_dense(spec: BvpSpec, A: np.ndarray, fc: np.ndarray):
    """(uc_body, record): Cholesky when a4 = 0, otherwise (or on failure) LU.

    With a4 = 0 the matrix is symmetric and, for a well-posed spec, definite
    with the sign of -a6, so Cholesky of s A (s = -sign a6) both solves the
    system and tests definiteness; no pivot threshold is involved.
    """
    if spec.a4 != 0.0:
        return np.linalg.solve(A, fc), {"used": False, "reason": "matrix not symmetric"}
    s = -math.copysign(1.0, spec.a6)
    try:
        # (s A)^T is Fortran-ordered, so LAPACK factors it without a copy.
        factor = scipy.linalg.cho_factor((s * A).T, overwrite_a=True)
    except np.linalg.LinAlgError:
        warnings.warn("Cholesky factorization failed (matrix not definite); "
                      "falling back to a pivoted dense solve",
                      RuntimeWarning, stacklevel=3)
        return np.linalg.solve(A, fc), {"used": False, "reason": "not definite"}
    D = s * np.diag(factor[0]) ** 2
    record = {"used": True, "pivots_all_negative": bool(np.all(D < 0.0)),
              "pivot_min": float(np.min(D)), "pivot_max": float(np.max(D))}
    return s * scipy.linalg.cho_solve(factor, fc), record


def solve_steady(spec: BvpSpec, basis: Basis) -> SteadySolution:
    """Solve the steady BVP by Galerkin projection onto the even modes.

    The spec picks the path: a diagonal solve when a4 = a2 = 0, Cholesky
    when a4 = 0 (falling back to LU, with a warning, if the matrix is not
    definite), and LU when a4 != 0 (Gamma is genuinely asymmetric).  The
    result's ``record`` says which path ran.
    """
    if basis.M < 1:
        raise ValueError("basis must carry at least one mode")
    if spec.a4 == 0.0 and spec.a2 == 0.0:
        return _solve_diagonal(spec, basis)
    A, gamma0 = _steady_matrix(spec, basis)
    f0, fc = forcing_projection(spec, basis)
    uc_body, record = _solve_dense(spec, A, fc)
    corr = spec.a4 * float(gamma0 @ uc_body) if gamma0 is not None else 0.0
    u0c = _u0c_from_row0(spec, f0, corr)
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

    @property
    def f0c(self) -> float:
        return float(self.f_even[0])

    @property
    def fc(self) -> np.ndarray:
        return self.f_even[1:]

    @property
    def fs(self) -> np.ndarray:
        return self.f_odd


def assemble_semi_discrete(basis: Basis, B: float, T: float,
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
    A_even = np.zeros((M + 1, M + 1))
    A_even[0, 0] = reaction
    diag_even = reaction - basis.lam_even[1:] ** 6
    block = np.diag(diag_even)
    if B != 0.0:
        block = block + B * operator_matrix(basis, "even", "second_derivative").entries.T
    if T != 0.0:
        gamma_even = operator_matrix(basis, "even", "fourth_derivative")
        block = block - T * gamma_even.entries.T
        A_even[0, 1:] = -T * gamma_even.mean_row
    A_even[1:, 1:] = block
    A_odd = np.diag(reaction - basis.lam_odd[1:] ** 6)
    if B != 0.0:
        A_odd = A_odd + B * operator_matrix(basis, "odd", "second_derivative").entries.T
    if T != 0.0:
        A_odd = A_odd - T * operator_matrix(basis, "odd", "fourth_derivative").entries.T
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


def model_ii_semi_discrete(basis: Basis) -> SemiDiscreteSystem:
    """Semi-discrete system whose steady state is the model-II solution.

    du/dt = u'''''' + B u'' + reaction u - f with B, reaction, f taken from
    the model-II spec; at steady state this is exactly the model-II BVP.
    """
    f0, fc = forcing_projection(MODEL_II, basis)
    forcing = CoefficientSet(basis=basis, u0c=-f0,
                             uc=np.concatenate(([0.0], -fc)),
                             us=np.zeros(basis.M + 1))
    return assemble_semi_discrete(basis, B=MODEL_II.a2, T=0.0,
                                  forcing=forcing, reaction=MODEL_II.a0)


def evolve(system: SemiDiscreteSystem, initial: CoefficientSet, dt: float,
           steps: int, theta: float = 0.5) -> list:
    """Integrate the semi-discrete system by the theta scheme.

    Applies (I - theta dt A) u^{k+1} = (I + (1-theta) dt A) u^k + dt f with
    a single LU factorization per parity block.  Returns the trajectory as a
    list of steps + 1 coefficient sets (initial state included).
    """
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    basis = system.basis
    if initial.basis.M != basis.M or not np.array_equal(
            initial.basis.lam_even, basis.lam_even):
        raise ValueError("initial coefficients built for a different basis")
    u_even = np.concatenate(([initial.u0c], initial.uc[1:]))
    u_odd = initial.us[1:].copy()
    traj = [initial]
    if steps == 0:
        return traj
    dt, theta = float(dt), float(theta)
    n_even = basis.M + 1
    n_odd = basis.M
    lhs_even = np.eye(n_even) - theta * dt * system.A_even
    lhs_odd = np.eye(n_odd) - theta * dt * system.A_odd
    rhs_even = np.eye(n_even) + (1.0 - theta) * dt * system.A_even
    rhs_odd = np.eye(n_odd) + (1.0 - theta) * dt * system.A_odd
    lu_even = scipy.linalg.lu_factor(lhs_even)
    lu_odd = scipy.linalg.lu_factor(lhs_odd)
    scale0 = 1.0 + max(float(np.max(np.abs(u_even))),
                       float(np.max(np.abs(u_odd), initial=0.0)))
    for _ in range(int(steps)):
        u_even = scipy.linalg.lu_solve(lu_even, rhs_even @ u_even + dt * system.f_even)
        u_odd = scipy.linalg.lu_solve(lu_odd, rhs_odd @ u_odd + dt * system.f_odd)
        norm = max(float(np.max(np.abs(u_even))),
                   float(np.max(np.abs(u_odd), initial=0.0)))
        if not math.isfinite(norm) or norm > 1e12 * scale0:
            raise ArithmeticError(
                f"time integration diverged (state norm {norm:.3e}); "
                "reduce dt or use theta >= 1/2")
        traj.append(CoefficientSet(
            basis=basis, u0c=float(u_even[0]),
            uc=np.concatenate(([0.0], u_even[1:])),
            us=np.concatenate(([0.0], u_odd))))
    return traj
