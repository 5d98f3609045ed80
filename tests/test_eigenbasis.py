"""Eigenvalue solves, normalization, and eigenfunction evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_reference as ref
from sixbeam import coefficients as cf
from sixbeam import galerkin as gk
from sixbeam import oracle as oc
from sixbeam.eigenbasis import (
    MAX_MODES,
    Basis,
    Parity,
    build_basis,
    characteristic_residual,
    eigenvalue_asymptotic,
    eval_psi,
    psi_block,
    solve_eigenvalue,
)


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,lam", sorted(ref.LAM_EVEN.items()))
def test_even_eigenvalues_match_frozen(m, lam):
    got = solve_eigenvalue("even", m).lam
    assert got == pytest.approx(lam, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m,lam", sorted(ref.LAM_ODD.items()))
def test_odd_eigenvalues_match_frozen(m, lam):
    got = solve_eigenvalue("odd", m).lam
    assert got == pytest.approx(lam, rel=1e-14, abs=0.0)


def test_characteristic_residual_vanishes_at_frozen_roots():
    for table, parity in ((ref.LAM_EVEN, "even"), (ref.LAM_ODD, "odd")):
        for m, lam in table.items():
            assert abs(characteristic_residual(parity, lam)) < 1e-13


def test_residual_reported_on_eigenvalue():
    ev = solve_eigenvalue("even", 3)
    assert abs(ev.residual) < 1e-12
    assert ev.m == 3 and ev.parity is Parity.EVEN


def test_asymptotic_formula_values():
    assert eigenvalue_asymptotic("even", 4) == pytest.approx((4 + 1 / 6) * np.pi, rel=1e-15)
    assert eigenvalue_asymptotic("odd", 4) == pytest.approx((4 - 1 / 3) * np.pi, rel=1e-15)


def test_asymptotic_guess_error_collapses_by_mode_seven():
    # Beyond the bracketing range a single Newton polish suffices because the
    # asymptotic guess is already accurate to ~1e-16.
    for (parity, m), err in ref.GUESS_ERROR.items():
        lam = solve_eigenvalue(parity, m).lam
        guess = eigenvalue_asymptotic(parity, m)
        assert abs(lam - guess) <= max(4.0 * err, 5e-15)


def test_eigenvalue_families_interlace():
    basis = build_basis(40)
    lc, ls = basis.lam_even, basis.lam_odd
    # lambda_m^odd < lambda_m^even < lambda_{m+1}^odd for every m >= 1
    assert np.all(ls[1:] < lc[1:])
    assert np.all(lc[1:-1] < ls[2:])


def test_mode_zero_is_exact_zero():
    basis = build_basis(5)
    assert basis.lam_even[0] == 0.0
    assert np.isnan(basis.lam_odd[0])  # placeholder; odd family starts at m=1
    assert basis.mode_range("even") == range(0, 6)
    assert basis.mode_range("odd") == range(1, 6)


def test_invalid_mode_and_size_requests():
    with pytest.raises(ValueError):
        build_basis(0)
    with pytest.raises(ValueError):
        build_basis(MAX_MODES + 1)
    # m = 0 exists only in the even family (the constant mode).
    ev0 = solve_eigenvalue("even", 0)
    assert ev0.lam == 0.0 and ev0.residual == 0.0
    with pytest.raises(ValueError):
        solve_eigenvalue("odd", 0)
    with pytest.raises(ValueError):
        solve_eigenvalue("even", -1)
    with pytest.raises(ValueError):
        solve_eigenvalue("neither", 1)
    basis = build_basis(3)
    with pytest.raises(ValueError):
        basis.eigenvalue("odd", 0)
    with pytest.raises(ValueError):
        basis.eigenvalue("even", 4)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalization_constants_match_frozen(basis60):
    for m, c in ref.C_EVEN.items():
        assert basis60.c_even[m] == pytest.approx(c, rel=1e-13, abs=0.0)
    for m, c in ref.C_ODD.items():
        assert basis60.c_odd[m] == pytest.approx(c, rel=1e-13, abs=0.0)


def test_normalization_signs_and_limit(basis60):
    assert np.all(basis60.c_even[1:] < 0.0)
    assert np.all(basis60.c_odd[1:] > 0.0)
    assert np.max(np.abs(np.abs(basis60.c_even[5:]) - 1.0)) < 1e-10
    assert np.max(np.abs(np.abs(basis60.c_odd[5:]) - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# Eigenfunction evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parity,m,x,k,value", ref.PSI_PROBES)
def test_pointwise_probes_match_frozen(basis60, parity, m, x, k, value):
    got = eval_psi(basis60, parity, m, x, k)
    assert got == pytest.approx(value, rel=5e-13, abs=5e-13)


def test_constant_mode_evaluation(basis30):
    # The constant mode is stored un-normalized: psi_0 = 1, <psi_0, psi_0> = 2.
    xs = np.linspace(-1.0, 1.0, 7)
    assert np.all(eval_psi(basis30, "even", 0, xs, 0) == 1.0)
    for k in range(1, 7):
        assert eval_psi(basis30, "even", 0, 0.3, k) == 0.0


def test_psi_block_matches_scalar_eval(basis30):
    xs = np.array([-1.0, -0.618, 0.0, 0.25, 1.0])
    for parity in ("even", "odd"):
        for k in (0, 2, 5):
            block = psi_block(basis30, parity, xs, k)
            assert block.shape == (30, len(xs))
            lam = basis30.lam(parity)
            for m in (1, 7, 30):
                row = block[m - 1]
                col = [eval_psi(basis30, parity, m, float(x), k) for x in xs]
                # Boundary columns of high derivatives are cancellation zeros,
                # so allow roundoff at the derivative's natural scale lam^k.
                np.testing.assert_allclose(
                    row, col, rtol=1e-13, atol=1e-14 * max(1.0, lam[m] ** k))


def test_free_edge_boundary_conditions(basis60):
    # psi' = psi'' = psi^(5) = 0 at x = +-1, judged against the derivative's
    # natural magnitude lambda^k.
    for parity in ("even", "odd"):
        lam = basis60.lam(parity)
        for m in (1, 2, 10, 45):
            for k in (1, 2, 5):
                scale = max(1.0, lam[m] ** k)
                for x in (-1.0, 1.0):
                    assert abs(eval_psi(basis60, parity, m, x, k)) < 5e-13 * scale


def test_eigenfunction_differential_equation(basis60):
    # psi^(6) = -lambda^6 psi at interior points.
    xs = np.linspace(-0.95, 0.95, 9)
    for parity in ("even", "odd"):
        lam = basis60.lam(parity)
        for m in (1, 4, 20, 60):
            lhs = np.array([eval_psi(basis60, parity, m, float(x), 6) for x in xs])
            rhs = -lam[m] ** 6 * np.array(
                [eval_psi(basis60, parity, m, float(x), 0) for x in xs])
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10 * lam[m] ** 6)


def test_evaluation_argument_validation(basis30):
    with pytest.raises(ValueError):
        eval_psi(basis30, "even", 1, 1.5, 0)
    with pytest.raises(ValueError):
        eval_psi(basis30, "even", 1, 0.5, 7)
    with pytest.raises(ValueError):
        eval_psi(basis30, "even", 1, 0.5, -1)
    with pytest.raises(ValueError):
        eval_psi(basis30, "odd", 31, 0.5, 0)


# Each call passes ``flag`` (True or False) as one integer parameter.
_INTEGER_ENTRY_POINTS = {
    "build_basis": lambda b, flag: build_basis(flag),
    "solve_eigenvalue": lambda b, flag: solve_eigenvalue("even", flag),
    "eigenvalue_asymptotic": lambda b, flag: eigenvalue_asymptotic("even", flag),
    "Basis.eigenvalue": lambda b, flag: b.eigenvalue("even", flag),
    "eval_psi.m": lambda b, flag: eval_psi(b, "even", flag, 0.5),
    "eval_psi.k": lambda b, flag: eval_psi(b, "even", 1, 0.5, flag),
    "psi_block.k": lambda b, flag: psi_block(b, "even", [0.5], flag),
    "synthesize.k": lambda b, flag: cf.synthesize(gk.solve_steady(gk.MODEL_I, b),
                                                  0.5, flag),
    "evolve.steps": lambda b, flag: gk.evolve(
        gk.model_ii_semi_discrete(b), gk.solve_steady(gk.MODEL_I, b), 1e-4, flag),
    "residual_scan.points": lambda b, flag: oc.residual_scan(
        gk.MODEL_I, gk.solve_steady(gk.MODEL_I, b), flag),
    "quadrature_tables": lambda b, flag: oc.quadrature_tables(b, flag),
    "psi_reference.m": lambda b, flag: oc.psi_reference(b, "even", flag, 0.5),
    "psi_reference.k": lambda b, flag: oc.psi_reference(b, "even", 1, 0.5, flag),
    "make_rule": lambda b, flag: oc.make_rule(flag),
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
def test_integer_parameters_reject_bool(basis30, entry, flag):
    with pytest.raises(ValueError):
        _INTEGER_ENTRY_POINTS[entry](basis30, flag)


def test_no_overflow_for_large_basis():
    # Large-mode evaluation must stay in exponent-scaled form throughout.
    with np.errstate(over="raise", invalid="raise"):
        basis = build_basis(200)
        xs = np.linspace(-1.0, 1.0, 33)
        for parity in ("even", "odd"):
            block = psi_block(basis, parity, xs, 0)
            assert np.all(np.isfinite(block))
            assert np.max(np.abs(block)) < 2.0


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

_BASIS_FOR_PROPS = build_basis(40)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 40), x=st.floats(-1.0, 1.0), k=st.integers(0, 6))
def test_parity_symmetry(m, x, k):
    basis = _BASIS_FOR_PROPS
    # Differentiation flips symmetry: even functions have odd derivatives odd.
    even_sign = 1.0 if k % 2 == 0 else -1.0
    a = eval_psi(basis, "even", m, x, k)
    b = eval_psi(basis, "even", m, -x, k)
    scale = max(1.0, basis.lam_even[m] ** k)
    assert abs(a - even_sign * b) < 1e-12 * scale
    a = eval_psi(basis, "odd", m, x, k)
    b = eval_psi(basis, "odd", m, -x, k)
    assert abs(a + even_sign * b) < 1e-12 * max(1.0, basis.lam_odd[m] ** k)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 40), x=st.floats(-1.0, 1.0))
def test_sixth_derivative_relation_property(m, x):
    basis = _BASIS_FOR_PROPS
    for parity in ("even", "odd"):
        lam = basis.lam(parity)[m]
        lhs = eval_psi(basis, parity, m, x, 6)
        rhs = -lam ** 6 * eval_psi(basis, parity, m, x, 0)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, lam ** 6)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 300))
def test_asymptotic_ordering_property(m):
    # Odd eigenvalue m sits half a period below even eigenvalue m.
    lc = solve_eigenvalue("even", m).lam
    ls = solve_eigenvalue("odd", m).lam
    assert ls < lc
    assert abs(lc - ls - np.pi / 2) < 0.35 / max(1, m)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(7, 500))
def test_large_mode_matches_asymptotic_property(m):
    for parity in ("even", "odd"):
        lam = solve_eigenvalue(parity, m).lam
        assert abs(lam - eigenvalue_asymptotic(parity, m)) < 1e-12
