"""Closed-form projection tables, forcing projection, and synthesis."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_reference as ref
from sixbeam import coefficients as cf
from sixbeam import eigenbasis as eb
from sixbeam import galerkin as gk
from sixbeam.eigenbasis import (MAX_MODES, SQRT3, Parity, build_basis, eigenvalue_asymptotic,
                                psi_block)

EV, OD = Parity.EVEN, Parity.ODD


# ---------------------------------------------------------------------------
# Scalar entries against the frozen 40-digit quadrature values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nm,value", sorted(ref.BETA_EVEN.items()))
def test_beta_even_matches_frozen(basis60, nm, value):
    n, m = nm
    assert cf.beta(basis60, EV, n, m) == pytest.approx(value, rel=5e-14, abs=0.0)


@pytest.mark.parametrize("nm,value", sorted(ref.BETA_ODD.items()))
def test_beta_odd_matches_frozen(basis60, nm, value):
    n, m = nm
    assert cf.beta(basis60, OD, n, m) == pytest.approx(value, rel=5e-14, abs=0.0)


@pytest.mark.parametrize("nm,value", sorted(ref.GAMMA_EVEN.items()))
def test_gamma_even_matches_frozen(basis60, nm, value):
    n, m = nm
    assert cf.gamma(basis60, EV, n, m) == pytest.approx(value, rel=5e-14, abs=0.0)


@pytest.mark.parametrize("nm,value", sorted(ref.GAMMA_ODD.items()))
def test_gamma_odd_matches_frozen(basis60, nm, value):
    n, m = nm
    assert cf.gamma(basis60, OD, n, m) == pytest.approx(value, rel=5e-14, abs=0.0)


@pytest.mark.parametrize("pm,value", sorted(ref.CHI.items()))
def test_chi_matches_frozen(basis60, pm, value):
    p, m = pm
    # The closed form cancels catastrophically only for large p at the
    # smallest eigenvalue; even there it keeps ~12 digits.
    tol = 5e-12 if (p >= 10 and m == 1) else 5e-14
    assert cf.chi(basis60, p, m) == pytest.approx(value, rel=tol, abs=0.0)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def test_beta_table_is_symmetric(basis60):
    for parity in (EV, OD):
        B = cf.operator_matrix(basis60, parity, "second_derivative").entries
        scale = np.maximum(np.abs(B), np.abs(B.T))
        assert np.max(np.abs(B - B.T) / np.maximum(scale, 1e-30)) < 1e-12


def test_gamma_table_is_not_symmetric(basis60):
    # The fourth-derivative projection is *not* symmetric entrywise; only the
    # assembled operator combination is.
    G = cf.operator_matrix(basis60, EV, "fourth_derivative").entries
    assert abs(G[0, 1] - G[1, 0]) > 1.0


def test_matrices_match_scalar_entries(basis60):
    for parity in (EV, OD):
        B = cf.operator_matrix(basis60, parity, "second_derivative").entries
        G = cf.operator_matrix(basis60, parity, "fourth_derivative").entries
        for n in (1, 2, 7, 41, 60):
            for m in (1, 3, 19, 60):
                assert B[n - 1, m - 1] == pytest.approx(
                    cf.beta(basis60, parity, n, m), rel=1e-12, abs=1e-15)
                assert G[n - 1, m - 1] == pytest.approx(
                    cf.gamma(basis60, parity, n, m), rel=1e-12, abs=1e-15)


def _edge_long_double(basis, parity):
    """lam^6 and the boundary values psi^(k)(1), k = 0, 3, 4, in long double
    from the basis's stored lam, c, w and e1: c (lam^k trig + Re[w z^k Phi_k(1)]),
    with z = (sqrt3 lam + i lam) / 2 and 2 Phi_k(1) = e^{i lam/2} +- e1 e^{-i lam/2}."""
    ld = np.longdouble
    lam, c, e1 = (getattr(basis, f"{name}_{parity.value}")[1:].astype(ld)
                  for name in ("lam", "c", "e1"))
    w = getattr(basis, f"w_{parity.value}")[1:].astype(np.clongdouble)
    z = (np.sqrt(ld(3)) * lam + 1j * lam) / 2
    phase = np.cos(lam / 2) + 1j * np.sin(lam / 2)
    sin1, cos1 = np.sin(lam), np.cos(lam)
    even = parity is EV
    rows = []
    for k, trig in ((0, cos1 if even else sin1), (3, sin1 if even else -cos1),
                    (4, cos1 if even else sin1)):
        sigma = (1 if even else -1) * (-1) ** k
        layer = np.real(w * z ** k * (phase + sigma * e1 / phase) / 2)
        rows.append(c * (lam ** k * trig + layer))
    return lam ** 6, rows


# Long-double reference error of the off-diagonal tables: bounds on the median
# and the maximum per M.  Measured on AVX-512 and on numpy's baseline kernels:
# medians 1.8-4.0e-16; maxima 0.9e-14-2.3e-14 (M = 60), 9.0e-14-2.8e-13
# (M = 500) and 4.3e-13-1.6e-12 (M = 2000), on adjacent high modes whose
# numerator cancels ~2m-fold.
_TABLE_BOUNDS = {60: 3e-14, 500: 4e-13, 2000: 2.5e-12}


@pytest.mark.parametrize("M", sorted(_TABLE_BOUNDS))
@pytest.mark.parametrize("parity", [EV, OD])
def test_tables_match_a_long_double_reference(M, parity):
    # Green's identity from the boundary values, every step in long double;
    # the frozen values (M = 60) and quadrature (K <= 50) do not reach M = 2000.
    basis = build_basis(M)
    lam6, (psi, psi3, psi4) = _edge_long_double(basis, parity)
    for kind in ("second_derivative", "fourth_derivative"):
        table = cf.operator_matrix(basis, parity, kind).entries
        errors = []
        for j in range(0, M, 250):
            n = slice(j, j + 250)
            if kind == "second_derivative":
                num = psi4[n, None] * psi3 - psi3[n, None] * psi4
            else:
                num = lam6[n, None] * (psi3[n, None] * psi - psi[n, None] * psi3)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = 2 * num / (lam6[n, None] - lam6)
            off = np.ones(want.shape, dtype=bool)
            off[np.arange(len(want)), j + np.arange(len(want))] = False
            off &= want != 0
            errors.append(np.abs(table[n][off] / want[off] - 1).astype(float))
        errors = np.concatenate(errors)
        assert np.median(errors) <= 5e-16, kind
        assert np.max(errors) <= _TABLE_BOUNDS[M], kind



def _elementwise_ratio(kind, parity, lam, q, e1):
    """The T/U/V/W ratio forms the off-diagonal tables were built from before
    the Green's-identity form, exponent-scaled as the basis stores them:
    T = (cos 2l - sqrt3 sin l sinh s - cos l cosh s)/(cos l - cosh s),
    U = (sin 2l - sqrt3 cos l sinh s + sin l cosh s)/(cos l + cosh s),
    V = (-3 + cos 2l + 2 cos l cosh s)/(cos l - cosh s),
    W = (cosh s - cos l)/(cos l + cosh s)."""
    e2 = e1 * e1
    sh1, ch1 = 0.5 * (1.0 - e2), 0.5 * (1.0 + e2)
    if kind == "second_derivative" and parity is EV:
        num = np.cos(2.0 * lam) * e1 - SQRT3 * np.sin(lam) * sh1 - np.cos(lam) * ch1
        return num / (-0.5 * q)
    if kind == "second_derivative":
        num = np.sin(2.0 * lam) * e1 - SQRT3 * np.cos(lam) * sh1 + np.sin(lam) * ch1
        return num / (0.5 * q)
    if parity is EV:
        num = (-3.0 + np.cos(2.0 * lam)) * e1 + 2.0 * np.cos(lam) * ch1
        return num / (-0.5 * q)
    return (ch1 - np.cos(lam) * e1) / (0.5 * q)


def _elementwise_offdiag(kind, parity, lam, c, r):
    """The elementwise off-diagonal forms that preceded the generator form.

    Gamma is pref x bracket and beta is (g1 h1 - g2 h2) / gap, each over the
    whole square (the diagonal is left to the caller).
    """
    ln, cn, rn = lam[:, None], c[:, None], r[:, None]
    lm, cm, rm = lam[None, :], c[None, :], r[None, :]
    gap = lm ** 6 - ln ** 6
    np.fill_diagonal(gap, 1.0)
    if kind == "second_derivative":
        t = np.sin if parity is EV else (lambda x: -np.cos(x))
        g1, h1 = 6.0 * cn * ln ** 3 * t(ln), cm * lm ** 4 * rm
        g2, h2 = 6.0 * cn * ln ** 4 * rn, cm * lm ** 3 * t(lm)
        return (g1 * h1 - g2 * h2) / gap
    if parity is EV:
        pref = 3.0 * cn * cm * ln ** 6 / gap
        bracket = -lm ** 3 * np.sin(lm) * rn + ln ** 3 * np.sin(ln) * rm
    else:
        pref = 6.0 * cn * cm * ln ** 6 / -gap
        bracket = (lm ** 3 * np.cos(lm) * np.sin(ln) * rn
                   - ln ** 3 * np.sin(lm) * np.cos(ln) * rm)
    return pref * bracket


_DIAGONAL = {"second_derivative": cf._beta_diagonal,
             "fourth_derivative": cf._gamma_diagonal}


@pytest.mark.parametrize("kind", ["second_derivative", "fourth_derivative"])
@pytest.mark.parametrize("parity", [EV, OD])
def test_tables_match_the_elementwise_forms_at_m2000(kind, parity):
    # An independent double-precision derivation of the same tables: the
    # closed-form ratio forms, not the boundary values at x = 1.
    basis = build_basis(2000)
    table = cf.operator_matrix(basis, parity, kind).entries
    lam, c, q, e1 = cf._family(basis, parity)
    reference = _elementwise_offdiag(kind, parity, lam, c,
                                     _elementwise_ratio(kind, parity, lam, q, e1))
    np.fill_diagonal(reference, _DIAGONAL[kind](parity, lam, c, q, e1))
    assert np.max(np.abs(table - reference)) <= 1e-15 * np.max(np.abs(table))

# ---------------------------------------------------------------------------
# The Cauchy-like kernels
# ---------------------------------------------------------------------------

def _kernel_form(basis, parity, rank):
    """(lam6, X, Y): beta's generators (rank 2), or beta's and gamma's
    stacked (rank 4, the numerator of an a2 and a4 block)."""
    forms = [cf._cauchy_form(basis, parity, kind)
             for kind in ("second_derivative", "fourth_derivative")[:rank // 2]]
    return forms[0][0], np.vstack([f[1] for f in forms]), np.vstack([f[2] for f in forms])


def _full_width_cauchy_dense(lam6, X, Y, diagonal):
    """``coefficients._cauchy_dense`` as it was before the product became
    skew-symmetric: full-width gap rows, 256 at a time.  The bit-for-bit
    reference below."""
    table = np.empty((len(lam6), len(lam6)))
    for j in range(0, len(lam6), 256):
        block = slice(j, j + 256)
        gap = np.subtract(lam6, lam6[block, None])
        i = np.arange(len(gap))
        gap[i, j + i] = np.inf
        np.matmul(X[:, block].T, Y, out=table[block])
        table[block] /= gap
    np.fill_diagonal(table, diagonal)
    return table


@pytest.mark.parametrize("M", [60, 301, 500, 2000])
def test_cauchy_dense_keeps_its_bits(M):
    basis = build_basis(M)
    for parity in (EV, OD):
        for kind in ("second_derivative", "fourth_derivative"):
            form = cf._cauchy_form(basis, parity, kind)
            got, want = cf._cauchy_dense(*form), _full_width_cauchy_dense(*form)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (parity, kind)


@pytest.mark.parametrize("rank", [0, 2, 4])
def test_cauchy_dense_into_a_strided_view_keeps_its_bits(rank):
    # SemiDiscreteSystem.A_even forms its mode block in place, in the view
    # A[1:, 1:] whose rows are M + 1 apart; M = 300 ends with a partial
    # block of gap rows.
    basis = build_basis(300)
    for parity in (EV, OD):
        if rank:
            lam6, X, Y = _kernel_form(basis, parity, rank)
        else:  # a rank-0 numerator: the diagonal alone
            lam6, X, Y = basis.lam(parity)[1:] ** 6, np.empty((0, 300)), np.empty((0, 300))
        diagonal = -lam6
        A = np.full((301, 301), np.nan)
        got = cf._cauchy_dense(lam6, X, Y, diagonal, out=A[1:, 1:])
        want = cf._cauchy_dense(lam6, X, Y, diagonal)
        assert got.base is A
        assert np.array_equal(A[1:, 1:].view(np.int64), want.view(np.int64)), parity
        assert np.isnan(A[0]).all() and np.isnan(A[:, 0]).all()  # left as they were


def _kernel_product(basis, parity, rank):
    """(lam6, X, Y, product): ``_kernel_form`` and its fast multipole product."""
    lam6, X, Y = _kernel_form(basis, parity, rank)
    plan = cf._cauchy_plan(basis.lam(parity)[1:])
    return lam6, X, Y, lambda v: plan(X, Y, v)


@pytest.mark.parametrize("rank", [2, 4])
def test_cauchy_apply_against_a_long_double_reference(rank):
    # Normwise error relative to the scale |X| |C| |Y| |v| of the rounding
    # the product cannot avoid, on every row at M = 2000 and on 256 sampled
    # rows at MAX_MODES: 2.3e-17 and 1.5e-17 (rank 2), 1.9e-17 and 1.4e-17
    # (rank 4) measured, against 4.1e-17 and 2.9e-17 at M = 2000 for the
    # exact kernel 64 rows at a time.
    for M, rows in ((2000, np.arange(2000)), (MAX_MODES, np.arange(39, MAX_MODES, 39))):
        lam6, X, Y, product = _kernel_product(build_basis(M), EV, rank)
        v = np.random.default_rng(rank).standard_normal(M)
        got = product(v)[rows]
        ld = np.longdouble
        want, scale = np.empty(len(rows), dtype=ld), np.empty(len(rows), dtype=ld)
        W = (Y.astype(ld) * v.astype(ld)).T
        for j in range(0, len(rows), 250):
            block = rows[j:j + 250]
            gap = lam6.astype(ld) - lam6[block, None].astype(ld)
            gap[np.arange(len(block)), block] = np.inf
            C = 1 / gap
            want[j:j + 250] = np.sum(X[:, block].T.astype(ld) * (C @ W), axis=1)
            scale[j:j + 250] = np.sum(np.abs(X[:, block].T.astype(ld)) * (np.abs(C) @ np.abs(W)),
                                      axis=1)
        err = np.linalg.norm((got - want).astype(float))
        assert err <= 1e-16 * np.linalg.norm(scale.astype(float)), M


@pytest.mark.parametrize("M", [1, 2, 63, 64, 65, 129, 257, 1000])
def test_cauchy_apply_matches_the_dense_kernel(M):
    # One row, a partial leaf, exactly one leaf and one row over; from
    # M = 129 (four leaves) on the far field runs, on two and three levels
    # of the tree at M = 257 and 1000.  Measured worst case 2.3e-16.
    basis = build_basis(M)
    for parity, rank in itertools.product((EV, OD), (2, 4)):
        lam6, X, Y, product = _kernel_product(basis, parity, rank)
        v = np.random.default_rng(M).standard_normal(M)
        want = cf._cauchy_dense(lam6, X, Y, 0.0) @ v
        scale = np.abs(cf._cauchy_dense(lam6, np.abs(X), np.abs(Y), 0.0)) @ np.abs(v)
        assert np.all(np.abs(product(v) - want) <= 1e-15 * scale), (parity, rank)


@pytest.mark.parametrize("M", [302, 1000])
@pytest.mark.parametrize("rank", [2, 4])
def test_cauchy_operator_keeps_its_bits(M, rank):
    # Two builds from the same basis give the same bits, and a product
    # changes nothing the next one reads.
    basis = build_basis(M)
    product, again = (_kernel_product(basis, EV, rank)[3] for _ in range(2))
    rng = np.random.default_rng(M + rank)
    for v in (rng.standard_normal(M), rng.standard_normal(M) / np.arange(1, M + 1) ** 4):
        want = product(v)
        assert np.array_equal(product(v), want)
        assert np.array_equal(again(v), want)


@pytest.mark.parametrize("M", [129, 2000, 3000])
@pytest.mark.parametrize("rank", [2, 4])
def test_cauchy_apply_reduction_keeps_the_bits_of_the_row_sum(M, rank):
    # A product ends with out[i] = sum_k X[k, i] acc[i, k], summed down the
    # columns of X * acc.T; the row sums of X.T * acc gave the same bits.
    # acc depends on Y and v alone, and X = e_k reads its column k exactly
    # (the other terms are zeros).  Two columns in five of X are zeros of
    # either sign, so those rows sum signed zeros (numpy sums from +0.0).
    basis = build_basis(M)
    _, X, Y = _kernel_form(basis, EV, rank)
    plan = cf._cauchy_plan(basis.lam_even[1:])
    v = np.random.default_rng(M + rank).standard_normal(M)
    acc = np.stack([plan(np.eye(rank)[:, [k]] * np.ones(M), Y, v) for k in range(rank)],
                   axis=1)
    X = X.copy()
    X[:, ::5] = np.where(np.arange(rank)[:, None] % 2, 0.0, -0.0)
    X[:, 2::5] = -0.0
    got, want = plan(X, Y, v), np.sum(X.T * acc, axis=1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    zeros = np.r_[0:M:5, 2:M:5]
    assert np.all((X.T * acc)[zeros] == 0.0) and np.any(np.signbit(X.T * acc)[zeros])


def test_cauchy_operator_holds_memory_linear_in_m():
    # M = 2500 and MAX_MODES both have 40-mode leaves (64 and 256 of them):
    # 3.25 and 13.3 MB measured, ~1300 bytes per mode at both, where the
    # exact kernel took ~4 M bytes per mode.  A basis fresh from a cleared
    # memo has no plan yet, so the one it keeps is built while traced.
    for M in (2500, MAX_MODES):
        eb._build_basis.cache_clear()
        basis = build_basis(M)
        lam6, X, Y = _kernel_form(basis, EV, 4)
        tracemalloc.start()
        try:
            product = cf._basis_plan(basis, EV)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1400 * M, M
        del product


def test_forms_and_plans_are_built_once_per_basis():
    M = 1000
    basis = build_basis(M)
    for kind in ("second_derivative", "fourth_derivative"):
        form = cf._cauchy_form(basis, EV, kind)
        assert cf._cauchy_form(basis, "even", kind) is form
        for array in form:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    assert cf._basis_plan(basis, "even") is cf._basis_plan(basis, EV)
    spec = gk.manufactured_spec(1.0, -20.0, -5544.0, -199584.0)
    v = np.random.default_rng(M).standard_normal(M)
    cached = gk._operator(gk._block_form(spec, basis, "even"), basis, "even")(v)
    # A replaced basis starts with an empty slot, so it derives its own forms
    # and plan from its own eigenvalues.
    other = dataclasses.replace(basis, lam_even=basis.lam_even * (1.0 + 1e-9))
    for kind in ("second_derivative", "fourth_derivative"):
        got = cf._cauchy_form(other, EV, kind)
        for a, b in zip(got, cf._cauchy_form(other, EV, kind, slice(None))):
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), kind
        assert not np.array_equal(got[3], cf._cauchy_form(basis, EV, kind)[3])
    _, X, Y, d = form = gk._block_form(spec, other, "even")
    got = gk._operator(form, other, "even")(v)
    want = d * v + cf._cauchy_plan(other.lam_even[1:])(X, Y, v)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.array_equal(got, cached)


def test_even_gamma_mean_row(basis60):
    G = cf.operator_matrix(basis60, EV, "fourth_derivative")
    assert G.mean_row is not None
    for n in (1, 2, 5, 8):
        assert G.mean_row[n - 1] == pytest.approx(
            ref.GAMMA_EVEN[(n, 0)], rel=5e-14, abs=0.0)
    lam, c = basis60.lam_even[1:], basis60.c_even[1:]
    np.testing.assert_allclose(G.mean_row, 6.0 * c * lam ** 3 * np.sin(lam),
                               rtol=1e-13)


def test_odd_matrices_have_no_mean_row(basis60):
    assert cf.operator_matrix(basis60, OD, "fourth_derivative").mean_row is None
    assert cf.operator_matrix(basis60, EV, "second_derivative").mean_row is None


def test_sixth_derivative_matrix_is_diagonal(basis60):
    for parity in (EV, OD):
        S = cf.operator_matrix(basis60, parity, "sixth_derivative").entries
        lam = basis60.lam(parity)[1:]
        np.testing.assert_array_equal(S, np.diag(-lam ** 6))


def test_chi_vector_matches_scalar(basis60):
    for p in cf.CHI_POWERS:
        v = cf.chi_vector(basis60, p)
        assert v.shape == (60,)
        for m in (1, 2, 5, 20, 60):
            assert v[m - 1] == cf.chi(basis60, p, m)


def test_chi_vector_is_kept_once_per_basis_and_power():
    # One read-only array per (basis, p), with the bits of _chi; a basis
    # built again after the memo is cleared starts with an empty slot.
    basis = build_basis(1000)
    kept = {p: cf.chi_vector(basis, p) for p in cf.CHI_POWERS}
    assert len({id(v) for v in kept.values()}) == len(cf.CHI_POWERS)
    for p, v in kept.items():
        assert cf.chi_vector(basis, p) is v
        assert np.array_equal(v.view(np.int64), cf._chi(basis, p).view(np.int64))
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0.0
    eb._build_basis.cache_clear()
    rebuilt = build_basis(1000)
    assert rebuilt is not basis and rebuilt._derived == {}
    for p, v in kept.items():
        again = cf.chi_vector(rebuilt, p)
        assert again is not v
        assert np.array_equal(again.view(np.int64), v.view(np.int64))
    # A replaced basis derives its own from its own eigenvalues.
    other = dataclasses.replace(basis, lam_even=basis.lam_even * (1.0 + 1e-9))
    got = cf.chi_vector(other, 8)
    assert np.array_equal(got.view(np.int64), cf._chi(other, 8).view(np.int64))
    assert not np.array_equal(got, kept[8])


def _bench_shaped_specs(count: int):
    """Seeded definite specs in the benchmark's solve ranges, exact solution
    (x^2 - 1)^6; every other one has a4 != 0."""
    rng = np.random.default_rng(20260)
    for i in range(count):
        a6, a2, a0 = rng.uniform(0.8, 1.25), rng.uniform(-2000.0, 6000.0), -rng.uniform(2.5e5, 4e5)
        a4 = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 30.0) if i % 2 else 0.0
        yield gk.manufactured_spec(a6, a4, a2, a0)


def test_low_mode_forcing_projection_against_the_frozen_chi(basis60):
    # f_m = sum_p c_p chi_p(m) with |c_p| up to ~6e6 cancels, and chi_12(1)
    # itself cancels ~1e3-fold, so the last bits of psi_1's boundary values
    # set f_1's error.  Measured over these specs, on AVX-512 and on numpy's
    # baseline kernels: f_1 median 2.0-2.7e-14, max 5.3-6.4e-14; f_2 max
    # 1.7e-14.
    errors = {1: [], 2: []}
    for spec in _bench_shaped_specs(40):
        _, fc = gk.forcing_projection(spec, basis60)
        for m in errors:
            want = sum((Fraction(c) * Fraction(ref.CHI[(p, m)]) for p, c in spec.forcing if p),
                       Fraction(0))
            errors[m].append(abs(float(Fraction(fc[m - 1]) / want - 1)))
    assert max(errors[1]) <= 1e-13
    assert max(errors[2]) <= 5e-14


def test_tables_do_not_depend_on_basis_size(basis30, basis60):
    for parity in (EV, OD):
        B30 = cf.operator_matrix(basis30, parity, "second_derivative").entries
        B60 = cf.operator_matrix(basis60, parity, "second_derivative").entries
        np.testing.assert_array_equal(B30, B60[:30, :30])
    np.testing.assert_array_equal(cf.chi_vector(basis30, 8),
                                  cf.chi_vector(basis60, 8)[:30])


# ---------------------------------------------------------------------------
# Index conventions and validation
# ---------------------------------------------------------------------------

def test_constant_mode_rows_vanish(basis30):
    assert cf.beta(basis30, EV, 0, 3) == 0.0
    assert cf.beta(basis30, EV, 3, 0) == 0.0
    assert cf.gamma(basis30, EV, 0, 3) == 0.0
    assert cf.gamma(basis30, EV, 3, 0) != 0.0  # mean-row column is nontrivial


def test_invalid_indices_raise(basis30):
    with pytest.raises(ValueError):
        cf.gamma(basis30, OD, 3, 0)
    with pytest.raises(ValueError):
        cf.beta(basis30, EV, 31, 1)
    with pytest.raises(ValueError):
        cf.chi(basis30, 3, 1)
    with pytest.raises(ValueError):
        cf.chi(basis30, 2, 0)
    with pytest.raises(ValueError):
        cf.operator_matrix(basis30, EV, "third_derivative")
    # The index is type-checked before m = 0 selects gamma's mean row.
    for bad in (0.0, 1.0, False, True):
        for table in (cf.beta, cf.gamma):
            with pytest.raises(ValueError):
                table(basis30, EV, 1, bad)
            with pytest.raises(ValueError):
                table(basis30, EV, bad, 1)


# ---------------------------------------------------------------------------
# Superseded printed variants
# ---------------------------------------------------------------------------

def test_superseded_variants_reproduce_printed_values(basis30):
    assert cf._superseded_beta_even_diag(basis30, 1) == pytest.approx(
        ref.SUPERSEDED_BETA_EVEN_DIAG_1, rel=1e-11)
    assert cf._superseded_beta_odd_offdiag(basis30, 1, 2) == pytest.approx(
        ref.SUPERSEDED_BETA_ODD_OFFDIAG_12, rel=1e-11)
    assert cf._superseded_beta_odd_diag(basis30, 1) == pytest.approx(
        ref.SUPERSEDED_BETA_ODD_DIAG_1, rel=1e-11)
    assert cf._superseded_chi12(basis30, 1) == pytest.approx(
        ref.SUPERSEDED_CHI12_1, rel=1e-11)


def test_superseded_even_diag_is_quarter_of_truth(basis30):
    for n in (1, 2, 5):
        assert cf._superseded_beta_even_diag(basis30, n) == pytest.approx(
            0.25 * cf.beta(basis30, EV, n, n), rel=1e-10)


def test_superseded_chi12_carries_extra_lambda_squared(basis30):
    for m in (1, 2, 5):
        lam = basis30.lam_even[m]
        assert cf._superseded_chi12(basis30, m) == pytest.approx(
            lam * lam * cf.chi(basis30, 12, m), rel=1e-10)


def test_superseded_variants_guard_against_overflow():
    big = build_basis(200)
    with pytest.raises(ValueError):
        cf._superseded_beta_even_diag(big, 200)


def test_superseded_variant_notes_structure(basis30):
    notes = cf.superseded_variant_notes(basis30)
    assert len(notes) == 4
    for note in notes:
        for key in ("formula", "issue", "example_indices",
                    "superseded_value", "corrected_value"):
            assert key in note
        assert note["superseded_value"] != pytest.approx(
            note["corrected_value"], rel=1e-3)


# ---------------------------------------------------------------------------
# Projection and synthesis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def projected(basis60):
    return cf.project(lambda x: (x * x - 1.0) ** 6, basis60)


def test_projection_of_model_solution(projected):
    assert projected.u0c == pytest.approx(ref.U0C_EXACT, rel=1e-14)
    for m, v in ref.UN_EXACT.items():
        if m == 50:
            # at the absolute quadrature noise floor; gate absolutely
            assert abs(projected.uc[m] - v) < 1e-14
        else:
            assert projected.uc[m] == pytest.approx(v, rel=5e-13)
    assert np.max(np.abs(projected.us)) < 1e-14  # even function: no odd part


def test_synthesize_round_trip(projected):
    xs = np.linspace(-1.0, 1.0, 41)
    err = np.max(np.abs(cf.synthesize(projected, xs) - (xs * xs - 1.0) ** 6))
    assert err < 1e-9


def test_synthesize_scalar_and_validation(projected, basis60):
    v = cf.synthesize(projected, 0.0)
    assert isinstance(v, float)
    assert v == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ValueError):
        cf.synthesize(projected, 1.2)
    with pytest.raises(ValueError):
        cf.synthesize(projected, 0.5, k=7)
    z = cf.CoefficientSet.zeros(basis60)
    assert cf.synthesize(z, 0.25) == 0.0
    with pytest.raises(ValueError):
        cf.CoefficientSet(basis=basis60, u0c=0.0,
                          uc=np.zeros(3), us=np.zeros(61))


def test_coefficient_set_rejects_nonzero_slot_zero(basis60):
    bad = np.zeros(61)
    bad[0] = 1.0
    with pytest.raises(ValueError):
        cf.CoefficientSet(basis=basis60, u0c=0.0, uc=bad, us=np.zeros(61))


def test_stacked_set_synthesizes_each_state(projected, basis60):
    odd = np.zeros(61)
    odd[3] = 0.25
    states = [projected,
              cf.CoefficientSet(basis=basis60, u0c=0.0, uc=np.zeros(61), us=odd),
              cf.CoefficientSet(basis=basis60, u0c=-1.0, uc=2.0 * projected.uc, us=odd)]
    stack = cf.CoefficientSet(basis=basis60,
                              u0c=np.array([s.u0c for s in states]),
                              uc=np.stack([s.uc for s in states]),
                              us=np.stack([s.us for s in states]))
    xs = np.linspace(-1.0, 1.0, 7)
    for k in (0, 2):
        vals = cf.synthesize(stack, xs, k=k)
        assert vals.shape == (3, 7)
        for row, state in zip(vals, states):
            np.testing.assert_allclose(row, cf.synthesize(state, xs, k=k),
                                       rtol=1e-13, atol=1e-12)
    at = cf.synthesize(stack, 0.25)
    assert at.shape == (3,)
    assert at[1] == pytest.approx(cf.synthesize(states[1], 0.25), rel=1e-13)


def test_stacked_set_validation(basis60):
    with pytest.raises(ValueError):  # uc/us must carry u0c's leading axes
        cf.CoefficientSet(basis=basis60, u0c=np.zeros(2),
                          uc=np.zeros(61), us=np.zeros(61))
    bad = np.zeros((2, 61))
    bad[1, 0] = 1.0
    with pytest.raises(ValueError):  # slot 0 is checked in every state
        cf.CoefficientSet(basis=basis60, u0c=np.zeros(2),
                          uc=np.zeros((2, 61)), us=bad)


def test_constant_only_series(basis60):
    only_mean = cf.CoefficientSet(basis=basis60, u0c=3.0,
                                  uc=np.zeros(61), us=np.zeros(61))
    xs = np.linspace(-1, 1, 5)
    np.testing.assert_allclose(cf.synthesize(only_mean, xs), 1.5)
    assert cf.synthesize(only_mean, 0.3, k=2) == 0.0


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

_B40 = build_basis(40)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), m=st.integers(1, 40),
       parity=st.sampled_from([EV, OD]))
def test_beta_symmetry_property(n, m, parity):
    a = cf.beta(_B40, parity, n, m)
    b = cf.beta(_B40, parity, m, n)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40), parity=st.sampled_from([EV, OD]))
def test_beta_diagonal_negative_property(n, parity):
    # <psi_n'', psi_n> = -<psi_n', psi_n'> < 0 by integration by parts.
    assert cf.beta(_B40, parity, n, n) < 0.0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40), parity=st.sampled_from([EV, OD]))
def test_gamma_diagonal_positive_property(n, parity):
    # <psi_n'''', psi_n> = <psi_n'', psi_n''> > 0 by double integration by parts.
    assert cf.gamma(_B40, parity, n, n) > 0.0


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 40), p=st.sampled_from(list(cf.CHI_POWERS)))
def test_chi_sign_alternates_property(m, p):
    # <x^p, psi_m> inherits the sign of the boundary value psi_m(1) ~ (-1)^m.
    value = cf.chi(_B40, p, m)
    assert value != 0.0
    assert (value > 0) == (m % 2 == 1)


@pytest.mark.parametrize("M", [3, 5])
def test_synthesize_keeps_the_shape_of_multidimensional_points(M):
    # Each point's value is that of the flattened call, for one state and
    # for a stack of two: shape u0c.shape + x.shape.
    basis = build_basis(M)
    n = np.arange(1, M + 1, dtype=float)
    uc = np.concatenate(([0.0], 1.0 / n ** 2))
    us = np.concatenate(([0.0], -0.5 / n ** 3))
    xs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    for coeffs in (cf.CoefficientSet(basis, 0.5, uc, us),
                   cf.CoefficientSet(basis, np.array([0.5, -1.0]),
                                     np.stack((uc, 2.0 * uc)), np.stack((us, -us)))):
        for k in (0, 2):
            got = cf.synthesize(coeffs, xs, k)
            flat = cf.synthesize(coeffs, xs.reshape(-1), k)
            assert got.shape == np.shape(coeffs.u0c) + (3, 4)
            assert np.array_equal(got.view(np.int64),
                                  flat.reshape(got.shape).view(np.int64))


@pytest.mark.parametrize("M", [2000, MAX_MODES])
def test_grid_synthesis_keeps_its_bits_in_any_point_chunks(M, monkeypatch):
    # np.add.at sums each block of (mode, point) pairs into one zeroed array
    # in index order, so each point sums its layer terms in mode order and no
    # block size changes a bit of the grid, also where blocks cut one mode's
    # pairs.  At 1000 points neither basis keeps its layer values, and the
    # layer is evaluated per call in blocks of _LAYER_BLOCK pairs: 2**16 down
    # to 7 here.  At 201 and 3 points both keep them, built in blocks of
    # _LAYER_BLOCK to the same bytes and read in one block; at 3 points the
    # blocks go down to single pairs, and so does the per-call layer.
    basis = build_basis(M)
    n = np.arange(1, M + 1, dtype=float)
    uc = np.concatenate(([0.0], (-1.0) ** n / n ** 2))
    runs = {1000: ((2 ** 19, 2 ** 16), (2 ** 18, 2 ** 12), (2 ** 12, 2 ** 6),
                   (2 ** 18, 201), (2 ** 18, 7)),
            201: ((2 ** 18, 4096), (2 ** 18, 7)),
            3: ((2 ** 18, 4096), (2 ** 18, 7), (2 ** 18, 1), (0, 1))}
    for samples, settings in runs.items():
        got, bands = [], []
        for entries, block in settings:
            monkeypatch.setattr(cf, "_SYNTHESIS_ENTRIES", entries)
            monkeypatch.setattr(cf, "_LAYER_BLOCK", block)
            basis._derived.pop("grid", None)   # a plan built at these settings
            got.append(cf._synthesize_grid(basis, 0.5, uc, samples).view(np.int64))
            band = basis._derived["grid"].band
            assert (band is None) == (samples == 1000 or entries == 0)
            if band is not None:
                bands.append(band.view(np.int64))
        assert all(np.array_equal(got[0], g) for g in got[1:]), samples
        assert all(np.array_equal(bands[0], b) for b in bands[1:]), samples


def _grid_sets(M: int) -> dict:
    """(u0c, uc) sets for the grid plan tests: decaying, flat, all-zero, and
    one whose samples are ~1e-300 (max |u| near zero; the layer rule is
    scale-free, so it selects what the decaying set does)."""
    rng = np.random.default_rng(M)
    n = np.arange(1, M + 1, dtype=float)
    decaying = np.concatenate(([0.0], rng.standard_normal(M) / n ** 4))
    return {"decaying": (0.7, decaying),
            "flat": (-0.3, np.concatenate(([0.0], rng.standard_normal(M)))),
            "zero": (0.0, np.zeros(M + 1)),
            "near-zero": (1e-300, 1e-300 * decaying)}


@pytest.mark.parametrize("M", [1, 6, 7, 40, 2000, MAX_MODES])
def test_grid_synthesis_plan_serves_a_sequence_of_sets(M):
    # One basis keeps one plan and serves every set, and a new sample count
    # replaces the plan; each result has the bits of the same call on a
    # freshly built basis, which builds its plan for that call alone.
    basis = build_basis(M)
    sets = _grid_sets(M)
    for samples in (201, 2, 1000, 3, 201):
        for name, (u0c, uc) in sets.items():
            got = cf._synthesize_grid(basis, u0c, uc, samples)
            plan = basis._derived["grid"]
            assert plan.samples == samples
            eb._build_basis.cache_clear()
            fresh = build_basis(M)
            assert fresh is not basis
            want = cf._synthesize_grid(fresh, u0c, uc, samples)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (samples, name)
            assert cf._grid_plan(basis, samples) is plan
        arrays = [getattr(plan, f.name) for f in dataclasses.fields(plan)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 9 + (plan.band is not None)
        assert not any(a.flags.writeable for a in arrays)
        kept = plan.offsets[-1] <= cf._SYNTHESIS_ENTRIES
        assert (plan.band is not None) == kept
        assert kept or samples == 1000
    assert not np.any(cf._synthesize_grid(basis, 0.0, sets["zero"][1], 201))


@pytest.mark.parametrize("band", [cf._LAYER_BAND, 30.0])
@pytest.mark.parametrize("M", [7, 40, 2000, MAX_MODES])
def test_grid_synthesis_kept_band_matches_the_per_call_path(M, band, monkeypatch):
    # With no room for the band (_SYNTHESIS_ENTRIES = 0) the layer is
    # evaluated per call in point blocks, with the band kept it is gathered:
    # the same bits at 201 samples.  A band of 30 makes every set's reach
    # (~40 + ln M) pass the band of the high modes, so each selection is
    # clamped to it on both paths.
    monkeypatch.setattr(cf, "_LAYER_BAND", band)
    got = {}
    for entries in (cf._SYNTHESIS_ENTRIES, 0):
        monkeypatch.setattr(cf, "_SYNTHESIS_ENTRIES", entries)
        eb._build_basis.cache_clear()
        basis = build_basis(M)
        got[entries] = [cf._synthesize_grid(basis, u0c, uc, 201).view(np.int64)
                        for u0c, uc in _grid_sets(M).values()]
        assert (basis._derived["grid"].band is None) == (entries == 0)
    kept, per_call = got.values()
    assert all(np.array_equal(a, b) for a, b in zip(kept, per_call))


@pytest.mark.parametrize("M,samples", [(2000, 201), (2000, 1000), (MAX_MODES, 201)])
def test_grid_synthesis_layer_vanishes_outside_the_band(M, samples):
    # Past h_m (1 - |x|) = _LAYER_BAND both exponentials of the layer term
    # underflow to exactly 0, so a plan drops nothing by keeping the band.
    basis = build_basis(M)
    plan = cf._build_grid_plan(basis, samples)
    z = cf._layer_z(basis)
    w = basis.w_even[1:]
    inside = np.abs(plan.x) >= 1.0 - cf._LAYER_BAND / plan.half[:, None]
    assert np.array_equal(np.count_nonzero(inside, axis=1), np.diff(plan.offsets))
    for rows in (slice(r, r + 500) for r in range(0, M, 500)):
        r, j = np.nonzero(~inside[rows])
        r += rows.start
        assert not np.any(eb._layer(z[r], plan.half[r], w[r], plan.x[j], 1.0))


def test_grid_synthesis_plan_memory():
    # The kept plan at MAX_MODES with 201 samples: 261,810 layer values
    # (2.1 MB) and four per-mode arrays.  At 10**5 samples the M = 2000
    # band (~82 M values) is not kept and the layer is evaluated in point
    # blocks, so the call peaks within synthesize's bound at MAX_MODES.
    basis = build_basis(MAX_MODES)
    tracemalloc.start()
    try:
        plan = cf._grid_plan(basis, 201)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plan.band is not None and plan.band.size == 261810
    assert held <= 2.5e6
    basis = build_basis(2000)
    uc = np.concatenate(([0.0], (-1.0) ** np.arange(1, 2001) / np.arange(1, 2001) ** 2))
    tracemalloc.start()
    try:
        cf._synthesize_grid(basis, 0.5, uc, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis._derived["grid"].band is None
    assert peak < 25e6


def test_synthesize_at_max_modes_evaluates_in_chunks():
    # One 201-point psi_block at M = 10000 peaks at ~145 MB with its layer
    # at every entry; chunking the points keeps synthesize at ~19 MB and
    # changes values at rounding level.
    basis = build_basis(MAX_MODES)
    n = np.arange(MAX_MODES + 1, dtype=float)
    decay = np.concatenate(([0.0], n[1:] ** -8.0))
    coeffs = cf.CoefficientSet(basis=basis, u0c=0.5, uc=decay, us=-decay)
    xs = np.linspace(-1.0, 1.0, 201)
    tracemalloc.start()
    try:
        got = cf.synthesize(coeffs, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
    whole = (0.25 + decay[1:] @ psi_block(basis, EV, xs)
             - decay[1:] @ psi_block(basis, OD, xs))
    assert np.max(np.abs(got - whole)) <= 1e-15


def test_project_evaluates_the_basis_in_chunks():
    # One psi_block over all of a refinement's nodes peaked at ~103 MB here;
    # chunking the nodes keeps project at the synthesize bound.
    basis = build_basis(100)
    tracemalloc.start()
    try:
        coeffs = cf.project(lambda x: (x * x - 1.0) ** 6, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6
    assert coeffs.u0c == pytest.approx(2048.0 / 3003.0, rel=1e-14)
    assert np.max(np.abs(coeffs.us)) < 1e-15


# ---------------------------------------------------------------------------
# Grid synthesis by the lattice FFT
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _grid_bound(basis, u0c, uc) -> float:
    return 8.0 * _EPS * (abs(u0c) + np.sum(np.abs(uc * basis.c_even)))


@pytest.mark.parametrize("samples", [2, 3, 201, 1000])
@pytest.mark.parametrize("M", [1, 6, 7, 8, 40, 301, 2000])
def test_grid_synthesis_agrees_with_the_direct_sum(M, samples):
    # The reference is psi_block's entries summed exactly: synthesize's own
    # M-term product exceeds the bound at M = 2000 (by up to ~1.4 times),
    # while the FFT path stays within ~0.3 of it.  The m^-2 decay keeps
    # sum lam_m |a_m| small, since psi_block rounds each phase lam_m x to an
    # ulp and linspace's points lie up to an ulp off the grid the FFT sums on.
    basis = build_basis(M)
    rng = np.random.default_rng([M, samples])
    psi = psi_block(basis, EV, np.linspace(-1.0, 1.0, samples))
    for _ in range(3):
        u0c = rng.standard_normal()
        uc = np.concatenate(([0.0], rng.standard_normal(M) / np.arange(1, M + 1) ** 2))
        direct = [math.fsum([0.5 * u0c, *col]) for col in (uc[1:, None] * psi).T]
        got = cf._synthesize_grid(basis, u0c, uc, samples)
        assert got.shape == (samples,)
        assert np.max(np.abs(got - direct)) <= _grid_bound(basis, u0c, uc)


@pytest.mark.parametrize("a4,a2,a0", [(0.0, 2000.0, -300000.0),
                                      (-20.0, -5544.0, -199584.0)])
def test_grid_synthesis_keeps_the_manufactured_error(a4, a2, a0):
    basis = build_basis(2000)
    sol = gk.solve_steady(gk.manufactured_spec(1.0, a4, a2, a0), basis)
    xs = np.linspace(-1.0, 1.0, 201)
    exact = (xs * xs - 1.0) ** 6
    direct = np.max(np.abs(cf.synthesize(sol, xs) - exact))
    grid = np.max(np.abs(cf._synthesize_grid(basis, sol.u0c, sol.uc, 201) - exact))
    assert abs(grid - direct) <= _grid_bound(basis, sol.u0c, sol.uc)


@pytest.mark.parametrize("parity", [EV, OD])
def test_high_eigenvalues_lie_on_the_lattice(parity):
    # The grid synthesis keeps only the first order of e^{i delta_m x}; with
    # |delta_m| <= 1 ulp of lam_m the second is below 1e-23.
    lam = build_basis(MAX_MODES).lam(parity)[7:]
    lattice = np.array([eigenvalue_asymptotic(parity, m) for m in range(7, MAX_MODES + 1)])
    assert np.all(np.abs(lam - lattice) <= np.spacing(lam))
