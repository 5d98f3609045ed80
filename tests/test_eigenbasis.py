"""Eigenvalue solves, normalization, and eigenfunction evaluation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_reference as ref
from sixbeam import coefficients as cf
from sixbeam import eigenbasis as eb
from sixbeam import galerkin as gk
from sixbeam import oracle as oc
from sixbeam.eigenbasis import (
    MAX_MODES,
    SQRT3,
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
    # From mode seven on the asymptotic guess is already accurate to ~1e-16,
    # so the first Newton step from it converges.
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


@pytest.mark.parametrize("parity", list(Parity), ids=lambda p: p.value)
def test_high_mode_eigenvalues_are_one_newton_step_from_the_guess(parity):
    # Modes 7..MAX_MODES converge on the first step, so the batch that
    # build_basis solves and solve_eigenvalue's scalar solve take that one
    # step and no other.
    ms = np.arange(7, MAX_MODES + 1)
    guess = np.array([eigenvalue_asymptotic(parity, int(m)) for m in ms])
    r, dr = eb._residual_and_derivative(parity, guess)
    lam, _ = eb._newton(parity, ms)
    assert np.array_equal(lam.view(np.int64), (guess - r / dr).view(np.int64))


def test_basis_builds_keep_every_bit_with_memoized_low_roots():
    # The second build runs again (the basis memo is cleared in between) but
    # takes its low roots from their memo.
    eb._low_roots.cache_clear()
    eb._build_basis.cache_clear()
    first = build_basis(40)
    assert eb._low_roots.cache_info().misses == 2   # once per parity
    eb._build_basis.cache_clear()
    second = build_basis(40)
    assert second is not first
    assert eb._low_roots.cache_info().misses == 2
    for f in dataclasses.fields(second):
        got = getattr(second, f.name)
        if isinstance(got, np.ndarray):
            want = getattr(first, f.name)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), f.name


def test_bases_are_memoized_read_only_for_the_last_four_sizes():
    eb._build_basis.cache_clear()
    first = build_basis(3)
    assert build_basis(3) is first
    assert build_basis(np.int64(3)) is first
    for f in dataclasses.fields(first):
        array = getattr(first, f.name)
        if isinstance(array, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    kept = [build_basis(M) for M in (4, 5, 6)]
    assert eb._build_basis.cache_info().currsize == 4
    build_basis(7)   # a fifth size evicts the oldest, M = 3
    assert eb._build_basis.cache_info().currsize == 4
    assert all(a is b for a, b in zip(kept, (build_basis(M) for M in (4, 5, 6))))
    again = build_basis(3)
    assert again is not first
    assert again.lam_even.tobytes() == first.lam_even.tobytes()


def test_rebuilt_bases_and_solutions_compare_by_identity_and_hash():
    # Field-wise == over their ndarray fields would be ambiguous (ValueError)
    # and their hash would fail (TypeError): two of them are equal only if
    # they are one object.
    eb._build_basis.cache_clear()
    first = build_basis(3)
    eb._build_basis.cache_clear()
    second = build_basis(3)
    assert second is not first
    solutions = [gk.solve_steady(gk.MODEL_I, basis) for basis in (first, second)]
    states = [cf.CoefficientSet.zeros(basis) for basis in (first, second)]
    runs = [gk.evolve(gk.model_ii_semi_discrete(basis), cf.CoefficientSet.zeros(basis),
                      1e-4, 3) for basis in (first, second)]
    for a, b in ((first, second), solutions, states, runs):
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


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


@pytest.mark.parametrize("M", [3, 5])
def test_psi_block_keeps_the_shape_of_multidimensional_points(M):
    # Mode m is row m - 1 for every point, whatever x's shape: the block has
    # shape (M,) + x.shape and the bits of the flattened call.
    basis = build_basis(M)
    xs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    for parity in Parity:
        for k in (0, 3):
            block = psi_block(basis, parity, xs, k)
            flat = psi_block(basis, parity, xs.reshape(-1), k)
            assert block.shape == (M, 3, 4)
            assert _same_bits(block, flat.reshape(M, 3, 4)), (parity, k)


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


def test_edge_values_are_the_eigenfunctions_at_one(basis60):
    # psi_block adds k pi/2 to the phase lam x and so loses ~lam eps of it;
    # the stored values take sin lam and cos lam directly.
    np.testing.assert_array_equal(basis60.edge_even[:, 0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(basis60.edge_odd[:, 0], 0.0)
    for parity, edge in (("even", basis60.edge_even), ("odd", basis60.edge_odd)):
        assert edge.shape == (3, 61)
        for k, row in zip((0, 3, 4), edge):
            at_one = psi_block(basis60, parity, 1.0, k)[:, 0]
            np.testing.assert_allclose(row[1:], at_one, rtol=1e-13)


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


_NAN_POINT_ENTRY_POINTS = {
    "eval_psi": lambda b: eval_psi(b, "even", 3, np.nan),
    "psi_block": lambda b: psi_block(b, "odd", [0.5, np.nan]),
    "synthesize": lambda b: cf.synthesize(gk.solve_steady(gk.MODEL_I, b), [np.nan, 0.5]),
}


@pytest.mark.parametrize("entry", sorted(_NAN_POINT_ENTRY_POINTS))
def test_nan_points_are_rejected(basis30, entry):
    with pytest.raises(ValueError, match=r"\|x\| <= 1"):
        _NAN_POINT_ENTRY_POINTS[entry](basis30)


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
# The boundary layer at every point: the bits of one expression
# ---------------------------------------------------------------------------

def _full_layer_psi_core(parity, lam, c, w, x, k):
    """An eigenfunction entry written out as one expression, both exponentials
    over every (mode, point).  The bit-for-bit reference for the tests below.
    """
    s = SQRT3 * lam
    phase = lam * x + 0.5 * np.pi * k
    lamk = lam ** k
    if parity is Parity.EVEN:
        trig = lamk * np.cos(phase)
        sigma = 1.0 if k % 2 == 0 else -1.0
    else:
        trig = lamk * np.sin(phase)
        sigma = -1.0 if k % 2 == 0 else 1.0
    z = 0.5 * (s + 1j * lam)
    zu = z * x
    half = 0.5 * s
    hyp = 0.5 * (np.exp(zu - half) + sigma * np.exp(-zu - half))
    return c * (trig + np.real(w * z ** k * hyp))


def _mode_columns(basis, parity):
    p = parity.value
    return tuple(getattr(basis, f"{name}_{p}")[1:, None] for name in ("lam", "c", "w"))


def _full_layer_psi_block(basis, parity, x, k=0, modes=None):
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    rows = slice(None) if modes is None else slice(modes.start - 1, modes.stop - 1)
    return _full_layer_psi_core(parity, *(v[rows] for v in _mode_columns(basis, parity)),
                                xa[None, :], k)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def _layer_points(basis, seed=0) -> np.ndarray:
    """Unsorted points: the edges, signed zeros, the last double below 1,
    points closing in on the edges, where the layer lives.  For the first, a
    middle and the last high mode of each parity: the point a = 1 - reach/h
    inside which the layer is below half an ulp of the trigonometric part
    (reach = ln(|w z^k| / lam^k) + 74 ln 2 + 1, h = sqrt(3) lam / 2), with
    its neighbours, and the doubles nearest the zeros of cos(lam x) and
    sin(lam x) just inside a and near 1/2, where the layer is not small
    against trig.  And the points where exp(-760) underflows in 128-mode
    blocks, each sized by its smallest h, with their neighbours.  All
    mirrored."""
    reach_ln = 74.0 * np.log(2.0) + 1.0
    closing = 1.0 - np.geomspace(1e-6, 0.5, 12)
    special = [-1.0, 1.0, 0.0, -0.0, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0),
               *closing, *-closing]
    probes = []
    for parity in Parity:
        lam, _, w = (v[:, 0] for v in _mode_columns(basis, parity))
        half = 0.5 * SQRT3 * lam
        high = half[half > 760.0]
        starts = range(0, high.size, 128)
        for b in sorted({starts[0], starts[len(starts) // 2], starts[-1]} if starts else ()):
            a = 1.0 - 760.0 / np.min(high[b:b + 128])
            probes += [a, np.nextafter(a, 0.0), np.nextafter(a, 2.0)]
        edges = {}
        for k in (0, 6):
            z = 0.5 * (2.0 * half + 1j * lam)
            edge = 1.0 - (np.log(np.abs(w * z ** k) / lam ** k) + reach_ln) / half
            far = np.flatnonzero(edge > 0.0)
            for r in {far[0], far[far.size // 2], far[-1]} if far.size else ():
                edges.setdefault(r, set()).add(edge[r])
        for r, rs in edges.items():
            probes += [v for a in rs for v in (a, np.nextafter(a, 0.0), np.nextafter(a, 2.0))]
            n0 = np.floor(min(rs) * 2.0 * lam[r] / np.pi)
            probes += [n * np.pi / (2.0 * lam[r])
                       for n in (n0, n0 - 1.0, np.round(lam[r] / np.pi)) if n > 0.0]
    rng = np.random.default_rng(seed)
    band = np.array(probes)
    pts = np.concatenate((special, np.linspace(-1.0, 1.0, 21), rng.uniform(-1.0, 1.0, 10),
                          band, -band))
    return pts[rng.permutation(pts.size)]


@pytest.mark.parametrize("M", [1, 2, 60, 301, 1000, 2000, 4000])
def test_psi_block_and_eval_psi_keep_the_full_layer_bits(M):
    basis = build_basis(M)
    xs = _layer_points(basis)
    modes = sorted({m for m in (1, 2, 279, 280, M // 2, M) if 1 <= m <= M})
    for parity in Parity:
        lam, c, w = (v[:, 0] for v in _mode_columns(basis, parity))
        for k in range(7):
            assert _same_bits(psi_block(basis, parity, xs, k),
                              _full_layer_psi_block(basis, parity, xs, k)), (parity, k)
            for m in modes:
                want = _full_layer_psi_core(parity, float(lam[m - 1]), float(c[m - 1]),
                                            complex(w[m - 1]), xs, k)
                assert _same_bits(eval_psi(basis, parity, m, xs, k), want), (parity, k, m)
                assert _same_bits(eval_psi(basis, parity, m, xs[0], k), want[0])


def test_psi_block_mode_ranges_keep_the_bits_of_the_full_block():
    # synthesize evaluates a trajectory's stepped modes alone: each row of a
    # range has the bits of that row of the block over 1..M, one mode and
    # the ends included, at the layer's points and at evolve's samples.
    basis = build_basis(500)
    for xs in (_layer_points(basis, seed=2), np.array([-0.5, 0.0, 0.5])):
        for parity in Parity:
            for k in (0, 3, 6):
                full = psi_block(basis, parity, xs, k)
                for modes in (range(1, 2), range(3, 4), range(500, 501), range(17, 90),
                              range(1, 501)):
                    rows = full[modes.start - 1:modes.stop - 1]
                    assert _same_bits(psi_block(basis, parity, xs, k, modes), rows)
    for bad in (range(0, 3), range(2, 502), range(1, 9, 2), range(5, 4)):
        with pytest.raises(ValueError, match="modes must be a unit-step range"):
            psi_block(basis, "even", 0.5, 0, bad)


def test_layer_bands_do_not_rely_on_sorted_modes():
    # The 256 largest modes alternate with 256 around h = 760, so adjacent
    # rows have h ~760 and ~27000: a layer whose exponent is taken from any
    # row but its own would underflow or misplace that row's layer.
    basis = build_basis(MAX_MODES)
    xs = _layer_points(basis, seed=1)
    order = np.empty(512, dtype=int)
    order[0::2], order[1::2] = np.arange(MAX_MODES - 1, MAX_MODES - 257, -1), np.arange(200, 456)
    for parity in Parity:
        lam, c, w = (v[order] for v in _mode_columns(basis, parity))
        for k in (0, 3):
            assert _same_bits(eb._psi_core(parity, lam, c, w, xs[None, :], k),
                              _full_layer_psi_core(parity, lam, c, w, xs[None, :], k))


def test_masked_rows_keep_the_full_layer_bits_in_any_mode_order():
    # Rows whose layer reaches every point (a <= 0, m <= 19) lead in sorted
    # order.  Here 20 high modes, whose layer is below half an ulp of trig
    # inside a, lead and 20 low modes follow: each row keeps its own bits.
    basis = build_basis(400)
    xs = _layer_points(basis, seed=2)
    order = np.concatenate((np.arange(399, 379, -1), np.arange(20)))
    for parity in Parity:
        lam, c, w = (v[order] for v in _mode_columns(basis, parity))
        for k in (0, 5):
            assert _same_bits(eb._psi_core(parity, lam, c, w, xs[None, :], k),
                              _full_layer_psi_core(parity, lam, c, w, xs[None, :], k))


@settings(max_examples=25, deadline=None)
@given(M=st.integers(1, 3000), k=st.integers(0, 6),
       xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12))
def test_psi_block_keeps_the_full_layer_bits_property(M, k, xs):
    basis = build_basis(M)
    pts = np.array(xs + [-x for x in xs])
    for parity in Parity:
        assert _same_bits(psi_block(basis, parity, pts, k),
                          _full_layer_psi_block(basis, parity, pts, k)), parity


def test_synthesis_and_projection_keep_the_full_layer_bits(monkeypatch):
    big = build_basis(2000)
    n = np.arange(2001, dtype=float)
    decay = np.concatenate(([0.0], n[1:] ** -6.0))
    coeffs = cf.CoefficientSet(basis=big, u0c=0.5, uc=decay, us=-0.5 * decay)
    xs = np.linspace(-1.0, 1.0, 201)
    small = build_basis(100)
    f = lambda x: np.exp(x) * (x * x - 1.0) ** 6  # noqa: E731

    got = cf.synthesize(coeffs, xs), cf.project(f, small)
    monkeypatch.setattr(cf, "psi_block", _full_layer_psi_block)
    want = cf.synthesize(coeffs, xs), cf.project(f, small)
    assert _same_bits(got[0], want[0])
    for name in ("u0c", "uc", "us"):
        assert _same_bits(getattr(got[1], name), getattr(want[1], name))


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
