"""Quadrature reference implementations used to cross-check closed forms."""

import csv

import numpy as np
import pytest

import frozen_reference as ref
from sixbeam import cli
from sixbeam import coefficients as cf
from sixbeam import galerkin as gk
from sixbeam import oracle as oc
from sixbeam.eigenbasis import Parity, build_basis, eval_psi

EV, OD = Parity.EVEN, Parity.ODD


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

def test_rule_integrates_polynomials_exactly():
    rule = oc.make_rule(4)
    assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-15)
    # 16-point Gauss panels are exact through degree 31.
    for p in (2, 8, 16, 30):
        exact = 2.0 / (p + 1)
        assert oc.integrate(lambda x: x ** p, rule) == pytest.approx(exact, rel=1e-14)
    assert oc.integrate(lambda x: x ** 7, rule) == pytest.approx(0.0, abs=1e-16)


def test_rule_validation():
    with pytest.raises(ValueError):
        oc.make_rule(0)
    with pytest.raises(ValueError):
        oc.make_rule(10 ** 9)  # exceeds the node budget


def test_quadrature_tables_build_each_rule_once():
    # verify's sweep asks for the same 201- and 402-panel rules for each
    # parity: each is built, and its invariants checked, once per process,
    # and its arrays are read-only, since every caller shares them.
    oc._composite_rule.cache_clear()
    oc.quadrature_tables(build_basis(50), 50)
    info = oc._composite_rule.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    rule = oc.make_rule(201)
    assert oc._composite_rule.cache_info().misses == 2
    for array in (rule.nodes, rule.weights, rule.left, rule.left_lo, rule.offsets):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        oc.make_rule(True)  # a kept rule of 1 panel does not answer for True
    assert oc.make_rule(np.int64(201)) is rule


def test_inner_product_oscillatory():
    val = oc.inner_product(np.cos, np.cos)
    exact = 1.0 + np.sin(2.0) / 2.0
    assert val == pytest.approx(exact, rel=1e-13)


# ---------------------------------------------------------------------------
# Independent eigenfunction evaluator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parity,m,x,k,value", ref.PSI_PROBES)
def test_reference_evaluator_matches_frozen(basis60, parity, m, x, k, value):
    got = float(oc.psi_reference(basis60, parity, m, np.array([x]), k)[0])
    assert got == pytest.approx(value, rel=5e-13, abs=5e-13)


def test_reference_evaluator_matches_production(basis60):
    xs = np.linspace(-1.0, 1.0, 17)
    for parity in ("even", "odd"):
        lam = basis60.lam(parity)
        for m in (1, 5, 23, 60):
            for k in (0, 1, 4, 6):
                a = oc.psi_reference(basis60, parity, m, xs, k)
                b = np.array([eval_psi(basis60, parity, m, float(x), k)
                              for x in xs])
                np.testing.assert_allclose(
                    a, b, rtol=5e-12, atol=5e-12 * max(1.0, lam[m] ** k))


# ---------------------------------------------------------------------------
# Orthonormality and self-adjointness
# ---------------------------------------------------------------------------

def test_gram_matrix_near_identity(basis30):
    for parity in (EV, OD):
        G = oc.gram_matrix(basis30, parity, 12)
        assert np.max(np.abs(G - np.eye(12))) < 1e-12


def test_constant_mode_inner_products(basis30):
    # <psi_0, psi_0> = 2 and <psi_0, psi_m> = 0 for m >= 1.
    assert oc.inner_product(lambda x: np.ones_like(x),
                            lambda x: np.ones_like(x)) == pytest.approx(2.0)
    for m in (1, 4):
        v = oc.inner_product(
            lambda x: np.ones_like(x),
            lambda x, m=m: oc.psi_reference(basis30, EV, m, x, 0),
            lam_hint=float(basis30.lam_even[m]))
        assert abs(v) < 1e-12


def test_adjointness_defect_small(basis30):
    for parity in (EV, OD):
        lam = basis30.lam(parity)
        for n, m in ((1, 2), (3, 5), (2, 8)):
            d = oc.adjointness_defect(basis30, parity, n, m)
            assert d < 1e-8 * max(lam[n], lam[m]) ** 6


# ---------------------------------------------------------------------------
# Shared-grid quadrature tables vs closed forms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tables6(basis30):
    return oc.quadrature_tables(basis30, 6, tol=1e-10)


def test_tables_match_closed_beta_gamma(basis30, tables6):
    for parity, key in ((EV, "even"), (OD, "odd")):
        B = cf.operator_matrix(basis30, parity, "second_derivative").entries[:6, :6]
        G = cf.operator_matrix(basis30, parity, "fourth_derivative").entries[:6, :6]
        assert np.max(np.abs(tables6[f"beta_{key}"] - B)
                      / np.maximum(1.0, np.abs(B))) < 1e-9
        assert np.max(np.abs(tables6[f"gamma_{key}"] - G)
                      / np.maximum(1.0, np.abs(G))) < 1e-9


def test_tables_match_sixth_derivative_diagonal(basis30):
    # <psi_n^(6), psi_m> = -lam_n^6 delta_nm from the reference rows alone.
    for parity in (EV, OD):
        lam6 = basis30.lam(parity)[1:7] ** 6

        def sixth(rule, parity=parity):
            rows6, rows0 = oc._reference_block(basis30, parity, range(1, 7),
                                              rule.left, rule.offsets, (6, 0))
            return (rows6 * rule.weights) @ rows0.T

        floor = 500.0 * np.finfo(float).eps * np.maximum(1.0, lam6)[:, None]
        S = oc._refine(sixth, oc._table_panels(basis30, 6),
                       lambda coarse, fine: oc._agree(coarse, fine, 1e-10, floor))
        dev = np.abs(S - np.diag(-lam6)) / np.maximum(1.0, lam6)[:, None]
        assert np.max(dev) < 1e-9


def test_reference_block_rows_are_single_mode_evaluations(basis30):
    # One evaluation of each mode's elementary functions serves every order
    # asked for, in the order asked, with the bits of psi_reference.
    x = oc.make_rule(3).nodes
    for parity in (EV, OD):
        blocks = oc._reference_block(basis30, parity, range(1, 6), x, [0.0],
                                     (4, 0, 2))
        for block, k in zip(blocks, (4, 0, 2)):
            for m in range(1, 6):
                ref_row = oc.psi_reference(basis30, parity, m, x, k)
                assert np.array_equal(block[m - 1].view(np.int64),
                                      ref_row.view(np.int64))


def _long_double_rows(basis, parity, m, x, k):
    """psi_m^(k) at the long double points x from the product representation
    in long double: only lam, c and the order-0 coefficients are doubles."""
    ld = np.longdouble
    lam, c, t, v = oc._reference_coeffs(basis, parity, np.array(m))
    lam, c = ld(lam), ld(c)
    t, v = [ld(z) for z in t], [ld(z) for z in v]
    half_l, half_s = lam / 2, np.sqrt(ld(3)) * lam / 2
    for _ in range(k):
        t = [lam * t[1], -lam * t[0]]
        v = [half_s * v[1] - half_l * v[2], half_s * v[0] - half_l * v[3],
             half_l * v[0] + half_s * v[3], half_l * v[1] + half_s * v[2]]
    rise, fall = np.exp(half_s * (x - 1)), np.exp(-half_s * (x + 1))
    gs, gc = (rise - fall) / 2, (rise + fall) / 2
    sin_h, cos_h = np.sin(half_l * x), np.cos(half_l * x)
    return c * (t[0] * np.cos(lam * x) + t[1] * np.sin(lam * x)
                + v[0] * sin_h * gs + v[1] * sin_h * gc
                + v[2] * cos_h * gs + v[3] * cos_h * gc)


def test_reference_rows_match_a_long_double_evaluation(basis60):
    # The rows are those at the exact sums left + offsets, and with left_lo
    # at the exact panel edges -1 + 2p/P, to 2e-15 of the order's scale
    # max(1, lam^k) (1.3e-15 seen); rounding lam * x costs ~2e-14 there.
    ld, modes, orders = np.longdouble, (1, 7, 25, 50), (0, 2, 4, 6)
    rule = oc.make_rule(201)
    edges = (2 * np.arange(201, dtype=ld) - 201) / 201
    points = np.random.default_rng(34).uniform(-1.0, 1.0, 300)
    for parity in (EV, OD):
        lam = basis60.lam(parity)
        for left, left_lo in ((ld(rule.left), 0.0), (edges, rule.left_lo)):
            x = left[:, None] + ld(rule.offsets)
            blocks = oc._reference_block(basis60, parity, modes, rule.left,
                                         rule.offsets, orders, left_lo)
            for block, k in zip(blocks, orders):
                for row, m in zip(block, modes):
                    want = _long_double_rows(basis60, parity, m, x.ravel(), k)
                    assert np.max(np.abs(row - want)) <= 2e-15 * max(1.0, lam[m] ** k)
        for m in modes:
            for k in orders:
                want = _long_double_rows(basis60, parity, m, ld(points), k)
                got = oc.psi_reference(basis60, parity, m, points, k)
                assert np.max(np.abs(got - want)) <= 2e-15 * max(1.0, lam[m] ** k)


def test_rule_panels_tile_the_interval_exactly():
    # left + left_lo is each panel edge -1 + 2p/P to long double rounding,
    # and the nodes keep the bits of the once-rounded sums left + offsets.
    ld = np.longdouble
    for panels in (3, 185, 201, 402, 1000):
        rule = oc.make_rule(panels)
        edges = (2 * np.arange(panels, dtype=ld) - panels) / panels
        assert np.max(np.abs(ld(rule.left) + ld(rule.left_lo) - edges)) < 1e-19
        assert np.max(np.abs(rule.left_lo)) < 2.3e-16
        assert np.array_equal(rule.nodes, (rule.left[:, None] + rule.offsets).ravel())


def test_psi_reference_keeps_the_shape_of_x(basis30):
    x = np.linspace(-1.0, 1.0, 12)
    for m in (0, 3):
        flat = oc.psi_reference(basis30, EV, m, x, 2)
        assert flat.shape == (12,)
        grid = oc.psi_reference(basis30, EV, m, x.reshape(3, 4), 2)
        assert grid.shape == (3, 4)
        assert np.array_equal(grid.ravel(), flat)
        one = oc.psi_reference(basis30, EV, m, 0.25, 2)
        assert type(one) is float
        assert one == oc.psi_reference(basis30, EV, m, np.array([0.25]), 2)[0]


def test_verify_at_the_largest_index_passes_every_entry(tmp_path, capsys):
    # verify --max-index 50 passes all 10,350 entries with its worst relative
    # error more than 10x below REL_THRESHOLD.
    stem = tmp_path / "check"
    assert cli.main(["verify", "--max-index", "50", "--out", str(stem)]) == 0
    capsys.readouterr()
    with open(f"{stem}.report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10350
    assert all(row["passed"] == "true" for row in rows)
    assert max(float(row["rel_error"]) for row in rows) <= 1e-9
    assert oc.REL_THRESHOLD == 1e-8


def test_tables_pass_every_entry_at_every_index():
    # Each --max-index has its own panel counts; the tiling error of the
    # rounded panel edges failed beta_odd[46, 1] and [47, 1] at K = 46, 47.
    for K in range(1, 51):
        basis = build_basis(max(K, 2))
        columns = cli._verify_columns(basis, K, oc.quadrature_tables(basis, K))
        assert np.all(columns[7]), K


def test_tables_match_mean_row_and_chi(basis30, tables6):
    g0 = np.array([cf.gamma(basis30, EV, n, 0) for n in range(1, 7)])
    assert np.max(np.abs(tables6["gamma0_even"] - g0)
                  / np.maximum(1.0, np.abs(g0))) < 1e-9
    for p in cf.CHI_POWERS:
        v = cf.chi_vector(basis30, p)[:6]
        assert np.max(np.abs(tables6["chi"][p] - v)
                      / np.maximum(1.0, np.abs(v))) < 1e-9


@pytest.mark.parametrize("call", [
    lambda f, b: oc.inner_product(f, np.ones_like, tol=1e-14),
    lambda f, b: cf.project(f, b, tol=1e-14),
], ids=["inner_product", "project"])
def test_unresolved_integrand_raises_within_the_doubling_cap(call):
    # No rule resolves cos(1e7 x): the driver gives up after at most 8
    # doublings (one evaluation per rule) instead of refining to the budget.
    rules = []

    def f(x):
        rules.append(len(x))
        return np.cos(1e7 * x)

    with pytest.raises(RuntimeError, match="did not converge"):
        call(f, build_basis(5))
    assert len(rules) <= 1 + 8


def test_tables_validate_arguments(basis30):
    with pytest.raises(ValueError):
        oc.quadrature_tables(basis30, 0)
    with pytest.raises(ValueError):
        oc.quadrature_tables(basis30, 31)


# ---------------------------------------------------------------------------
# Single-entry verification reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,parity,n,mp", [
    ("beta", EV, 1, 1),
    ("beta", EV, 1, 2),
    ("beta", OD, 1, 2),
    ("beta", OD, 2, 2),
    ("gamma", EV, 5, 0),
    ("gamma", EV, 2, 3),
    ("gamma", OD, 3, 3),
    ("chi", EV, 1, 12),
    ("chi", EV, 5, 6),
])
def test_verify_formula_passes(basis30, kind, parity, n, mp):
    rep = oc.verify_formula(basis30, kind, parity, n, mp)
    assert rep.passed
    assert rep.rel_error < 1e-8
    d = rep.to_dict()
    assert d["kind"] == kind and d["passed"] is True


def test_verify_formula_flags_corrected_branches(basis30):
    # Entries whose closed form replaces a superseded variant carry a note.
    assert oc.verify_formula(basis30, "beta", EV, 2, 2).note != ""
    assert oc.verify_formula(basis30, "beta", OD, 1, 2).note != ""
    assert oc.verify_formula(basis30, "chi", EV, 1, 12).note != ""
    assert oc.verify_formula(basis30, "gamma", EV, 1, 2).note == ""


def test_verify_formula_validation(basis30):
    with pytest.raises(ValueError):
        oc.verify_formula(basis30, "delta", EV, 1, 1)
    with pytest.raises(ValueError):
        oc.verify_formula(basis30, "chi", EV, 1, 3)


# ---------------------------------------------------------------------------
# Projection error and residual scan
# ---------------------------------------------------------------------------

def test_projection_error_decreases(basis60):
    f = lambda x: (x * x - 1.0) ** 6  # noqa: E731
    e10 = oc.projection_l2_error(basis60, f, 10)
    e40 = oc.projection_l2_error(basis60, f, 40)
    assert e40 < e10 < 1e-4
    assert e40 < 1e-9


def test_residual_scan_is_forcing_tail(basis30):
    # For the eigen-expansion the interior residual of the solved system
    # equals the unresolved part of the forcing projection, so residual_scan
    # must agree with a direct evaluation of P_M f - f plus the modal part.
    sol = gk.solve_steady(gk.MODEL_I, basis30)
    got = oc.residual_scan(gk.MODEL_I, sol, 101)
    x = np.linspace(-1.0, 1.0, 103)[1:-1]
    manual = (gk.MODEL_I.a6 * cf.synthesize(sol, x, 6)
              + gk.MODEL_I.a0 * cf.synthesize(sol, x, 0)
              - gk.MODEL_I.forcing_values(x))
    assert got == pytest.approx(float(np.max(np.abs(manual))), rel=1e-12)


def test_residual_scan_validation(basis30):
    sol = gk.solve_steady(gk.MODEL_I, basis30)
    with pytest.raises(ValueError):
        oc.residual_scan(gk.MODEL_I, sol, 0)
