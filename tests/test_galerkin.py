"""Steady Galerkin solves, their solver paths, and time stepping."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_reference as ref
from sixbeam import coefficients as cf
from sixbeam import galerkin as gk
from sixbeam import oracle as oc
from sixbeam.eigenbasis import MAX_MODES, build_basis


def _exact_solution(x):
    return (x * x - 1.0) ** 6


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        gk.BvpSpec(a6=0.0, a4=0.0, a2=0.0, a0=1.0, forcing=())
    with pytest.raises(ValueError):
        gk.BvpSpec(a6=1.0, a4=0.0, a2=0.0, a0=0.0, forcing=((3, 1.0),))
    with pytest.raises(ValueError):
        gk.BvpSpec(a6=1.0, a4=0.0, a2=0.0, a0=0.0, forcing=((14, 1.0),))


def test_spec_normalizes_forcing():
    spec = gk.BvpSpec(a6=1.0, a4=0.0, a2=0.0, a0=0.0,
                      forcing=((4, 1.0), (2, 3.0), (4, 2.0), (6, 0.0)))
    assert spec.forcing == ((2, 3.0), (4, 3.0))
    x = np.array([-0.7, 0.1, 0.9])
    np.testing.assert_allclose(spec.forcing_values(x), 3 * x ** 2 + 3 * x ** 4)


def _apply_operator(spec, x):
    """Evaluate a6 u^(6) + a4 u^(4) + a2 u'' + a0 u for u = (x^2-1)^6."""
    poly = np.polynomial.Polynomial([1, 0, -1]) ** 6
    acc = np.zeros_like(x)
    for a, k in ((spec.a6, 6), (spec.a4, 4), (spec.a2, 2), (spec.a0, 0)):
        if a != 0.0:
            acc = acc + a * poly.deriv(k)(x) if k else acc + a * poly(x)
    return acc


@pytest.mark.parametrize("spec", [gk.MODEL_I, gk.MODEL_II], ids=["I", "II"])
def test_model_forcings_match_operator_applied_to_exact_solution(spec):
    x = np.linspace(-1.0, 1.0, 13)
    np.testing.assert_allclose(spec.forcing_values(x), _apply_operator(spec, x),
                               rtol=1e-13, atol=1e-9)


def test_forcing_projection_mean(basis60):
    for spec in (gk.MODEL_I, gk.MODEL_II):
        f0, fc = gk.forcing_projection(spec, basis60)
        # int f = a0 * int (x^2-1)^6 = a0 * 2048/3003 exactly, since the
        # derivative terms have vanishing mean (flat endpoints).
        assert f0 == pytest.approx(spec.a0 * 2048.0 / 3003.0, rel=1e-13)
        assert fc.shape == (60,)


# ---------------------------------------------------------------------------
# Steady solves: model problems
# ---------------------------------------------------------------------------

def test_model_i_solution_error(basis100):
    sol = gk.solve_steady(gk.MODEL_I, basis100)
    xs = np.linspace(-1.0, 1.0, 201)
    err = np.max(np.abs(cf.synthesize(sol, xs) - _exact_solution(xs)))
    assert err <= 5e-13  # stretch tier


def test_model_ii_solution_error(basis100):
    sol = gk.solve_steady(gk.MODEL_II, basis100)
    xs = np.linspace(-1.0, 1.0, 201)
    err = np.max(np.abs(cf.synthesize(sol, xs) - _exact_solution(xs)))
    assert err <= 5e-13  # stretch tier


def test_mean_coefficient_is_exact_rational(basis60):
    # Row 0 decouples with an integer-arithmetic right-hand side, so the mean
    # coefficient is the correctly rounded float of 2048/3003 in both models.
    for spec in (gk.MODEL_I, gk.MODEL_II):
        sol = gk.solve_steady(spec, basis60)
        assert sol.u0c == 2048.0 / 3003.0


def test_model_solutions_match_projection_of_exact_solution(basis60):
    proj = cf.project(_exact_solution, basis60)
    sol = gk.solve_steady(gk.MODEL_II, basis60)
    assert np.max(np.abs(sol.uc - proj.uc)) < 1e-11
    for m, v in ref.UN_EXACT.items():
        if m <= 4:
            assert sol.uc[m] == pytest.approx(v, rel=1e-11)


# ---------------------------------------------------------------------------
# Assembly and solver paths
# ---------------------------------------------------------------------------

def test_assembled_matrix_is_symmetric(basis60):
    A, fc, f0 = gk.assemble_steady(gk.MODEL_II, basis60)
    assert A.shape == (60, 60)
    asym = np.max(np.abs(A - A.T)) / np.max(np.abs(A))
    assert asym < 1e-14
    assert f0 == pytest.approx(gk.MODEL_II.a0 * 2048 / 3003, rel=1e-13)


def test_model_ii_record_has_negative_pivots(basis60):
    # The operator is negative definite on the mode space, so the Cholesky
    # path runs and every pivot of A = L diag(D) L^T is negative.
    record = gk.solve_steady(gk.MODEL_II, basis60).record
    assert record["used"] and record["pivots_all_negative"]
    assert record["pivot_min"] <= record["pivot_max"] < 0.0


def test_symmetric_solve_at_m300_takes_cholesky_path_without_warning():
    # Pivots span O(lam_1^6) to O(lam_M^6); no pivot threshold may reject
    # them once M outgrows a fixed ratio (here 1e-13).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = gk.solve_steady(gk.MODEL_II, build_basis(300)).record
    assert record["used"] and record["pivots_all_negative"]


def test_lu_paths_record_their_reason(basis30):
    spec = gk.BvpSpec(a6=1.0, a4=-2.0, a2=-5.0, a0=7.0, forcing=((2, 1.0),))
    sol = gk.solve_steady(spec, basis30)
    assert sol.record == {"used": False, "reason": "matrix not symmetric"}
    lam3 = basis30.lam_even[3]
    spec = gk.BvpSpec(a6=1.0, a4=0.0, a2=-10.0, a0=(lam3 + 1.0) ** 6,
                      forcing=((2, 1.0),))
    with pytest.warns(RuntimeWarning):
        sol = gk.solve_steady(spec, basis30)
    assert sol.record == {"used": False, "reason": "not definite"}


def test_unsatisfiable_constant_mode_balance_fails_before_the_dense_solve():
    # a0 = 0 with a nonzero forcing mean has no steady state; with a4 = 0 the
    # balance is known before assembly, so no factorization (and none of its
    # fallback warnings) runs first.
    spec = gk.BvpSpec(a6=1.0, a4=0.0, a2=-5544.0, a0=0.0,
                      forcing=gk.MODEL_II.forcing)
    with pytest.raises(ArithmeticError, match="constant-mode balance"):
        gk.solve_steady(spec, build_basis(10))


def test_indefinite_system_falls_back_with_warning(basis30):
    # A reaction term large enough to flip some diagonal signs makes the
    # matrix indefinite; the solver must warn and use a pivoted factorization.
    lam3 = basis30.lam_even[3]
    spec = gk.BvpSpec(a6=1.0, a4=0.0, a2=-10.0, a0=(lam3 + 1.0) ** 6,
                      forcing=((2, 1.0),))
    with pytest.warns(RuntimeWarning):
        sol = gk.solve_steady(spec, basis30)
    A, fc, _ = gk.assemble_steady(spec, basis30)
    res = A @ sol.uc[1:] - fc
    assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.max(np.abs(fc)))


def test_resonant_diagonal_is_rejected(basis30):
    lam1 = basis30.lam_even[1]
    spec = gk.BvpSpec(a6=1.0, a4=0.0, a2=0.0, a0=lam1 ** 6, forcing=((2, 1.0),))
    with pytest.raises(ArithmeticError):
        gk.solve_steady(spec, basis30)


def test_zero_mean_consistency_without_reaction(basis30):
    # With a0 = a2 = a4 = 0 the mean equation degenerates to 0 = int f.
    ok = gk.BvpSpec(a6=1.0, a4=0.0, a2=0.0, a0=0.0,
                    forcing=((0, 1.0), (2, -3.0)))  # zero-mean forcing
    sol = gk.solve_steady(ok, basis30)
    assert sol.u0c == 0.0
    bad = gk.BvpSpec(a6=1.0, a4=0.0, a2=0.0, a0=0.0, forcing=((0, 1.0),))
    with pytest.raises(ArithmeticError):
        gk.solve_steady(bad, basis30)


# ---------------------------------------------------------------------------
# Matrix-free Jacobi-PCG (a4 = 0 above the crossover)
# ---------------------------------------------------------------------------

_ABOVE = gk._PCG_CROSSOVER + 1


@pytest.mark.parametrize("M", [_ABOVE, 1000])
@pytest.mark.parametrize("a2", [-5544.0, 3000.0])
def test_matrix_free_matvec_matches_the_dense_block(M, a2):
    basis = build_basis(M)
    spec = gk.BvpSpec(a6=1.0, a4=0.0, a2=a2, a0=-199584.0)
    A, _ = gk._mode_block(spec, basis, "even")
    d, matvec = gk._symmetric_operator(spec, basis)
    assert np.array_equal(d, np.diag(A))
    rng = np.random.default_rng(M)
    # A decaying vector (like a solution) and a flat one, where the
    # diagonal dominates A v.
    for v in (rng.standard_normal(M) / np.arange(1, M + 1) ** 4,
              rng.standard_normal(M)):
        ref = A @ v
        assert np.linalg.norm(matvec(v) - ref) <= 1e-15 * np.linalg.norm(ref)


def _random_definite_spec(rng):
    # The ranges of the benchmark's random solves: definite for every draw.
    return gk.BvpSpec(a6=rng.uniform(0.8, 1.25), a4=0.0,
                      a2=rng.uniform(-2000.0, 6000.0), a0=-rng.uniform(2.5e5, 4.0e5),
                      forcing=gk.MODEL_II.forcing)


def test_pcg_solve_matches_the_dense_solve_at_m2000():
    basis = build_basis(2000)
    rng = np.random.default_rng(2000)
    for spec in (gk.MODEL_II, _random_definite_spec(rng), _random_definite_spec(rng)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = gk.solve_steady(spec, basis)
        A, fc, _ = gk.assemble_steady(spec, basis)
        dense = np.linalg.solve(A, fc)
        assert np.linalg.norm(sol.uc[1:] - dense) <= 1e-14 * np.linalg.norm(dense)
        record = sol.record
        assert record["path"] == "pcg" and not record["used"]
        assert 1 <= record["iterations"] <= 20
        assert record["residual"] <= 1e-14
        assert 1.0 <= record["cond_estimate"] < 2.0
    # Model II's Jacobi-scaled matrix has condition number ~1.5146 at every M.
    assert gk.solve_steady(gk.MODEL_II, basis).record["cond_estimate"] == \
        pytest.approx(1.5146, abs=1e-4)


def test_pcg_path_falls_back_to_lu_with_its_reason():
    # The M = 30 case of test_lu_paths_record_their_reason, above the
    # crossover: a diagonal entry of -A is negative, so -A is not definite.
    basis = build_basis(_ABOVE)
    lam3 = basis.lam_even[3]
    spec = gk.BvpSpec(a6=1.0, a4=0.0, a2=-10.0, a0=(lam3 + 1.0) ** 6,
                      forcing=((2, 1.0),))
    with pytest.warns(RuntimeWarning, match="not definite"):
        sol = gk.solve_steady(spec, basis)
    assert sol.record == {"used": False, "reason": "not definite"}
    A, fc, _ = gk.assemble_steady(spec, basis)
    assert np.max(np.abs(A @ sol.uc[1:] - fc)) < 1e-9 * np.max(np.abs(fc))


def test_pcg_breakdown_falls_back_to_lu():
    # a0 between the lowest eigenvalue and the lowest diagonal entry of -A
    # (at a0 = 0) keeps every diagonal entry positive but leaves -A
    # indefinite, which CG meets as p^T (-A) p <= 0.
    basis = build_basis(_ABOVE)
    A0, _, _ = gk.assemble_steady(gk.BvpSpec(a6=1.0, a4=0.0, a2=-5544.0, a0=0.0), basis)
    a0 = 0.5 * (np.linalg.eigvalsh(-A0)[0] + np.min(np.diag(-A0)))
    spec = gk.BvpSpec(a6=1.0, a4=0.0, a2=-5544.0, a0=a0, forcing=((2, 1.0),))
    assert np.all(np.diag(-A0) - a0 > 0.0)
    with pytest.warns(RuntimeWarning, match="not definite"):
        sol = gk.solve_steady(spec, basis)
    assert sol.record == {"used": False, "reason": "not definite"}


def test_pcg_iteration_cap_falls_back_to_lu(monkeypatch):
    basis = build_basis(_ABOVE)
    monkeypatch.setattr(gk, "_PCG_MAX_ITERATIONS", 2)
    with pytest.warns(RuntimeWarning, match="not definite"):
        sol = gk.solve_steady(gk.MODEL_II, basis)
    assert sol.record == {"used": False, "reason": "not definite"}
    monkeypatch.undo()
    assert np.max(np.abs(sol.uc - gk.solve_steady(gk.MODEL_II, basis).uc)) < 1e-15


# ---------------------------------------------------------------------------
# Interior residual: identity with the forcing-projection tail
# ---------------------------------------------------------------------------

def test_modal_residual_is_tiny(basis100):
    # In the Galerkin (modal) sense both model problems are solved to
    # near machine precision.
    for spec in (gk.MODEL_I, gk.MODEL_II):
        A, fc, _ = gk.assemble_steady(spec, basis100)
        sol = gk.solve_steady(spec, basis100)
        res = A @ sol.uc[1:] - fc
        assert np.max(np.abs(res)) < 1e-9 * np.max(np.abs(fc))


def test_interior_residual_equals_forcing_tail(basis100):
    # The pointwise interior residual of a spectral Galerkin solution equals
    # the unprojected forcing remainder P_M f - f, plus (for operators with
    # lower-order derivative terms) the out-of-span component of those
    # derivatives, which is orders of magnitude smaller.  Confirming the
    # identity shows the solve itself contributes no additional error.
    for spec, tol in ((gk.MODEL_I, 1e-13), (gk.MODEL_II, 5e-9)):
        sol = gk.solve_steady(spec, basis100)
        x = np.linspace(-1.0, 1.0, 203)[1:-1]
        f0, fc = gk.forcing_projection(spec, basis100)
        proj = cf.CoefficientSet(basis=basis100, u0c=f0,
                                 uc=np.concatenate(([0.0], fc)),
                                 us=np.zeros(101))
        tail = cf.synthesize(proj, x) - spec.forcing_values(x)
        residual = (spec.a6 * cf.synthesize(sol, x, 6)
                    + spec.a2 * cf.synthesize(sol, x, 2)
                    + spec.a0 * cf.synthesize(sol, x)
                    - spec.forcing_values(x))
        scale = np.max(np.abs(spec.forcing_values(x)))
        assert np.max(np.abs(residual - tail)) < tol * scale


@pytest.mark.xfail(strict=True, reason=(
    "The pointwise interior residual of a truncated eigenfunction expansion "
    "equals the forcing-projection tail, which decays only algebraically "
    "(~n^-2 per mode); at M = 100 it is ~2.3e2 against a gate of "
    "1e-6 * max|f| ~ 4.6e-2, so this tolerance is unattainable for any "
    "correct spectral Galerkin solver.  The meaningful invariants are "
    "covered by test_modal_residual_is_tiny and "
    "test_interior_residual_equals_forcing_tail."))
def test_pointwise_residual_below_forcing_scale(basis100):
    for spec in (gk.MODEL_I, gk.MODEL_II):
        sol = gk.solve_steady(spec, basis100)
        res = oc.residual_scan(spec, sol, 201)
        x = np.linspace(-1.0, 1.0, 203)[1:-1]
        assert res <= 1e-6 * np.max(np.abs(spec.forcing_values(x)))


# ---------------------------------------------------------------------------
# Semi-discrete system and time stepping
# ---------------------------------------------------------------------------

def test_semi_discrete_shapes_and_structure(basis30):
    sys_ = gk.assemble_semi_discrete(basis30, B=1.0, T=1.0, reaction=2.0)
    assert sys_.A_even.shape == (31, 31)
    assert sys_.A_odd.shape == (30, 30)
    assert sys_.A_even[0, 0] == 2.0
    # Mean row couples through the fourth-derivative mean column only.
    g0 = cf.operator_matrix(basis30, "even", "fourth_derivative").mean_row
    np.testing.assert_allclose(sys_.A_even[0, 1:], -g0, rtol=1e-13)
    assert np.all(sys_.A_even[1:, 0] == 0.0)


def test_semi_discrete_diagonal_when_uncoupled(basis30):
    sys_ = gk.assemble_semi_discrete(basis30, B=0.0, T=0.0, reaction=-3.0)
    lam6 = basis30.lam_even[1:] ** 6
    np.testing.assert_allclose(np.diag(sys_.A_even)[1:], -3.0 - lam6, rtol=1e-15)
    assert np.max(np.abs(sys_.A_even - np.diag(np.diag(sys_.A_even)))) == 0.0


def test_evolve_validation(basis30):
    sys_ = gk.assemble_semi_discrete(basis30, B=0.0, T=0.0)
    z = cf.CoefficientSet.zeros(basis30)
    with pytest.raises(ValueError):
        gk.evolve(sys_, z, dt=0.0, steps=1)
    with pytest.raises(ValueError):
        gk.evolve(sys_, z, dt=1e-3, steps=-1)
    with pytest.raises(ValueError):
        gk.evolve(sys_, z, dt=1e-3, steps=1, theta=1.5)
    other = cf.CoefficientSet.zeros(build_basis(5))
    with pytest.raises(ValueError):
        gk.evolve(sys_, other, dt=1e-3, steps=1)
    stacked = gk.evolve(sys_, z, dt=1e-3, steps=2)
    with pytest.raises(ValueError):
        gk.evolve(sys_, stacked, dt=1e-3, steps=1)


def test_evolve_zero_steps_echoes_initial(basis30):
    sys_ = gk.assemble_semi_discrete(basis30, B=0.0, T=0.0)
    uc = np.zeros(31)
    uc[2] = 0.7
    init = cf.CoefficientSet(basis=basis30, u0c=0.0, uc=uc, us=np.zeros(31))
    traj = gk.evolve(sys_, init, dt=1e-3, steps=0)
    assert len(traj.uc) == 1
    np.testing.assert_array_equal(traj.uc[0], uc)


def test_theta_scheme_exact_decay_factor(basis30):
    # For B = T = 0 each mode evolves independently:
    #   u_{k+1} = u_k (1 - (1-theta) dt lam^6) / (1 + theta dt lam^6)
    sys_ = gk.assemble_semi_discrete(basis30, B=0.0, T=0.0)
    lam1 = basis30.lam_even[1]
    dt, steps = 1e-6, 20
    for theta in (0.0, 0.5, 1.0):
        uc = np.zeros(31)
        uc[1] = 1.0
        init = cf.CoefficientSet(basis=basis30, u0c=0.0, uc=uc, us=np.zeros(31))
        traj = gk.evolve(sys_, init, dt, steps, theta)
        g = (1.0 - (1.0 - theta) * dt * lam1 ** 6) / (1.0 + theta * dt * lam1 ** 6)
        expected = g ** steps
        assert traj.uc[-1, 1] == pytest.approx(expected, rel=1e-13)


def test_no_cross_mode_coupling_without_gradient_terms(basis30):
    sys_ = gk.assemble_semi_discrete(basis30, B=0.0, T=0.0)
    uc = np.zeros(31)
    uc[4] = 1.0
    init = cf.CoefficientSet(basis=basis30, u0c=0.0, uc=uc, us=np.zeros(31))
    traj = gk.evolve(sys_, init, 1e-5, 10, 0.5)
    assert traj.u0c[-1] == 0.0
    assert np.max(np.abs(traj.us[-1])) == 0.0
    mask = np.ones(31, dtype=bool)
    mask[4] = False
    assert np.max(np.abs(traj.uc[-1][mask])) == 0.0


def test_crank_nicolson_is_second_order(basis30):
    # Against the exact single-mode decay e^{-lam^6 t}, halving dt divides the
    # Crank-Nicolson error by ~4.
    sys_ = gk.assemble_semi_discrete(basis30, B=0.0, T=0.0)
    lam1 = basis30.lam_even[1]
    t_final = 2.0 / lam1 ** 6
    exact = np.exp(-lam1 ** 6 * t_final)
    errors = []
    for steps in (16, 32, 64):
        uc = np.zeros(31)
        uc[1] = 1.0
        init = cf.CoefficientSet(basis=basis30, u0c=0.0, uc=uc, us=np.zeros(31))
        traj = gk.evolve(sys_, init, t_final / steps, steps, 0.5)
        errors.append(abs(traj.uc[-1, 1] - exact))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


def test_forced_evolution_converges_to_steady_solution(basis60):
    # Backward Euler damps every mode monotonically, so a moderate horizon
    # reaches the steady solve to near machine precision.
    sys_ = gk.model_ii_semi_discrete(basis60)
    init = cf.CoefficientSet.zeros(basis60)
    traj = gk.evolve(sys_, init, dt=1e-4, steps=200, theta=1.0)
    steady = gk.solve_steady(gk.MODEL_II, basis60)
    dev = max(abs(traj.u0c[-1] - steady.u0c), np.max(np.abs(traj.uc[-1] - steady.uc)),
              np.max(np.abs(traj.us[-1] - steady.us)))
    assert dev < 1e-8


def test_steady_state_is_scheme_fixed_point(basis30):
    # One theta-step applied to the steady solution returns it unchanged
    # (up to roundoff), independent of theta.
    sys_ = gk.model_ii_semi_discrete(basis30)
    steady = gk.solve_steady(gk.MODEL_II, basis30)
    for theta in (0.0, 0.5, 1.0):
        traj = gk.evolve(sys_, steady, dt=1e-5, steps=1, theta=theta)
        assert abs(traj.u0c[-1] - steady.u0c) < 1e-12
        assert np.max(np.abs(traj.uc[-1] - steady.uc)) < 1e-12


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_evolve_matches_step_by_step_solves_for_a_coupled_forced_system(basis30, theta):
    # B, T and reaction all nonzero: both blocks are dense and nonsymmetric,
    # the constant mode couples to the even modes, and the forcing is model II's.
    sys_ = gk.model_ii_semi_discrete(basis30, B=-300.0, T=20.0, reaction=-5000.0)
    assert not np.array_equal(sys_.A_odd, sys_.A_odd.T)
    rng = np.random.default_rng(3)
    decay = np.arange(1, 31) ** 2.0
    uc = np.concatenate(([0.0], rng.standard_normal(30) / decay))
    us = np.concatenate(([0.0], rng.standard_normal(30) / decay))
    init = cf.CoefficientSet(basis=basis30, u0c=0.4, uc=uc, us=us)
    dt, steps = 1e-4, 50
    traj = gk.evolve(sys_, init, dt, steps, theta)
    assert traj.u0c.shape == (steps + 1,)
    assert traj.uc.shape == traj.us.shape == (steps + 1, 31)
    for A, f, u, got in (
            (sys_.A_even, sys_.f_even, np.concatenate(([0.4], uc[1:])),
             np.column_stack((traj.u0c, traj.uc[:, 1:]))),
            (sys_.A_odd, sys_.f_odd, us[1:], traj.us[:, 1:])):
        eye = np.eye(len(f))
        lhs, rhs = eye - theta * dt * A, eye + (1.0 - theta) * dt * A
        ref = [u]
        for _ in range(steps):
            u = np.linalg.solve(lhs, rhs @ u + dt * f)
            ref.append(u)
        ref = np.array(ref)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_unstable_integration_aborts(basis30):
    sys_ = gk.assemble_semi_discrete(basis30, B=0.0, T=0.0)
    uc = np.zeros(31)
    uc[30] = 1.0
    init = cf.CoefficientSet(basis=basis30, u0c=0.0, uc=uc, us=np.zeros(31))
    with pytest.raises(ArithmeticError):
        gk.evolve(sys_, init, dt=1.0, steps=400, theta=0.0)


# ---------------------------------------------------------------------------
# Overflow instrumentation
# ---------------------------------------------------------------------------

def test_large_basis_solve_under_overflow_traps():
    with np.errstate(over="raise", invalid="raise"):
        basis = build_basis(150)
        sol = gk.solve_steady(gk.MODEL_II, basis)
        xs = np.linspace(-1.0, 1.0, 101)
        err = np.max(np.abs(cf.synthesize(sol, xs) - _exact_solution(xs)))
    assert err < 1e-12


def test_model_ii_at_max_modes_solves_in_linear_memory():
    # Dense A alone would take 800 MB at MAX_MODES; the matrix-free path
    # keeps one 256-row block of the Cauchy kernel.
    tracemalloc.start()
    try:
        with np.errstate(over="raise", invalid="raise"):
            sol = gk.solve_steady(gk.MODEL_II, build_basis(MAX_MODES))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.record["path"] == "pcg"
    assert peak < 100e6
    xs = np.linspace(-1.0, 1.0, 201)
    with np.errstate(over="raise", invalid="raise"):
        err = np.max(np.abs(cf.synthesize(sol, xs) - _exact_solution(xs)))
    assert err <= 1e-12


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

_B20 = build_basis(20)
_SYS20 = gk.assemble_semi_discrete(_B20, B=0.0, T=0.0)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 20), theta=st.floats(0.0, 1.0),
       steps=st.integers(1, 30))
def test_decay_factor_property(m, theta, steps):
    lam = _B20.lam_even[m]
    dt = 0.5 / lam ** 6  # scale dt to the mode so the factor stays moderate
    uc = np.zeros(21)
    uc[m] = 1.0
    init = cf.CoefficientSet(basis=_B20, u0c=0.0, uc=uc, us=np.zeros(21))
    traj = gk.evolve(_SYS20, init, dt, steps, theta)
    g = (1.0 - (1.0 - theta) * dt * lam ** 6) / (1.0 + theta * dt * lam ** 6)
    assert traj.uc[-1, m] == pytest.approx(g ** steps, rel=1e-12, abs=1e-300)


@settings(max_examples=30, deadline=None)
@given(c2=st.floats(-100.0, 100.0), c4=st.floats(-100.0, 100.0),
       a2=st.just(0.0) | st.floats(-100.0, 100.0),
       a4=st.just(0.0) | st.floats(-100.0, 0.0))
def test_steady_solve_satisfies_modal_equations_property(c2, c4, a2, a4):
    # a4 <= 0 keeps the operator away from resonance (a4 ~ +10 makes it
    # singular at M = 20); the draws cover the diagonal, Cholesky and LU paths.
    spec = gk.BvpSpec(a6=1.0, a4=a4, a2=a2, a0=7.0,
                      forcing=((2, c2), (4, c4)))
    sol = gk.solve_steady(spec, _B20)
    A, fc, f0 = gk.assemble_steady(spec, _B20)
    res = A @ sol.uc[1:] - fc
    scale = max(1.0, float(np.max(np.abs(fc))))
    assert np.max(np.abs(res)) < 1e-10 * scale
    assert sol.record["used"] == (a4 == 0.0 and a2 != 0.0)
