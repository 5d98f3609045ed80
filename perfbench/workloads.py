"""Seeded workloads: each is an endless sequence of rounds of CLI operations.

An op is the argv of one ``sixbeam`` command (without ``--out``) plus what
its checker needs.  A round is a fixed pattern of op kinds; the seed only
draws the numbers inside it, so every seed gives the same mix of sizes and
solver paths and runs stop on round boundaries.  That keeps the median and
the tail percentile inside the same latency cluster from run to run.

Solve ops draw random specs  a6 u^(6) + a4 u^(4) + a2 u'' + a0 u = f  whose
forcing is derived from the manufactured solution (x^2 - 1)^6.  That
solution satisfies the free-edge conditions and makes f an even polynomial
of degree 12, which ``--forcing`` accepts, so every solve has an exact
answer.  The coefficient ranges keep the operator negative definite, and
put every spec of one slot on the same side of the solver's symmetry and
pivot gates, so path counts repeat exactly across seeds.

This module does not import ``sixbeam``: the program receives only argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass
class Op:
    kind: str        # solve | evolve-steady | evolve-decay | verify | eigenvalues
    argv: list
    check: dict = field(default_factory=dict)


# (x^2 - 1)^6 = sum_k C(6, k) (-1)^(6-k) x^(2k), as {power: integer coefficient}
_U = {2 * k: math.comb(6, k) * (-1) ** (6 - k) for k in range(7)}


def _derivative(poly: dict, d: int) -> dict:
    return {p - d: c * math.perm(p, d) for p, c in poly.items() if p >= d}


_U2, _U4, _U6 = (_derivative(_U, d) for d in (2, 4, 6))


def manufactured_forcing(a6: float, a4: float, a2: float, a0: float) -> str:
    """``--forcing`` string of f = a6 u^(6) + a4 u^(4) + a2 u'' + a0 u for u = (x^2-1)^6."""
    terms = []
    for p in range(0, 13, 2):
        c = (a6 * _U6.get(p, 0) + a4 * _U4.get(p, 0)
             + a2 * _U2.get(p, 0) + a0 * _U.get(p, 0))
        if c != 0.0:
            terms.append(f"{p}:{float(c)!r}")
    return ",".join(terms)


def _solve_op(rng: random.Random, M: int, a4_range: tuple | None) -> Op:
    """A random definite spec at truncation M; a4 != 0 when a4_range is set."""
    a6 = rng.uniform(0.8, 1.25)
    a2 = rng.uniform(-2000.0, 6000.0)
    a0 = -rng.uniform(2.5e5, 4.0e5)
    a4 = 0.0
    if a4_range is not None:
        a4 = rng.uniform(*a4_range) * (1.0 if rng.random() < 0.5 else -1.0)
    argv = ["solve", f"--M={M}", f"--a6={a6!r}", f"--a4={a4!r}",
            f"--a2={a2!r}", f"--a0={a0!r}",
            f"--forcing={manufactured_forcing(a6, a4, a2, a0)}"]
    # Symmetric specs converge spectrally (2.3e-10 at M=40).  The a4 boundary
    # term converges like |a4| M^-4 (measured ~0.05 |a4| M^-4), so the bound
    # keeps a 4x margin over it and stays far below a 1e-6 perturbation.
    tol = 1e-9 + 0.2 * abs(a4) / M ** 4
    return Op("solve", argv, {"tol": tol})


# At M=2000 an a4 of at most 30 stays below the solver's 1e-9 symmetry gate
# (asym/max|A| = 3.9e-10 at a4=30, a6=0.8), so LDL^T runs on a nonsymmetric
# matrix and only the pivot-floor fallback keeps the answer right.  Smaller
# M fails that gate for any |a4| >= 1 and goes straight to LU.
_GATED_A4 = (5.0, 30.0)
_SMALL_A4 = (1.0, 5.0)


def solve_large_round(rng: random.Random) -> list:
    return [_solve_op(rng, 2000, None), _solve_op(rng, 1000, None),
            _solve_op(rng, 2000, _GATED_A4), _solve_op(rng, 2000, None)]


# No a4 != 0 at M=40: its Galerkin error there (~1e-7) would leave no room
# to tell a 1e-6 defect from truncation.
_SMALL_SLOTS = ((40, None), (100, None), (200, None), (40, None),
                (100, _SMALL_A4), (200, None), (40, None), (100, None),
                (200, _SMALL_A4), (40, None), (100, _SMALL_A4), (200, None))


def solve_small_round(rng: random.Random) -> list:
    return [_solve_op(rng, M, a4) for M, a4 in _SMALL_SLOTS]


_EVOLVE_M = 500
_EVOLVE_STEPS = 1000


def _steady_evolve_op(rng: random.Random, T: float, M: int, steps: int,
                      custom: bool) -> Op:
    """Model-II forcing at theta = 1; long enough to reach the fixed point.

    The slowest mode decays at rate >= 1e5, so dt >= 8e-5 contracts the
    error by ~10x per step.
    """
    dt = rng.uniform(0.8e-4, 1.2e-4)
    argv = ["evolve", f"--M={M}", "--forcing=model-II", "--theta=1",
            f"--dt={dt!r}", f"--steps={steps}"]
    spec = {"T": T, "B": None, "reaction": None}
    if custom:
        B = rng.uniform(-2000.0, 6000.0)
        reaction = -rng.uniform(2.5e5, 4.0e5)
        argv += [f"--T={T!r}", f"--B={B!r}", f"--reaction={reaction!r}"]
        spec.update(B=B, reaction=reaction)
    return Op("evolve-steady", argv, {"M": M, "tol": 1e-10, **spec})


def _decay_op(rng: random.Random) -> Op:
    """One unforced mode at theta = 1/2, B = T = 0: u_k = amp R(dt mu)^k.

    dt is drawn so dt * lam^6 lies in [0.02, 0.2] (by the asymptotic
    eigenvalue), which keeps amp R^1000 far above underflow.
    """
    parity = "even" if rng.random() < 0.5 else "odd"
    m = 1 + int(3 * rng.random())
    amp = rng.uniform(0.5, 2.0)
    asym = (m + 1.0 / 6.0) * math.pi if parity == "even" else (m - 1.0 / 3.0) * math.pi
    dt = rng.uniform(0.02, 0.2) / asym ** 6
    argv = ["evolve", f"--M={_EVOLVE_M}", "--theta=0.5", f"--dt={dt!r}",
            f"--steps={_EVOLVE_STEPS}", f"--initial={parity}:{m}:{amp!r}"]
    column = f"{'uc' if parity == 'even' else 'us'}_{m}"
    return Op("evolve-decay", argv, {"parity": parity, "m": m, "amp": amp,
                                     "dt": dt, "theta": 0.5, "column": column,
                                     "tol": 1e-10})


def evolve_long_round(rng: random.Random) -> list:
    return [_steady_evolve_op(rng, 0.0, _EVOLVE_M, _EVOLVE_STEPS, True),
            _steady_evolve_op(rng, 20.0, _EVOLVE_M, _EVOLVE_STEPS, True),
            _decay_op(rng)]


def cli_cold_round(rng: random.Random) -> list:
    """The five README example commands, verify at its maximum index.

    The seed draws the numbers the README leaves free and the rotation
    start; the manufactured forcing replaces the README's, so the custom
    solve has an exact answer.
    """
    a6 = rng.uniform(0.5, 2.0)
    a0 = -rng.uniform(10.0, 1000.0)
    ops = [
        Op("eigenvalues", ["eigenvalues", f"--m-max={5 + int(3 * rng.random())}"],
           {"tol": 1e-10}),
        Op("solve", ["solve", "--model", "II", "--M", "100"], {"tol": 1e-9}),
        Op("solve", ["solve", f"--a6={a6!r}", f"--a0={a0!r}",
                     f"--forcing={manufactured_forcing(a6, 0.0, 0.0, a0)}",
                     "--M", "40"], {"tol": 1e-9}),
        Op("verify", ["verify", "--max-index", "50"]),
        _steady_evolve_op(rng, 0.0, 60, 200, False),
    ]
    start = int(len(ops) * rng.random())
    return ops[start:] + ops[:start]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    in_process: bool
    min_rounds: int          # run on past --seconds until this many rounds
    warmup: list | None      # argv run once before timing (and in setup_s)
    gauge: str               # speed gauge matching the ops (calibrate.GAUGES)
    batch: bool = False      # time a whole round as one op


_WARMUP_SOLVE = ["solve", "--M=40", "--a6=1.0", "--a4=0.0", "--a2=1000.0",
                 "--a0=-300000.0",
                 f"--forcing={manufactured_forcing(1.0, 0.0, 1000.0, -300000.0)}"]

# solve-small times each round of 12 calls (~120 ms) as one op: per call,
# the tail (the 11th slowest of ~1400 calls) caught any ~150 ms burst of
# load from other tenants of the machine and varied by 40% between runs.
# cli-cold runs at least 6 rounds so the tail lands on the same command
# from run to run.
WORKLOADS = {
    "solve-large": Workload("solve-large", solve_large_round, True, 4, _WARMUP_SOLVE,
                            "dense-large"),
    "solve-small": Workload("solve-small", solve_small_round, True, 1, _WARMUP_SOLVE,
                            "dense-small", batch=True),
    "evolve-long": Workload("evolve-long", evolve_long_round, True, 6,
                            ["evolve", "--M=40", "--forcing=model-II", "--theta=1",
                             "--dt=0.0001", "--steps=10"], "stepping"),
    "cli-cold": Workload("cli-cold", cli_cold_round, False, 6, None, "cold-start"),
}


def rounds(workload: str, seed: int):
    """Endless iterator over the rounds of a workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload].make_round
    while True:
        yield make(rng)
