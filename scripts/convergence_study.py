#!/usr/bin/env python3
"""Error versus truncation size for the model problems.

Sweeps M over a list of truncation sizes, reporting the max pointwise error
of each solve and the observed algebraic convergence order between
consecutive sizes.  The third column is model II with a4 = -20
(``manufactured_spec``, the same exact solution (x^2 - 1)^6).  For a4 = 0
(both models) the coefficients decay like n^-8 and the max error like
M^-7.  For a4 != 0 the max error decays only like M^-4, which the third
column's orders (about 4) show.
"""

import argparse

import numpy as np

from sixbeam import coefficients as cf
from sixbeam import galerkin as gk
from sixbeam.eigenbasis import build_basis


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="*",
                    default=[10, 20, 40, 80, 160],
                    help="truncation sizes M to sweep")
    ap.add_argument("--samples", type=int, default=201)
    args = ap.parse_args()

    xs = np.linspace(-1.0, 1.0, args.samples)
    exact = (xs * xs - 1.0) ** 6
    specs = (gk.MODEL_I, gk.MODEL_II,
             gk.manufactured_spec(1.0, -20.0, gk.MODEL_II.a2, gk.MODEL_II.a0,
                                  name="a4=-20"))
    errs = {spec.name: [] for spec in specs}

    print(" ".join([f"{'M':>6}"] + [f"{spec.name + ' error':>16} {'order':>7}"
                                    for spec in specs]))
    for i, M in enumerate(args.sizes):
        basis = build_basis(M)
        row = [f"{M:6d}"]
        for spec in specs:
            sol = gk.solve_steady(spec, basis)
            err = float(np.max(np.abs(cf.synthesize(sol, xs) - exact)))
            errs[spec.name].append(err)
            if i > 0 and err > 0.0:
                ratio = errs[spec.name][i - 1] / err
                order = np.log(ratio) / np.log(M / args.sizes[i - 1])
                row.append(f"{err:16.3e} {order:7.2f}")
            else:
                row.append(f"{err:16.3e} {'-':>7}")
        print(" ".join(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
