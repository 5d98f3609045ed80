"""Spectral solver built on the eigenfunctions of a sixth-order
Sturm-Liouville problem on [-1, 1] with free-edge boundary conditions.

Public surface:

- :mod:`sixbeam.eigenbasis` -- eigenvalues and eigenfunction evaluation.
- :mod:`sixbeam.coefficients` -- closed-form derivative-projection tables,
  forcing projections, and series synthesis.
- :mod:`sixbeam.oracle` -- adaptive-quadrature reference implementations used
  to cross-validate every closed form.
- :mod:`sixbeam.galerkin` -- steady BVP solves and semi-discrete time stepping.
- :mod:`sixbeam.cli` -- the ``sixbeam`` command-line tool.

``import sixbeam`` loads none of them: import the submodule you use.
"""

__version__ = "0.1.0"
