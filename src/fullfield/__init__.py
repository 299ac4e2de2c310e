"""Workbench for diagonal full field algebras built from chiral fusing data.

The package is organized around one pipeline:

* :mod:`fullfield.cyclotomic` -- exact arithmetic in a fixed Q(zeta_N),
* :mod:`fullfield.fusion` -- fusion-ring labels, duals, weights, multiplicities,
* :mod:`fullfield.chiral` -- the fusing tensor, the S3 action, the pairing of
  intertwiner spaces, dual bases and the exact chiral-level identity checks,
* :mod:`fullfield.ffa` -- the diagonal full field algebra read from the chiral
  dual bases, with its structure-level axiom checks and invariant bilinear form,
* :mod:`fullfield.lattice` -- a rank-1 even-lattice backend with truncated Fock
  modules, used both as a numeric testbed and as a fixture oracle,
* :mod:`fullfield.bundles`, :mod:`fullfield.solver`, :mod:`fullfield.suites`,
  :mod:`fullfield.cli` -- file format, pentagon/sigma solvers, suite runner and
  the command line front end.
"""

from fullfield.cyclotomic import CycField, CycScalar, FieldOrderError
from fullfield.fusion import FusionData, Violation

__all__ = [
    "CycField",
    "CycScalar",
    "FieldOrderError",
    "FusionData",
    "Violation",
]

__version__ = "0.1.0"
