"""Rank-1 even-lattice backend with truncated Fock modules.

The model works over the lattice Z*alpha with <alpha, alpha> = 2k.  Sector
labels are Z/2k; lattice points are stored as integers q meaning q*alpha/(2k).
The exact engine (:mod:`fullfield.lattice.model`) produces graded components
of intertwining operators as integer numerators over one denominator per
charge and cutoff (read back as Fractions by ``components``); the oracle
(:mod:`fullfield.lattice.oracle`) derives fusing-tensor entries and normalizes
the canonical bases exactly over Q, and emits a self-consistent data bundle
(the cyclotomic field enters only there, in ``emit_bundle``).  The package
exports these exact names alone.  The checks (:mod:`fullfield.lattice.checks`,
imported by that path, the one module that loads numpy) drive the diagonal
algebra built on top of it, exactly where decidable and numerically at
sample points otherwise.
"""

from fullfield.lattice.model import FockVector, LatticeModel, LatticeSpec
from fullfield.lattice.oracle import (
    CanonicalGauge,
    OracleError,
    derive_f_entry,
    emit_bundle,
    lattice_fusion,
    raw_f_ratio,
)

__all__ = [
    "CanonicalGauge",
    "FockVector",
    "LatticeModel",
    "LatticeSpec",
    "OracleError",
    "derive_f_entry",
    "emit_bundle",
    "lattice_fusion",
    "raw_f_ratio",
]
