"""Rank-1 even-lattice backend with truncated Fock modules.

The model works over the lattice Z*alpha with <alpha, alpha> = 2k.  Sector
labels are Z/2k; lattice points are stored as integers q meaning q*alpha/(2k).
The exact engine (:mod:`fullfield.lattice.model`) produces graded components
of intertwining operators as integer numerators over one denominator per
charge and cutoff (read back as Fractions by ``components``); the oracle
(:mod:`fullfield.lattice.oracle`) derives fusing-tensor entries and normalizes
the canonical bases exactly over Q, and emits a self-consistent data bundle
(the cyclotomic field enters only there, in ``emit_bundle``); the checks
(:mod:`fullfield.lattice.checks`) drive the diagonal algebra built on top of
it, exactly where decidable and numerically at sample points otherwise.
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
from fullfield.lattice.checks import (
    DiagonalFFA,
    check_associativity,
    check_grading_axioms,
    check_jacobi_residues,
    check_residue_lemma,
    check_skew_symmetry,
    check_virasoro,
)

__all__ = [
    "CanonicalGauge",
    "DiagonalFFA",
    "FockVector",
    "LatticeModel",
    "LatticeSpec",
    "OracleError",
    "check_associativity",
    "check_grading_axioms",
    "check_jacobi_residues",
    "check_residue_lemma",
    "check_skew_symmetry",
    "check_virasoro",
    "derive_f_entry",
    "emit_bundle",
    "lattice_fusion",
    "raw_f_ratio",
]
