"""Shipped data bundles: regular fixtures and one mutation per suite.

Regenerate with ``python scripts/make_fixtures.py``; the files are canonical
JSON, so regeneration is byte-stable.
"""

from __future__ import annotations

from importlib import resources

from fullfield.bundles import Bundle, bundle_from_obj

import json

REGULAR = ("trivial", "z2k1", "z4k2", "ising", "fibonacci")

# mutation name -> the suite it must fail
MUTATION_TARGETS = {
    "mut_validate": "validate",
    "mut_pentagon": "pentagon",
    "mut_pairing": "nondegeneracy",
    "mut_fusing": "fusing",
    "mut_s3": "s3",
    "mut_assoc": "ffa-assoc",
    "mut_skew": "skew",
    "mut_invariance": "invariance",
}
MUTATIONS = tuple(MUTATION_TARGETS)


def fixture_bytes(name: str) -> bytes:
    return resources.files(__package__).joinpath(f"{name}.json").read_bytes()


def load_fixture(name: str, strict: bool = True) -> Bundle:
    obj = json.loads(fixture_bytes(name).decode("utf-8"))
    return bundle_from_obj(obj, strict=strict)
