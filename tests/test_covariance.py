"""Every suite outcome is independent of the basis and of the label order.

The paper's identities are basis independent, and a bundle's label order is
only the order of its declaration.  So for every strictly loading fixture,
and for the bundles the lattice oracle emits at k = 1 and 2, each suite's
verdict, error and multiset of failing identities must survive
(a) diagonal basis changes on the non-canonical spaces with scalars
2 zeta^a + zeta^b, through ``transport_bundle``, and
(b) every declared label order, the dual list permuted with the labels.
A suite that compares a basis-dependent number, such as a non-canonical F
entry, with a constant fails (a).
"""

import itertools
import random
from collections import Counter
from functools import cache

import pytest

from fullfield.bundles import bundle_from_obj, bundle_to_obj
from fullfield.ffa import transport_bundle
from fullfield.fixtures import MUTATION_TARGETS, MUTATIONS, REGULAR, load_fixture
from fullfield.lattice import LatticeSpec, emit_bundle
from fullfield.suites import run_suites

# a mutation that breaks the fusion-ring invariants does not load strictly
STRICT = REGULAR + tuple(m for m in MUTATIONS if MUTATION_TARGETS[m] != "validate")
EMITTED = {"emitted-k1": 1, "emitted-k2": 2}
BUNDLES = STRICT + tuple(EMITTED)
BASIS_CHANGES = 3


def outcome(bundle) -> dict:
    """Per suite: verdict, error and the multiset of failing identities."""
    return {rep.suite: (rep.verdict, rep.error,
                        Counter(r.identity for r in rep.records if r.status == "fail"))
            for rep in run_suites(bundle)}


@cache
def base(name: str):
    bundle = (emit_bundle(LatticeSpec(EMITTED[name], 8)) if name in EMITTED
              else load_fixture(name))
    return bundle, outcome(bundle)


def diagonal_change(bundle, rng: random.Random) -> dict:
    """A diagonal basis change on every non-canonical space, each entry
    2 zeta^a + zeta^b, which is never 0."""
    field, n = bundle.field, bundle.field.order
    changes = {}
    for space in bundle.fusion.spaces():
        if space in bundle.canonical:
            continue
        dim = bundle.fusion.n(*space)
        changes[space] = [[field.rational(2) * field.zeta(rng.randrange(n))
                           + field.zeta(rng.randrange(n)) if i == j else field.zero()
                           for j in range(dim)] for i in range(dim)]
    return changes


@pytest.mark.parametrize("name", BUNDLES)
def test_diagonal_basis_changes_keep_every_outcome(name):
    bundle, want = base(name)
    rng = random.Random(name)
    for trial in range(BASIS_CHANGES):
        moved = transport_bundle(bundle, diagonal_change(bundle, rng))
        assert outcome(moved) == want, trial


@pytest.mark.parametrize("name", BUNDLES)
def test_every_label_order_keeps_every_outcome(name):
    bundle, want = base(name)
    obj = bundle_to_obj(bundle)
    fusion = obj["fusion"]
    dual = dict(zip(fusion["labels"], fusion["dual"]))
    for order in itertools.permutations(fusion["labels"]):
        fusion["labels"], fusion["dual"] = list(order), [dual[a] for a in order]
        assert outcome(bundle_from_obj(obj)) == want, order
