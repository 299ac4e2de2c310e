"""The diagonal full field algebra assembled from dual bases.

The structure tensor of the two-variable vertex map on the sector sum
(one sector per label, paired with its dual label) is, per label triple, the
canonical element: the identity matrix on the bundle basis tensored with the
dual-basis coefficient matrix on the primed side.  Those matrices are
``ChiralData.dual_basis``; the checks here read them, ``f_a`` and the fusion
weights from the ``ChiralData`` and verify the finitely-decidable axioms at the
structure-constant level:

* associativity: the double contraction of the fusing tensor against its
  dual-basis transport collapses to the Kronecker pattern; this is
  ``ChiralData.fusing_delta``, evaluated once per ``ChiralData``,
* skew symmetry: pushing the canonical element through sigma12 x sigma12
  (with the weight-shift phases, which cancel exactly) reproduces the
  canonical element of the swapped block,
* single-valuedness: integral left/right weight difference per sector,
* invariance of the bilinear form with the vacuum-channel weights, read
  from ``ChiralData.sigma23_pairing_factor``.

``transport_bundle`` moves F with ``linalg.change_basis4``, the same 4-slot
change of basis the associativity check applies to the primed F.
"""

from __future__ import annotations

from itertools import product

from fullfield.bundles import Bundle, BundleError
from fullfield.chiral import CheckRecord, ChiralData
from fullfield.cyclotomic import CycScalar
from fullfield.fusion import FusionData, Space
from fullfield.linalg import change_basis4, identity, mat_inv, mat_mul, mat_scale, transpose


def sectors(fusion: FusionData) -> list[tuple[str, str]]:
    """The sectors (a, a') of the sector sum, in label order."""
    return [(a, fusion.dual[a]) for a in fusion.labels]


def construct(chiral: ChiralData) -> None:
    """Build on ``chiral`` every dual basis and form weight F_a the structure
    tensor needs; refused if any is missing.

    Callers are expected to have run the nondegeneracy suite; this only
    enforces what the assembly itself needs, namely invertible pairings and
    nonzero canonical weights.
    """
    try:
        for space in chiral.fusion.spaces():
            chiral.dual_basis(space)
    except BundleError as exc:
        raise BundleError("construct", f"missing dual bases: {exc}") from None
    for a in chiral.fusion.labels:
        chiral.f_a(a)


def verify_associativity_structure(chiral: ChiralData) -> list[CheckRecord]:
    """Kronecker collapse of fusing x dual-transported fusing, exactly."""
    return chiral.fusing_delta("ffa-associativity")


def verify_skew_symmetry_structure(chiral: ChiralData) -> list[CheckRecord]:
    """sigma12 x sigma12 with the cancelling weight-shift phases maps each
    canonical element to the swapped block's canonical element, exactly."""
    out: list[CheckRecord] = []
    fusion = chiral.fusion
    field = chiral.field
    h = fusion.weights
    for space in fusion.spaces():
        a1, a2, a3 = space
        delta = h[a3] - h[a1] - h[a2]
        delta_r = (h[fusion.dual[a3]] - h[fusion.dual[a1]] - h[fusion.dual[a2]])
        phase_l = field.root_of_unity(-delta.numerator, delta.denominator)
        phase_r = field.root_of_unity(delta_r.numerator, delta_r.denominator)
        s = chiral.sigma12(space)
        sp = chiral.sigma12(fusion.primed(space))
        d = chiral.dual_basis(space)
        d_sw = chiral.dual_basis(fusion.sigma12_space(space))
        lhs = mat_scale(mat_mul(s, mat_mul(transpose(d), transpose(sp))),
                        phase_l * phase_r)
        ok = lhs == transpose(d_sw)
        out.append(CheckRecord("ffa-skew-symmetry", space, "pass" if ok else "fail"))
    return out


def verify_single_valuedness(chiral: ChiralData) -> list[CheckRecord]:
    """Integral left/right weight difference on every sector."""
    out: list[CheckRecord] = []
    h = chiral.fusion.weights
    for a, ap in sectors(chiral.fusion):
        diff = h[a] - h[ap]
        ok = diff.denominator == 1
        out.append(CheckRecord("single-valuedness", (a, ap),
                               "pass" if ok else "fail",
                               message=f"weight difference {diff}"))
    return out


def verify_invariance_structure(chiral: ChiralData) -> list[CheckRecord]:
    """The adjoint-moved dual elements, rescaled by the vacuum-channel weight
    ratio, stay dual: the structure-constant content of form invariance.

    For the source space (a1, a2, a3) the moved duals live on (a1, a3', a2'),
    and (F(a2)/F(a3)) sigma23^T G(a1, a3', a2') sigma23' d = I with d = G^-1
    says exactly that sigma23 rescales the pairing by F(a3)/F(a2); each record
    reads ``ChiralData.sigma23_pairing_factor``.
    """
    return [CheckRecord("ffa-invariance", space,
                        "pass" if chiral.sigma23_pairing_factor(space) else "fail")
            for space in chiral.fusion.spaces()]


def verify_unit_blocks(chiral: ChiralData) -> list[CheckRecord]:
    """Blocks with the unit on the left are the canonical unit blocks."""
    out: list[CheckRecord] = []
    one, zero = chiral.field.one(), chiral.field.zero()
    for a in chiral.fusion.labels:
        module = chiral.fusion.canonical_spaces(a)[0]
        d = chiral.dual_basis(module)
        ok = d == identity(len(d), one, zero)
        out.append(CheckRecord("ffa-unit-block", module, "pass" if ok else "fail"))
    return out


def ffa_section(chiral: ChiralData) -> dict:
    """The output bundle section serializing the constructed structure."""
    return {
        "sectors": [[a, ap] for a, ap in sectors(chiral.fusion)],
        "blocks": [{"space": list(space),
                    "right": [[v.literal() for v in row] for row in chiral.dual_basis(space)]}
                   for space in chiral.fusion.spaces()],
        "form_weights": [{"sector": [a, ap], "value": chiral.f_a(a).literal()}
                         for a, ap in sectors(chiral.fusion)],
    }


# -- gauge transport (used by the basis-independence checks) -------------------


def transport_bundle(bundle: Bundle, changes: dict[Space, list[list[CycScalar]]]) -> Bundle:
    """The same data expressed in rescaled bases on the given spaces.

    ``changes`` maps a space to an invertible matrix B with
    new_i = sum_m B[m][i] * old_m; canonical spaces must not be changed.
    """
    field = bundle.field
    fusion = bundle.fusion
    one, zero = field.one(), field.zero()

    def bmat(space, dim):
        return changes.get(space, identity(dim, one, zero))

    def bmat_inv(space, dim):
        if space not in changes:
            return identity(dim, one, zero)
        inv = mat_inv(changes[space], one, zero)
        if inv is None:
            raise ValueError(f"basis change on {space} is singular")
        return inv

    for space in changes:
        if space in bundle.canonical:
            raise ValueError(f"cannot change basis on the canonical space {space}")

    chiral = ChiralData(bundle)
    new_f: dict = {}
    for key6 in {key for key, _ in bundle.f}:
        blk = chiral.f_block(key6)
        if blk is None:
            continue
        spaces = fusion.key_spaces(key6)
        dims = [fusion.n(*space) for space in spaces]
        moved = change_basis4(blk, bmat(spaces[0], dims[0]), bmat(spaces[1], dims[1]),
                              bmat_inv(spaces[2], dims[2]), bmat_inv(spaces[3], dims[3]), zero)
        for i, j, l, kk in product(*map(range, dims)):
            if moved[i][j][l][kk]:
                new_f[(key6, (i, j, l, kk))] = moved[i][j][l][kk]

    def transport_sigma(sig, space_map):
        out = {}
        for space, mat in sig.items():
            dim = len(mat)
            tgt = space_map(space)
            binv = bmat_inv(tgt, len(mat))
            out[space] = mat_mul(binv, mat_mul(mat, bmat(space, dim)))
        return out

    new_s12 = transport_sigma(bundle.sigma12, fusion.sigma12_space)
    new_s23 = transport_sigma(bundle.sigma23, fusion.sigma23_space)
    prov = dict(bundle.provenance)
    prov["transported"] = True
    return Bundle(field=field, fusion=fusion, f=new_f, sigma12=new_s12,
                  sigma23=new_s23, canonical=dict(bundle.canonical), provenance=prov)
