"""Chiral-level exact verification: fusing tensor, S3 action, pairing, duals.

Everything here is exact arithmetic over the bundle's cyclotomic field.  The
central objects are, per triple of labels (a1, a2, a3) with N(a1,a2;a3) > 0:

* the pairing matrix G[j][i] between the (a1,a2;a3) basis and the primed
  (a1',a2';a3') basis, computed by contracting one fusing expression against
  the sigma23 matrix of the primed space; the other expression is the primed
  space's, transposed, so the pairing-symmetry check compares the two,
* the dual-basis coefficient matrix D = G^-1,
* the fusing tensor in dual bases (change of basis on all four slots), used
  by the delta-contraction identity,
* the sqrt-modified bilinear form and its S3 invariance.

Two kernels are shared with :mod:`fullfield.ffa`: ``linalg.change_basis4``
is the one 4-slot change of basis, and ``ChiralData.fusing_delta`` is the one
delta contraction, run once per instance against ``dual_basis`` and read by
both the chiral identity and the associativity of the sector-sum algebra.  The
pentagon equations come from ``FusionData.pentagon_instances``, which the
pentagon solver reads too.  The S3 table of ``FusionData`` (the sigma12 and
sigma23 space maps, the canonical spaces, and the F keys of F_a, of the
pairing contractions and of the left-inverse normalization) is the one the
sigma solver encodes as scalar equations; its ``key_spaces`` lays out every
F block, and spaces, dimensions and F entries are read from ``FusionData``
and ``Bundle`` directly.

Reports are lists of CheckRecord; an empty list means the identity holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product
from operator import itemgetter

from fullfield.bundles import Bundle, BundleError
from fullfield.cyclotomic import CycScalar
from fullfield.fusion import Space
from fullfield.linalg import change_basis4, identity, mat_inv, mat_mul, mat_scale, transpose


@dataclass(frozen=True)
class CheckRecord:
    identity: str
    index: tuple
    status: str  # "pass" | "fail"
    path: str = "exact"  # "exact" | "numeric"
    residual: float | None = None
    message: str = ""


def fails(records: list[CheckRecord]) -> list[CheckRecord]:
    return [r for r in records if r.status == "fail"]


class ChiralData:
    """A loaded bundle with the exact values its checks share, cached.

    Each instance computes these once and keeps them: the pairing matrix,
    the dual basis, the modified form and the sigma23 pairing factor of each
    space, the square roots of each F_a, and the failures of the fusing-delta
    contraction per cell.
    ``run_suites`` builds one instance per call.
    """

    NUMERIC_RTOL = 1e-12

    def __init__(self, bundle: Bundle):
        self.bundle = bundle
        self.field = bundle.field
        self.fusion = bundle.fusion
        self._pairing: dict[Space, list[list[CycScalar]]] = {}
        self._dual: dict[Space, list[list[CycScalar]]] = {}
        self._sqrt_f: dict[str, tuple] = {}
        self._form: dict[Space, tuple] = {}
        self._factor: dict[Space, bool] = {}
        self._delta: list[tuple[tuple, list]] | None = None

    # -- reads of the bundle -----------------------------------------------------

    def sigma12(self, space: Space) -> list[list[CycScalar]]:
        try:
            return self.bundle.sigma12[space]
        except KeyError:
            raise BundleError(f"sigma12{space}", "missing sigma12 matrix") from None

    def sigma23(self, space: Space) -> list[list[CycScalar]]:
        try:
            return self.bundle.sigma23[space]
        except KeyError:
            raise BundleError(f"sigma23{space}", "missing sigma23 matrix") from None

    def f_block(self, key6) -> list | None:
        """Dense [i][j][l][k] block for one label tuple, None if inadmissible."""
        dims = [self.fusion.n(*space) for space in self.fusion.key_spaces(key6)]
        if 0 in dims:
            return None
        d1, d2, d3, d4 = dims
        f = self.bundle.f_entry
        return [[[[f(key6, (i, j, l, kk)) for kk in range(d4)]
                  for l in range(d3)] for j in range(d2)] for i in range(d1)]

    # -- pentagon --------------------------------------------------------------

    def verify_pentagon(self) -> list[CheckRecord]:
        """The reassociation-consistency contraction on every instance of
        ``FusionData.pentagon_instances``: one pass record per cell, or one
        fail record per failing instance of it."""
        out: list[CheckRecord] = []
        f, zero = self.bundle.f_entry, self.field.zero()
        for cell, group in groupby(self.fusion.pentagon_instances(), key=itemgetter(0)):
            bad = [index for _, index, lhs, rhs in group
                   if sum((f(*x) * f(*y) * f(*z) for x, y, z in lhs), zero)
                   != sum((f(*x) * f(*y) for x, y in rhs), zero)]
            if bad:
                out.extend(CheckRecord("pentagon", cell + index, "fail",
                                       message="reassociation mismatch") for index in bad)
            else:
                out.append(CheckRecord("pentagon", cell, "pass"))
        return out

    # -- canonical F weights ----------------------------------------------------

    def f_a(self, a: str) -> CycScalar:
        """The canonical vacuum-channel fusing entry for label a; nonzero."""
        for space in self.fusion.canonical_spaces(a):
            if space not in self.bundle.canonical:
                raise BundleError(f"canonical{space}", "canonical-basis marker missing")
        val = self.bundle.f_entry(self.fusion.weight_key(a), (0, 0, 0, 0))
        if not val:
            raise BundleError(f"f_a({a})", "canonical fusing entry missing or zero")
        return val

    # -- pairing and duals --------------------------------------------------------

    def pairing_matrix(self, space: Space) -> list[list[CycScalar]]:
        """G[j][i] pairing the basis of ``space`` with the primed basis: the
        first fusing expression of ``FusionData.pairing_keys`` contracted
        with sigma23 of the primed space.  The second expression is G of the
        primed space, transposed; ``verify_pairing_properties`` compares them.
        """
        if space not in self._pairing:
            if self.fusion.n(*space) == 0:
                self._pairing[space] = []
            else:
                self._pairing[space] = self._pairing_via(
                    self.fusion.pairing_keys(space)[0], self.sigma23(self.fusion.primed(space)))
        return self._pairing[space]

    def _pairing_via(self, key6, s23) -> list[list[CycScalar]]:
        """Contract a sigma23 matrix against the F slice of ``key6``.

        Returns M[j][i] = sum_m s23[m][i] * F[key6; m, j, 0, 0].
        """
        dim = self.fusion.n(*self.fusion.key_spaces(key6)[1])
        fslice = [[self.bundle.f_entry(key6, (m, j, 0, 0)) for j in range(dim)]
                  for m in range(len(s23))]
        return mat_mul(transpose(fslice), s23)

    def dual_basis(self, space: Space) -> list[list[CycScalar]]:
        """D with sum_m D[m][i] * primed-basis_m dual to basis_i; D = G^-1."""
        if space in self._dual:
            return self._dual[space]
        g = self.pairing_matrix(space)
        dinv = mat_inv(g, self.field.one(), self.field.zero())
        if dinv is None:
            raise BundleError(f"pairing{space}", "singular pairing matrix")
        self._dual[space] = dinv
        return dinv

    def verify_nondegeneracy(self) -> list[CheckRecord]:
        """Invertibility of every pairing, dimension symmetry, and the
        left-inverse normalization identity with the canonical F weight."""
        out: list[CheckRecord] = []
        n = self.fusion.n
        for space in self.fusion.spaces():
            pr = self.fusion.primed(space)
            if n(*space) != n(*pr):
                out.append(CheckRecord("dimension-symmetry", space, "fail",
                                       message=f"N{space} != N{pr}"))
                continue
            try:
                self.pairing_matrix(space)
            except BundleError as exc:
                out.append(CheckRecord("pairing-symmetry", space, "fail", message=str(exc)))
                continue
            try:
                self.dual_basis(space)
            except BundleError:
                out.append(CheckRecord("nondegeneracy", space, "fail",
                                       message="singular pairing matrix"))
            else:
                out.append(CheckRecord("nondegeneracy", space, "pass"))
        out.extend(self.verify_formula1())
        return out

    def verify_formula1(self) -> list[CheckRecord]:
        """The left-inverse identity of ``FusionData.normalization_keys`` on
        every space, exactly: F1^T (F2 (sigma12 sigma23)) = F_x * I with
        F1 = F1[0, 0, k, j] and F2 = F2[k, n, 0, 0]."""
        out: list[CheckRecord] = []
        zero = self.field.zero()
        for space in self.fusion.spaces():
            # sigma123 = sigma12 . sigma23 on ``space``
            s23 = self.sigma23(space)
            s12 = self.sigma12(self.fusion.sigma23_space(space))
            key1, key2 = self.fusion.normalization_keys(space)
            f2 = self.f_block(key2)
            f1 = self.f_block(key1)
            fa = self.f_a(space[0])
            if f1 is None or f2 is None:
                out.append(CheckRecord("left-inverse-normalization", space, "fail",
                                       message="missing fusing block"))
                continue
            f2_slice = [[blk[0][0] for blk in row] for row in f2]
            lhs = mat_mul(transpose(f1[0][0]), mat_mul(f2_slice, mat_mul(s12, s23)))
            want = [[fa if i == j else zero for j in range(len(lhs))] for i in range(len(lhs))]
            out.append(CheckRecord("left-inverse-normalization", space,
                                   "pass" if lhs == want else "fail"))
        return out

    def verify_pairing_properties(self) -> list[CheckRecord]:
        """Symmetry of the pairing, which is the agreement of its two fusing
        expressions, and its canonical values."""
        out: list[CheckRecord] = []
        one = self.field.one()
        for space in self.fusion.spaces():
            g = self.pairing_matrix(space)
            gp = self.pairing_matrix(self.fusion.primed(space))
            ok = gp == transpose(g)
            out.append(CheckRecord("pairing-symmetry", space, "pass" if ok else "fail"))
        for a in self.fusion.labels:
            module, _, vacuum = self.fusion.canonical_spaces(a)
            g = self.pairing_matrix(module)
            out.append(CheckRecord("pairing-canonical", module,
                                   "pass" if g == [[one]] else "fail",
                                   message="<module map, primed module map> = 1"))
            g2 = self.pairing_matrix(vacuum)
            out.append(CheckRecord("pairing-canonical", vacuum,
                                   "pass" if g2 == [[self.f_a(a)]] else "fail",
                                   message="vacuum-channel pairing equals the canonical weight"))
        return out

    def verify_dual_basis(self) -> list[CheckRecord]:
        """Duality against the pairing and the canonical dual-basis values."""
        out: list[CheckRecord] = []
        one, zero = self.field.one(), self.field.zero()
        for space in self.fusion.spaces():
            g = self.pairing_matrix(space)
            dm = self.dual_basis(space)
            ok = mat_mul(g, dm) == identity(self.fusion.n(*space), one, zero)
            out.append(CheckRecord("dual-delta", space, "pass" if ok else "fail"))
        for a in self.fusion.labels:
            fa = self.f_a(a)
            wants = [([[one]], "dual of the module map"),
                     ([[one]], "dual of the skewed module map"),
                     ([[fa.inverse()]], "dual of the vacuum-channel basis")]
            for space, (want, msg) in zip(self.fusion.canonical_spaces(a), wants):
                dm = self.dual_basis(space)
                out.append(CheckRecord("dual-canonical", space,
                                       "pass" if dm == want else "fail", message=msg))
            fap = self.f_a(self.fusion.dual[a])
            out.append(CheckRecord("canonical-weight-duality", (a,),
                                   "pass" if fa == fap else "fail",
                                   message="F weight equals the dual label's weight"))
        return out

    # -- the fusing tensor in dual bases -----------------------------------------

    def fusing_delta(self, name: str) -> list[CheckRecord]:
        """The delta contraction of F against primed F in dual bases, exactly:
        one pass record per cell (a1, a2, a3, a4), or one fail record per
        failing index of it, all under the identity ``name``.

        The contraction runs on the first call; later calls reread its
        per-cell failures, so ``verify_prop_fusing`` and
        ``ffa.verify_associativity_structure`` share one evaluation.
        """
        if self._delta is None:
            self._delta = list(self._delta_failures())
        out: list[CheckRecord] = []
        for cell, bad in self._delta:
            if bad:
                out.extend(CheckRecord(name, cell + idx, "fail",
                                       message="contraction mismatch") for idx in bad)
            else:
                out.append(CheckRecord(name, cell, "pass"))
        return out

    def _delta_failures(self):
        """(cell, failing indices) for every cell with a middle label a5."""
        labels = self.fusion.labels
        n = self.fusion.n
        zero, one = self.field.zero(), self.field.one()
        for a1, a2, a3, a4 in product(labels, repeat=4):
            mids = [a5 for a5 in labels if n(a1, a5, a4) and n(a2, a3, a5)]
            if not mids:
                continue
            sixes = [a6 for a6 in labels if n(a6, a3, a4) and n(a1, a2, a6)]
            fp = {(a5, a7): self._dual_primed_block((a1, a5, a4, a2, a3, a7))
                  for a7 in sixes for a5 in mids}
            fb = {(a5, a6): self.f_block((a1, a5, a4, a2, a3, a6))
                  for a6 in sixes for a5 in mids}
            bad = []
            for a6, a7 in product(sixes, repeat=2):
                for m, kk, nn, ll in product(range(n(a6, a3, a4)), range(n(a1, a2, a6)),
                                             range(n(a7, a3, a4)), range(n(a1, a2, a7))):
                    acc = zero
                    for a5 in mids:
                        blk, pblk = fb[(a5, a6)], fp[(a5, a7)]
                        if blk is None or pblk is None:
                            continue
                        for p in range(n(a1, a5, a4)):
                            for q in range(n(a2, a3, a5)):
                                acc = acc + blk[p][q][m][kk] * pblk[p][q][nn][ll]
                    want = one if (a6 == a7 and m == nn and kk == ll) else zero
                    if acc != want:
                        bad.append((a6, m, kk, a7, nn, ll))
            yield (a1, a2, a3, a4), bad

    def _dual_primed_block(self, key6) -> list | None:
        """F on the primed labels of ``key6`` with all four slots moved to
        dual bases; indexed like the F block of the primed tuple."""
        raw = self.f_block(tuple(self.fusion.dual[b] for b in key6))
        if raw is None:
            return None
        s1, s2, s3, s4 = self.fusion.key_spaces(key6)
        return change_basis4(raw, self.dual_basis(s1), self.dual_basis(s2),
                             self.pairing_matrix(s3), self.pairing_matrix(s4), self.field.zero())

    def verify_prop_fusing(self) -> list[CheckRecord]:
        """The delta-contraction of F against F-in-dual-bases, exactly."""
        return self.fusing_delta("fusing-delta")

    # -- modified form and S3 invariance ---------------------------------------

    def sqrt_f(self, a: str):
        """(exact CycScalar | None, complex) principal square root of F_a."""
        if a not in self._sqrt_f:
            fa = self.f_a(a)
            self._sqrt_f[a] = self.field.sqrt(fa), _principal_sqrt_c(complex(fa))
        return self._sqrt_f[a]

    def modified_form(self, space: Space):
        """(matrix, path): sqrt-weighted form; exact if all roots lie in the field."""
        if space in self._form:
            return self._form[space]
        a1, a2, a3 = space
        g = self.pairing_matrix(space)
        roots = {a: self.sqrt_f(a) for a in (a1, a2, a3)}
        if all(r[0] is not None for r in roots.values()):
            factor = roots[a3][0] * (roots[a1][0] * roots[a2][0]).inverse()
            self._form[space] = mat_scale(g, factor), "exact"
        else:
            factor = roots[a3][1] / (roots[a1][1] * roots[a2][1])
            self._form[space] = [[factor * complex(v) for v in row] for row in g], "numeric"
        return self._form[space]

    def verify_s3_relations(self) -> list[CheckRecord]:
        """Involutivity of both generators, the braid relation, and the
        canonical normalizations of the S3 action."""
        out: list[CheckRecord] = []
        one, zero = self.field.one(), self.field.zero()
        t12, t23 = self.fusion.sigma12_space, self.fusion.sigma23_space
        for space in self.fusion.spaces():
            ident = identity(self.fusion.n(*space), one, zero)
            s12a = self.sigma12(space)
            s12b = self.sigma12(t12(space))
            ok = mat_mul(s12b, s12a) == ident
            out.append(CheckRecord("sigma12-involution", space, "pass" if ok else "fail"))
            s23a = self.sigma23(space)
            s23b = self.sigma23(t23(space))
            ok = mat_mul(s23b, s23a) == ident
            out.append(CheckRecord("sigma23-involution", space, "pass" if ok else "fail"))
            # braid: s12 s23 s12 = s23 s12 s23 as maps out of ``space``
            m1 = mat_mul(self.sigma12(t23(t12(space))),
                         mat_mul(self.sigma23(t12(space)), self.sigma12(space)))
            m2 = mat_mul(self.sigma23(t12(t23(space))),
                         mat_mul(self.sigma12(t23(space)), self.sigma23(space)))
            out.append(CheckRecord("s3-braid", space, "pass" if m1 == m2 else "fail"))
        for a in self.fusion.labels:
            module, skew, vacuum = self.fusion.canonical_spaces(a)
            checks = [
                ("sigma12-canonical", module, self.sigma12(module)),
                ("sigma23-canonical", skew, self.sigma23(skew)),
                ("sigma12-canonical", vacuum, self.sigma12(vacuum)),
                ("sigma23-canonical", module, self.sigma23(module)),
            ]
            for name, space, mat in checks:
                can = self.bundle.canonical.get(space, 0)
                col = [mat[r][can] for r in range(len(mat))]
                want = [one if r == 0 else zero for r in range(len(mat))]
                ok = all(x == w for x, w in zip(col, want))
                out.append(CheckRecord(name, space, "pass" if ok else "fail"))
        return out

    def verify_s3_invariance(self) -> list[CheckRecord]:
        """Invariance of the sqrt-modified form under sigma12 and sigma23,
        plus the unmodified-pairing rescaling factor under sigma23."""
        out: list[CheckRecord] = []
        for space in self.fusion.spaces():
            form, path = self.modified_form(space)
            for name, tgt_map in (("sigma12", self.fusion.sigma12_space),
                                  ("sigma23", self.fusion.sigma23_space)):
                smat = self.sigma12(space) if name == "sigma12" else self.sigma23(space)
                pr = self.fusion.primed(space)
                smat_p = self.sigma12(pr) if name == "sigma12" else self.sigma23(pr)
                tgt = tgt_map(space)
                form_t, path_t = self.modified_form(tgt)
                if path == "exact" and path_t == "exact":
                    lhs = mat_mul(transpose(smat), mat_mul(form_t, smat_p))
                    ok = lhs == form
                    out.append(CheckRecord(f"{name}-form-invariance", space,
                                           "pass" if ok else "fail", path="exact"))
                else:
                    smat_c = _embed_matrix(smat)
                    smat_pc = _embed_matrix(smat_p)
                    form_tc = _embed_matrix(form_t) if path_t == "exact" else form_t
                    form_c = _embed_matrix(form) if path == "exact" else form
                    lhs = mat_mul(transpose(smat_c), mat_mul(form_tc, smat_pc))
                    res = _cmat_rel_residual(lhs, form_c)
                    ok = res <= self.NUMERIC_RTOL
                    out.append(CheckRecord(f"{name}-form-invariance", space,
                                           "pass" if ok else "fail",
                                           path="numeric", residual=res))
            out.append(CheckRecord("sigma23-pairing-factor", space,
                                   "pass" if self.sigma23_pairing_factor(space) else "fail"))
        return out

    def sigma23_pairing_factor(self, space: Space) -> bool:
        """Whether the unmodified pairing picks up exactly F_{a3}/F_{a2} under
        sigma23: sigma23^T G(sigma23 space) sigma23' = (F_{a3}/F_{a2}) G.
        Decided once per space for this suite and the invariance suite."""
        if space not in self._factor:
            _, a2, a3 = space
            g = self.pairing_matrix(space)
            gt = self.pairing_matrix(self.fusion.sigma23_space(space))
            s23 = self.sigma23(space)
            s23p = self.sigma23(self.fusion.primed(space))
            lhs = mat_mul(transpose(s23), mat_mul(gt, s23p))
            self._factor[space] = lhs == mat_scale(g, self.f_a(a3) * self.f_a(a2).inverse())
        return self._factor[space]


def _principal_sqrt_c(w: complex) -> complex:
    s = w ** 0.5
    if s.imag < 0 or (s.imag == 0 and s.real < 0):
        s = -s
    return s


def _embed_matrix(mat):
    return [[complex(v) for v in row] for row in mat]


def _cmat_rel_residual(a, b) -> float:
    num = max((abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)), default=0.0)
    scale = max((abs(y) for rb in b for y in rb), default=0.0)
    return num / scale if scale else num
