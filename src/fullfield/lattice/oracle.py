"""Brute-force fixture oracle on the rank-1 lattice model.

Derives, exactly:

* the fusing-tensor entry relating product and iterate expansions of abelian
  four-point functions (``derive_f_entry``): the Fock engine expands each
  inner operator, and the outer one is read in closed form (``_fit_f``),
* the canonical-basis gauge in closed form (``CanonicalGauge``): module
  maps, their skew images on (a, e) spaces, and vacuum-channel signs from
  the cocycle and the pairing norm; only the residue check and the tests
  compute the residue extraction identity (``residue_extraction``),
* a complete self-consistent Z/2k data bundle (``emit_bundle``), whose
  S3-action matrices are produced by the constraint solver seeded with the
  derived fusing tensor.

The four-point fits are series-level with exact coefficients; a ratio is
accepted only when it is stable across at least ``MIN_MATCHES`` independent
entries (``_stable_ratio``).  Everything here is exact over Q: the gauge and
the F entries are Fractions, and only ``emit_bundle`` enters the cyclotomic
field.
"""

from __future__ import annotations

from fractions import Fraction

from fullfield.bundles import Bundle
from fullfield.cyclotomic import CycField
from fullfield.fusion import FusionData
from fullfield.lattice.model import FockVector, LatticeModel, LatticeSpec

MIN_MATCHES = 3


class OracleError(ValueError):
    """An input error: a derived ratio was absent or unstable across matrix
    elements, so the level or truncation lies outside what the oracle's fits
    support."""


def _stable_ratio(ratios: list[Fraction], what: str) -> Fraction:
    """The common value of at least ``MIN_MATCHES`` ratios measuring ``what``."""
    if len(ratios) < MIN_MATCHES:
        raise OracleError(f"{what}: only {len(ratios)} matches, need {MIN_MATCHES}")
    for r in ratios:
        if r != ratios[0]:
            raise OracleError(f"{what}: unstable ratio {r} vs {ratios[0]}")
    return ratios[0]


class CanonicalGauge:
    """Canonical-basis scalars g[(i, j)] on the raw exponential operators, in
    closed form: Fractions +-1 read off the lowest term eps(q1, q2)
    x^(q1 q2/2k) e^(q1+q2) of Y(e^q1, x) e^q2 (Frenkel-Lepowsky-Meurman 1988).

    * (0, i), the module maps, and (i, 0), their skew images
      e^{xL(-1)} Y(., -x): g = 1, as the V-side states have charge 0, where
      eps(q, 0) = eps(0, q) = 1 and the exponent is an integer.
    * (-a, a), a != 0, normalized by the residue extraction identity:
      g = eps(-q, q) pair_norm(q), q = ``min_rep(a)``.  exp(-L(1)) fixes
      e^{+-q}, Y(e^-q, z) e^q has vacuum coefficient eps(-q, q), and
      <e^-q, e^q> = pair_norm(q); g is their ratio, a sign.
    * every other space: g = 1.
    """

    def __init__(self, model: LatticeModel):
        self.model = model
        two_k = model.two_k
        self.g: dict[tuple[int, int], Fraction] = {
            (i, j): Fraction(1) for i in range(two_k) for j in range(two_k)}
        for a in range(1, two_k):
            q = model.min_rep(a)
            self.g[(-a % two_k, a)] = Fraction(model.eps(-q, q) * model.pair_norm(q))

    def gauge(self, i: int, j: int) -> Fraction:
        return self.g[(i % self.model.two_k, j % self.model.two_k)]


def residue_extraction(model: LatticeModel, a: int, wp: FockVector, w: FockVector,
                       T: int) -> Fraction:
    """The z^-1 extraction of the dressed (a', a) vacuum-channel insertion.

    ``w`` lies in sector ``a`` and ``wp`` in its dual.  Both are dressed by
    exp(-L(1)); each homogeneous piece of the dressed ``wp`` contributes the
    vacuum coefficient of its weight-0 component on the dressed ``w``, signed
    by (-1)^(weight - h_a).  Exact; a piece whose weight is not an integer
    level above h_a raises ``OracleError``.
    """
    h = model.sector_weight(a)
    wt = model.exp_virasoro(1, Fraction(-1), w, T)
    wtp = model.exp_virasoro(1, Fraction(-1), wp, T)
    pieces: dict[Fraction, dict] = {}
    for key, c in wtp.items():
        pieces.setdefault(model.state_weight(key), {})[key] = c
    total = Fraction(0)
    for u1, p1 in pieces.items():
        exc = u1 - h
        if exc != int(exc):
            raise OracleError(
                f"residue extraction for sector {a}: dual piece of weight {u1} "
                f"is not an integer level above h = {h}")
        total += (-1) ** int(exc) * model.coefficient(p1, wt, ((), 0), T)
    return total


# -- raw fusing ratio via the four-point pattern fit -------------------------


def raw_f_ratio(model: LatticeModel, b1: int, b2: int, b3: int, T: int) -> Fraction:
    """The scalar relating raw product and iterate expansions, exactly.

    Lowest-weight four-point functions are pure prefactor monomials
    c * z1^C1 * z2^C2 * (z1-z2)^C3; each side's truncated grid is fitted
    against its binomial expansion pattern and the two normalizations are
    compared (``_fit_f``, on integer component numerators).  Several
    representative choices must agree.
    """
    ratios = []
    base = (model.min_rep(b1), model.min_rep(b2), model.min_rep(b3))
    got = _fit_f(model, *base, T)
    if got is not None:
        ratios.append(got)
    for slot in range(3):
        # shift one representative by a lattice vector, away from the origin's
        # opposite side so the weights stay inside the truncation
        for direction in (-1, 1):
            qs = list(base)
            qs[slot] += 2 * model.k * direction
            got = _fit_f(model, qs[0], qs[1], qs[2], T)
            if got is not None:
                ratios.append(got)
                break
    return _stable_ratio(ratios, f"fusing ratio for sectors ({b1},{b2},{b3}) at T = {T}")


def _fit_f(model: LatticeModel, q1: int, q2: int, q3: int, T: int) -> Fraction | None:
    """Fitted product/iterate normalization ratio at lattice points q1, q2, q3.

    Only the oscillator-free output ((), q1+q2+q3) is read, and the outer
    operator gives it in closed form on an inner state (nu, q) of level
    t = |nu| and length l = l(nu).  Y(e^q1, z) gives eps(q1, q) (-q1)^l, as
    ``_components_exp`` conjugates each annihilation mode by -q1.
    Y((nu, q), z) on e^q3 gives eps(q, q3) prod_{n in nu} (-1)^(n-1) q3 =
    eps(q, q3) (-1)^(t-l) q3^l, as only the alpha(0) term of
    ``_components_dressed`` keeps the level.  So each grid is a polynomial in
    one charge over the inner ``_length_profile``, over that side's D_in.
    With C_ij = qi qj/2k, the product side's inner state Y(v)w sits t levels
    above ((), q2+q3); since (q1+q2+q3)^2 - q1^2 - (q2+q3)^2 = 2 q1 (q2+q3),
    the exponents are z1^(C13+C12-t) z2^(C23+t): the t-th term of
    (1 - z2/z1)^C12.  The iterate side is the same with Y(u)v,
    x^(C12+t) z2^(C13+C23-t) and (1 + x/z2)^C13.  None when a weight q^2/4k
    does not fit below T - 2, or when ((), q1+q2) or ((), q2+q3) lies above
    T, where its side's grid would be empty.
    """
    bound = 4 * model.k
    if (max(q * q for q in (q1, q2, q3, q1 + q2 + q3)) > bound * (T - 2)
            or max((q1 + q2) ** 2, (q2 + q3) ** 2) > bound * T):
        return None

    prod = {t: _exp_outer(model, q1, q2 + q3, lengths)
            for t, lengths in _length_profile(model, q2, q3, T).items()}
    cp = _fit_pattern(prod, gamma=Fraction(q1 * q2, model.two_k), alternating=True)
    if cp is None:
        raise OracleError(
            f"product grid does not match the prefactor pattern at q=({q1},{q2},{q3})")

    iterate = {t: _dressed_outer(model, q1 + q2, q3, t, lengths)
               for t, lengths in _length_profile(model, q1, q2, T).items()}
    ci = _fit_pattern(iterate, gamma=Fraction(q1 * q3, model.two_k), alternating=False)
    if ci is None:
        raise OracleError(
            f"iterate grid does not match the prefactor pattern at q=({q1},{q2},{q3})")
    return Fraction(cp * model._denominator(q1 + q2, T)[1], ci * model._denominator(q2 + q3, T)[1])


def _length_profile(model: LatticeModel, qa: int, qb: int, T: int) -> dict[int, dict[int, int]]:
    """{t: {l: summed n}} over the level-t, length-l states of Y(e^qa) e^qb, memoised."""
    hit = model._profiles.get((qa, qb, T))
    if hit is None:
        hit = model._profiles[(qa, qb, T)] = {}
        for t, vec in model._components_basis((), qa, (), qb, T).items():
            lengths = hit[t] = {}
            for (parts, _q), n in vec.items():
                lengths[len(parts)] = lengths.get(len(parts), 0) + n
    return hit


def _exp_outer(model: LatticeModel, q1: int, q: int, lengths: dict[int, int]) -> int:
    """((), q1+q) of Y(e^q1, z) on the states (nu, q), lengths[l] of length l."""
    return model.eps(q1, q) * sum(n * (-q1) ** ell for ell, n in lengths.items())


def _dressed_outer(model: LatticeModel, q: int, q3: int, t: int, lengths: dict[int, int]) -> int:
    """((), q+q3) of Y((nu, q), z) e^q3 on the states of level t, lengths[l] of length l."""
    return model.eps(q, q3) * sum(n * (-1) ** (t - ell) * q3 ** ell for ell, n in lengths.items())


def _fit_pattern(grid: dict[int, int | Fraction], gamma: Fraction,
                 alternating: bool) -> int | Fraction | None:
    """The lead c of grid[t] == c * binom(gamma, t) * (-1 if alternating)^t.

    Every level t from 0 to the grid's top must match, a missing one reading
    0; None when the lead is missing or zero, or any level differs.  With
    gamma = a/b the test is grid[t] * t! * b^t == c * prod_{s<t} +-(a - s*b),
    made on integers by cross-multiplying the denominators of grid[t] and c.
    """
    c = grid.get(0)
    if not c:
        return None
    a, b = gamma.numerator, gamma.denominator
    scale, expect = c.denominator, c.numerator  # c.den * t! * b^t, c.num * prod
    for t in range(max(grid) + 1):
        g = grid.get(t, 0)
        if g.numerator * scale != expect * g.denominator:
            return None
        scale *= (t + 1) * b
        expect *= -(a - t * b) if alternating else a - t * b
    return c


# -- public oracle API --------------------------------------------------------


def sector_labels(k: int) -> list[str]:
    return [str(j) for j in range(2 * k)]


def derive_f_entry(gauge: CanonicalGauge, labels: tuple[int, ...], T: int) -> Fraction:
    """Exact fusing-tensor entry for the canonical-gauged Z/2k bundle basis.

    ``labels`` is the six-tuple (b1, b5, b4, b2, b3, b6) of sectors; it must
    be channel-consistent for the group law, i.e. b5 = b2+b3, b4 = b1+b5,
    b6 = b1+b2.  ``T`` is the weight cutoff of the four-point fits.
    """
    model = gauge.model
    two_k = model.two_k
    b1, b5, b4, b2, b3, b6 = (x % two_k for x in labels)
    if b5 != (b2 + b3) % two_k or b4 != (b1 + b5) % two_k or b6 != (b1 + b2) % two_k:
        raise ValueError(f"label tuple {labels} is not channel-consistent for Z/{two_k}")
    raw = raw_f_ratio(model, b1, b2, b3, T)
    g = (gauge.gauge(b1, b5) * gauge.gauge(b2, b3)
         / gauge.gauge(b6, b3) / gauge.gauge(b1, b2))
    return raw * g


def lattice_fusion(k: int) -> FusionData:
    model = LatticeModel(k)
    labels = sector_labels(k)
    two_k = 2 * k

    def lab(x: int) -> str:
        return labels[x % two_k]

    return FusionData(
        labels=tuple(labels),
        unit=labels[0],
        dual={lab(j): lab(-j) for j in range(two_k)},
        weights={lab(j): model.sector_weight(j) for j in range(two_k)},
        rules={(lab(i), lab(j), lab(i + j)): 1
               for i in range(two_k) for j in range(two_k)},
    )


def emit_bundle(spec: LatticeSpec, seed: int | None = None) -> Bundle:
    """The complete Z/2k chiral-data bundle in the canonical gauge.

    The fusing tensor comes from the four-point oracle, fitted at truncation
    T = max(spec.truncation, 8): a lower truncation is raised to the floor
    8, at which the shipped lattice fixtures are fitted, and a higher one is
    used as given.  The S3 action comes from the constraint solver pinned to
    the canonical bases.
    """
    from fullfield.solver import admissible_tuples, solve_sigma

    field = CycField(8 * spec.k)
    T = max(spec.truncation, 8)
    gauge = CanonicalGauge(LatticeModel(spec.k))
    fusion = lattice_fusion(spec.k)
    f = {(key6, (0, 0, 0, 0)): field.rational(derive_f_entry(gauge, tuple(map(int, key6)), T))
         for key6 in admissible_tuples(fusion)}
    canonical = {s: 0 for a in fusion.labels for s in fusion.canonical_spaces(a)}

    sigma12, sigma23 = solve_sigma(field, fusion, f)

    provenance = {
        "generator": "lattice-oracle",
        "k": spec.k,
        "truncation": T,
        "version": "0.1.0",
    }
    if seed is not None:
        provenance["seed"] = seed
    return Bundle(field=field, fusion=fusion, f=f, sigma12=sigma12, sigma23=sigma23,
                  canonical=canonical, provenance=provenance)
