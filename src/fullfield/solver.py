"""Constraint solvers for multiplicity-free bundles.

Both solvers hand polynomial equations over the bundle's cyclotomic field
to one search, ``_search``.  An equation is a term list [(coeff, vars)]
meaning sum coeff * prod(vars) = 0; a variable repeated in ``vars`` is a
power.  Every unknown is nonzero.  The search substitutes what is known and
repeats until nothing changes:

* a two-term equation in two or more variables loses its common factor;
* an equation in one variable of degree <= 2 fixes it, or branches over
  both roots when they differ (square roots taken in the field);
* a two-term equation with one side a bare variable x substitutes
  x := c * monomial.

Whatever is still free is then guessed from a short list of units, first
unknown first.

The search runs on an interned copy of the problem that lasts one call.
Each unknown becomes an int, numbered in the ``sorted()`` order of the
caller's names, so every sorted monomial and every merge, substitution and
branch order is the one the names give.  Each scalar becomes an index into a
value table of the call, ``_Scalars``, which memoizes products and sums by
index pair and computes a miss by ``CycScalar`` arithmetic; roots and
substitution coefficients are computed in the field and interned.  The
solutions map back to the caller's names and scalars.

Propagation is incremental.  Each search frame caches every equation's
normalized term list with the variables it watches; a child frame starts
from a copy of its parent's cache, and an equation is visited and normalized
again only once a watched variable has been resolved (``_search`` says why
skipping the other visits changes nothing), so the cached list is always the
one a fresh normalization would give.  A substitution whose variables have
since been resolved is rewritten in place, on first read, to the scalar or
monomial it stands for, so chains are followed once.  When a search finds
nothing it names the first equation, in search order, that reduced to a
nonzero constant; ``solve_sigma`` puts its kind and space on the
``SolverError`` as ``conflict``.

``solve_sigma`` determines the S3-action scalars from a given fusing tensor:
the unknowns are one sigma12 scalar and one sigma23 scalar per nonzero space,
subject to the relations of the S3 table of ``FusionData`` (its space maps,
canonical spaces and F keys), the same table the exact checker
``ChiralData`` reads:

* canonical pins (module maps, their skew images, vacuum channels),
* involutivity of both generators and the braid relation,
* agreement of the two fusing expressions for the intertwiner pairing,
* the left-inverse normalization identity tying sigma123 contractions of the
  fusing tensor to the canonical vacuum-channel weight.

It also pins to 1 the sigma12 scalar of a space fixed by sigma12 and the
sigma23 scalar of a space fixed by sigma23 or by priming, which the
relations above do not force (see ``solve_sigma``).  It returns the
first solution, guessing 1, -1 and, when 4 | N, i and -i.

``solve_pentagon`` solves the reassociation consistency system for the fusing
tensor itself on small multiplicity-free fusion rings, with the unit-slot
entries pinned to delta patterns and one entry per free space gauge-fixed
to 1, guessing 1 and -1.  Its equations are ``FusionData.pentagon_instances``,
the same enumeration the exact checker ``ChiralData.verify_pentagon`` reads.
"""

from __future__ import annotations

from itertools import product

from fullfield.cyclotomic import CycField, CycScalar
from fullfield.fusion import FusionData, Space


class SolverError(ValueError):
    """An input error: data the solvers cannot complete.  ``conflict`` names
    the first contradicted equation when the constraint system has no
    solution, and the message ends with it; else it is None."""

    def __init__(self, message: str, conflict: dict | None = None):
        super().__init__(message if conflict is None else f"{message} (conflict: {conflict})")
        self.conflict = conflict


# -- the search -----------------------------------------------------------------


class _Scalars:
    """The scalars of one ``_search`` call, each named by its index in
    ``values``.

    A scalar is stored once per stored form: the key is its denominator and
    its numerators in their stored order, so an index stands for exactly the
    object the field arithmetic builds, and ``complex()`` of a solution reads
    the same bits as without the table.  Index 0 is zero and index 1 is one,
    so an index is truthy iff its scalar is.  Products and sums are memoized
    by index pair and computed by ``CycScalar`` arithmetic on a miss; a
    product with 1, like a sum with 0, is the other operand, as in the field.
    """

    def __init__(self, field: CycField):
        self.values: list[CycScalar] = []
        self._index: dict = {}
        self._products: dict[tuple[int, int], int] = {}
        self._sums: dict[tuple[int, int], int] = {}
        self.intern(field.zero())
        self.intern(field.one())

    def intern(self, x: CycScalar) -> int:
        key = (x.den, tuple(x.num.items()))
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.values)
            self.values.append(x)
        return i

    def mul(self, i: int, j: int) -> int:
        if i == 1:
            return j
        if j == 1:
            return i
        got = self._products.get((i, j))
        if got is None:
            got = self._products[i, j] = self.intern(self.values[i] * self.values[j])
        return got

    def add(self, i: int, j: int) -> int:
        if not i:
            return j
        if not j:
            return i
        got = self._sums.get((i, j))
        if got is None:
            got = self._sums[i, j] = self.intern(self.values[i] + self.values[j])
        return got


def _expand_mono(coeff: int, vars: tuple, state: dict, scalars: _Scalars, depth: int = 0):
    """Expand a scalar-times-monomial through the current state.

    Returns (coeff, sorted tuple of unresolved variables).  ``state`` maps
    solved variables to scalars and substituted variables to (coeff, vars)
    monomial expressions; every scalar is an index into ``scalars``.  A
    substitution read here whose variables have since been resolved is
    rewritten in place to its resolved form, a scalar or a monomial over
    unresolved variables, so later reads skip the chain.
    """
    if depth > len(state):  # a chain longer than the state revisits an entry
        raise SolverError("substitution expansion did not terminate")
    out_vars: list = []
    for v in vars:
        got = state.get(v)
        if got is None:
            out_vars.append(v)
        elif type(got) is int:
            coeff = scalars.mul(coeff, got)
        else:
            c2, vs2 = got
            if not state.keys().isdisjoint(vs2):
                c2, vs2 = _expand_mono(c2, vs2, state, scalars, depth + 1)
                state[v] = (c2, vs2) if vs2 else c2
            coeff = scalars.mul(coeff, c2)
            out_vars.extend(vs2)
    return coeff, tuple(sorted(out_vars))


def _normalize_terms(eq, state, scalars: _Scalars):
    """Term list of ``eq`` expanded through ``state``, like monomials merged.

    Also returns the variables to watch: while none of them enters
    ``state``, normalizing again gives the same list.  These are the
    unresolved variables of every expanded term, cancelled ones included,
    since they fix the merge order.  A list of at most one term has no order
    to keep and changes only once one of its own variables is resolved, so it
    watches just those.
    """
    merged: dict[tuple, int] = {}
    seen: set = set()
    for coeff, vars in eq:
        coeff, vars = _expand_mono(coeff, vars, state, scalars)
        seen.update(vars)
        cur = merged.get(vars)
        tot = coeff if cur is None else scalars.add(cur, coeff)
        if tot:
            merged[vars] = tot
        elif cur is not None:
            del merged[vars]
    if len(merged) <= 1:
        seen = {x for v in merged for x in v}
    return [(c, v) for v, c in merged.items()], seen


def _single_var_solve(terms, field: CycField, scalars: _Scalars):
    """Nonzero roots of sum c_t x^d_t = 0 in one variable, as indices.

    None if the equation is vacuous or of degree above 2.  The roots are
    computed in the field and interned.
    """
    deg_coeff: dict[int, int] = {}
    for coeff, vars in terms:
        deg_coeff[len(vars)] = scalars.add(deg_coeff.get(len(vars), 0), coeff)
    degs = sorted(dg for dg, cf in deg_coeff.items() if cf)
    if not degs or degs[-1] > 2:
        return None
    if len(degs) == 1:
        return []  # c * x^d = 0
    values = scalars.values
    if degs in ([0, 1], [1, 2]):
        return [scalars.intern((-values[deg_coeff[degs[0]]]) / values[deg_coeff[degs[1]]])]
    if degs == [0, 2]:
        root = field.sqrt((-values[deg_coeff[0]]) / values[deg_coeff[2]])
        return [] if root is None else [scalars.intern(root), scalars.intern(-root)]
    a, b, c = (values[deg_coeff[dg]] for dg in (2, 1, 0))
    root = field.sqrt(b * b - 4 * a * c)
    if root is None:
        return []
    r1, r2 = ((-b) + root) / (2 * a), ((-b) - root) / (2 * a)
    return [scalars.intern(r1)] if r1 == r2 else [scalars.intern(r1), scalars.intern(r2)]


def _search(equations, state: dict, unknowns: list, field: CycField, guesses: list,
            limit: int) -> tuple[list[dict], int | None]:
    """Up to ``limit`` solutions {unknown: value} of the term-list equations.

    ``state`` holds the pinned values.  Propagation with common-factor
    cancellation and monomial substitution, branching over the roots of
    one-variable equations and then over ``guesses`` for the first free
    unknown; solutions come in search order, each checked against every
    equation.  Also returns the index of the first equation, in search
    order, that reduced to a nonzero constant (None if none did).  ``cache``
    holds each equation's ``_normalize_terms`` result in the current frame.
    Every branch resolves one more unknown, so the recursion is at most as
    deep as ``unknowns`` is long.

    The search runs on an interned copy of the problem, built here and
    dropped on return.  Each variable becomes an int, numbered in the
    ``sorted()`` order of the names, so every sorted monomial, merge order,
    substitution and branch is the one the names would give.  Each scalar
    becomes an index into a ``_Scalars`` table of this call.  The solutions
    map back to the caller's names and scalars.

    A sweep skips an equation whose cached entry is still valid (no watched
    variable in ``state``): a visit reads only the cached list, and each
    action it can take returns (a branch, dead end or conflict) or puts one of
    the equation's own watched variables into ``state``.  So a still-valid
    entry took no action on its last visit, in this frame or in the parent
    frame whose cache this one copied, and would take none now.
    """
    names = sorted({*state, *unknowns, *(v for eq in equations for _, vs in eq for v in vs)})
    var_of = {name: i for i, name in enumerate(names)}
    scalars = _Scalars(field)
    intern, values = scalars.intern, scalars.values
    equations = [[(intern(c), tuple(var_of[v] for v in vs)) for c, vs in eq]
                 for eq in equations]
    unknowns = [var_of[k] for k in unknowns]
    guesses = [intern(g) for g in guesses]
    solutions: list[list[int]] = []  # value indices in ``unknowns`` order
    conflict = None

    def dfs(state: dict, cache: list) -> None:
        nonlocal conflict
        if len(solutions) >= limit:
            return
        progress = True
        while progress:
            progress = False
            for i, eq in enumerate(equations):
                hit = cache[i]
                if hit is not None and state.keys().isdisjoint(hit[1]):
                    continue  # still valid: its last visit took no action
                terms, _ = cache[i] = _normalize_terms(eq, state, scalars)
                varset = {v for _, vs in terms for v in vs}
                if len(terms) == 2 and len(varset) > 1:
                    # cancel the common factor (unknowns are nonzero)
                    (c1, v1), (c2, v2) = terms
                    l1, l2 = list(v1), list(v2)
                    for v in v1:
                        if v in l2:
                            l1.remove(v)
                            l2.remove(v)
                    terms = [(c1, tuple(l1)), (c2, tuple(l2))]
                    varset = set(l1) | set(l2)
                if not terms:
                    continue
                if not varset:
                    if conflict is None:
                        conflict = i
                    return  # nonzero constant = 0
                if len(varset) == 1:
                    roots = _single_var_solve(terms, field, scalars)
                    if roots is None:
                        continue
                    (var,) = varset
                    if len(roots) == 1:
                        state[var] = roots[0]
                        progress = True
                        continue
                    for root in roots:
                        dfs({**state, var: root}, list(cache))
                    return
                if len(terms) == 2:
                    # substitution x := expr when one side is a bare variable
                    (cb, bare), (co, other) = terms
                    if len(bare) != 1:
                        (co, other), (cb, bare) = terms
                    if len(bare) == 1:
                        state[bare[0]] = (intern((-values[co]) / values[cb]), other)
                        progress = True
        free = [k for k in unknowns if k not in state]
        if free:
            for cand in guesses:
                dfs({**state, free[0]: cand}, list(cache))
            return
        # the last sweep changed nothing, so the cache holds every equation
        # normalized through the final state
        if not any(terms for terms, _ in cache):
            solutions.append([_expand_mono(1, (k,), state, scalars)[0] for k in unknowns])

    dfs({var_of[k]: intern(v) for k, v in state.items()}, [None] * len(equations))
    return [{names[k]: values[c] for k, c in zip(unknowns, sol)} for sol in solutions], conflict


# -- sigma solver ---------------------------------------------------------------


def _f_scalar(f: dict, key6, field: CycField) -> CycScalar:
    return f.get((tuple(key6), (0, 0, 0, 0)), field.zero())


def solve_sigma(field: CycField, fusion: FusionData, f: dict):
    """S3-action scalars consistent with a multiplicity-free fusing tensor.

    Returns (sigma12, sigma23) as per-space 1x1 matrices.  Raises SolverError
    if the constraint system has no solution over the field.
    """
    for _, n in fusion.rules.items():
        if n > 1:
            raise SolverError("sigma solver requires all multiplicities <= 1")
    spaces = fusion.spaces()
    s12_space, s23_space = fusion.sigma12_space, fusion.sigma23_space
    uvar = {s: ("u", s) for s in spaces}
    vvar = {s: ("v", s) for s in spaces}
    one = field.one()
    state: dict = {}

    for a in fusion.labels:
        for s in fusion.canonical_spaces(a):
            state[uvar[s]] = state[vvar[s]] = one
    # Explicit pins.  On a space fixed by sigma12 involutivity says only
    # u^2 = 1, on one fixed by sigma23 only v^2 = 1, and on a self-primed
    # space pairing symmetry says nothing; these scalars have always been 1
    # here.  Without the pins the search also finds S3 actions for ising
    # pentagon solutions 2 and 3 and for the lattice k = 3 tensor (whose
    # bundle then fails five suites).  Whether the pins are right is open.
    for s in spaces:
        if s12_space(s) == s:
            state[uvar[s]] = one
        if s23_space(s) == s or fusion.primed(s) == s:
            state[vvar[s]] = one

    equations = []
    labels: list[dict] = []  # kind and space of each equation

    def add(kind: str, space: Space, terms: list) -> None:
        equations.append(terms)
        labels.append({"kind": kind, "space": space})

    for s in spaces:
        add("involution-12", s, [(one, (uvar[s], uvar[s12_space(s)])), (-one, ())])
        add("involution-23", s, [(one, (vvar[s], vvar[s23_space(s)])), (-one, ())])
        # braid relation through both generator words
        t1 = s12_space(s)
        t2 = s23_space(s)
        add("braid", s, [(one, (uvar[s], vvar[t1], uvar[s23_space(t1)])),
                         (-one, (vvar[s], uvar[t2], vvar[s12_space(t2)]))])

    for s in spaces:
        # pairing symmetry: v[primed s] * F_A = v[s] * F_B
        f_a_val, f_b_val = (_f_scalar(f, key, field) for key in fusion.pairing_keys(s))
        if not f_a_val or not f_b_val:
            raise SolverError(f"vanishing pairing-contraction entry at {s}")
        add("pairing", s, [(f_a_val, (vvar[fusion.primed(s)],)), (-f_b_val, (vvar[s],))])
        # left-inverse normalization: v[s] * u[s23_space(s)] = F_x / (F1 * F2)
        f1, f2 = (_f_scalar(f, key, field) for key in fusion.normalization_keys(s))
        fx = _f_scalar(f, fusion.weight_key(s[0]), field)
        if not f1 or not f2 or not fx:
            raise SolverError(f"vanishing normalization entry at {s}")
        add("normalization", s, [(f1 * f2, (vvar[s], uvar[s23_space(s)])), (-fx, ())])

    guesses = [one, -one]
    if field.order % 4 == 0:
        i_unit = field.root_of_unity(1, 2)
        guesses += [i_unit, -i_unit]
    unknowns = list(uvar.values()) + list(vvar.values())
    found, conflict = _search(equations, state, unknowns, field, guesses, limit=1)
    if not found:
        raise SolverError("no S3 action consistent with the fusing tensor over this field",
                          conflict=None if conflict is None else labels[conflict])
    solution = found[0]
    sigma12 = {s: [[solution[uvar[s]]]] for s in spaces}
    sigma23 = {s: [[solution[vvar[s]]]] for s in spaces}
    return sigma12, sigma23


# -- pentagon solver ------------------------------------------------------------


def admissible_tuples(fusion: FusionData):
    """All channel-consistent label six-tuples (b1, b5, b4, b2, b3, b6)."""
    n = fusion.n
    out = []
    for b1, b2, b3 in product(fusion.labels, repeat=3):
        for b5 in fusion.labels:
            if not n(b2, b3, b5):
                continue
            for b4 in fusion.labels:
                if not n(b1, b5, b4):
                    continue
                for b6 in fusion.labels:
                    if n(b6, b3, b4) and n(b1, b2, b6):
                        out.append((b1, b5, b4, b2, b3, b6))
    return out


def pinned_value(fusion: FusionData, key6, field: CycField) -> CycScalar | None:
    """Unit-slot entries forced by the canonical bases, None if not pinned."""
    b1, b5, b4, b2, b3, b6 = key6
    e = fusion.unit
    one, zero = field.one(), field.zero()
    if b1 == e:
        return one if (b5 == b4 and b6 == b2) else zero
    if b2 == e:
        return one if b6 == b1 else zero
    if b3 == e:
        return one if b6 == b4 else zero
    return None


def with_pins(fusion: FusionData, field: CycField, assignment: dict) -> dict:
    """``assignment`` {key6: value} followed by the nonzero pinned entries
    it lacks, in ``admissible_tuples`` order."""
    pins = {key: pin for key in admissible_tuples(fusion)
            if key not in assignment and (pin := pinned_value(fusion, key, field))}
    return {**assignment, **pins}


def _entry_scaling(fusion: FusionData, key6, noncanon: set):
    """Gauge-scaling exponents of an F entry over the non-canonical spaces."""
    vec: dict[Space, int] = {}
    for space, sgn in zip(fusion.key_spaces(key6), (1, 1, -1, -1)):
        if space in noncanon:
            vec[space] = vec.get(space, 0) + sgn
    return {s: v for s, v in vec.items() if v}


def _gauge_fix(fusion: FusionData, unknowns: list, field: CycField) -> dict:
    """Greedy normalization: one unknown set to 1 per space not in ``canonical_spaces``."""
    noncanon = set(fusion.spaces()).difference(*map(fusion.canonical_spaces, fusion.labels))
    fixed: set = set()
    chosen: dict = {}
    progress = True
    while progress and len(fixed) < len(noncanon):
        progress = False
        for key in unknowns:
            if key in chosen:
                continue
            vec = _entry_scaling(fusion, key, noncanon)
            unfixed = [s for s in vec if s not in fixed]
            if len(unfixed) == 1:
                chosen[key] = field.one()
                fixed.add(unfixed[0])
                progress = True
    return chosen


def solve_pentagon(fusion: FusionData, field_order: int):
    """Pentagon solutions for a small multiplicity-free fusion ring.

    The unit-slot entries are pinned to their delta patterns; one entry per
    non-canonical space is normalized to 1 (basis rescaling freedom); the
    rest comes from ``_search``, guessing 1 and -1.  Returns a list of
    assignments {key6: CycScalar} (gauge representatives, distinct because
    each search branch gives one unknown distinct values).

    The search stops at 40 solutions and does not say so: Z/4 over
    Q(zeta_16) returns exactly 40 of its 128.  An empty list does not prove
    that the system has no solution over Q(zeta_N): the greedy
    normalization follows the declared label order and may pin entries only
    up to a root of unity, and on the ising ring over Q(zeta_16) it leaves 4
    solutions with the labels declared (1, eps, sigma) and none with
    (1, sigma, eps) (ROADMAP item 3 (e)).
    """
    for _, n in fusion.rules.items():
        if n > 1:
            raise SolverError("pentagon solver requires all multiplicities <= 1")
    if len(fusion.labels) > 4:
        raise SolverError("pentagon solver is limited to at most 4 labels")
    field = CycField(field_order)
    keys = admissible_tuples(fusion)
    assignment: dict = {}
    unknowns = []
    for key in keys:
        pin = pinned_value(fusion, key, field)
        if pin is None:
            unknowns.append(key)
        else:
            assignment[key] = pin
    assignment.update(_gauge_fix(fusion, unknowns, field))

    equations = _pentagon_equations(fusion, field)
    return _search(equations, assignment, unknowns, field,
                   [field.one(), field.rational(-1)], limit=40)[0]


def _pentagon_equations(fusion: FusionData, field: CycField):
    """``FusionData.pentagon_instances`` as term lists: +1 per lhs triple,
    -1 per rhs pair; the variables are the label six-tuples."""
    one, minus_one = field.one(), field.rational(-1)
    eqs = []
    for _cell, _index, lhs, rhs in fusion.pentagon_instances():
        terms = [(one, tuple(key6 for key6, _ in triple)) for triple in lhs]
        terms += [(minus_one, tuple(key6 for key6, _ in pair)) for pair in rhs]
        if terms:
            eqs.append(terms)
    return eqs
