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

Propagation is incremental.  Each search frame caches every equation's
normalized term list with the variables it watches; a child frame starts
from a copy of its parent's cache, and an equation is normalized again only
once a watched variable has been resolved, so the cached list is always the
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
from fullfield.fusion import FusionData

Space = tuple[str, str, str]


class SolverError(RuntimeError):
    """A solver failure; ``conflict`` names the first contradicted equation
    when the constraint system has no solution, else it is None."""

    def __init__(self, message: str, conflict: dict | None = None):
        super().__init__(message)
        self.conflict = conflict


# -- the search -----------------------------------------------------------------


def _expand_mono(coeff, vars, state, depth: int = 0):
    """Expand a scalar-times-monomial through the current state.

    Returns (coeff, sorted tuple of unresolved variables).  ``state`` maps
    solved variables to scalars and substituted variables to (coeff, vars)
    monomial expressions.  A substitution read here whose variables have
    since been resolved is rewritten in place to its resolved form, a scalar
    or a monomial over unresolved variables, so later reads skip the chain.
    """
    if depth > len(state):  # a chain longer than the state revisits an entry
        raise SolverError("substitution expansion did not terminate")
    out_vars: list = []
    for v in vars:
        got = state.get(v)
        if got is None:
            out_vars.append(v)
        elif isinstance(got, CycScalar):
            coeff = coeff * got
        else:
            c2, vs2 = got
            if any(w in state for w in vs2):
                c2, vs2 = _expand_mono(c2, vs2, state, depth + 1)
                state[v] = (c2, vs2) if vs2 else c2
            coeff = coeff * c2
            out_vars.extend(vs2)
    return coeff, tuple(sorted(out_vars))


def _normalize_terms(eq, state):
    """Term list of ``eq`` expanded through ``state``, like monomials merged.

    Also returns the variables to watch: while none of them enters
    ``state``, normalizing again gives the same list.  These are the
    unresolved variables of every expanded term, cancelled ones included,
    since they fix the merge order.  A list of at most one term has no order
    to keep and changes only once one of its own variables is resolved, so it
    watches just those.
    """
    merged: dict[tuple, CycScalar] = {}
    seen: set = set()
    for coeff, vars in eq:
        coeff, vars = _expand_mono(coeff, vars, state)
        seen.update(vars)
        cur = merged.get(vars)
        tot = coeff if cur is None else cur + coeff
        if tot:
            merged[vars] = tot
        elif cur is not None:
            del merged[vars]
    if len(merged) <= 1:
        seen = {x for v in merged for x in v}
    return [(c, v) for v, c in merged.items()], seen


def _single_var_solve(terms, field):
    """Nonzero roots of sum c_t x^d_t = 0 in one variable.

    None if the equation is vacuous or of degree above 2.
    """
    deg_coeff: dict[int, CycScalar] = {}
    for coeff, vars in terms:
        deg_coeff[len(vars)] = deg_coeff.get(len(vars), field.zero()) + coeff
    degs = sorted(dg for dg, cf in deg_coeff.items() if cf)
    if not degs or degs[-1] > 2:
        return None
    if len(degs) == 1:
        return []  # c * x^d = 0
    if degs in ([0, 1], [1, 2]):
        return [(-deg_coeff[degs[0]]) / deg_coeff[degs[1]]]
    if degs == [0, 2]:
        root = field.sqrt((-deg_coeff[0]) / deg_coeff[2])
        return [] if root is None else [root, -root]
    a, b, c = deg_coeff[2], deg_coeff[1], deg_coeff[0]
    root = field.sqrt(b * b - 4 * a * c)
    if root is None:
        return []
    return list({((-b) + root) / (2 * a), ((-b) - root) / (2 * a)})


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
    """
    solutions: list[dict] = []
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
                if hit is None or any(v in state for v in hit[1]):
                    hit = cache[i] = _normalize_terms(eq, state)
                terms = hit[0]
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
                    roots = _single_var_solve(terms, field)
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
                        state[bare[0]] = ((-co) / cb, other)
                        progress = True
        free = [k for k in unknowns if k not in state]
        if free:
            for cand in guesses:
                dfs({**state, free[0]: cand}, list(cache))
            return
        # the last sweep changed nothing, so the cache holds every equation
        # normalized through the final state
        if not any(terms for terms, _ in cache):
            solutions.append({k: _expand_mono(field.one(), (k,), state)[0] for k in unknowns})

    dfs(dict(state), [None] * len(equations))
    return solutions, conflict


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


def _noncanonical_spaces(fusion: FusionData) -> list[Space]:
    e = fusion.unit
    d = fusion.dual
    out = []
    for a1, a2, a3, _n in fusion.nonzero_spaces():
        if e in (a1, a2) or (a3 == e and a2 == d[a1]):
            continue
        out.append((a1, a2, a3))
    return out


def _entry_scaling(fusion: FusionData, key6, noncanon: set):
    """Gauge-scaling exponents of an F entry over the non-canonical spaces."""
    b1, b5, b4, b2, b3, b6 = key6
    vec: dict[Space, int] = {}
    for space, sgn in (((b1, b5, b4), 1), ((b2, b3, b5), 1),
                       ((b6, b3, b4), -1), ((b1, b2, b6), -1)):
        if space in noncanon:
            vec[space] = vec.get(space, 0) + sgn
    return {s: v for s, v in vec.items() if v}


def _gauge_fix(fusion: FusionData, unknowns: list, field: CycField) -> dict:
    """Greedy basis normalization: one unknown entry set to 1 per free space."""
    noncanon = set(_noncanonical_spaces(fusion))
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
    rest comes from ``_search``, guessing 1 and -1, for at most 40
    solutions.  Returns a list of
    assignments {key6: CycScalar} (gauge representatives, distinct because
    each search branch gives one unknown distinct values); empty if the
    system has no solution over Q(zeta_N).
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
