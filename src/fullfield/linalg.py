"""Tiny exact linear algebra over a field of duck-typed scalars.

Matrices are lists of rows.  Entries must support ``+ - * /`` and truthiness
as a zero test; CycScalar and Fraction both qualify.
"""

from __future__ import annotations

from itertools import product


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner, "shape mismatch"
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def transpose(a):
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def solve(a, b, one):
    """X with a X = b by Gauss-Jordan elimination; None if a is singular.

    ``b`` has as many rows as ``a``; this is the one elimination kernel.
    """
    n = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = one / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_inv(a, one, zero):
    """Inverse by Gauss-Jordan elimination; None if singular."""
    return solve(a, identity(len(a), one, zero), one)


def mat_scale(a, s):
    return [[s * v for v in row] for row in a]


def change_basis4(blk, m1, m2, m3, m4, zero):
    """A 4-slot block in new bases: the one basis-change kernel.

    out[p][q][r][s] = sum M1[ph][p] * M2[qh][q] * M3[r][rh] * M4[s][sh]
    * blk[ph][qh][rh][sh]: the first two slots take columns of their
    matrices, the last two take rows.
    """
    n1, n2, n3, n4 = len(blk), len(blk[0]), len(blk[0][0]), len(blk[0][0][0])
    out = [[[[zero] * n4 for _ in range(n3)] for _ in range(n2)] for _ in range(n1)]
    for p, q, r, s in product(range(n1), range(n2), range(n3), range(n4)):
        acc = zero
        for ph in range(n1):
            if not m1[ph][p]:
                continue
            for qh in range(n2):
                if not m2[qh][q]:
                    continue
                for rh in range(n3):
                    for sh in range(n4):
                        acc = acc + (m1[ph][p] * m2[qh][q] * m3[r][rh] * m4[s][sh]
                                     * blk[ph][qh][rh][sh])
        out[p][q][r][s] = acc
    return out
