"""Abelianization oracle: exponent matrix and integer Smith normal form.

Every Tietze move preserves the group, hence its abelianization; equal
abelian invariants are a necessary (not sufficient) condition for two
presentations to present the same group.  Python ints keep the reduction
exact despite coefficient growth.
"""

from __future__ import annotations

from .presentation import Presentation

IntMatrix = list[list[int]]


def exponent_matrix(p: Presentation) -> IntMatrix:
    """Row per relator, column per generator, entries are exponent sums."""
    rows = []
    for r in p.rel:
        row = [0] * p.d
        for s in r.word:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(row)
    return rows


def _nearest_quotient(a: int, p: int) -> int:
    """q with |a - q*p| <= |p|/2, so every reduction at least halves."""
    return (2 * a + p) // (2 * p)


def smith_normal_form(matrix: IntMatrix) -> list[int]:
    """Nonzero elementary divisors d_1 | d_2 | ... of an integer matrix.

    Each step moves the smallest nonzero entry of the remaining submatrix
    to position (k, k), then reduces column k and row k by nearest
    quotients.  A nonzero remainder is smaller than the pivot (at most
    half of it) and becomes the next pivot, so the pivot shrinks
    geometrically and the entries it touches stay small; with floor
    quotients a remainder could be almost as large as the pivot and the
    coefficients grew without bound on some exponent matrices.
    """
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    divisors: list[int] = []
    k = 0
    while True:
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[k], a[pi] = a[pi], a[k]
        for row in a:
            row[k], row[pj] = row[pj], row[k]
        while True:
            p = a[k][k]
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    q = _nearest_quotient(a[i][k], p)
                    row, top = a[i], a[k]
                    for j in range(k, cols):
                        row[j] -= q * top[j]
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    q = _nearest_quotient(a[k][j], p)
                    for row in a[k:]:
                        row[j] -= q * row[k]
            # every remainder left in row k or column k is smaller than
            # the pivot: the smallest one becomes the pivot
            best = None
            for i in range(k + 1, rows):
                if a[i][k] != 0 and (best is None or abs(a[i][k]) < best[0]):
                    best = (abs(a[i][k]), i, k)
            for j in range(k + 1, cols):
                if a[k][j] != 0 and (best is None or abs(a[k][j]) < best[0]):
                    best = (abs(a[k][j]), k, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != k:
                a[k], a[bi] = a[bi], a[k]
            else:
                for row in a:
                    row[k], row[bj] = row[bj], row[k]
        # pivot must divide every remaining entry for the divisor chain
        offender = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(cols):
                a[k][j] += a[offender][j]
            continue
        divisors.append(abs(a[k][k]))
        k += 1
    return divisors


def abelian_invariants(p: Presentation) -> tuple[list[int], int]:
    """(torsion coefficients with 1s removed, free rank)."""
    divisors = smith_normal_form(exponent_matrix(p))
    torsion = [d for d in divisors if d != 1]
    return torsion, p.d - len(divisors)
