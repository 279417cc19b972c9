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
    if p.eliminated:
        raise ValueError("labels not compacted: their gaps would read as free generators")
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

    The least nonzero entry p is the pivot: its row comes out, and nearest
    quotients clear p's column and row.  A remainder is at most |p|/2, and
    a row that p does not divide, added to p's row, leaves one; either way
    the next pivot is smaller, so the loop ends.  Otherwise |p| is recorded
    and its column dropped; every later entry is a combination of entries
    p divides, so each divisor divides the next.  Floor quotients let the
    coefficients grow without bound on some exponent matrices.

    >>> smith_normal_form([[2, 0], [0, 3]])
    [1, 6]
    """
    a = [row[:] for row in matrix if any(row)]
    divisors: list[int] = []
    while a:
        _, i, j = min((abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
        top = a.pop(i)
        p = top[j]
        for row in a:
            q = _nearest_quotient(row[j], p)
            if q:
                for c, t in enumerate(top):
                    row[c] -= q * t
        for c, x in enumerate(top):
            if x and c != j:
                q = _nearest_quotient(x, p)
                for row in a:
                    row[c] -= q * row[j]
                top[c] -= q * p
        if not any(row[j] for row in a) and not any(top[:j] + top[j + 1:]):
            offender = None
            if abs(p) > 1:  # a unit divides every entry
                offender = next((row for row in a if any(x % p for x in row)), None)
            if offender is None:
                divisors.append(abs(p))
                a = [row[:j] + row[j + 1:] for row in a if any(row)]
                continue
            # offender[j] is 0: p's row plus the offender, reduced against p
            top = [x - _nearest_quotient(x, p) * p for x in offender]
            top[j] = p
        a.append(top)
    return divisors


def abelian_invariants(p: Presentation) -> tuple[list[int], int]:
    """(torsion coefficients with 1s removed, free rank)."""
    divisors = smith_normal_form(exponent_matrix(p))
    torsion = [d for d in divisors if d != 1]
    return torsion, p.d - len(divisors)
