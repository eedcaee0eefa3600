"""Small exact linear-algebra helpers over the rationals.

Everything works on sequences of numbers that mix `int` and
`fractions.Fraction`; no floats are ever produced.  There are two
eliminations: `_echelon`, a streaming Gaussian elimination over the
rationals that serves only `rank` and `solve_linear`, and `_gauss_jordan`,
a fraction-free Gauss-Jordan elimination of integer rows that never
leaves the integers; `_adjugate` and every other elimination use it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def _echelon(rows: Iterable[Sequence]):
    """Keep each row that is independent of the rows kept before it.

    Every incoming row is reduced against the kept rows at their pivot
    columns; if anything is left, it is scaled so that its first nonzero
    entry (its pivot) is 1 and kept.  A kept row is zero at the pivot
    columns of the rows kept before it.  Returns the kept rows and their
    pivot columns.
    """
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    # the rows are mostly sparse, so Fraction arithmetic on zero entries
    # is skipped
    for row in rows:
        vec = [Fraction(x) for x in row]
        for pivot_col, base in zip(pivots, basis):
            coeff = vec[pivot_col]
            if coeff:
                vec = [a - coeff * b if b else a
                       for a, b in zip(vec, base)]
        col = next((j for j, a in enumerate(vec) if a), None)
        if col is None:
            continue
        inv = vec[col]
        basis.append([a / inv if a else a for a in vec])
        pivots.append(col)
    return basis, pivots


def rank(rows: Iterable[Sequence]) -> int:
    """Rank of a matrix given as an iterable of rows."""
    return len(_echelon(rows)[0])


def solve_linear(rows: Sequence[Sequence], rhs: Sequence):
    """One exact solution of a general linear system, or None if the
    system is inconsistent; free variables are set to zero."""
    cols = len(rows[0]) if rows else 0
    basis, pivots = _echelon([*row, b] for row, b in zip(rows, rhs))
    if cols in pivots:  # a kept row reads 0 = nonzero
        return None
    sol = [Fraction(0)] * cols
    # a kept row is zero left of its pivot and at earlier rows' pivots,
    # so the later rows' pivot values are all it still needs
    for base, col in zip(reversed(basis), reversed(pivots)):
        sol[col] = base[cols] - sum(a * sol[j] for j, a in
                                    enumerate(base[col + 1:cols], col + 1)
                                    if a)
    return sol


def _gauss_jordan(rows: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    over their first `ncols` columns (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", 1968).

    Column by column, the first remaining row that is nonzero there is
    swapped up as the pivot row, and every other row becomes
    (pivot * row - f * pivot_row) // prev, with f its entry in the column
    and prev the previous pivot.  By Sylvester's identity every entry is
    then a minor of the input, so each division is exact.  A column that
    is zero in every remaining row gets no pivot.  Returns (d, pivots): the
    pivot columns in order, and d the last pivot (1 if there is none).
    Row k is then d at pivots[k] and zero at the other pivot columns, and
    the rows after the last pivot row are zero in the first `ncols`
    columns.
    """
    prev = 1
    pivots: list[int] = []
    for col in range(ncols):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[col]
        for i, row in enumerate(rows):
            if i != k:
                f = row[col]
                rows[i] = [(pivot * x - f * y) // prev
                           for x, y in zip(row, pivot_row)]
        prev = pivot
        pivots.append(col)
    return prev, pivots


def _adjugate(cols: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, T) with T*G = d*I, where G has the given integer columns and
    d = +-det G, by fraction-free Gauss-Jordan elimination of [G | I].  G
    must be nonsingular."""
    m = len(cols)
    rows = [[c[i] for c in cols] + [int(i == k) for k in range(m)]
            for i in range(m)]
    d, _ = _gauss_jordan(rows, m)
    return d, [row[m:] for row in rows]
