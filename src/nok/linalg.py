"""Small exact linear-algebra helpers over the rationals.

`_gauss_jordan`, a fraction-free Gauss-Jordan elimination of integer
rows that never leaves the integers, is the package's only elimination;
`rank`, `_adjugate` (and through it the Hilbert basis's parallelepipeds),
the certificate solves and the double description's start basis all use
it.

A row that is zero in the pivot column costs nothing when the pivot
equals the previous one.  With f = 0 the Bareiss update of an entry x
is (pivot * x - 0 * y) // prev = pivot * x // prev, an exact division
like every other, as Sylvester's identity makes the result a minor of
the input.  When pivot = prev it is x itself, so the row is left as it
is; otherwise the row is only scaled.  The double description's start
basis meets this at every unit pivot: the orthant rows x_i >= 0 of each
polyhedron give unit columns, where pivot = prev = 1 and every other
row is zero.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _gauss_jordan(rows: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    over their first `ncols` columns (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", 1968).

    Column by column, the first remaining row that is nonzero there is
    swapped up as the pivot row, and every other row becomes
    (pivot * row - f * pivot_row) // prev, with f its entry in the column
    and prev the previous pivot.  By Sylvester's identity every entry is
    then a minor of the input, so each division is exact.  A row with
    f = 0 is left as it is when pivot = prev and only scaled otherwise
    (see the module docstring).  A column that is zero in every
    remaining row gets no pivot.  Returns (d, pivots): the
    pivot columns in order, and d the last pivot (1 if there is none).
    Row k is then d at pivots[k] and zero at the other pivot columns, and
    the rows after the last pivot row are zero in the first `ncols`
    columns.
    """
    prev = 1
    pivots: list[int] = []
    for col in range(ncols):
        k = len(pivots)
        if k == len(rows):
            # every row holds a pivot
            break
        p = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[col]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[col]
            if f:
                rows[i] = [(pivot * x - f * y) // prev
                           for x, y in zip(row, pivot_row)]
            elif pivot != prev:
                rows[i] = [pivot * x // prev for x in row]
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


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix given as an iterable of rows: the pivot
    count of its fraction-free elimination."""
    rows = list(rows)
    return len(_gauss_jordan(rows, len(rows[0]))[1]) if rows else 0
