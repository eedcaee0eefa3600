import math
import random
from fractions import Fraction

from nok.linalg import _gauss_jordan, rank

from oracles import bareiss_every_row, matrix_rank


def entry(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_matrix(rng, m, n, rank_at_most=None):
    """An m x n matrix; with rank_at_most = r its rows are combinations of
    r random rows, so its rank is at most r."""
    if rank_at_most is None:
        return [[entry(rng) for _ in range(n)] for _ in range(m)]
    seeds = random_matrix(rng, rank_at_most, n)
    return [[sum(c * row[j] for c, row in zip(coeffs, seeds))
             for j in range(n)]
            for coeffs in ([entry(rng) for _ in seeds] for _ in range(m))]


def cleared(row):
    """The row scaled by the lcm of its denominators: integers of the
    same rank."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def test_rank_matches_oracle():
    rng = random.Random(3)
    matrices = [[]]
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        deficient = rng.random() < 0.5
        matrices.append(random_matrix(
            rng, m, n, rng.randint(0, min(m, n)) if deficient else None))
    for rows in matrices:
        expected = matrix_rank(rows)
        ints = [cleared(row) for row in rows]
        assert rank(ints) == expected
        assert rank(iter(ints)) == expected


def sparse_matrix(rng, m, n):
    """Rows that are mostly unit vectors, scaled or not, with some zero,
    dense, duplicate and dependent rows."""
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.55:
            row = [0] * n
            row[rng.randrange(n)] = rng.choice((1, 1, 1, 1, -1, 2, 3, -5))
        elif kind < 0.6:
            row = [0] * n
        elif kind < 0.72 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            row = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y
                   for x, y in zip(a, b)]
        elif kind < 0.82 and rows:
            row = list(rng.choice(rows))
        else:
            row = [rng.choice((0, 0, rng.randint(-7, 7))) for _ in range(n)]
        rows.append(row)
    return rows


def test_gauss_jordan_matches_the_full_update():
    # the zero-skip must leave exactly the rows, determinant and pivots of
    # the elimination that updates every row; augmented with an identity
    # block, as the double description and _adjugate run it
    rng = random.Random(19)
    skipped = scaled = 0
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 9)
        rows = sparse_matrix(rng, m, n)
        if rng.random() < 0.5:
            rows = [row + [int(i == k) for k in range(m)]
                    for i, row in enumerate(rows)]
        ncols = rng.randint(0, n)
        expected = [list(row) for row in rows]
        d, pivots = bareiss_every_row(expected, ncols)
        got = [list(row) for row in rows]
        assert _gauss_jordan(got, ncols) == (d, pivots)
        assert got == expected
        # the two cases the skip changes, at pivots with a zero row in
        # their column: pivot equal to the previous one, and not
        prev = 1
        for k, col in enumerate(pivots):
            before = [list(row) for row in rows]
            bareiss_every_row(before, col)
            pivot = next(row[col] for row in before[k:] if row[col])
            if any(not row[col] for row in before):
                skipped += pivot == prev
                scaled += pivot != prev
            prev = pivot
    assert skipped > 100 and scaled > 200
