import random
from fractions import Fraction

from nok.linalg import rank, solve_linear

from oracles import dot, matrix_rank, solve_square


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


def pivot_columns(rows, n):
    """Leftmost columns that are independent of the columns before them."""
    cols = [[row[j] for row in rows] for j in range(n)]
    return [j for j in range(n)
            if matrix_rank(cols[:j + 1]) > matrix_rank(cols[:j])]


def test_rank_matches_oracle_with_and_without_limit():
    rng = random.Random(3)
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        deficient = rng.random() < 0.5
        rows = random_matrix(rng, m, n,
                             rng.randint(0, min(m, n)) if deficient else None)
        expected = matrix_rank(rows)
        assert rank(rows) == expected
        assert rank(iter(rows)) == expected


def test_solve_linear_matches_oracle_on_square_systems():
    rng = random.Random(5)
    singular_seen = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n,
                             rng.randint(0, n - 1) if rng.random() < 0.3
                             else None)
        rhs = [entry(rng) for _ in range(n)]
        expected = solve_square(rows, rhs)
        if expected is not None:
            assert solve_linear(rows, rhs) == expected
            continue
        singular_seen += 1
        sol = solve_linear(rows, rhs)
        augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
        if matrix_rank(augmented) > matrix_rank(rows):
            assert sol is None
        else:
            assert [dot(row, sol) for row in rows] == rhs
    assert singular_seen > 10


def test_solve_linear_detects_inconsistent_systems():
    rng = random.Random(7)
    inconsistent = 0
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(1, 5)
        rows = random_matrix(rng, m, n, rng.randint(0, min(m - 1, n)))
        x = [entry(rng) for _ in range(n)]
        rhs = [dot(row, x) for row in rows]
        # rows are dependent, so moving one right-hand side breaks the
        # relation that ties it to the others
        i = rng.randrange(m)
        rhs[i] += 1
        augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
        if matrix_rank(augmented) > matrix_rank(rows):
            assert solve_linear(rows, rhs) is None
            inconsistent += 1
    assert inconsistent > 30


def test_solve_linear_underdetermined_sets_free_variables_to_zero():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(2, 7)
        m = rng.randint(1, n - 1)
        rows = random_matrix(rng, m, n,
                             rng.randint(0, m) if rng.random() < 0.4
                             else None)
        x = [entry(rng) for _ in range(n)]
        rhs = [dot(row, x) for row in rows]
        sol = solve_linear(rows, rhs)
        assert sol is not None
        assert [dot(row, sol) for row in rows] == rhs
        pivots = pivot_columns(rows, n)
        assert all(sol[j] == 0 for j in range(n) if j not in pivots)
        assert all(isinstance(v, Fraction) for v in sol)
