import random
from fractions import Fraction

from nok.linalg import rank

from oracles import matrix_rank


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
        assert rank(rows) == expected
        assert rank(iter(rows)) == expected
