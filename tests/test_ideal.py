import random
from fractions import Fraction
from itertools import combinations
from operator import le

import pytest

import nok.ideal
from nok import (DimensionMismatch, EmptyGeneratorSet, EmptyList, EmptyPrime,
                 MonomialIdeal, NokError, NonPositiveExponent,
                 NonPositiveMultiplicity, NotSquarefree, PrimeComponent,
                 PrimeDecomposition, classify, classify_decomposition,
                 expand_decomposition, from_halfspaces, intersect,
                 minimal_lattice_points, minimal_primes, minimal_vectors,
                 minimalize, multiply, newton_polyhedron, parse_ideal_text,
                 power, real_power, symbolic_polyhedron, symbolic_power)

from test_polyhedron import random_up_set_system


def test_minimal_vectors_drops_dominated():
    assert minimal_vectors([(2, 0), (1, 1), (2, 1), (3, 0)]) == \
        [(1, 1), (2, 0)]


def test_minimal_vectors_dedupes():
    assert minimal_vectors([(1, 0), (1, 0), (0, 1)]) == [(0, 1), (1, 0)]


def brute_minimal(vectors):
    """Pairwise antichain filter: keep v unless another vector is <= it."""
    unique = {tuple(v) for v in vectors}
    return sorted(v for v in unique
                  if not any(m != v and all(map(le, m, v)) for m in unique))


def random_vectors(rng, nvars, count):
    # entries from a small palette per coordinate, so that many pairs are
    # comparable; the palette straddles 2^w for a random w and holds
    # negatives and 10^6
    w = rng.randint(0, 21)
    pool = [0, 1, 2 ** w - 1, 2 ** w, 2 ** w + 1, 10 ** 6, -1, -(2 ** w),
            rng.randint(-5, 2 ** w)]
    palettes = [rng.sample(pool, rng.randint(1, 4)) for _ in range(nvars)]
    vectors = [tuple(rng.choice(p) for p in palettes) for _ in range(count)]
    return vectors + rng.sample(vectors, min(len(vectors), 3))


def wide_vectors(rng, nvars, count):
    # entries around the field boundaries of a random width w; most
    # vectors share one coordinate sum, so the kept antichain is long
    w = rng.randint(1, 20)
    pool = [0, 1, 2 ** w - 1, 2 ** w, 2 ** w + 1, -1]
    level = nvars * 2 ** (w - 1)
    vectors = []
    for _ in range(count):
        v = [rng.choice(pool) if rng.random() < 0.5
             else rng.randint(-1, 2 ** w + 1) for _ in range(nvars - 1)]
        v.append(level - sum(v) if rng.random() < 0.8 else rng.choice(pool))
        vectors.append(tuple(v))
    return vectors + rng.sample(vectors, count // 10)


def test_minimal_vectors_matches_pairwise_filter():
    rng = random.Random(2009)
    for _ in range(600):
        nvars = rng.randint(1, 7)
        vectors = random_vectors(rng, nvars, rng.randint(0, 30))
        assert minimal_vectors(vectors) == brute_minimal(vectors)
    for count in (200, 700, 1500, 3000):
        vectors = wide_vectors(rng, rng.randint(2, 7), count)
        assert minimal_vectors(vectors) == brute_minimal(vectors)


def test_minimal_vectors_finds_the_only_divisor_in_any_slot():
    # kept vectors take slots in lex order and v is lex-last; the only
    # divisor of v, m, takes the first slot in one case and the last in
    # the other
    n = 500
    for shift in (0, -3, 2 ** 20):
        antichain = [(i, n + 1 - i, 0) for i in range(1, n + 1)]
        for m, v in (((0, 0, 5), (n + 1, 0, 5)),
                     ((n + 1, 0, 5), (n + 2, 0, 5))):
            vectors = [tuple(e + shift for e in u)
                       for u in antichain + [m, v]]
            assert minimal_vectors(vectors) == sorted(vectors[:-1])


def test_minimal_vectors_at_field_boundaries():
    for w in (1, 2, 7, 8, 20):
        top, over = 2 ** w - 1, 2 ** w
        vectors = [(top, 0), (0, top), (over, 0), (top, top), (over, over),
                   (top, over), (0, over), (10 ** 6, 1), (1, 10 ** 6)]
        assert minimal_vectors(vectors) == brute_minimal(vectors)
        assert minimal_vectors([(top, 0, -1), (over, 0, -1)]) == \
            [(top, 0, -1)]
        assert minimal_vectors([(over, 1), (top, 2)]) == [(top, 2), (over, 1)]


def test_minimal_vectors_empty_and_negative_input():
    assert minimal_vectors([]) == []
    assert minimal_vectors([(1, -1), (0, 2), (2, -1)]) == [(0, 2), (1, -1)]


def test_minimal_vectors_rejects_mixed_lengths():
    with pytest.raises(DimensionMismatch):
        minimal_vectors([(1, 0), (0, 1, 1)])


def test_minimal_vectors_rejects_non_integers():
    with pytest.raises(NonPositiveExponent):
        minimal_vectors([(1.5, 0)])
    with pytest.raises(NonPositiveExponent):
        minimal_vectors([(0, 1), ("1", 0)])


def test_minimalize_keeps_error_classes():
    with pytest.raises(NonPositiveExponent):
        minimalize([(1, -1)])
    with pytest.raises(NonPositiveExponent):
        minimalize([(1.5, 0)])
    with pytest.raises(DimensionMismatch):
        minimalize([(1, 0), (0, 1, 1)])


def test_constructor_rejects_bool_exponents():
    with pytest.raises(NonPositiveExponent):
        MonomialIdeal(2, ((0, 1), (True, 0)))


def test_minimalize_rejects_bool_exponents():
    with pytest.raises(NonPositiveExponent):
        minimalize([(0, 1), (True, 0)])
    with pytest.raises(NonPositiveExponent):
        minimalize([(1, 0), (True, 0)])


def test_contains_monomial_matches_pairwise_divisibility():
    rng = random.Random(44)
    for _ in range(200):
        nvars = rng.randint(1, 7)
        vectors = [tuple(abs(e) for e in v)
                   for v in random_vectors(rng, nvars, rng.randint(1, 12))]
        ideal = minimalize(vectors, nvars)
        points = random_vectors(rng, nvars, 10)
        # each generator, and each one below it in one positive coordinate
        for g in ideal.generators:
            points.append(g)
            points += [g[:j] + (e - 1,) + g[j + 1:]
                       for j, e in enumerate(g) if e]
        for point in points:
            expected = any(all(a <= b for a, b in zip(g, point))
                           for g in ideal.generators)
            assert ideal.contains_monomial(point) == expected, point


def test_minimalize_builds_canonical_ideal():
    ideal = minimalize([(1, 1, 0), (2, 1, 0), (0, 1, 1)])
    assert ideal.nvars == 3
    assert ideal.generators == ((0, 1, 1), (1, 1, 0))


def test_constructor_rejects_non_antichain():
    with pytest.raises(NokError):
        MonomialIdeal(2, ((1, 0), (2, 0)))
    antichain = [(i, 999 - i) for i in range(999)]
    assert MonomialIdeal(2, tuple(antichain)).generators == tuple(antichain)
    with pytest.raises(NokError):
        MonomialIdeal(2, tuple(sorted(antichain + [(500, 500)])))


def test_constructor_stores_listed_generators_as_tuples():
    # a list of tuples, or of lists, is the ideal minimalize builds: equal,
    # with an equal hash, and one newton_polyhedron cache entry for both
    expected = minimalize([(0, 1), (1, 0)])
    for gens in ([(0, 1), (1, 0)], [[0, 1], [1, 0]]):
        ideal = MonomialIdeal(2, gens)
        assert ideal.generators == ((0, 1), (1, 0))
        assert ideal == expected and hash(ideal) == hash(expected)
        newton_polyhedron.cache_clear()
        assert newton_polyhedron(ideal) is newton_polyhedron(expected)
        assert newton_polyhedron.cache_info().hits == 1


def test_constructor_rejects_unsorted():
    with pytest.raises(NokError):
        MonomialIdeal(2, ((1, 0), (0, 1)))


def test_constructor_rejects_empty():
    with pytest.raises(EmptyGeneratorSet):
        MonomialIdeal(2, ())


def test_constructor_rejects_bad_lengths():
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(3, ((1, 0),))
    with pytest.raises(DimensionMismatch, match="at least one variable"):
        MonomialIdeal(0, ((),))


def test_constructor_rejects_negative_exponents():
    with pytest.raises(NokError):
        MonomialIdeal(2, ((1, -1),))


def test_each_ideal_is_proven_once(monkeypatch):
    # outside vectors have their shape checked once, by minimalize or the
    # constructor; an ideal built from proven ideals is not checked again
    calls = []
    check = MonomialIdeal._check_shape

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(MonomialIdeal, "_check_shape", counted)

    def checks(build):
        calls.clear()
        assert isinstance(build(), MonomialIdeal)
        return len(calls)

    assert checks(lambda: minimalize([(2, 0, 1), (1, 1, 0), (0, 3, 1)])) == 1
    assert checks(lambda: MonomialIdeal(2, ((0, 1), (1, 0)))) == 1
    ideal = minimalize([(2, 0, 1), (1, 1, 0), (0, 3, 1)])
    other = minimalize([(1, 0, 0), (0, 2, 2)])
    dec = PrimeDecomposition(3, (PrimeComponent((0, 1), 2),
                                 PrimeComponent((1, 2), 1)))
    ci = classify_decomposition(dec)
    symbolic_polyhedron(ci)
    newton_polyhedron(ideal)
    for build in (lambda: multiply(ideal, other),
                  lambda: power(ideal, 5),
                  lambda: intersect([ideal, other, power(other, 2)]),
                  lambda: expand_decomposition(dec),
                  lambda: PrimeComponent((0, 2)).ideal(3),
                  lambda: symbolic_power(ci, 3),
                  lambda: real_power(ideal, Fraction(3, 2))):
        assert checks(build) == 0


def test_prime_component_ideal_refuses_uncovered_variables():
    # the sorted unit vectors are an antichain only when every variable
    # index is below nvars
    assert PrimeComponent((2,)).ideal(3).generators == ((0, 0, 1),)
    for nvars in (0, 1, 2):
        with pytest.raises(DimensionMismatch, match="2 out of range"):
            PrimeComponent((0, 2)).ideal(nvars)


def test_unit_ideal():
    unit = minimalize([(0, 0), (1, 2)])
    assert unit.is_unit()
    assert unit.generators == ((0, 0),)
    assert unit.contains_monomial((0, 0))


def test_squarefree_detection():
    assert minimalize([(1, 1, 0), (0, 1, 1)]).is_squarefree()
    assert not minimalize([(2, 0), (0, 1)]).is_squarefree()


def test_contains_monomial_is_divisibility():
    ideal = minimalize([(1, 1), (0, 3)])
    assert ideal.contains_monomial((1, 1))
    assert ideal.contains_monomial((2, 5))
    assert not ideal.contains_monomial((1, 0))
    assert not ideal.contains_monomial((0, 2))
    for point in ((1, 1, 0), (3,)):
        with pytest.raises(DimensionMismatch):
            ideal.contains_monomial(point)
    with pytest.raises(NonPositiveExponent):
        ideal.contains_monomial((True, 3))


def test_multiply_and_power_agree():
    ideal = minimalize([(1, 1), (0, 2)])
    assert power(ideal, 3) == multiply(multiply(ideal, ideal), ideal)
    assert power(ideal, 1) == ideal


def test_power_matches_iterated_pairwise_product():
    rng = random.Random(97)
    ideals = [minimalize([(0,) * 3]), minimalize([(2, 0, 1)])]
    for _ in range(16):
        n = rng.randint(1, 5)
        ideals.append(minimalize(
            [tuple(rng.randint(0, 3) for _ in range(n))
             for _ in range(rng.randint(1, 4))], n))
    for ideal in ideals:
        product = list(ideal.generators)
        for k in range(1, 10):
            assert list(power(ideal, k).generators) == product
            product = brute_minimal([tuple(x + y for x, y in zip(a, b))
                                     for a in product
                                     for b in ideal.generators])
        for k in (0, -1):
            with pytest.raises(NonPositiveExponent):
                power(ideal, k)


def brute_product(lhs, rhs):
    return brute_minimal([tuple(x + y for x, y in zip(a, b))
                          for a in lhs.generators for b in rhs.generators])


def boundary_ideal(rng, nvars, w):
    # entries at and around the field boundary 2^w of one factor; a sum
    # of two such factors reaches 2^(w+1) and so the boundary of the
    # product's fields
    pool = [0, 1, 2 ** w - 1, 2 ** w, 2 ** w + 1, 2 ** (w + 1) - 1]
    return minimalize([tuple(rng.choice(pool) for _ in range(nvars))
                       for _ in range(rng.randint(1, 8))], nvars)


def test_multiply_matches_every_pairwise_sum_minimalized():
    rng = random.Random(1717)
    ideals = [minimalize([(0,)]), minimalize([(3,)]),
              minimalize([(2,), (5,)]), minimalize([(0, 0, 0)]),
              minimalize([(2, 0, 1)]), minimalize([(1, 0), (0, 1)])]
    for _ in range(120):
        nvars = rng.randint(1, 6)
        if rng.random() < 0.5:
            ideals.append(boundary_ideal(rng, nvars, rng.randint(0, 20)))
        else:
            vectors = [tuple(abs(e) for e in v)
                       for v in random_vectors(rng, nvars,
                                               rng.randint(1, 12))]
            ideals.append(minimalize(vectors, nvars))
    by_nvars = {}
    for ideal in ideals:
        by_nvars.setdefault(ideal.nvars, []).append(ideal)
    for group in by_nvars.values():
        for lhs in group:
            rhs = rng.choice(group)
            unit = minimalize([(0,) * lhs.nvars])
            for a, b in ((lhs, rhs), (rhs, lhs), (lhs, lhs), (lhs, unit),
                         (unit, lhs)):
                assert list(multiply(a, b).generators) == brute_product(a, b)


def test_multiply_at_the_field_boundaries():
    # the left factor alone fits w-bit fields and the right one 1-bit
    # fields, but their sums need w + 1 bits; both factors, and the sum,
    # straddle 2^w
    for w in (1, 2, 7, 8, 20):
        top, over = 2 ** w - 1, 2 ** w
        lhs = minimalize([(top, 0), (0, top), (1, 1)])
        rhs = minimalize([(1, 0), (0, 1)])
        wide = minimalize([(over, 0), (0, over), (top, 1)])
        for a, b in ((lhs, rhs), (rhs, lhs), (lhs, wide), (wide, wide),
                     (lhs, lhs)):
            assert list(multiply(a, b).generators) == brute_product(a, b)
        # a one-generator factor has span 0, so the other factor's span
        # alone sizes the fields
        assert multiply(minimalize([(top, 0)]), rhs).generators == \
            ((top, 1), (over, 0))


def brute_every_sum(targets, lhs, rhs):
    sums = {tuple(map(sum, zip(a, b))) for a in lhs for b in rhs}
    return all(tuple(t) in sums for t in targets)


def test_every_sum_on_hand_built_vectors():
    every_sum = nok.ideal._every_sum
    lhs, rhs = [(1, 0), (0, 1)], [(1, 0)]
    assert every_sum([(2, 0), (1, 1)], lhs, rhs)
    assert every_sum([], lhs, rhs)
    assert not every_sum([(2, 0), (0, 2)], lhs, rhs)
    assert not every_sum([(1, 0)], lhs, rhs)
    assert every_sum([(3, 3)], [(1, 2)], [(2, 1)])


def test_every_sum_refuses_a_target_outside_the_fields():
    every_sum, packer = nok.ideal._every_sum, nok.ideal._packer
    # sums of these lie in lows (0, 0) and span 1, in 2-bit fields; the
    # target (0, 4) carries into the top field and packs as the sum (1, 0)
    lhs, rhs = [(0, 0)], [(1, 0), (0, 1)]
    _, pack = packer([0, 0], 1)
    assert pack((0, 4)) == pack((1, 0))
    assert not every_sum([(0, 4)], lhs, rhs)
    assert every_sum([(1, 0)], lhs, rhs)
    # here the lows are (0, 4); the target (1, 1) is below them in its
    # last entry, borrows from the top field and packs as the sum (0, 5)
    lhs = [(0, 4)]
    _, pack = packer([0, 4], 1)
    assert pack((1, 1)) == pack((0, 5))
    assert not every_sum([(1, 1)], lhs, rhs)
    assert every_sum([(0, 5), (1, 4)], lhs, rhs)


def every_sum_targets(rng, lhs, rhs, count):
    """Sums a + b, some moved by a unit or by a carry between neighbouring
    fields: one more in entry j, one field fewer in entry j + 1, or the
    reverse, which packs as the unmoved sum would without the range
    guard."""
    span = nok.ideal._bounds(lhs)[1] + nok.ideal._bounds(rhs)[1]
    field = 1 << (span.bit_length() + 1)
    targets = []
    for _ in range(count):
        t = [x + y for x, y in zip(rng.choice(lhs), rng.choice(rhs))]
        j = rng.randrange(len(t))
        move = rng.choice(("none", "unit", "carry"))
        if move == "unit":
            t[j] += rng.choice((-1, 1))
        elif move == "carry" and j + 1 < len(t):
            sign = rng.choice((-1, 1))
            t[j] += sign
            t[j + 1] -= sign * field
        targets.append(tuple(t))
    return targets


def test_every_sum_matches_pairwise_sums():
    rng = random.Random(2323)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        lhs = random_vectors(rng, nvars, rng.randint(1, 6))
        rhs = random_vectors(rng, nvars, rng.randint(1, 6))
        targets = every_sum_targets(rng, lhs, rhs, rng.randint(1, 4))
        for t in targets:
            assert nok.ideal._every_sum([t], lhs, rhs) == \
                brute_every_sum([t], lhs, rhs)
        assert nok.ideal._every_sum(targets, lhs, rhs) == \
            brute_every_sum(targets, lhs, rhs)


def test_power_refuses_what_is_not_a_positive_int():
    ideal = minimalize([(1, 1), (0, 2)])
    for k in (True, False, 0, -1, 2.0, Fraction(2), "2", None):
        with pytest.raises(NonPositiveExponent):
            power(ideal, k)


def test_power_distributes_over_membership():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        ideal = minimalize(gens, n)
        squared = power(ideal, 2)
        for g in ideal.generators:
            for h in ideal.generators:
                assert squared.contains_monomial(
                    tuple(x + y for x, y in zip(g, h)))


def test_intersect_membership():
    left = minimalize([(2, 0), (0, 1)])
    right = minimalize([(1, 0), (0, 3)])
    both = intersect([left, right])
    rng = random.Random(7)
    for _ in range(100):
        mono = (rng.randint(0, 4), rng.randint(0, 4))
        expected = left.contains_monomial(mono) and \
            right.contains_monomial(mono)
        assert both.contains_monomial(mono) == expected


def test_intersect_rejects_empty():
    with pytest.raises(EmptyList):
        intersect([])


def test_prime_component_validation():
    with pytest.raises(EmptyPrime):
        PrimeComponent(())
    with pytest.raises(NonPositiveMultiplicity):
        PrimeComponent((0, 1), 0)
    with pytest.raises(DimensionMismatch, match="negative"):
        PrimeComponent((-1,))


def test_prime_decomposition_validation():
    with pytest.raises(EmptyList):
        PrimeDecomposition(2, ())
    with pytest.raises(DimensionMismatch, match="out of range"):
        PrimeDecomposition(2, (PrimeComponent((0,)), PrimeComponent((1, 2))))


def test_ideal_operations_refuse_mismatched_inputs():
    with pytest.raises(EmptyGeneratorSet):
        minimalize([])
    plane = minimalize([(1, 0), (0, 1)])
    space = minimalize([(1, 0, 0)])
    with pytest.raises(DimensionMismatch, match="variable counts"):
        multiply(plane, space)
    with pytest.raises(DimensionMismatch, match="variable counts"):
        intersect([plane, space])


@pytest.mark.parametrize("variables, multiplicity, error", [
    ((0, 1), True, NonPositiveMultiplicity),
    ((0, 1), 2.5, NonPositiveMultiplicity),
    ((0, 1.5), 1, DimensionMismatch),
    ((True, 2), 1, DimensionMismatch),
])
def test_prime_component_refuses_non_int_fields(variables, multiplicity,
                                                error):
    # a bool is an int to Python, but neither a count nor an index
    with pytest.raises(error):
        PrimeComponent(variables, multiplicity)


def test_prime_component_ideal_and_indicator():
    comp = PrimeComponent((0, 2), 2)
    assert comp.ideal(3).generators == ((0, 0, 1), (1, 0, 0))
    assert comp.indicator(3) == (1, 0, 1)
    assert power(comp.ideal(3), 2).generators == \
        ((0, 0, 2), (1, 0, 1), (2, 0, 0))


def test_decomposition_drops_implied_components():
    # (x)^1 sits inside (x,y)^1, so the latter adds nothing to the
    # intersection and is dropped
    dec = PrimeDecomposition(2, (PrimeComponent((0, 1), 1),
                                 PrimeComponent((0,), 1)))
    assert dec.components == (PrimeComponent((0,), 1),)


def test_decomposition_drops_exactly_the_implied_components():
    # the reference filter on variable sets: a component goes when another
    # one's set lies inside its own with a multiplicity not smaller, and
    # larger if the sets are equal; the intersection never changes
    def implied(c, d):
        sub, sup = set(d.variables), set(c.variables)
        if sub == sup:
            return c.multiplicity < d.multiplicity
        return sub < sup and c.multiplicity <= d.multiplicity

    rng = random.Random(61)
    dropped = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        given = [PrimeComponent(tuple(rng.sample(range(n), rng.randint(1, n))),
                                rng.randint(1, 3))
                 for _ in range(rng.randint(1, 6))]
        unique = sorted(set(given),
                        key=lambda c: (c.variables, c.multiplicity))
        expected = tuple(c for c in unique
                         if not any(implied(c, d) for d in unique))
        dec = PrimeDecomposition(n, tuple(given))
        assert dec.components == expected
        assert expand_decomposition(dec) == intersect(
            [power(c.ideal(n), c.multiplicity) for c in given])
        dropped += len(unique) - len(expected)
    assert dropped > 100


def test_decomposition_keeps_components_that_only_several_imply():
    # (x) and (y) meet in (xy), inside (x,y)^2, but neither alone implies
    # it, so all three are kept; the intersection is the same either way
    given = (PrimeComponent((0, 1), 2), PrimeComponent((0,)),
             PrimeComponent((1,)))
    dec = PrimeDecomposition(2, given)
    assert len(dec.components) == 3 and set(dec.components) == set(given)
    assert expand_decomposition(dec).generators == ((1, 1),)
    pair = PrimeDecomposition(2, given[1:])
    assert symbolic_polyhedron(classify_decomposition(dec)) == \
        symbolic_polyhedron(classify_decomposition(pair))


def test_expand_decomposition_matches_intersection():
    dec = PrimeDecomposition(3, (PrimeComponent((0, 1), 2),
                                 PrimeComponent((1, 2), 1)))
    expanded = expand_decomposition(dec)
    by_hand = intersect([power(PrimeComponent((0, 1)).ideal(3), 2),
                         PrimeComponent((1, 2)).ideal(3)])
    assert expanded == by_hand
    assert expanded.generators == ((0, 2, 0), (1, 1, 0), (2, 0, 1))


def brute_force_min_covers(nvars, supports):
    covers = []
    for size in range(nvars + 1):
        for subset in combinations(range(nvars), size):
            chosen = set(subset)
            if all(chosen & set(s) for s in supports):
                if not any(set(c) <= chosen for c in covers):
                    covers.append(subset)
    return sorted(covers)


def random_hypergraphs(rng):
    # up to 7 variables, many edges of size 3 as in gt2sharp
    for _ in range(150):
        n = rng.randint(2, 7)
        yield n, [rng.sample(range(n),
                             min(rng.choice((2, 3, 3, rng.randint(1, n))), n))
                  for _ in range(rng.randint(1, 7))]
    # up to 12 variables, edges of every size 1..n, mostly of size 2 and
    # 3 so that the covers are many, and some supports given twice
    for _ in range(60):
        n = rng.randint(1, 12)
        supports = [rng.sample(range(n),
                               min(rng.choice((2, 3, rng.randint(1, n))), n))
                    for _ in range(rng.randint(1, 2 * n))]
        yield n, supports + rng.sample(supports, rng.randint(0, len(supports)))


def test_minimal_primes_against_vertex_cover_enumeration(monkeypatch):
    # the fold must hand the decomposition exactly the minimal covers:
    # the public constructor drops implied components, so it would hide a
    # fold that emits a non-minimal cover; record what is handed to it
    handed = []
    public = PrimeDecomposition

    def record(nvars, components):
        handed.append(sorted(c.variables for c in components))
        return public(nvars, components)

    monkeypatch.setattr(nok.ideal, "PrimeDecomposition", record)
    for n, supports in random_hypergraphs(random.Random(23)):
        gens = [tuple(int(i in support) for i in range(n))
                for support in supports]
        ideal = minimalize(gens, n)
        if ideal.is_unit():
            continue
        supports = [tuple(i for i, e in enumerate(g) if e)
                    for g in ideal.generators]
        expected = brute_force_min_covers(n, supports)
        dec = minimal_primes(ideal)
        assert handed.pop() == expected
        # the components must come back in sorted order
        assert dec.nvars == n
        assert dec.components == tuple(PrimeComponent(c, 1)
                                       for c in expected)


def test_minimal_primes_triangle():
    triangle = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    dec = minimal_primes(triangle)
    assert sorted(c.variables for c in dec.components) == \
        [(0, 1), (0, 2), (1, 2)]
    assert all(c.multiplicity == 1 for c in dec.components)


def test_minimal_primes_requires_squarefree():
    with pytest.raises(NotSquarefree):
        minimal_primes(minimalize([(2, 0), (0, 1)]))


def test_minimal_primes_rejects_unit():
    with pytest.raises(NokError):
        minimal_primes(minimalize([(0, 0)]))


def test_squarefree_ideal_equals_expanded_minimal_primes():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(1, 4)):
            support = rng.sample(range(n), rng.randint(1, min(3, n)))
            vec = [0] * n
            for i in support:
                vec[i] = 1
            gens.append(tuple(vec))
        ideal = minimalize(gens, n)
        if ideal.is_unit():
            continue
        assert expand_decomposition(minimal_primes(ideal)) == ideal


def assert_proven(ideal):
    """The public constructor's check, on an ideal a builder returned."""
    assert list(ideal.generators) == minimal_vectors(ideal.generators)


def test_builders_return_lex_sorted_antichains(ideals):
    rng = random.Random(1616)
    built = []
    for _ in range(60):
        nvars = rng.randint(1, 5)
        vectors = [tuple(abs(e) % 7 for e in v)
                   for v in random_vectors(rng, nvars, rng.randint(1, 12))]
        ideal = minimalize(vectors, nvars)
        other = minimalize([tuple(rng.randint(0, 3) for _ in range(nvars))
                            for _ in range(rng.randint(1, 5))], nvars)
        built += [ideal, multiply(ideal, other), multiply(ideal, ideal),
                  power(other, rng.randint(1, 4)), intersect([ideal, other])]
    for n in (2, 3, 4):
        for _ in range(8):
            body = from_halfspaces(random_up_set_system(rng, n), n)
            built.append(minimalize(minimal_lattice_points(body)))
    bases = [parsed.classified for parsed in ideals.values()]
    bases += [classify(ideal) for ideal in built[-24:]]
    for classified in bases:
        for r in (1, Fraction(5, 2), Fraction(2, 3)):
            built.append(real_power(classified.ideal, r))
        if classified.supports_sp():
            built += [symbolic_power(classified, k) for k in (1, 2, 3)]
    for ideal in built:
        assert_proven(ideal)


def test_builders_prove_minimality_once(ideals, monkeypatch):
    # one pass of the antichain filter per minimalize and per product,
    # none for the lattice-point builders
    calls = []
    inner = nok.ideal._antichain
    monkeypatch.setattr(nok.ideal, "_antichain",
                        lambda keys, guard: calls.append(1)
                        or inner(keys, guard))
    left = minimalize([(2, 0, 1), (0, 1, 1), (1, 1, 0)])
    right = minimalize([(1, 0, 0), (0, 0, 3)])
    triangle = ideals["triangle"]
    for build, expected in (
            (lambda: minimalize([(1, 2, 0), (0, 1, 1), (3, 0, 0)]), 1),
            (lambda: multiply(left, right), 1),
            (lambda: multiply(left, left), 1),
            (lambda: symbolic_power(triangle.classified, 3), 0),
            (lambda: symbolic_power(ideals["c5cone"].classified, 4), 0),
            (lambda: real_power(triangle.ideal, Fraction(5, 2)), 0)):
        calls.clear()
        build()
        assert len(calls) == expected


def test_equal_ideals_hash_once_and_share_a_cache_entry():
    # the triangle's edge ideal by every builder, the parser's gens: and
    # components: files included; all are distinct objects
    gens = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    built = [MonomialIdeal(3, gens),
             minimalize([(1, 1, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]),
             MonomialIdeal._proven(3, gens),
             parse_ideal_text("vars: x, y, z\ngens: x*y, y*z, z*x").ideal,
             parse_ideal_text(
                 "vars: x, y, z\ncomponents: (x,y), (y,z), (x,z)").ideal]
    assert len(set(map(id, built))) == len(built)
    first = built[0]
    unhashed = MonomialIdeal(3, gens)
    for ideal in built:
        assert ideal == first and hash(ideal) == hash(first)
        # computed once, kept out of equality and repr
        assert vars(ideal)["_hash"] == hash(first)
        assert ideal == unhashed and repr(ideal) == repr(unhashed)
    assert "_hash" not in vars(unhashed)
    newton_polyhedron.cache_clear()
    bodies = [newton_polyhedron(ideal) for ideal in built]
    assert all(body is bodies[0] for body in bodies)
    info = newton_polyhedron.cache_info()
    assert (info.hits, info.misses, info.currsize) == (len(built) - 1, 1, 1)
