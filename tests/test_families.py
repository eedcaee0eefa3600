import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import nok.families
from nok import (CeilingPowerFamily, DimensionMismatch, EmptyList,
                 IntersectionFamily, NokError, NonPositiveExponent,
                 NotProvenNoetherian, PowerFamily, StabilizationReport,
                 StabilizationWitness, SymbolicFamily,
                 UnsupportedIdealClass, ceiling_scale, classify, contains,
                 equal, family_analytic_spread, family_limit,
                 integral_closure, member_ideal, minimalize,
                 newton_okounkov_body, newton_polyhedron, scale,
                 stabilization_check, symbolic_polyhedron, vertex_constants)

from oracles import ceiling_minimum_scan, is_graded_family


def test_member_ideals_form_graded_families(families):
    for parsed in families.values():
        fam = parsed.family
        assert is_graded_family(lambda k: member_ideal(fam, k), 6)


def test_scaled_newton_polyhedra_grow_monotonically(families):
    for parsed in families.values():
        fam = parsed.family
        for k in range(1, 5):
            inner = scale(newton_polyhedron(member_ideal(fam, k)),
                          Fraction(1, k))
            for m in range(1, 5):
                outer = scale(newton_polyhedron(member_ideal(fam, k * m)),
                              Fraction(1, k * m))
                assert all(contains(outer, v) for v in inner.vertices)


def test_scaled_newton_polyhedra_sit_inside_limit(families):
    for parsed in families.values():
        fam = parsed.family
        body = newton_okounkov_body(fam)
        for k in range(1, 7):
            inner = scale(newton_polyhedron(member_ideal(fam, k)),
                          Fraction(1, k))
            assert all(contains(body, v) for v in inner.vertices)


def test_symbolic_triangle_stabilizes_at_two(families):
    fam = families["symbolic_triangle"].family
    report = stabilization_check(fam, 10)
    assert report == StabilizationReport(True, 2)
    assert report.c == vertex_constants(fam.base).c
    body = newton_okounkov_body(fam)
    # every multiple of the stabilization index attains the body again
    for k in (2, 3):
        attained = scale(newton_polyhedron(member_ideal(fam, 2 * k)),
                         Fraction(1, 2 * k))
        assert equal(attained, body)
    assert family_analytic_spread(fam, 10) == 2


def test_power_family_stabilizes_immediately(families):
    fam = families["power_mprimary"].family
    report = stabilization_check(fam, 5)
    assert report == StabilizationReport(True, 1)
    assert family_analytic_spread(fam, 5) == 2


def test_intersection_family_body_is_symbolic_polyhedron(families):
    fam = families["intersection"].family
    triangle = classify(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    assert equal(newton_okounkov_body(fam), symbolic_polyhedron(triangle))
    report = stabilization_check(fam, 10)
    assert report == StabilizationReport(True, 2)


def test_ceiling_family_never_stabilizes(families):
    fam = families["ceiling"].family
    body = newton_okounkov_body(fam)
    assert sorted(body.vertices) == [
        (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))]
    report = stabilization_check(fam, 12)
    assert not report.stabilized
    assert report.c is None
    assert report.witness.c_tested == 12
    assert report.witness.vertex == (Fraction(1, 2), Fraction(0))
    with pytest.raises(NotProvenNoetherian):
        family_analytic_spread(fam, 12)


def test_ceiling_witness_vertex_really_missing(families):
    fam = families["ceiling"].family
    report = stabilization_check(fam, 9)
    w = report.witness
    attempt = scale(newton_polyhedron(member_ideal(fam, w.k)),
                    Fraction(1, w.k))
    assert not contains(attempt, w.vertex)
    assert contains(newton_okounkov_body(fam), w.vertex)


def test_ceiling_exponents():
    base = minimalize([(1, 0), (0, 1)])
    fam = CeilingPowerFamily(base, Fraction(1, 2), Fraction(1))
    assert [fam.exponent(k) for k in range(1, 7)] == [2, 2, 3, 3, 4, 4]


def test_ceiling_scale_closed_form_matches_prefix_minimum():
    base = minimalize([(1, 0), (0, 1)])
    rng = random.Random(89)
    for _ in range(40):
        alpha = Fraction(rng.randint(1, 24), rng.randint(1, 12))
        beta = Fraction(rng.randint(-6, 12), rng.randint(1, 4))
        if alpha + beta <= 0:
            continue
        fam = CeilingPowerFamily(base, alpha, beta)
        s = ceiling_scale(fam)
        ratios = [Fraction(fam.exponent(k), k) for k in range(1, 400)]
        assert all(r >= s for r in ratios)
        assert s == alpha or s in ratios
    # denominators past 10,000: any ratio below alpha = p/q is attained at
    # some k <= q, so the minimum over that prefix is the brute force
    checked = 0
    while checked < 6:
        alpha = Fraction(rng.randint(1, 30_000), rng.randint(10_001, 16_000))
        q = alpha.denominator
        if q <= 10_000:
            continue
        # beta = -1/q puts the minimum at k = p^-1 mod q, anywhere up to q
        beta = (-Fraction(1, q) if checked % 2
                else -alpha * Fraction(rng.randint(1, 999), 1000))
        if alpha + beta <= 0:
            continue
        fam = CeilingPowerFamily(base, alpha, beta)
        brute = min([alpha] + [Fraction(fam.exponent(k), k)
                               for k in range(1, q + 1)])
        assert ceiling_scale(fam) == brute
        checked += 1
    # beta = -1/(2q) lies in (-1/q, 0), where no ratio is below alpha and
    # k = q is the first to attain it
    alpha = Fraction(3, 10_007)
    q = alpha.denominator
    fam = CeilingPowerFamily(base, alpha, -Fraction(1, 2 * q))
    ratios = [Fraction(fam.exponent(k), k) for k in range(1, q + 1)]
    assert ceiling_scale(fam) == min(ratios) == alpha
    assert ratios.index(alpha) + 1 == q
    assert nok.families.family_limit(fam).least_c == q


def test_ceiling_scale_minimum_past_ten_thousand():
    base = minimalize([(1, 0), (0, 1)])
    fam = CeilingPowerFamily(base, Fraction(3, 20011), Fraction(-1, 20011))
    assert ceiling_scale(fam) == Fraction(2, 13341)
    assert fam.exponent(13341) == 2


def test_ceiling_scale_negative_beta():
    base = minimalize([(1, 0), (0, 1)])
    fam = CeilingPowerFamily(base, Fraction(5, 3), Fraction(-1, 3))
    assert ceiling_scale(fam) == Fraction(3, 2)
    assert equal(newton_okounkov_body(fam),
                 scale(newton_polyhedron(base), Fraction(3, 2)))


def test_ceiling_minimum_matches_the_scan_on_every_small_alpha():
    # every coprime alpha = p/q with p <= 3q + 2 and q < 60, and every
    # admissible beta = b/q < 0 (ceil(alpha + beta) >= 1 means b > -p):
    # k = 1 when -b >= q, the descent below that
    base = minimalize([(1, 0), (0, 1)])
    seen = {"k = 1": 0, "descent": 0}
    for q in range(1, 60):
        for p in range(1, 3 * q + 3):
            if math.gcd(p, q) > 1:
                continue
            for b in range(1 - p, 0):
                fam = CeilingPowerFamily(base, Fraction(p, q), Fraction(b, q))
                got = nok.families._ceiling_minimum(fam)
                assert got == ceiling_minimum_scan(fam), (p, q, b)
                seen["k = 1" if -b >= q else "descent"] += 1
    assert seen == {"k = 1": 92002, "descent": 107501}


def test_ceiling_minimum_of_a_huge_denominator_takes_no_scan():
    # beta = -1/q puts the minimum at k = p^-1 mod q, where e(k) = 1
    base = minimalize([(1, 0), (0, 1)])
    q = 10**9 + 7
    fam = CeilingPowerFamily(base, Fraction(3, q), Fraction(-1, q))
    start = time.perf_counter()
    assert nok.families._ceiling_minimum(fam) == (Fraction(1, 333333336),
                                                  333333336)
    # consecutive Fibonacci numbers make the longest Euclid descent: about
    # 3,000 steps at 628 digits, each an entry of a list, not a stack frame
    p, q = 1, 2
    while q < 10**627:
        p, q = q, p + q
    fam = CeilingPowerFamily(base, Fraction(p, q), Fraction(-1, q))
    s, k = nok.families._ceiling_minimum(fam)
    assert p * k % q == 1 and 0 < k < q and s == Fraction(p * k // q, k)
    assert time.perf_counter() - start < 1


def test_integral_closure_keeps_newton_polyhedron(families):
    # the closure's exponents are the lattice points of NP(I_k): the same
    # Newton polyhedron, and every generator of I_k among them
    for parsed in families.values():
        for k in range(1, 5):
            member = member_ideal(parsed.family, k)
            closed = integral_closure(member)
            assert equal(newton_polyhedron(closed), newton_polyhedron(member))
            assert all(closed.contains_monomial(g) for g in member.generators)


def test_family_constructor_validation():
    base = minimalize([(1, 0), (0, 1)])
    with pytest.raises(UnsupportedIdealClass):
        SymbolicFamily(classify(minimalize([(3, 1)])))
    with pytest.raises(EmptyList):
        IntersectionFamily(())
    with pytest.raises(DimensionMismatch):
        IntersectionFamily((base, minimalize([(1, 1, 1)])))
    with pytest.raises(NonPositiveExponent):
        CeilingPowerFamily(base, Fraction(0), Fraction(1))
    with pytest.raises(NonPositiveExponent):
        CeilingPowerFamily(base, Fraction(1, 2), Fraction(-2))
    # an object that is none of the four variants is refused by name
    with pytest.raises(NokError, match="unknown family variant tuple"):
        member_ideal((base,), 1)
    with pytest.raises(NokError, match="unknown family variant tuple"):
        family_limit((base,))


def test_member_ideal_index_validation(families):
    fam = families["ceiling"].family
    with pytest.raises(NonPositiveExponent):
        member_ideal(fam, 0)
    with pytest.raises(NonPositiveExponent):
        stabilization_check(fam, 0)


def test_power_family_members_are_powers():
    base = minimalize([(2, 1), (0, 3)])
    fam = PowerFamily(base)
    for k in range(1, 5):
        expected = base
        for _ in range(k - 1):
            expected = minimalize([tuple(a + b for a, b in zip(g, h))
                                   for g in expected.generators
                                   for h in base.generators])
        assert member_ideal(fam, k) == expected


@pytest.mark.parametrize("c_max", [0, -3, True, False, 2.5, "3", None,
                                   Fraction(2)])
def test_c_max_must_be_a_positive_int(families, c_max):
    fam = families["symbolic_triangle"].family
    with pytest.raises(NonPositiveExponent):
        stabilization_check(fam, c_max)
    with pytest.raises(NonPositiveExponent):
        family_analytic_spread(fam, c_max)


def searched_stabilization(family, c_max):
    """The search the closed forms replaced: expand I_c for every
    c <= c_max and compare (1/c)NP(I_c) with the body."""
    body = newton_okounkov_body(family)
    for c in range(1, c_max + 1):
        scaled = scale(newton_polyhedron(member_ideal(family, c)),
                       Fraction(1, c))
        if equal(scaled, body):
            return StabilizationReport(True, c)
    missing = [v for v in body.vertices if not contains(scaled, v)]
    return StabilizationReport(
        False, None, StabilizationWitness(c_max, c_max, max(missing)))


def seeded_families(rng):
    """Ceiling families with beta < 0, = 0 and > 0 (some over the unit
    ideal), symbolic families of random graphs and 3-uniform
    hypergraphs, power families, and small intersections of primes or
    of plane ideals."""
    def ideal(n, top, count):
        gens = [tuple(rng.randint(0, top) for _ in range(n))
                for _ in range(count)]
        return minimalize([g for g in gens if any(g)] or [(1,) * n])

    def prime(n, support):
        return minimalize([tuple(int(j == i) for j in range(n))
                           for i in support])

    for i in range(30):
        alpha = Fraction(rng.randint(1, 30), rng.randint(1, 12))
        beta = [-Fraction(rng.randint(1, 9), rng.randint(1, 12)), Fraction(0),
                Fraction(rng.randint(1, 9), rng.randint(1, 6))][i % 3]
        if alpha + beta <= 0:
            beta = -(alpha - Fraction(1, 2 * alpha.denominator))
        base = minimalize([(0, 0)]) if i % 7 == 3 else ideal(2, 2, 3)
        yield CeilingPowerFamily(base, alpha, beta)
    for i in range(12):
        n = rng.randint(3, 5)
        size = 3 if i % 2 and n > 3 else 2
        edges = list(itertools.combinations(range(n), size))
        chosen = rng.sample(edges, rng.randint(2, min(len(edges), 6)))
        yield SymbolicFamily(classify(minimalize(
            [tuple(int(j in e) for j in range(n)) for e in chosen])))
    for _ in range(6):
        yield PowerFamily(ideal(rng.randint(2, 3), 3, 3))
    for i in range(12):
        if i % 2:
            n = rng.randint(3, 4)
            pairs = list(itertools.combinations(range(n), 2))
            components = [prime(n, e)
                          for e in rng.sample(pairs, rng.randint(2, n))]
        else:
            # plane ideals whose Newton polyhedra cross at rational points
            components = [minimalize([(rng.randint(1, 5), 0),
                                      (0, rng.randint(1, 5)),
                                      *([(rng.randint(1, 2), 1)]
                                        * rng.randint(0, 1))])
                          for _ in range(rng.randint(1, 3))]
        yield IntersectionFamily(tuple(components))


def test_stabilization_matches_the_expanding_search():
    rng = random.Random(1414)
    for family in seeded_families(rng):
        c_max = rng.choice([1, 2, 3, rng.randint(1, 30)])
        report = stabilization_check(family, c_max)
        expected = searched_stabilization(family, c_max)
        assert (report.stabilized, report.c, report.witness) == (
            expected.stabilized, expected.c, expected.witness), family
        if report.stabilized or isinstance(family, IntersectionFamily):
            assert (report.least_c, report.never) == (None, False)
        elif report.never:
            assert report.least_c is None and family.beta > 0
        else:
            # the proven least c is what the search finds when it gets there
            assert report.least_c > c_max
            assert searched_stabilization(family, report.least_c) == \
                StabilizationReport(True, report.least_c)


def test_power_symbolic_and_ceiling_checks_expand_nothing(
        families, ideals, monkeypatch):
    def refuse(*args):
        raise AssertionError("a member ideal was expanded")

    for name in ("power", "symbolic_power", "member_ideal"):
        monkeypatch.setattr(nok.families, name, refuse)
    cone = SymbolicFamily(ideals["c5cone"].classified)
    start = time.perf_counter()
    assert stabilization_check(cone, 40) == StabilizationReport(True, 30)
    report = stabilization_check(cone, 29)
    assert not report.stabilized and report.least_c == 30
    assert report.witness.c_tested == report.witness.k == 29
    assert report.witness.vertex in newton_okounkov_body(cone).vertices
    assert any((29 * x).denominator != 1 for x in report.witness.vertex)
    report = stabilization_check(families["ceiling"].family, 10**6)
    assert report.never and report.witness.c_tested == 10**6
    assert report.witness.vertex == (Fraction(1, 2), Fraction(0))
    assert time.perf_counter() - start < 5
    assert stabilization_check(families["power_mprimary"].family, 3) == \
        StabilizationReport(True, 1)
    assert stabilization_check(families["symbolic_triangle"].family, 1) == \
        StabilizationReport(False, None, StabilizationWitness(
            1, 1, (Fraction(1, 2),) * 3), least_c=2)


def test_intersection_check_expands_each_power_once_per_c(families,
                                                         monkeypatch):
    expanded = []
    inner = nok.families.power
    monkeypatch.setattr(nok.families, "power", lambda ideal, c: (
        expanded.append((ideal, c)) or inner(ideal, c)))
    rng = random.Random(1616)
    cases = [(families["intersection"].family, c_max) for c_max in (1, 2, 5)]
    cases += [(family, rng.randint(1, 12)) for family in seeded_families(rng)
              if isinstance(family, IntersectionFamily)]
    for family, c_max in cases:
        expanded.clear()
        stabilization_check(family, c_max)
        tested = {c for _, c in expanded}
        assert len(expanded) == len(set(expanded))
        assert len(expanded) <= len(family.components) * len(tested)
    # the triangle's three primes: c = 2 attains the body, one power each
    expanded.clear()
    fixture = families["intersection"].family
    assert stabilization_check(fixture, 2) == StabilizationReport(True, 2)
    assert sorted(c for _, c in expanded) == [2, 2, 2]


def test_unstable_intersection_expands_no_power_twice(monkeypatch):
    expanded = []
    inner = nok.families.power
    monkeypatch.setattr(nok.families, "power", lambda ideal, c: (
        expanded.append((ideal, c)) or inner(ideal, c)))
    rng = random.Random(3636)
    unstable = 0
    for _ in range(80):
        # plane ideals whose Newton polyhedra cross at rational points,
        # tested up to a multiple of the lcm c of the body's denominators
        family = IntersectionFamily(tuple(
            minimalize([(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                        *([(rng.randint(1, 2), 1)] * rng.randint(0, 1))])
            for _ in range(rng.randint(2, 3))))
        body = newton_okounkov_body(family)
        c = math.lcm(*(x.denominator for v in body.vertices for x in v))
        c_max = c * rng.randint(1, 3)
        expanded.clear()
        if stabilization_check(family, c_max).stabilized:
            continue
        unstable += 1
        assert len(expanded) == len(set(expanded)), (family, c_max)
        assert {k for _, k in expanded} <= set(range(c, c_max + 1, c))
    assert unstable >= 5


def test_spread_and_check_build_the_limit_once(families, monkeypatch):
    calls = []
    limit = nok.families.family_limit
    monkeypatch.setattr(nok.families, "family_limit",
                        lambda fam: calls.append(fam) or limit(fam))
    # beta < 0: the limit scans alpha's 20011 ratios, first attained at
    # k = 13341, where 3k = 1 mod 20011
    wide = CeilingPowerFamily(minimalize([(1, 0), (0, 1)]),
                              Fraction(3, 20011), Fraction(-1, 20011))
    cases = [(wide, 20000, 2), (wide, 13340, None)]
    cases += [(families[name].family, 12, spread)
              for name, spread in (("symbolic_triangle", 2),
                                   ("power_mprimary", 2),
                                   ("intersection", 2),
                                   ("ceiling", None))]
    for family, c_max, spread in cases:
        calls.clear()
        if spread is None:
            with pytest.raises(NotProvenNoetherian):
                family_analytic_spread(family, c_max)
        else:
            assert family_analytic_spread(family, c_max) == spread
        assert calls == [family]
        calls.clear()
        assert stabilization_check(family, c_max).stabilized == \
            (spread is not None)
        assert calls == [family]
