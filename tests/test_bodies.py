import random
from fractions import Fraction

import pytest

from nok import (ClassifiedIdeal, IdealKind, PrimeComponent,
                 PrimeDecomposition, UnsupportedIdealClass, classify,
                 classify_decomposition, contains, equal, integral_closure,
                 member_integral_closure, member_symbolic,
                 membership_certificate, minimal_primes, minimalize,
                 newton_polyhedron, np_equals_sp, power, real_power, scale,
                 symbolic_polyhedron, symbolic_power)

from oracles import (closure_member_naive, dot,
                     symbolic_power_by_intersection)
from nok.bodies import CACHE_SIZE


def random_linear_power(rng, n):
    """A random intersection of powered monomial primes."""
    components = []
    for _ in range(rng.randint(1, 3)):
        support = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        components.append(PrimeComponent(support, rng.randint(1, 3)))
    return classify_decomposition(PrimeDecomposition(n, tuple(components)))


def test_classify_squarefree():
    ci = classify(minimalize([(1, 1, 0), (0, 1, 1)]))
    assert ci.kind == IdealKind.SQUAREFREE
    assert ci.decomposition is not None
    assert ci.supports_sp()


def test_classify_m_primary():
    ci = classify(minimalize([(4, 0), (1, 2), (0, 3)]))
    assert ci.kind == IdealKind.M_PRIMARY
    assert ci.supports_sp()


def test_classify_unit_as_m_primary():
    ci = classify(minimalize([(0, 0, 0)]))
    assert ci.kind == IdealKind.M_PRIMARY


def test_classify_unsupported():
    ci = classify(minimalize([(3, 1)]))
    assert ci.kind == IdealKind.GENERAL_UNSUPPORTED
    assert not ci.supports_sp()
    with pytest.raises(UnsupportedIdealClass):
        symbolic_polyhedron(ci)


def test_newton_polyhedron_triangle():
    ideal = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    body = newton_polyhedron(ideal)
    assert sorted(body.vertices) == [
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0))]
    # the three generators span the facet x + y + z >= 2
    assert any(h.normal == (1, 1, 1) and h.offset == 2 for h in body.facets)


def test_symbolic_polyhedron_triangle():
    ci = classify(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    body = symbolic_polyhedron(ci)
    assert sorted(body.vertices) == [
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0))]


def test_np_equals_sp_cases():
    assert not np_equals_sp(
        classify(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)])))
    assert np_equals_sp(classify(minimalize([(1, 0), (0, 1)])))
    # m-primary ideals use NP as their symbolic polyhedron by definition
    assert np_equals_sp(classify(minimalize([(4, 0), (1, 2), (0, 3)])))


def test_symbolic_power_matches_decomposition_intersection():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(2, 4)
        ci = random_linear_power(rng, n)
        for k in range(1, 5):
            expected = symbolic_power_by_intersection(ci.decomposition, k)
            assert symbolic_power(ci, k) == expected


def test_symbolic_power_of_squarefree_uses_minimal_primes():
    rng = random.Random(67)
    for _ in range(15):
        n = rng.randint(2, 4)
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
        ci = classify(ideal)
        dec = minimal_primes(ideal)
        for k in range(1, 4):
            assert symbolic_power(ci, k) == \
                symbolic_power_by_intersection(dec, k)


def test_first_symbolic_power_of_squarefree_is_the_ideal():
    triangle = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert symbolic_power(classify(triangle), 1) == triangle


def test_closure_of_power_inside_symbolic_power():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(2, 3)
        ci = random_linear_power(rng, n)
        for k in range(1, 5):
            closed = integral_closure(power(ci.ideal, k))
            target = symbolic_power(ci, k)
            for g in closed.generators:
                assert target.contains_monomial(g)


def test_symbolic_polyhedron_of_symbolic_power_is_dilate():
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(2, 3)
        ci = random_linear_power(rng, n)
        sp = symbolic_polyhedron(ci)
        for k in range(2, 5):
            power_ci = classify_decomposition(PrimeDecomposition(
                n, tuple(PrimeComponent(c.variables, k * c.multiplicity)
                         for c in ci.decomposition.components)))
            assert equal(symbolic_polyhedron(power_ci), scale(sp, k))


def test_np_eq_sp_makes_symbolic_powers_closures():
    # when the polyhedra agree, I^(k) is the closure of I^k
    ci = classify(minimalize([(1, 1, 0, 0), (0, 0, 1, 1)]))
    assert np_equals_sp(ci)
    for k in range(1, 5):
        assert symbolic_power(ci, k) == integral_closure(power(ci.ideal, k))


def test_integral_closure_mprimary():
    ideal = minimalize([(4, 0), (1, 2), (0, 3)])
    closed = integral_closure(ideal)
    assert closed.generators == ((0, 3), (1, 2), (3, 1), (4, 0))
    assert member_integral_closure(ideal, (3, 1), 1)
    assert not ideal.contains_monomial((3, 1))


def test_real_power_fractional():
    ideal = minimalize([(2, 0), (0, 2)])
    half = real_power(ideal, Fraction(1, 2))
    assert half.generators == ((0, 1), (1, 0))


def test_member_integral_closure_against_definition():
    rng = random.Random(79)
    hits = 0
    for _ in range(20):
        n = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        ideal = minimalize(gens, n)
        for _ in range(6):
            k = rng.randint(1, 2)
            exponent = tuple(rng.randint(0, 5) for _ in range(n))
            if closure_member_naive(ideal, exponent, k, m_max=6):
                assert member_integral_closure(ideal, exponent, k)
                hits += 1
    assert hits >= 30


def test_member_symbolic_matches_expanded_power():
    ci = classify(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    for k in range(1, 4):
        expanded = symbolic_power(ci, k)
        rng = random.Random(100 + k)
        for _ in range(40):
            exponent = tuple(rng.randint(0, 2 * k) for _ in range(3))
            assert member_symbolic(ci, exponent, k) == \
                expanded.contains_monomial(exponent)


def check_certificate(body, point, cert):
    if cert.inside:
        assert len(cert.vertices) == len(cert.weights)
        assert all(w >= 0 for w in cert.weights)
        assert sum(cert.weights) == 1
        assert all(v in body.vertices for v in cert.vertices)
        assert all(m >= 0 for m in cert.remainder)
        combo = [sum(w * v[j] for w, v in zip(cert.weights, cert.vertices))
                 for j in range(body.nvars)]
        assert tuple(c + m for c, m in zip(combo, cert.remainder)) == point
    else:
        assert cert.violated in body.facets
        assert dot(cert.violated.normal, point) < cert.violated.offset


def test_membership_certificates_verify_arithmetically():
    rng = random.Random(83)
    for _ in range(15):
        n = rng.randint(2, 3)
        ci = random_linear_power(rng, n)
        body = symbolic_polyhedron(ci)
        for _ in range(8):
            point = tuple(Fraction(rng.randint(0, 12), 4) for _ in range(n))
            cert = membership_certificate(body, point)
            assert cert.inside == contains(body, point)
            check_certificate(body, point, cert)


def test_certificate_inside_and_outside_triangle():
    ci = classify(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    body = symbolic_polyhedron(ci)
    inside = membership_certificate(
        body, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert inside.inside
    check_certificate(
        body, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), inside)
    outside = membership_certificate(
        body, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
    assert not outside.inside
    check_certificate(
        body, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)), outside)


def test_polyhedra_are_memoized():
    ideal = minimalize([(1, 1), (0, 2)])
    assert newton_polyhedron(ideal) is newton_polyhedron(
        minimalize([(1, 1), (0, 2)]))


def test_polyhedron_caches_are_bounded():
    # (x^i) is m-primary, so its symbolic polyhedron fills both caches
    for i in range(2, 2 * CACHE_SIZE + 2):
        symbolic_polyhedron(classify(minimalize([(i,)])))
    assert newton_polyhedron.cache_info().currsize <= CACHE_SIZE
    assert symbolic_polyhedron.cache_info().currsize <= CACHE_SIZE


def test_symbolic_power_requires_supported_class():
    ci = classify(minimalize([(3, 1)]))
    with pytest.raises(UnsupportedIdealClass):
        symbolic_power(ci, 2)
    with pytest.raises(UnsupportedIdealClass):
        member_symbolic(ci, (1, 1), 1)


def test_classified_ideal_reports_kind_value():
    assert IdealKind.SQUAREFREE.value == "squarefree"
    assert IdealKind.LINEAR_POWER.value == "linear-power"
    assert IdealKind.M_PRIMARY.value == "m-primary"
    assert IdealKind.GENERAL_UNSUPPORTED.value == "general-unsupported"
