import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from nok import (HalfSpace, IdealKind, MonomialIdeal, NonPositiveExponent,
                 PrimeComponent, PrimeDecomposition, UnsupportedIdealClass,
                 analytic_spread, c_degree_compatibility, classify,
                 classify_decomposition, equal, hilbert_basis,
                 invariant_report, minimalize, multiply, newton_polyhedron,
                 power, scale, sgt_bounds, svd_bounds,
                 symbolic_analytic_spread, symbolic_polyhedron,
                 symbolic_power, verify_np_scaled_sp, vertex_constants)

# one row per fixture ideal: ell, ell_s, c, D, svd window, sgt bound,
# sgt bound under NP = SP, hadamard-derived bound and its exactness
EXPECTED = {
    "triangle": (3, 2, 2, 2, (2, 2), 3, None, Fraction(3), True),
    "weighted": (3, 2, 2, 2, (2, 2), 3, None, Fraction(3), True),
    "c5": (5, 4, 3, 3, (3, 9), 11, None, Fraction(26), True),
    "c5cone": (6, 5, 30, 5, (30, 120), 24, None, Fraction(1119, 16), False),
    "gt2sharp": (4, 4, 1, 1, (1, 3), 3, 2, Fraction(223, 4), False),
    "mprimary": (2, 2, 1, 1, (1, 1), 1, None, Fraction(2), False),
    "principal": (1, 1, 1, 1, (1, 1), 1, 1, Fraction(3, 2), False),
    "star42": (4, 2, 2, 2, (2, 2), 3, None, Fraction(6), False),
    "star43": (4, 3, 6, 3, (6, 12), 8, None, Fraction(19, 2), False),
    "star44": (4, 4, 1, 1, (1, 3), 3, 2, Fraction(13), False),
}

DENOMS = {
    "triangle": (1, 2, 1, 1),
    "weighted": (1, 2, 1, 1),
    "c5": (1, 1, 1, 3, 1, 1),
    "star42": (1, 2, 1, 1, 1),
    "star43": (1, 2, 1, 1, 3, 2, 2, 2, 1, 1, 1),
    "star44": (1, 1, 1, 1),
}


# Part (b) of the abstract against the definition of the analytic spread
# as dim F(I), the Krull dimension of the fiber cone: mu(I_k), the number
# of minimal generators of a Noetherian family, grows on the Veronese
# subfamily k = c*j like a polynomial of degree ell - 1, with
# ell = mdc(body) + 1, so these check mdc without its face closure.  The
# theorem promises the polynomial only for large j.  Measured on these
# fixtures, every count is already that polynomial from j = 1 on, so the
# whole range j = 1..9 is checked: every ell-th difference is 0 and every
# (ell - 1)-th one the positive constant pinned here (both tables take
# under a second).  name -> (ell - 1)-th difference
GROWTH_RANGE = range(1, 10)

ORDINARY_GROWTH = {"triangle": 1, "weighted": 1, "c5": 1, "gt2sharp": 1,
                   "mprimary": 3, "principal": 1, "star42": 1, "star43": 4,
                   "star44": 1}

SYMBOLIC_GROWTH = {"triangle": 3, "weighted": 9, "c5": 45, "gt2sharp": 2,
                   "principal": 1, "star42": 4, "star43": 72, "star44": 1}


def test_invariant_report_table(ideals):
    for name, row in EXPECTED.items():
        ell, ell_s, c, D, svd, sgt, sgt_special, had, had_exact = row
        r = invariant_report(ideals[name].classified)
        got = (r.ell, r.ell_s, r.c, r.D, (r.svd_lower, r.svd_upper),
               r.sgt_upper, r.sgt_upper_np_eq_sp, r.hadamard_bound,
               r.hadamard_exact)
        assert got == row, name


def test_vertex_denominators(ideals):
    for name, denoms in DENOMS.items():
        assert vertex_constants(ideals[name].classified).denoms == denoms


def test_report_for_unsupported_ideal_has_spread_only():
    r = invariant_report(classify(minimalize([(3, 1), (0, 4)])))
    assert r.ell == 2
    assert r.ell_s is None and r.c is None and r.svd_lower is None
    principal = invariant_report(classify(minimalize([(3, 1)])))
    assert principal.ell == 1 and principal.ell_s is None


def test_scaled_sp_integrality_tracks_c(ideals):
    for name, parsed in ideals.items():
        ci = parsed.classified
        c = vertex_constants(ci).c
        for d in range(1, 2 * c + 1):
            assert verify_np_scaled_sp(ci, d) == (d % c == 0), (name, d)


def test_scaled_sp_criterion_matches_direct_comparison(ideals):
    # the vertex-integrality shortcut agrees with literally comparing
    # NP(I^(d)) against d*SP(I)
    for name, parsed in ideals.items():
        ci = parsed.classified
        if not ci.supports_sp():
            continue
        sp = symbolic_polyhedron(ci)
        for d in range(1, 5):
            direct = equal(newton_polyhedron(symbolic_power(ci, d)),
                           scale(sp, d))
            assert direct == verify_np_scaled_sp(ci, d), (name, d)


def test_verify_rejects_nonpositive_dilation(ideals):
    with pytest.raises(NonPositiveExponent):
        verify_np_scaled_sp(ideals["triangle"].classified, 0)


def test_analytic_spread_is_power_invariant(ideals):
    for name, parsed in ideals.items():
        ideal = parsed.classified.ideal
        ell = analytic_spread(ideal)
        for k in (2, 3):
            assert analytic_spread(power(ideal, k)) == ell, name


def test_analytic_spread_random_power_invariance():
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        ideal = minimalize(gens, n)
        ell = analytic_spread(ideal)
        assert 1 <= ell <= n
        for k in (2, 4):
            assert analytic_spread(power(ideal, k)) == ell


def test_spreads_bounded_by_variable_count(ideals):
    for parsed in ideals.values():
        n = parsed.classified.ideal.nvars
        assert 1 <= analytic_spread(parsed.classified.ideal) <= n
        assert 1 <= symbolic_analytic_spread(parsed.classified) <= n


def test_svd_window_formula(ideals):
    for parsed in ideals.values():
        ci = parsed.classified
        c = vertex_constants(ci).c
        ell_s = symbolic_analytic_spread(ci)
        bounds = svd_bounds(ci)
        assert bounds.lower == c
        assert bounds.upper == max((ell_s - 1) * c, c)
        assert bounds.upper % c == 0


def test_sgt_bound_formula(ideals):
    for parsed in ideals.values():
        ci = parsed.classified
        D = vertex_constants(ci).D
        ell_s = symbolic_analytic_spread(ci)
        bounds = sgt_bounds(ci)
        assert bounds.general == max(ell_s * D - 1, D)
        if bounds.np_eq_sp is not None:
            assert bounds.np_eq_sp == max(ell_s - 2, 1)
            assert ci.ideal.is_squarefree()


def test_hadamard_bound_dominates_general_bound_when_loose(ideals):
    # D never exceeds the Hadamard-type vertex bound, so the hadamard
    # variant is always at least the general one
    for parsed in ideals.values():
        bounds = sgt_bounds(parsed.classified)
        assert bounds.hadamard >= bounds.general


def test_c_degree_compatibility(ideals):
    triangle = ideals["triangle"].classified
    assert c_degree_compatibility(triangle, {1, 2})
    assert not c_degree_compatibility(triangle, {1})
    assert not c_degree_compatibility(triangle, {2})
    assert not c_degree_compatibility(triangle, set())
    star43 = ideals["star43"].classified
    assert c_degree_compatibility(star43, {1, 2, 3})
    assert not c_degree_compatibility(star43, {1, 2, 4})


def test_sp_constants_need_supported_class():
    ci = classify(minimalize([(3, 1)]))
    with pytest.raises(UnsupportedIdealClass):
        vertex_constants(ci)
    with pytest.raises(UnsupportedIdealClass):
        svd_bounds(ci)


def differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def test_ordinary_powers_grow_with_the_analytic_spread(ideals):
    # c5cone (ell = 6) would need all nine powers, and its ninth alone,
    # 11,572 generators, takes longer than the rest of this test
    for name, step in ORDINARY_GROWTH.items():
        ideal = ideals[name].classified.ideal
        ell = analytic_spread(ideal)
        mu = [len(power(ideal, k).generators) for k in GROWTH_RANGE]
        assert set(differences(mu, ell - 1)) == {step}, name
        assert set(differences(mu, ell)) == {0}, name


def test_symbolic_powers_grow_with_the_symbolic_spread(ideals):
    # c5cone is out of reach at c = 30, and mprimary's symbolic powers are
    # the integral closures of its powers (the strict xfail in test_bodies)
    for name, step in SYMBOLIC_GROWTH.items():
        ci = ideals[name].classified
        ell_s = symbolic_analytic_spread(ci)
        c = vertex_constants(ci).c
        mu = [len(symbolic_power(ci, c * j).generators) for j in GROWTH_RANGE]
        assert set(differences(mu, ell_s - 1)) == {step}, name
        assert set(differences(mu, ell_s)) == {0}, name


def seeded_growth_ideals(seed, count):
    """count seeded squarefree, linear-power and graph ideals each, of 3
    to 5 variables, classified."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(3, 6)
        supports = [rng.sample(range(n), rng.randrange(2, n))
                    for _ in range(rng.randrange(2, 6))]
        out.append(classify(minimalize(
            [tuple(int(j in s) for j in range(n)) for s in supports], n)))
    for _ in range(count):
        n = rng.randrange(3, 6)
        out.append(classify_decomposition(PrimeDecomposition(n, tuple(
            PrimeComponent(tuple(rng.sample(range(n), rng.randrange(1, n + 1))),
                           rng.randrange(1, 4))
            for _ in range(rng.randrange(2, 5))))))
    for _ in range(count):
        n = rng.randrange(3, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, rng.randrange(n - 1, len(pairs) + 1))
        out.append(classify(minimalize(
            [tuple(int(v in e) for v in range(n)) for e in edges], n)))
    return out


# The same laws on 60 seeded ideals.  Measured over k = 1..9, every count
# of these ideals, ordinary and symbolic, is already the polynomial from
# k = 1 on, so the window is k = 1..ell + 2: the fewest terms that give
# two ell-th differences and three (ell - 1)-th ones.  Their spreads run
# from 1 to 5, and c is 1, 2, 6 or 12.
SEEDED_GROWTH = seeded_growth_ideals(22, 20)


def test_seeded_ordinary_powers_grow_with_the_analytic_spread():
    for ci in SEEDED_GROWTH:
        ell = analytic_spread(ci.ideal)
        mu = [len(power(ci.ideal, k).generators) for k in range(1, ell + 3)]
        assert set(differences(mu, ell)) == {0}, ci.ideal
        assert min(differences(mu, ell - 1)) > 0, ci.ideal


def test_seeded_symbolic_powers_grow_with_the_symbolic_spread():
    # one graph, K5, has c = 12: its window ends at I^(72), 167,671
    # generators and 4 to 7 s of lattice search, so c is capped at 6
    checked = 0
    for ci in SEEDED_GROWTH:
        ell_s = symbolic_analytic_spread(ci)
        c = vertex_constants(ci).c
        if c > 6:
            continue
        mu = [len(symbolic_power(ci, c * j).generators)
              for j in range(1, ell_s + 3)]
        assert set(differences(mu, ell_s)) == {0}, ci.ideal
        assert min(differences(mu, ell_s - 1)) > 0, ci.ideal
        checked += 1
    assert checked == len(SEEDED_GROWTH) - 1


# the squarefree gens: fixtures; mprimary is left out, as its symbolic
# powers are taken to be the integral closures of its powers (the strict
# xfail of test_bodies.py), which breaks the degree law: mprimary +
# mprimary reads {1, 2}
SQUAREFREE = ("triangle", "c5", "c5cone", "gt2sharp", "principal", "star42",
              "star43", "star44")


def disjoint_sum(left, right):
    """I + J with J in variables of its own, after I's."""
    n, m = left.nvars, right.nvars
    return classify(minimalize(
        [g + (0,) * m for g in left.generators]
        + [(0,) * n + h for h in right.generators], n + m))


def test_invariants_of_a_disjoint_sum(ideals, hilbert_reports):
    # Ha, Nguyen, Trung & Trung, "Symbolic powers of sums of ideals",
    # Math. Z. 294, 2020: in disjoint variables the (symbolic) Rees
    # algebra of I + J is the tensor product of those of I and J, so the
    # spreads add and the generating degrees are the union.  The minimal
    # primes of I + J are the sums P + Q, so the vertices of SP(I + J) are
    # those of SP(I) and of SP(J), padded with zeros: c is the lcm and D
    # the max
    pairs = [(a, b) for a, b in combinations_with_replacement(SQUAREFREE, 2)
             if ideals[a].ideal.nvars + ideals[b].ideal.nvars <= 9]
    assert len(pairs) == 24
    for a, b in pairs:
        left, right = ideals[a].classified, ideals[b].classified
        total = disjoint_sum(left.ideal, right.ideal)
        assert analytic_spread(total.ideal) == \
            analytic_spread(left.ideal) + analytic_spread(right.ideal)
        assert symbolic_analytic_spread(total) == \
            symbolic_analytic_spread(left) + symbolic_analytic_spread(right)
        parts = vertex_constants(left), vertex_constants(right)
        constants = vertex_constants(total)
        assert constants.c == math.lcm(*(p.c for p in parts)), (a, b)
        assert constants.D == max(p.D for p in parts), (a, b)
        assert hilbert_basis(total).degrees == \
            hilbert_reports[a].degrees | hilbert_reports[b].degrees, (a, b)


def pad(ideal, before, after):
    """The ideal in variables of its own: `before` zeros ahead of each
    generator and `after` behind it."""
    return MonomialIdeal._proven(
        before + ideal.nvars + after,
        tuple((0,) * before + g + (0,) * after for g in ideal.generators))


def disjoint_product(left, right):
    """IJ with J in variables of its own, after I's, classified by the
    union of the two decompositions, J's shifted after I's."""
    n, m = left.ideal.nvars, right.ideal.nvars
    shifted = tuple(PrimeComponent(tuple(v + n for v in c.variables),
                                   c.multiplicity)
                    for c in right.decomposition.components)
    return classify_decomposition(PrimeDecomposition(
        n + m, left.decomposition.components + shifted))


def test_invariants_of_a_disjoint_product(ideals):
    # the abstract's part (b) on IJ with I and J in disjoint variables:
    # NP(IJ) = NP(I) x NP(J), and SP(IJ) = SP(I) x SP(J), as
    # (IJ)^(k) = I^(k) J^(k).  A compact face of a product is a product of
    # compact faces, so mdc adds and ell(IJ) = ell(I) + ell(J) - 1, and
    # likewise ell_s.  The vertices are the pairs of vertices, so c is the
    # lcm and D the largest lcm of two vertex denominators.  mprimary is
    # left out: its symbolic powers are taken to be the integral closures
    # of its powers (the strict xfail of test_bodies.py)
    names = ("weighted",) + SQUAREFREE
    pairs = list(combinations_with_replacement(names, 2))
    assert len(pairs) == 45
    for a, b in pairs:
        left, right = ideals[a].classified, ideals[b].classified
        n, m = left.ideal.nvars, right.ideal.nvars
        total = disjoint_product(left, right)
        # in disjoint variables the product is the intersection
        assert total.ideal == multiply(pad(left.ideal, 0, m),
                                       pad(right.ideal, n, 0)), (a, b)
        if left.kind is right.kind is IdealKind.SQUAREFREE:
            # its minimal primes are those of I and of J
            assert classify(total.ideal).decomposition == \
                total.decomposition, (a, b)
        for lhs, rhs, body in (
                map(newton_polyhedron, (left.ideal, right.ideal, total.ideal)),
                map(symbolic_polyhedron, (left, right, total))):
            assert set(body.facets) == (
                {HalfSpace(h.normal + (0,) * m, h.offset) for h in lhs.facets}
                | {HalfSpace((0,) * n + h.normal, h.offset)
                   for h in rhs.facets}), (a, b)
            assert set(body.vertices) == {u + v for u in lhs.vertices
                                          for v in rhs.vertices}, (a, b)
        assert analytic_spread(total.ideal) == analytic_spread(
            left.ideal) + analytic_spread(right.ideal) - 1, (a, b)
        assert symbolic_analytic_spread(total) == symbolic_analytic_spread(
            left) + symbolic_analytic_spread(right) - 1, (a, b)
        parts = vertex_constants(left), vertex_constants(right)
        constants = vertex_constants(total)
        assert constants.c == math.lcm(*(p.c for p in parts)), (a, b)
        assert constants.D == max(math.lcm(d, e) for d in parts[0].denoms
                                  for e in parts[1].denoms), (a, b)
        for k in (1, 2):
            assert symbolic_power(total, k) == multiply(
                pad(symbolic_power(left, k), 0, m),
                pad(symbolic_power(right, k), n, 0)), (a, b, k)
