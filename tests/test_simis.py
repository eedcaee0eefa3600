import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from nok import (HilbertElement, NonPositiveExponent, PrimeComponent,
                 PrimeDecomposition, UnsupportedIdealClass,
                 analytic_spread, classify, classify_decomposition,
                 hilbert_basis, minimalize, newton_polyhedron,
                 normal_rees_generator_degrees, sgt_bounds, sgt_exact,
                 svd_bounds, svd_probe, symbolic_analytic_spread,
                 symbolic_polyhedron, symbolic_power, veronese_verify,
                 vertex_constants)
from nok.invariants import _generation_bound
from nok.polyhedron import scale
from nok.simis import (_cone_basis, _parallelepiped, _pulling_triangulation,
                       _simis_cone)

from oracles import (bareiss_every_row, hilbert_basis_brute, matrix_rank,
                     solve_square, veronese_by_products)

EXPECTED_SGT = {
    "triangle": 2, "weighted": 2, "c5": 3, "gt2sharp": 2, "mprimary": 1,
    "principal": 1, "star42": 2, "star43": 3, "star44": 1,
}

EXPECTED_DEGREES = {
    "triangle": {1, 2}, "weighted": {1, 2}, "c5": {1, 3},
    "gt2sharp": {1, 2}, "mprimary": {1}, "principal": {1},
    "star42": {1, 2}, "star43": {1, 2, 3}, "star44": {1},
}

EXPECTED_SIZES = {
    "triangle": 4, "weighted": 7, "c5": 6, "gt2sharp": 5, "mprimary": 4,
    "principal": 1, "star42": 5, "star43": 11, "star44": 4,
}


def test_triangle_basis_elements(hilbert_reports):
    assert hilbert_reports["triangle"].elements == (
        HilbertElement((0, 1, 1), 1),
        HilbertElement((1, 0, 1), 1),
        HilbertElement((1, 1, 0), 1),
        HilbertElement((1, 1, 1), 2))


def test_weighted_basis_elements(hilbert_reports):
    assert hilbert_reports["weighted"].elements == (
        HilbertElement((0, 2, 4), 1),
        HilbertElement((1, 1, 3), 1),
        HilbertElement((2, 0, 3), 1),
        HilbertElement((2, 1, 2), 1),
        HilbertElement((3, 2, 1), 1),
        HilbertElement((4, 3, 0), 1),
        HilbertElement((3, 1, 5), 2))


def test_gt2sharp_basis_is_generators_plus_all_ones(hilbert_reports):
    report = hilbert_reports["gt2sharp"]
    assert len(report.elements) == 5
    assert HilbertElement((1, 1, 1, 1, 1, 1), 2) in report.elements
    assert all(e.degree == 1 for e in report.elements[:4])


def test_c5_basis_has_odd_cycle_generator(hilbert_reports):
    report = hilbert_reports["c5"]
    assert HilbertElement((1, 1, 1, 1, 1), 3) in report.elements
    assert sorted(e.degree for e in report.elements) == [1, 1, 1, 1, 1, 3]


def test_fixture_basis_summary_table(hilbert_reports):
    for name, report in hilbert_reports.items():
        if name == "c5cone":
            continue
        assert report.exhaustive, name
        assert report.sgt == EXPECTED_SGT[name], name
        assert report.degrees == frozenset(EXPECTED_DEGREES[name]), name
        assert len(report.elements) == EXPECTED_SIZES[name], name


def test_elements_listed_by_degree_then_lex(hilbert_reports):
    for report in hilbert_reports.values():
        keys = [(e.degree, e.exponent) for e in report.elements]
        assert keys == sorted(keys)


def test_scaled_vertices_appear_as_generators(ideals, hilbert_reports):
    # every vertex v of SP with denominator lcm d contributes the
    # generator (d*v, d): extreme rays of the cone cannot be composite
    for name, report in hilbert_reports.items():
        ci = ideals[name].classified
        sp = symbolic_polyhedron(ci)
        denoms = vertex_constants(ci).denoms
        for v, d in zip(sp.vertices, denoms):
            scaled = tuple(int(d * coord) for coord in v)
            assert HilbertElement(scaled, d) in report.elements, name


def test_sgt_is_max_generator_degree(hilbert_reports):
    for name, report in hilbert_reports.items():
        assert report.sgt == max(e.degree for e in report.elements), name


def test_basis_matches_unrestricted_reduction_oracle(ideals):
    for name in ("triangle", "weighted", "gt2sharp", "mprimary",
                 "principal", "star42", "star44"):
        ci = ideals[name].classified
        report = hilbert_basis(ci)
        body = symbolic_polyhedron(ci)
        brute = hilbert_basis_brute(body, report.degree_bound_used)
        assert {(e.exponent, e.degree) for e in report.elements} == \
            set(brute), name


def test_truncated_basis_matches_oracle_on_c5(ideals):
    ci = ideals["c5"].classified
    report = hilbert_basis(ci, degree_bound=3)
    assert report.exhaustive is False
    brute = hilbert_basis_brute(symbolic_polyhedron(ci), 3)
    assert {(e.exponent, e.degree) for e in report.elements} == set(brute)


def test_default_bound_is_theorem_bound(ideals, hilbert_reports):
    for name, report in hilbert_reports.items():
        ci = ideals[name].classified
        D = vertex_constants(ci).D
        expected = max(symbolic_analytic_spread(ci) * D - 1, D)
        assert report.degree_bound_used == expected, name
        assert report.degree_bound_used == sgt_bounds(ci).general, name


def test_truncation_below_sgt_drops_generators(ideals):
    report = hilbert_basis(ideals["triangle"].classified, degree_bound=1)
    assert report.exhaustive is False
    assert report.sgt == 1
    assert len(report.elements) == 3


def test_bound_above_theorem_is_exhaustive_and_stable(ideals):
    ci = ideals["triangle"].classified
    wide = hilbert_basis(ci, degree_bound=6)
    assert wide.exhaustive
    assert wide.elements == hilbert_basis(ci).elements


def test_bound_validation(ideals):
    with pytest.raises(NonPositiveExponent):
        hilbert_basis(ideals["triangle"].classified, degree_bound=0)
    with pytest.raises(UnsupportedIdealClass):
        hilbert_basis(classify(minimalize([(3, 1)])))


def test_sgt_exact_values(ideals):
    for name, expected in EXPECTED_SGT.items():
        assert sgt_exact(ideals[name].classified) == expected, name


def test_veronese_verify_frozen(ideals):
    triangle = ideals["triangle"].classified
    assert veronese_verify(triangle, 2, 3)
    assert not veronese_verify(triangle, 1, 2)
    assert not veronese_verify(triangle, 3, 2)
    gt2 = ideals["gt2sharp"].classified
    assert not veronese_verify(gt2, 1, 2)
    assert veronese_verify(gt2, 2, 3)


def test_svd_probe_windows(ideals):
    expected = {
        "triangle": (2, 2), "weighted": (2, 2), "c5": (3, 9),
        "gt2sharp": (2, 3), "mprimary": (1, 1), "principal": (1, 1),
        "star42": (2, 2), "star43": (6, 12), "star44": (1, 3),
    }
    for name, probe in expected.items():
        ci = ideals[name].classified
        assert svd_probe(ci) == probe, name
        candidate, upper = probe
        bounds = svd_bounds(ci)
        assert upper == bounds.upper
        assert bounds.lower <= candidate <= upper
        assert candidate % bounds.lower == 0
    assert svd_probe(ideals["star43"].classified, k_max=2) == (6, 12)


def test_svd_probe_candidate_passes_its_own_check(ideals):
    for name in ("triangle", "c5", "gt2sharp"):
        ci = ideals[name].classified
        candidate, _ = svd_probe(ci)
        assert veronese_verify(ci, candidate, 4)


def test_svd_probe_at_kmax_one_never_fails(ideals):
    # every multiple of c passes a depth-one check, so the first does
    for name, parsed in ideals.items():
        if name == "c5cone":
            continue
        ci = parsed.classified
        candidate, _ = svd_probe(ci, k_max=1)
        assert candidate == svd_bounds(ci).lower


def test_probe_bound_decides_veronese(ideals):
    # for a multiple m of c, the Hilbert basis of the cone over m*SP lies
    # in degrees at most B = max(ell_s - 1, 1), and I^(mk) = (I^(m))^k for
    # every k exactly when it lies in degree 1; so the bounded check at
    # k_max = B decides each candidate of the svd window.  c5cone's window
    # starts at m = 30, out of reach, and mprimary's symbolic powers are
    # the integral closures of its powers (the strict xfail in test_bodies)
    with_degree_two = []
    for name, parsed in ideals.items():
        if name in ("c5cone", "mprimary"):
            continue
        ci = parsed.classified
        sp = symbolic_polyhedron(ci)
        bound = max(symbolic_analytic_spread(ci) - 1, 1)
        lower, upper = svd_bounds(ci)
        for m in range(lower, upper + 1, lower):
            degrees = {e.degree for e in _cone_basis(scale(sp, m), 10**6)}
            assert max(degrees) <= bound, (name, m)
            assert veronese_verify(ci, m, bound) == (degrees == {1}), \
                (name, m)
            if degrees != {1}:
                with_degree_two.append((name, m))
    assert with_degree_two == [("gt2sharp", 1)]


def test_svd_probe_builds_each_symbolic_power_once(ideals, monkeypatch):
    built = []

    def counting(classified, k):
        built.append(k)
        return symbolic_power(classified, k)

    monkeypatch.setattr("nok.simis.symbolic_power", counting)
    # gt2sharp at k_max = 3: m = 1 fails at I^(2); m = 2 reads I^(2) again,
    # then I^(4) and I^(6).  The default k_max = 4 stops at
    # B = max(ell_s - 1, 1): B = 2 on star43 (c = 6, ell_s = 3) and B = 3 on
    # c5 (c = 3, ell_s = 4), whose first candidates pass
    for name, k_max, probe, expected in (
            ("gt2sharp", 3, (2, 3), [1, 2, 4, 6]),
            ("star43", 4, (6, 12), [6, 12]),
            ("c5", 4, (3, 9), [3, 6, 9])):
        built.clear()
        assert svd_probe(ideals[name].classified, k_max) == probe, name
        assert built == expected, name


def svd_by_products(ci, k_max):
    """svd_probe with every candidate decided by whole products."""
    lower, upper = svd_bounds(ci)
    return next(m for m in range(lower, upper + 1, lower)
                if veronese_by_products(ci, m, k_max)), upper


def assert_veronese_matches_products(ci, degrees, label):
    for k_max in range(1, 5):
        for d in degrees:
            assert veronese_verify(ci, d, k_max) == \
                veronese_by_products(ci, d, k_max), (label, d, k_max)
        assert svd_probe(ci, k_max) == svd_by_products(ci, k_max), \
            (label, k_max)


def test_veronese_matches_products_on_fixtures(ideals):
    for name, parsed in ideals.items():
        if name == "c5cone":
            continue
        assert_veronese_matches_products(parsed.classified, range(1, 5), name)


def test_veronese_first_failure_at_k_three(ideals):
    # I^(2) = I^2 for the five-cycle, but x1*...*x5 is in I^(3), not I^3;
    # so the step k = 3 is the first to fail, after k = 2 has passed
    c5 = ideals["c5"].classified
    for d in (1, 4):
        assert veronese_verify(c5, d, 2)
        assert not veronese_verify(c5, d, 3)
        assert veronese_by_products(c5, d, 2)
        assert not veronese_by_products(c5, d, 3)
    star43 = ideals["star43"].classified
    assert veronese_verify(star43, 2, 2)
    assert not veronese_verify(star43, 2, 3)


def seeded_veronese_ideals(rng):
    """(label, classified ideal) for graphs and 3-uniform hypergraphs on
    four to six variables, and decompositions on three to five."""
    for _ in range(8):
        n = rng.randint(4, 6)
        for arity in (2, 3):
            edges = list(combinations(range(n), arity))
            chosen = rng.sample(edges, rng.randint(2, min(5, len(edges))))
            gens = [tuple(int(j in e) for j in range(n)) for e in chosen]
            yield f"{arity}-uniform {chosen}", classify(minimalize(gens, n))
        n = rng.randint(3, 5)
        comps = tuple(PrimeComponent(
            tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1)))),
            rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
        yield f"decomposition {comps}", classify_decomposition(
            PrimeDecomposition(n, comps))


def test_veronese_matches_products_on_seeded_ideals():
    for label, ci in seeded_veronese_ideals(random.Random(2323)):
        assert_veronese_matches_products(ci, range(1, 4), label)


def test_generation_bounds_on_seeded_ideals():
    # the cone over SP has its Hilbert basis in degrees at most
    # max(ell_s*D - 1, D), and the cone over c*SP in degrees at most
    # max(ell_s - 1, 1), the bound that lets the svd probe stop at k_max
    for label, ci in seeded_veronese_ideals(random.Random(2323)):
        sp = symbolic_polyhedron(ci)
        c = vertex_constants(ci).c
        general = _generation_bound(ci)
        degrees = [e.degree for e in _cone_basis(sp, 10**6)]
        assert max(degrees) <= general, (label, degrees, general)
        bound = max(symbolic_analytic_spread(ci) - 1, 1)
        degrees = [e.degree for e in _cone_basis(scale(sp, c), 10**6)]
        assert max(degrees) <= bound, (label, c, degrees, bound)


def test_normal_rees_degrees(ideals):
    for name, parsed in ideals.items():
        expected = {1, 2} if name == "gt2sharp" else {1}
        assert normal_rees_generator_degrees(
            parsed.classified.ideal) == expected, name


def random_edge_ideal(rng, n):
    """The edge ideal of a random graph on n vertices, at least one edge."""
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
    return classify(minimalize(
        [tuple(int(j in e) for j in range(n)) for e in edges or [(0, 1)]]))


def random_edge_powers(rng, n):
    """A random intersection of squared or plain edge primes: small
    multiplicities keep the oracle's box scan cheap."""
    components = [PrimeComponent(tuple(sorted(rng.sample(range(n), 2))),
                                 rng.randint(1, 2))
                  for _ in range(rng.randint(2, 4))]
    return classify_decomposition(PrimeDecomposition(n, tuple(components)))


def seeded_oracle_ideals():
    """(ci, bound) for 40 seeded edge ideals and edge-prime powers."""
    rng = random.Random(4101)
    for trial in range(40):
        n = rng.randint(2, 4)
        make = random_edge_ideal if trial % 2 else random_edge_powers
        ci = make(rng, n)
        yield ci, rng.choice((1, 2, 3, 3))


def test_basis_matches_oracle_on_random_ideals():
    for ci, bound in seeded_oracle_ideals():
        report = hilbert_basis(ci, degree_bound=bound)
        brute = hilbert_basis_brute(symbolic_polyhedron(ci), bound)
        assert [(e.exponent, e.degree) for e in report.elements] == \
            sorted(brute, key=lambda e: (e[1], e[0])), (ci, bound)


def test_normal_rees_degrees_match_oracle_on_random_ideals():
    rng = random.Random(4103)
    tested = 0
    while tested < 30:
        n = rng.randint(2, 3)
        ideal = minimalize([tuple(rng.randint(0, 3) for _ in range(n))
                            for _ in range(rng.randint(2, 5))])
        if ideal.is_squarefree():
            continue
        tested += 1
        bound = max(analytic_spread(ideal) - 1, 1)
        body = newton_polyhedron(ideal)
        brute = hilbert_basis_brute(body, bound)
        assert normal_rees_generator_degrees(ideal) == \
            {k for _, k in brute}, ideal
        assert {(e.exponent, e.degree) for e in _cone_basis(body, bound)} == \
            set(brute), ideal


def fixture_cones(ideals, dilations):
    """name -> body for the SP and NP of every fixture, dilated."""
    bodies = {}
    for name, parsed in ideals.items():
        ci = parsed.classified
        for kind, body in (("SP", symbolic_polyhedron(ci)),
                           ("NP", newton_polyhedron(ci.ideal))):
            for d in dilations:
                bodies[f"{d}*{kind}({name})"] = scale(body, d)
    return bodies


def triangulate(body):
    gens, rows, tight = _simis_cone(body)
    return gens, _pulling_triangulation(gens, rows, tight, body.nvars + 1)


def test_simis_cone_incidence_matches_dot_products(ideals):
    for name, body in fixture_cones(ideals, (1, 2)).items():
        gens, rows, tight = _simis_cone(body)
        assert tight == [sum(1 << i for i, g in enumerate(gens)
                             if sum(a * b for a, b in zip(r, g)) == 0)
                         for r in rows], name


def test_simis_cone_vertex_generators_are_primitive(ideals):
    # (d*v, d) from each vertex's denominator lcm d, against the defining
    # property: coprime integers, positive height, and v at height 1
    bodies = fixture_cones(ideals, (1, Fraction(3, 2), Fraction(5, 6)))
    assert any(c.denominator > 1 for body in bodies.values()
               for v in body.vertices for c in v)
    for name, body in bodies.items():
        gens, _, _ = _simis_cone(body)
        for g, v in zip(gens, body.vertices):
            assert math.gcd(*g) == 1 and g[-1] > 0, name
            assert tuple(Fraction(x, g[-1]) for x in g[:-1]) == v, name


def test_certified_cells_are_unimodular(ideals):
    # a cell whose every pulling step has height 1 must have |det| = 1;
    # the cells left uncertified enumerate their parallelepipeds
    bodies = list(fixture_cones(ideals, (1, 2)).values())
    bodies += [symbolic_polyhedron(ci) for ci, _ in seeded_oracle_ideals()]
    certified = uncertified = 0
    for body in bodies:
        gens, cells = triangulate(body)
        for cell, proven in cells:
            if proven:
                certified += 1
                rows = [[gens[j][i] for j in cell] for i in range(len(cell))]
                det, _ = bareiss_every_row(rows, len(cell))
                assert abs(det) == 1, (body, cell)
            else:
                uncertified += 1
    # 346 certified and 276 not on these bodies; the test needs both kinds
    assert certified > 300 and uncertified > 0


def test_basis_of_fully_certified_cones_is_the_generators(ideals):
    # every cell proven unimodular: no parallelepiped adds a point, so the
    # basis is the generators and no dominance filter runs
    for name in ("triangle", "star44", "c5"):
        body = symbolic_polyhedron(ideals[name].classified)
        gens, cells = triangulate(body)
        assert all(proven for _, proven in cells), name
        bound = max(g[-1] for g in gens)
        basis = {(e.exponent, e.degree) for e in _cone_basis(body, bound)}
        assert basis == {(g[:-1], g[-1]) for g in gens if g[-1]}, name
        assert basis == set(hilbert_basis_brute(body, bound)), name


def test_basis_of_cones_with_uncertified_cells_matches_oracle(ideals):
    # the cone over SP(c5cone), and over its double, whose parallelepipeds
    # add points that the dominance filter must sort out; the brute-force
    # oracle stops at the degree it can reach within a second
    sp = symbolic_polyhedron(ideals["c5cone"].classified)
    for body, bound in ((sp, 3), (scale(sp, 2), 1)):
        _, cells = triangulate(body)
        assert not all(proven for _, proven in cells)
        assert {(e.exponent, e.degree) for e in _cone_basis(body, bound)} \
            == set(hilbert_basis_brute(body, bound))


def leibniz_det(matrix):
    m = len(matrix)
    total = 0
    for perm in permutations(range(m)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(m) for j in range(i + 1, m))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def test_parallelepiped_points_on_random_simplicial_cones():
    rng = random.Random(4107)
    seen_dets = set()
    for _ in range(150):
        m = rng.randint(1, 4)
        cols = [tuple(rng.randint(-2, 3) for _ in range(m)) for _ in range(m)]
        if matrix_rank(cols) < m:
            continue
        matrix = [[c[i] for c in cols] for i in range(m)]
        det = abs(leibniz_det(matrix))
        seen_dets.add(det)
        points = _parallelepiped(cols)
        assert len(points) == det
        assert len(set(points)) == det
        for x in points:
            assert all(isinstance(c, int) for c in x)
            lam = solve_square(matrix, x)
            assert all(0 <= l < 1 for l in lam), (cols, x, lam)
    assert 1 in seen_dets and max(seen_dets) > 30
    # a unimodular cell contributes only the origin
    assert _parallelepiped([(1, 0, 0), (3, 1, 0), (-2, 5, 1)]) == [(0, 0, 0)]



# fixed cells of dimension 3 to 7 with |det| from 306 to 4539; the two
# triangular cells have groups Z^m / G*Z^m that are not cyclic, so no
# single column of the adjugate generates them
LARGE_INDEX_CELLS = [
    [(5, 6, 6), (2, 6, -4), (5, -3, 5)],
    [(6, 0, 0), (2, 10, 0), (3, 4, 15)],
    [(-2, 5, -2, -4), (-3, 6, 0, 4), (3, 4, -2, 3), (-4, -4, -2, 6)],
    [(1, 2, -4, 3, 0), (6, 4, -2, 1, 1), (-1, -4, -4, 0, 4),
     (-2, 4, -3, 2, -4), (0, 5, -3, 2, 0)],
    [(4, 0, 0, 0, 0), (1, 6, 0, 0, 0), (0, 2, 6, 0, 0), (3, 0, 1, 4, 0),
     (1, 1, 1, 1, 3)],
    [(3, 0, 0, 4, 5, 2), (3, 3, -4, -2, -1, 1), (-1, 4, 1, 5, -1, -3),
     (0, 1, 4, 5, 1, 2), (5, -3, 3, 6, -3, 5), (1, 1, 0, -1, -4, 1)],
    [(4, 5, 0, 1, 1, 6, 2), (-3, 3, 0, -2, -1, -2, -1),
     (6, 5, 3, -2, -2, 3, -1), (5, 2, -2, -2, 3, 5, 6),
     (1, 2, 6, -4, -3, 5, -3), (3, 3, 0, -2, 0, 0, 0),
     (6, 2, -2, 3, -1, 0, 5)],
]


def test_parallelepiped_points_on_cells_of_large_index():
    # each cell as listed and with its first two columns swapped, so that
    # both signs of the determinant occur; lambda = G^-1 * x is checked in
    # integers, as |det| * G^-1 from solve_square times x
    dets = []
    for cols in LARGE_INDEX_CELLS:
        for cell in (cols, [cols[1], cols[0]] + cols[2:]):
            m = len(cell)
            matrix = [[c[i] for c in cell] for i in range(m)]
            det, _ = bareiss_every_row([row[:] for row in matrix], m)
            dets.append(det)
            inverse = [solve_square(matrix, [int(i == k) for i in range(m)])
                       for k in range(m)]
            scaled = [[int(abs(det) * col[i]) for col in inverse]
                      for i in range(m)]
            points = _parallelepiped(cell)
            assert len(points) == len(set(points)) == abs(det), cell
            for x in points:
                assert all(isinstance(c, int) for c in x)
                assert all(0 <= sum(a * b for a, b in zip(row, x)) < abs(det)
                           for row in scaled), (cell, x)
    assert min(dets) < 0 < max(dets)
    assert 300 < min(map(abs, dets)) and max(map(abs, dets)) > 4000


def test_cone_basis_over_tripled_c5cone_is_pinned(ideals):
    # 81 uncertified cells whose parallelepipeds hold 22,128 points, more
    # than the brute-force oracle can check; the element count and digest
    # come from an independent enumeration over each cell's Hermite box
    body = scale(symbolic_polyhedron(ideals["c5cone"].classified), 3)
    elements = [(e.exponent, e.degree) for e in _cone_basis(body, 5)]
    assert len(elements) == 143
    assert hashlib.sha256(repr(elements).encode()).hexdigest() == \
        "7ceefb371da2ad93e8adcc61e78292bb29bce235ed4ed129aff76d7ec69b87f7"
