import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from nok import (ClassifiedIdeal, DimensionMismatch, IdealKind,
                 MonomialIdeal, NonPositiveExponent,
                 PrimeComponent, PrimeDecomposition, UnsupportedIdealClass,
                 classify, classify_decomposition, contains, equal,
                 from_halfspaces, hull_up_set, integral_closure,
                 member_integral_closure, member_symbolic,
                 membership_certificate, minimal_primes, minimalize,
                 newton_polyhedron, np_equals_sp, parse_ideal_text, power,
                 real_power, scale, symbolic_polyhedron, symbolic_power,
                 vertex_constants)

from oracles import (closure_member_naive, dot, faces, fraction_decompose,
                     slack, solve_linear, symbolic_power_by_intersection)
from test_cli import module_env
from test_graphs import edge_ideal, seeded_graphs
from nok.bodies import CACHE_SIZE, MembershipCertificate, _member
from nok.linalg import _gauss_jordan


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


@pytest.mark.xfail(strict=True, reason="an m-primary I has I^(k) = I^k, "
                   "but the lattice points of k*NP(I) give the closure")
def test_symbolic_power_of_m_primary_is_the_ordinary_power():
    ci = classify(minimalize([(4, 0), (1, 2), (0, 3)]))
    assert not member_symbolic(ci, (3, 1), 1)
    assert symbolic_power(ci, 1) == ci.ideal


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


def fraction_certificate(body, point):
    """The certificate by the Fraction route: a slack per facet, the walk
    down to a compact face on Fraction slacks, the candidate vertices by
    slack, and every subset of them in order of size through the reference
    solver, as certificates were first built."""
    x = tuple(Fraction(c) for c in point)
    for hs in body.facets:
        if slack(hs, x) < 0:
            return MembershipCertificate(inside=False, violated=hs)
    anchor, remainder = fraction_decompose(body, x)
    tight = [h for h in body.facets if slack(h, anchor) == 0]
    candidates = [v for v in body.vertices
                  if all(slack(h, v) == 0 for h in tight)]
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            rows = [[v[i] for v in subset] for i in range(len(anchor))]
            rows.append([Fraction(1)] * size)
            sol = solve_linear(rows, list(anchor) + [Fraction(1)])
            if sol is not None and all(w >= 0 for w in sol):
                return MembershipCertificate(True, subset, tuple(sol),
                                             remainder)
    raise AssertionError("point not in the hull of its face")


def face_points(rng, verts, count):
    """Convex combinations of random vertex subsets, with mixed
    denominators in the weights."""
    for _ in range(count):
        chosen = rng.sample(verts, rng.randint(1, min(len(verts), 4)))
        raw = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in chosen]
        yield tuple(sum(w * v[j] for w, v in zip(raw, chosen)) / sum(raw)
                    for j in range(len(verts[0])))


def certificate_bodies(seed):
    """Bodies in 2 to 5 variables with fractional vertices: hulls of
    fractional points, and fractional half-space systems."""
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(2, 5)
        yield hull_up_set(
            [tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3))
                   for _ in range(n))
             for _ in range(rng.randint(2, 8))], n)
        rows = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
        for _ in range(rng.randint(1, n + 3)):
            normal = [rng.randint(0, 4) for _ in range(n)]
            normal[rng.randrange(n)] += 1
            rows.append((normal, Fraction(rng.randint(1, 12),
                                          rng.randint(1, 4))))
        yield from_halfspaces(rows, n)


def test_certificates_match_fraction_subset_search():
    rng = random.Random(89)
    kinds = {"outside": 0, "fractional": 0, "three_or_more": 0}
    for body in certificate_bodies(91):
        points = list(face_points(rng, body.vertices, 6))
        points += [tuple(c + Fraction(rng.randint(0, 4), rng.randint(1, 5))
                         for c in p) for p in points[:3]]
        points += [tuple(Fraction(rng.randint(0, 9), rng.randint(1, 6))
                         for _ in range(body.nvars)) for _ in range(3)]
        for point in points:
            cert = membership_certificate(body, point)
            assert cert == fraction_certificate(body, point)
            check_certificate(body, point, cert)
            kinds["outside"] += not cert.inside
            kinds["fractional"] += any(w.denominator > 1
                                       for w in cert.weights)
            kinds["three_or_more"] += len(cert.vertices) >= 3
    assert kinds["outside"] > 60
    assert kinds["fractional"] > 250
    assert kinds["three_or_more"] > 80


def large_faces(ideals):
    """Compact faces with 8 or more vertices: c5cone's 10-vertex face of
    NP, its 8-vertex faces of SP, and a cube in four variables."""
    c5cone = ideals["c5cone"]
    cube = hull_up_set([(a, b, c, 3 - a - b - c) for a in (0, 1)
                        for b in (0, 1) for c in (0, 1)], 4)
    for body in (newton_polyhedron(c5cone.ideal),
                 symbolic_polyhedron(c5cone.classified), cube):
        for face in faces(body):
            if face.compact and len(face.vertex_set) >= 8:
                yield body, face.vertex_set


def test_certificates_on_faces_with_many_vertices(ideals):
    rng = random.Random(97)
    sizes = []
    for body, verts in large_faces(ideals):
        barycentre = tuple(sum(v[j] for v in verts) / len(verts)
                           for j in range(body.nvars))
        for point in [barycentre, *face_points(rng, verts, 4)]:
            cert = membership_certificate(body, point)
            assert cert == fraction_certificate(body, point)
            check_certificate(body, point, cert)
        sizes.append(len(verts))
    assert sorted(sizes) == [8, 8, 8, 8, 8, 8, 10]


def face_size(body, point):
    """The vertex count of the compact face whose relative interior holds
    the anchor of a point inside the body, by the Fraction route."""
    anchor, _ = fraction_decompose(body, point)
    tight = [h for h in body.facets if slack(h, anchor) == 0]
    return sum(all(slack(h, v) == 0 for h in tight) for v in body.vertices)


def test_simplex_faces_take_one_elimination(monkeypatch):
    # a one-vertex face takes no elimination, and a face with 2 or 3
    # vertices, always a simplex, takes one
    calls = []

    def counting(rows, ncols):
        calls.append(ncols)
        return _gauss_jordan(rows, ncols)

    monkeypatch.setattr("nok.bodies._gauss_jordan", counting)
    rng = random.Random(101)
    sizes = Counter()
    for body in certificate_bodies(91):
        points = list(face_points(rng, body.vertices, 6))
        points += [tuple(c + Fraction(rng.randint(0, 4), rng.randint(1, 5))
                         for c in p) for p in points[:3]]
        for point in points:
            calls.clear()
            cert = membership_certificate(body, point)
            made = len(calls)
            assert cert == fraction_certificate(body, point)
            size = face_size(body, point)
            if size <= 3:
                assert made == (size > 1), (size, made)
            sizes[min(size, 4)] += 1
    assert min(sizes[1], sizes[2], sizes[3], sizes[4]) > 20, sizes


def view_bodies(ideals):
    """The fixtures' Newton and symbolic polyhedra, and seeded bodies
    with fractional vertices."""
    for parsed in ideals.values():
        yield newton_polyhedron(parsed.ideal)
        if parsed.classified.supports_sp():
            yield symbolic_polyhedron(parsed.classified)
    yield from certificate_bodies(91)


def test_vertex_view_holds_the_vertices_in_integers(ideals):
    for body in view_bodies(ideals):
        denoms, c, D = body._vertex_constants
        assert denoms == tuple(math.lcm(*(x.denominator for x in v))
                               for v in body.vertices)
        assert c == math.lcm(*denoms)
        assert D == max(denoms)
    for parsed in ideals.values():
        if parsed.classified.supports_sp():
            constants = vertex_constants(parsed.classified)
            body = symbolic_polyhedron(parsed.classified)
            assert constants is body._vertex_constants


def test_vertex_view_leaves_equality_and_hashing_alone(ideals):
    for body in view_bodies(ideals):
        twin = hull_up_set(body.vertices, body.nvars)
        assert twin is not body
        # built once, on one of the two only
        assert body._vertex_constants is body._vertex_constants
        assert "_vertex_constants" in vars(body)
        assert "_vertex_constants" not in vars(twin)
        assert body == twin
        assert hash(body) == hash(twin)
        assert repr(body) == repr(twin)


@pytest.mark.parametrize("length", [2, 6])
def test_certificate_rejects_wrong_length(ideals, length):
    body = newton_polyhedron(ideals["c5"].ideal)
    point = (0,) * length
    with pytest.raises(DimensionMismatch) as refused:
        membership_certificate(body, point)
    with pytest.raises(DimensionMismatch) as expected:
        contains(body, point)
    assert str(refused.value) == str(expected.value)


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


@pytest.mark.parametrize("a", [(1.5, 1, 0), (Fraction(3, 2), 1, 0),
                               (True, 1, 0), ("1", 1, 0)])
def test_membership_refuses_non_int_exponents(a):
    ideal = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    ci = classify(ideal)
    with pytest.raises(NonPositiveExponent):
        member_symbolic(ci, a, 1)
    with pytest.raises(NonPositiveExponent):
        member_integral_closure(ideal, a, 1)
    with pytest.raises(DimensionMismatch):
        member_symbolic(ci, (1, 1), 1)
    with pytest.raises(DimensionMismatch):
        member_integral_closure(ideal, (1, 1, 1, 1), 1)


def test_real_power_refuses_zero():
    with pytest.raises(NonPositiveExponent):
        real_power(minimalize([(1, 1, 0), (0, 1, 1)]), 0)


@pytest.mark.parametrize("k", [True, False, 0, -1, 1.0, Fraction(2)])
def test_power_index_must_be_a_positive_int(k):
    ideal = minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    ci = classify(ideal)
    for call in (lambda: symbolic_power(ci, k),
                 lambda: member_symbolic(ci, (1, 1, 1), k),
                 lambda: member_integral_closure(ideal, (1, 1, 1), k)):
        with pytest.raises(NonPositiveExponent):
            call()


def test_classified_ideal_reports_kind_value():
    assert IdealKind.SQUAREFREE.value == "squarefree"
    assert IdealKind.LINEAR_POWER.value == "linear-power"
    assert IdealKind.M_PRIMARY.value == "m-primary"
    assert IdealKind.GENERAL_UNSUPPORTED.value == "general-unsupported"


def test_equal_classified_ideals_hash_once_and_share_a_cache_entry():
    # the triangle's edge ideal, squarefree by every builder and the
    # parser's gens: file, and linear-power from its components
    gens = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    squarefree = [classify(MonomialIdeal(3, gens)),
                  classify(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)])),
                  classify(MonomialIdeal._proven(3, gens)),
                  parse_ideal_text(
                      "vars: x, y, z\ngens: x*y, y*z, z*x").classified]
    primes = tuple(PrimeComponent(c) for c in ((0, 1), (1, 2), (0, 2)))
    linear = [classify_decomposition(PrimeDecomposition(3, primes)),
              parse_ideal_text("vars: x, y, z\n"
                               "components: (x,y), (y,z), (x,z)").classified]
    symbolic_polyhedron.cache_clear()
    for group in (squarefree, linear):
        assert len(set(map(id, group))) == len(group)
        for classified in group:
            assert classified == group[0]
            assert hash(classified) == hash(group[0])
            assert vars(classified)["_hash"] == hash(group[0])
        bodies = [symbolic_polyhedron(classified) for classified in group]
        assert all(body is bodies[0] for body in bodies)
    assert squarefree[0] != linear[0]
    info = symbolic_polyhedron.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 2, 2)


# one ClassifiedIdeal of each kind, two of them with no decomposition,
# from the fixtures directory given as the first argument
PICKLED = """
import pickle, sys
from pathlib import Path
from nok import classify, minimalize, parse_ideal_file

built = [parse_ideal_file(str(Path(sys.argv[1], name + ".nok"))).classified
         for name in ("triangle", "weighted", "mprimary")]
built.append(classify(minimalize([(3, 1)])))
"""

DUMP = PICKLED + """
for classified in built:
    hash(classified)
sys.stdout.buffer.write(pickle.dumps(built))
"""

LOAD = PICKLED + """
loaded = pickle.loads(sys.stdin.buffer.read())
assert [c.kind.value for c in loaded] == [
    "squarefree", "linear-power", "m-primary", "general-unsupported"]
for old, fresh in zip(loaded, built):
    # the pickle carried the hash computed under the other seed
    assert "_hash" in vars(old) and "_hash" in vars(old.ideal)
    assert old == fresh and hash(old) == hash(fresh), old.kind
    assert hash(old.ideal) == hash(fresh.ideal)
"""


def test_pickled_classified_ideal_hashes_alike_under_another_seed():
    ideals = str(Path(__file__).resolve().parent.parent / "ideals")

    def run(script, seed, data=b""):
        env = dict(module_env(), PYTHONHASHSEED=str(seed))
        return subprocess.run([sys.executable, "-c", script, ideals],
                              input=data, env=env, capture_output=True,
                              timeout=60)

    dumped = run(DUMP, 1)
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = run(LOAD, 2, dumped.stdout)
    assert loaded.returncode == 0, loaded.stderr.decode()


def member_bodies(ideals):
    """The fixtures' bodies and seeded fractional ones (view_bodies), and
    the Newton and symbolic polyhedra of seeded graphs' edge ideals."""
    yield from view_bodies(ideals)
    for n, edges in seeded_graphs(4141, 8, 4, 8):
        ideal = edge_ideal(n, edges)
        yield newton_polyhedron(ideal)
        yield symbolic_polyhedron(classify(ideal))


def test_member_matches_contains_on_the_fraction_point(ideals):
    # _member tests <normal, a> >= offset * k in ints; contains clears the
    # denominators of a/k.  Beside seeded points: k times each vertex
    # that gives a lattice point, which has zero slack on its facets, and
    # that point less 1 in one coordinate, which is often just outside
    rng = random.Random(4243)
    outcomes = Counter()
    for body in member_bodies(ideals):
        top = max(math.ceil(x) for v in body.vertices for x in v) + 1
        for k in (1, 2, 3):
            points = [tuple(rng.randint(0, k * top) for _ in range(body.nvars))
                      for _ in range(12)]
            for v in body.vertices:
                if all((k * x).denominator == 1 for x in v):
                    corner = tuple(int(k * x) for x in v)
                    points.append(corner)
                    points += [corner[:j] + (e - 1,) + corner[j + 1:]
                               for j, e in enumerate(corner) if e > 0]
            for i, a in enumerate(points):
                got = _member(body, a, k)
                assert got == contains(body, tuple(Fraction(x, k) for x in a))
                outcomes[got, i < 12] += 1
    # (answer, seeded point): about 800 to 2,600 of each
    assert min(outcomes.values()) > 500, outcomes


def test_member_refusals_are_unchanged():
    body = newton_polyhedron(minimalize([(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    cases = [((1, 1), 1, DimensionMismatch,
              "point (1, 1) has wrong length"),
             ((1, 1, 1, 1), 2, DimensionMismatch,
              "point (1, 1, 1, 1) has wrong length"),
             ((True, 1, 0), 1, NonPositiveExponent,
              "bad exponent vector (True, 1, 0)"),
             ((1.0, 1, 0), 1, NonPositiveExponent,
              "bad exponent vector (1.0, 1, 0)"),
             ((Fraction(1), 1, 0), 1, NonPositiveExponent,
              "bad exponent vector (Fraction(1, 1), 1, 0)"),
             # the entries are checked before the length, and k first
             ((True, 1), 1, NonPositiveExponent,
              "bad exponent vector (True, 1)"),
             ((1.5, 1), 0, NonPositiveExponent,
              "power index must be a positive integer, got 0"),
             ((1, 1, 1), 0, NonPositiveExponent,
              "power index must be a positive integer, got 0"),
             ((1, 1, 1), True, NonPositiveExponent,
              "power index must be a positive integer, got True")]
    for a, k, error, message in cases:
        with pytest.raises(error) as refused:
            _member(body, a, k)
        assert str(refused.value) == message
    # a list is read as its tuple
    assert _member(body, [1, 1, 0], 1) and not _member(body, [1, 0, 0], 1)
