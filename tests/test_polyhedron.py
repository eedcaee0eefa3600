import itertools
import math
import os
import random
import time
from fractions import Fraction

import pytest

from nok import (DEFAULT_VERTEX_BUDGET, CeilingPowerFamily,
                 DimensionMismatch, EmptyInput, EmptyList, HalfSpace,
                 InexactNumber, InfeasibleSystem, InvalidVertexBudget,
                 MissingOrthantConstraints, NonPositiveScale, ParseError,
                 VertexBudgetExceeded, contains, equal, from_halfspaces,
                 hull_up_set, intersect_polyhedra, mdc,
                 membership_certificate, minimal_lattice_points, minimalize,
                 newton_okounkov_body, newton_polyhedron, power, real_power,
                 scale, symbolic_polyhedron, symbolic_power)
from nok.polyhedron import cone_extreme_rays, primitive_vector, vertex_budget

from oracles import (brute_force_minimal_points, brute_force_vertices,
                     dilate_box, dot, faces, fraction_decompose, matrix_rank,
                     slack, solve_square, symbolic_power_by_intersection)


def orthant(n):
    rows = []
    for i in range(n):
        normal = [0] * n
        normal[i] = 1
        rows.append(HalfSpace(tuple(normal), 0))
    return rows


def random_up_set_system(rng, n):
    """Orthant rows plus a few random nonnegative-normal halfspaces."""
    rows = orthant(n)
    for _ in range(rng.randint(1, n + 2)):
        normal = [rng.randint(0, 3) for _ in range(n)]
        if not any(normal):
            normal[rng.randrange(n)] = 1
        rows.append(HalfSpace(tuple(normal), rng.randint(1, 6)))
    return rows


def test_hull_of_single_point():
    body = hull_up_set([(Fraction(1), Fraction(2))], 2)
    assert body.vertices == ((Fraction(1), Fraction(2)),)
    assert len(body.facets) == 2
    assert contains(body, (Fraction(3), Fraction(2)))
    assert not contains(body, (Fraction(0), Fraction(2)))


def test_hull_drops_dominated_points():
    pts = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)),
           (Fraction(0), Fraction(3))]
    body = hull_up_set(pts, 2)
    assert (Fraction(2), Fraction(2)) not in body.vertices
    assert len(body.vertices) == 2


def test_hull_rejects_empty():
    with pytest.raises(EmptyInput):
        hull_up_set([], 2)


def test_from_halfspaces_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 4)
        pts = [tuple(Fraction(rng.randint(0, 8), rng.randint(1, 3))
                     for _ in range(n))
               for _ in range(rng.randint(1, 6))]
        body = hull_up_set(pts, n)
        again = from_halfspaces(list(body.facets), n)
        assert equal(body, again)
        assert body.facets == again.facets
        assert body.vertices == again.vertices


def test_vertices_match_basic_solution_enumeration():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 4)
        rows = random_up_set_system(rng, n)
        body = from_halfspaces(rows, n)
        expected = brute_force_vertices(rows, n)
        assert sorted(body.vertices) == expected


def test_from_halfspaces_requires_bounded_below():
    # no lower bound on the second coordinate in any row
    rows = [HalfSpace((1, 0), 0), HalfSpace((1, 0), 2)]
    with pytest.raises(MissingOrthantConstraints):
        from_halfspaces(rows, 2)


def test_from_halfspaces_rejects_negative_normals():
    rows = orthant(2) + [HalfSpace((-1, 1), 0)]
    with pytest.raises(MissingOrthantConstraints):
        from_halfspaces(rows, 2)


def test_from_halfspaces_zero_normal_rows():
    # 0 >= b holds for b <= 0, and the row drops out; b > 0 is refused
    body = from_halfspaces(orthant(2) + [HalfSpace((1, 1), 1),
                                         HalfSpace((0, 0), -3),
                                         HalfSpace((0, 0), 0)], 2)
    assert body == from_halfspaces(orthant(2) + [HalfSpace((1, 1), 1)], 2)
    with pytest.raises(InfeasibleSystem):
        from_halfspaces(orthant(2) + [HalfSpace((0, 0), 1)], 2)
    # with every row dropped, nothing is left to cut out a body
    with pytest.raises(EmptyInput):
        from_halfspaces([HalfSpace((0, 0), -3), ((0, 0), 0)], 2)


def test_from_halfspaces_refuses_recession_outside_the_orthant():
    # the line x + y = 1 leaves the orthant along (-1, 1); no x_2 >= 0
    with pytest.raises(MissingOrthantConstraints, match="recession"):
        from_halfspaces([HalfSpace((1, 1), 1), HalfSpace((1, 0), 0)], 2)


def test_from_halfspaces_refuses_a_normal_of_the_wrong_length():
    with pytest.raises(DimensionMismatch, match="at least one variable"):
        from_halfspaces([HalfSpace((), 0)], 0)
    with pytest.raises(DimensionMismatch):
        from_halfspaces(orthant(2) + [HalfSpace((1, 1, 1), 1)], 2)
    with pytest.raises(DimensionMismatch):
        from_halfspaces([((1, 1, 1), 1)], 2)


def test_hull_refuses_points_of_the_wrong_length_or_sign():
    with pytest.raises(DimensionMismatch, match="wrong length"):
        hull_up_set([(1, 0), (1, 0, 0)], 2)
    with pytest.raises(MissingOrthantConstraints, match="outside"):
        hull_up_set([(1, 0), (Fraction(-1, 2), 3)], 2)


def test_intersect_and_equal_refuse_mismatched_inputs():
    plane = hull_up_set([(1, 1)], 2)
    space = hull_up_set([(1, 1, 1)], 3)
    with pytest.raises(EmptyList):
        intersect_polyhedra([])
    with pytest.raises(DimensionMismatch, match="variable counts"):
        intersect_polyhedra([plane, space])
    with pytest.raises(DimensionMismatch, match="variable counts"):
        equal(plane, space)


def test_facets_are_primitive_and_sorted():
    rows = orthant(2) + [HalfSpace((2, 2), 4), HalfSpace((4, 0), 4)]
    body = from_halfspaces(rows, 2)
    assert HalfSpace((1, 1), 2) in body.facets
    assert HalfSpace((1, 0), 1) in body.facets
    assert all(h.normal != (2, 2) for h in body.facets)
    assert list(body.facets) == sorted(body.facets,
                                       key=lambda h: (h.normal, h.offset))


def test_redundant_halfspace_removed():
    rows = orthant(2) + [HalfSpace((1, 1), 1), HalfSpace((1, 1), 0)]
    body = from_halfspaces(rows, 2)
    assert HalfSpace((1, 1), 0) not in body.facets
    assert HalfSpace((1, 1), 1) in body.facets


def test_equal_is_representation_independent():
    a = hull_up_set([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))],
                    2)
    b = from_halfspaces(orthant(2) + [HalfSpace((1, 1), 1),
                                      HalfSpace((3, 3), 2)], 2)
    assert equal(a, b)


def test_scale_round_trip_and_mdc_invariance():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 4)
        pts = [tuple(Fraction(rng.randint(0, 6), rng.randint(1, 2))
                     for _ in range(n))
               for _ in range(rng.randint(1, 5))]
        body = hull_up_set(pts, n)
        factor = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = scale(body, factor)
        assert equal(scale(scaled, 1 / factor), body)
        assert mdc(scaled) == mdc(body)
        assert sorted(scaled.vertices) == \
            sorted(tuple(factor * c for c in v) for v in body.vertices)


def test_scale_matches_from_halfspaces_of_the_dilated_facets():
    # scale builds t*P as the hull of the dilated vertices; the oracle
    # builds it from scratch out of the Fraction-dilated facets
    bodies = list(random_up_sets(131, 12)) + list(random_hulls(137, 12))
    bodies += fractional_up_sets(139, 12)
    for body in bodies:
        n = body.nvars
        for t in (Fraction(1, 3), Fraction(3, 2), 4, Fraction(7, 5)):
            scaled = scale(body, t)
            oracle = from_halfspaces([(h.normal, h.offset * t)
                                      for h in body.facets], n)
            assert scaled.facets == oracle.facets
            assert scaled.vertices == oracle.vertices
            assert scaled._vertex_masks == oracle._vertex_masks


def test_scale_rejects_nonpositive():
    body = hull_up_set([(Fraction(1), Fraction(1))], 2)
    with pytest.raises(NonPositiveScale):
        scale(body, 0)


def test_newton_polyhedron_of_power_is_dilate():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        ideal = minimalize(gens, n)
        np_base = newton_polyhedron(ideal)
        for k in range(1, 6):
            assert equal(newton_polyhedron(power(ideal, k)),
                         scale(np_base, k))


def test_intersect_polyhedra_membership():
    a = hull_up_set([(Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))],
                    2)
    b = hull_up_set([(Fraction(1), Fraction(1))], 2)
    meet = intersect_polyhedra([a, b])
    rng = random.Random(3)
    for _ in range(100):
        p = (Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(0, 8), 2))
        assert contains(meet, p) == (contains(a, p) and contains(b, p))


def test_faces_of_simplex_body():
    body = hull_up_set([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))],
                       2)
    descriptors = faces(body)
    dims = sorted(f.dim for f in descriptors if f.compact)
    assert dims == [0, 0, 1]
    assert mdc(body) == 1
    # vertices themselves are always compact faces
    vertex_faces = [f for f in descriptors if f.dim == 0]
    assert all(f.compact for f in vertex_faces)
    assert len(vertex_faces) == 2


def random_up_sets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        yield from_halfspaces(random_up_set_system(rng, n), n)


def test_compactness_matches_recession_criterion():
    for body in random_up_sets(37, 20):
        n = body.nvars
        for face in faces(body):
            # a face is unbounded exactly when some unit ray satisfies
            # its tight facets with equality (normal coordinate zero)
            tight = [body.facets[i] for i in face.tight_facets]
            ray_in_face = any(
                all(h.normal[j] == 0 for h in tight) for j in range(n))
            assert face.compact == (not ray_in_face)


def face_dim_from_points(body, face):
    """The dimension of a face from what it contains: the differences of
    its vertices together with the unit rays that its tight normals leave
    free."""
    n = body.nvars
    normals = [body.facets[i].normal for i in face.tight_facets]
    base = face.vertex_set[0]
    rows = [[a - b for a, b in zip(v, base)] for v in face.vertex_set[1:]]
    rows += [[int(i == j) for i in range(n)] for j in range(n)
             if all(a[j] == 0 for a in normals)]
    return matrix_rank(rows)


def test_face_dimensions_match_member_oracle(ideals):
    bodies = list(random_up_sets(37, 20))
    for parsed in ideals.values():
        bodies.append(newton_polyhedron(parsed.ideal))
        if parsed.classified.supports_sp():
            bodies.append(symbolic_polyhedron(parsed.classified))
    for body in bodies:
        for face in faces(body):
            assert face.dim == face_dim_from_points(body, face)
            # the members are the vertices on every tight facet
            assert face.vertex_set == tuple(
                v for v in body.vertices
                if all(slack(body.facets[i], v) == 0
                       for i in face.tight_facets))


def test_hull_vertices_ignore_repeated_dominated_and_face_points():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 4)
        pts = [tuple(Fraction(rng.randint(0, 6), rng.randint(1, 2))
                     for _ in range(n))
               for _ in range(rng.randint(1, 6))]
        base = hull_up_set(pts, n)
        extra = [pts[rng.randrange(len(pts))] for _ in range(3)]
        for v in base.vertices:
            # dominated: on an unbounded face or in the interior
            j = rng.randrange(n)
            extra.append(v[:j] + (v[j] + rng.randint(1, 2),) + v[j + 1:])
        for face in faces(base):
            members = face.vertex_set
            if len(members) < 2:
                continue
            # the centroid of a face's vertices, and a point inside an edge
            extra.append(tuple(sum(c) / len(members) for c in zip(*members)))
            if face.dim == 1:
                a, b = members
                extra.append(tuple((2 * x + y) / 3 for x, y in zip(a, b)))
        rng.shuffle(extra)
        body = hull_up_set(pts + extra, n)
        assert body.vertices == tuple(brute_force_vertices(body.facets, n))
        assert body == base


def test_hull_reads_int_fraction_str_and_mixed_points_alike():
    # int coordinates stay ints inside hull_up_set; the body, its vertex
    # masks and the Fraction type of every vertex coordinate must not
    # depend on how the points were written
    rng = random.Random(107)
    for _ in range(120):
        n = rng.randint(1, 5)
        whole = [tuple(rng.randint(0, 5) for _ in range(n))
                 for _ in range(rng.randint(1, 6))]
        halves = [tuple(Fraction(rng.randint(0, 10), rng.choice((1, 2, 3)))
                        for _ in range(n))
                  for _ in range(rng.randint(0, 2))]
        forms = [
            whole + halves,
            [tuple(map(Fraction, p)) for p in whole] + halves,
            [tuple(map(str, p)) for p in whole + halves],
            # each coordinate in its own form, and repeats across forms
            [tuple(rng.choice((c, Fraction(c), str(c))) for c in p)
             for p in whole + halves + rng.sample(whole, 1)],
        ]
        bodies = [hull_up_set(points, n) for points in forms]
        # the engine's ray order is the facet order, with no re-sort
        assert list(bodies[0].facets) == sorted(
            bodies[0].facets, key=lambda h: (h.normal, h.offset))
        for body in bodies:
            assert body == bodies[0]
            assert body._vertex_masks == bodies[0]._vertex_masks
            assert all(type(c) is Fraction
                       for v in body.vertices for c in v)


def test_redundant_and_duplicate_rows_give_oracle_vertices():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(2, 4)
        rows = random_up_set_system(rng, n)
        system = list(rows)
        for _ in range(rng.randint(1, 2)):
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randint(2, 3)
            # the same hyperplane with a non-primitive normal
            system.append(HalfSpace(tuple(k * x for x in a.normal),
                                    k * a.offset))
            # tight exactly where both rows are: degenerate vertices
            system.append(HalfSpace(
                tuple(x + y for x, y in zip(a.normal, b.normal)),
                a.offset + b.offset))
            # strictly weaker than a row of the system
            system.append(HalfSpace(b.normal, b.offset - 1))
        rng.shuffle(system)
        body = from_halfspaces(system, n)
        assert sorted(body.vertices) == brute_force_vertices(system, n)
        assert body == from_halfspaces(rows, n)


def degenerate_system(rng, n):
    """An up-set system with rows of every kind that is not a facet: scaled
    duplicates as HalfSpace instances, sums of two rows, rows tight at a
    single vertex, and x_i >= 0 made redundant by x_i >= c."""
    rows = random_up_set_system(rng, n)
    for i in rng.sample(range(n), rng.randint(0, n)):
        rows.append(HalfSpace(tuple(int(i == j) for j in range(n)),
                              rng.randint(1, 3)))
    system = list(rows)
    for _ in range(rng.randint(1, 2)):
        a, b = rng.choice(rows), rng.choice(rows)
        k = rng.randint(2, 4)
        system.append(HalfSpace(tuple(k * x for x in a.normal),
                                k * a.offset))
        system.append(HalfSpace(tuple(x + y for x, y in zip(a.normal,
                                                            b.normal)),
                                a.offset + b.offset))
    # the sum of the facets through a vertex is tight there and nowhere
    # else
    body = from_halfspaces(rows, n)
    for v in rng.sample(body.vertices, min(2, len(body.vertices))):
        tight = [h for h in body.facets if slack(h, v) == 0]
        normal = tuple(sum(h.normal[j] for h in tight) for j in range(n))
        system.append(HalfSpace(normal, sum(h.offset for h in tight)))
    rng.shuffle(system)
    return system


def test_facets_from_row_masks_match_hull_of_vertices():
    rng = random.Random(73)
    single_vertex_rows = redundant_orthant = 0
    for _ in range(50):
        n = rng.randint(1, 4)
        system = degenerate_system(rng, n)
        body = from_halfspaces(system, n)
        assert list(body.vertices) == brute_force_vertices(system, n)
        assert body.facets == hull_up_set(body.vertices, n).facets
        # a non-primitive HalfSpace must not survive beside its primitive
        # form: both would have the same mask
        assert all(math.gcd(*h.normal, h.offset) == 1 for h in body.facets)
        single_vertex_rows += sum(
            1 for h in system
            if sum(1 for v in body.vertices if slack(h, v) == 0) == 1
            and all(h.normal))
        redundant_orthant += sum(1 for h in system
                                 if h.offset == 0 and sum(h.normal) == 1
                                 and h not in body.facets)
    assert single_vertex_rows > 40 and redundant_orthant > 40


def test_halfspace_instances_with_fractional_offsets():
    # each row reaches the integer elimination in primitive integer form;
    # a Fraction offset there would be floored by its exact divisions
    rows = [HalfSpace((0, 4), Fraction(4)), ((0, 3), 0),
            HalfSpace((4, 0), Fraction(16, 3)), ((0, 1), Fraction(8, 3))]
    body = from_halfspaces(rows, 2)
    assert body.vertices == ((Fraction(4, 3), Fraction(8, 3)),)
    assert body.facets == (HalfSpace((0, 3), 8), HalfSpace((3, 0), 4))


def test_simplicial_cone_rays_are_inverse_columns():
    # the extreme rays of {x : Bx >= 0} for a nonsingular B are the
    # columns of its inverse; random B give determinants of both signs,
    # and nonnegative combinations of its rows add redundant rows
    rng = random.Random(71)
    for _ in range(80):
        dim = rng.randint(1, 4)
        basis = [[rng.randint(-3, 3) for _ in range(dim)]
                 for _ in range(dim)]
        if matrix_rank(basis) < dim:
            continue
        expected = []
        for j in range(dim):
            column = solve_square(basis, [int(i == j) for i in range(dim)])
            scaled = [int(x * math.lcm(*(c.denominator for c in column)))
                      for x in column]
            expected.append(tuple(x // math.gcd(*scaled) for x in scaled))
        rows = [tuple(r) for r in basis]
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(0, 2) for _ in range(dim)]
            rows.append(tuple(sum(c * r[i] for c, r in zip(coeffs, basis))
                              for i in range(dim)))
        rng.shuffle(rows)
        rays = [ray for ray, _ in cone_extreme_rays(rows, dim)]
        assert rays == sorted(expected)


def brute_cone_rays(rows, dim):
    """Extreme rays of {x : <r, x> >= 0}: the primitive kernel vectors of
    each dim - 1 rows of rank dim - 1, of either sign, that satisfy every
    row."""
    found = set()
    for subset in itertools.combinations(rows, dim - 1):
        if matrix_rank(subset) < dim - 1:
            continue
        for k in range(dim):
            unit = tuple(int(i == k) for i in range(dim))
            x = solve_square(list(subset) + [unit], [0] * (dim - 1) + [1])
            if x is not None:
                break
        den = math.lcm(*(c.denominator for c in x))
        ints = [int(c * den) for c in x]
        g = math.gcd(*ints)
        for sign in (1, -1):
            ray = tuple(sign * c // g for c in ints)
            if all(dot(r, ray) >= 0 for r in rows):
                found.add(ray)
    return sorted(found)


def assert_rays_and_masks(rows, dim):
    """The engine's rays match the brute-force ones, and bit i of each
    ray's mask is set exactly when the ray is tight at rows[i]."""
    result = cone_extreme_rays(rows, dim)
    assert [ray for ray, _ in result] == brute_cone_rays(rows, dim)
    for ray, mask in result:
        assert mask == sum(1 << i for i, r in enumerate(rows)
                           if dot(r, ray) == 0)


def test_start_basis_skips_a_dependent_sparse_row():
    # sparsest first: (0, 1, 1), (1, 0, -1), then (1, 1, 0), their sum, so
    # the start basis must skip it and take (1, 1, 1)
    rows = [(1, 1, 1), (1, 1, 0), (0, 1, 1), (1, 0, -1)]
    assert matrix_rank(rows[1:]) == 2
    assert_rays_and_masks(rows, 3)
    rng = random.Random(79)
    skipped = duplicated = 0
    for _ in range(300):
        dim = rng.randint(2, 4)
        rows = []
        for _ in range(rng.randint(dim, dim + 3)):
            size = rng.randint(1, 2) if rng.random() < 0.7 else dim
            support = rng.sample(range(dim), size)
            rows.append(tuple(rng.choice((-2, -1, 1, 2)) if j in support
                              else 0 for j in range(dim)))
        if matrix_rank(rows) < dim:
            continue
        # the engine's order: sparsest first, then lexicographic
        unique = sorted(set(rows), key=lambda r: (sum(map(bool, r)), r))
        skipped += matrix_rank(unique[:dim]) < dim
        duplicated += len(unique) < len(rows)
        assert_rays_and_masks(rows, dim)
    assert skipped > 20
    assert duplicated > 20


def test_rays_and_masks_of_constructor_shaped_cones():
    # the rows hull_up_set and from_halfspaces hand the engine: unit rows
    # (the orthant, and t >= 0 for from_halfspaces) plus dense rows, up
    # to dim 7, with duplicate and dependent rows
    rng = random.Random(109)
    for case in range(72):
        n = 1 + case // 2 % 6
        dim = n + 1
        units = [tuple(int(i == j) for i in range(dim)) for j in range(n)]
        dense = []
        for _ in range(rng.randint(1, 3 if n > 4 else 5)):
            entries = [rng.choice((0, 1, 2, 3)) for _ in range(n)]
            if case % 2:
                # a hull row: a point with t = 1
                dense.append(tuple(entries) + (1,))
            else:
                # a half-space row: normal, then minus the offset
                entries[rng.randrange(n)] += 1
                dense.append(tuple(entries) + (-rng.randint(1, 6),))
        if case % 2 == 0:
            units.append(tuple(int(i == n) for i in range(dim)))
        if rng.random() < 0.5:
            dense.append(rng.choice(dense))
        if len(dense) > 1 and rng.random() < 0.5:
            a, b = rng.sample(dense, 2)
            dense.append(tuple(x + y for x, y in zip(a, b)))
        rows = units + dense
        rng.shuffle(rows)
        assert_rays_and_masks(rows, dim)


def with_zero_and_duplicate_rows(rng, rows, dim):
    """rows with zero rows and repeated rows, one of them as a list,
    mixed in at random places."""
    rows = list(rows)
    for _ in range(rng.randint(1, 2)):
        rows.insert(rng.randint(0, len(rows)), (0,) * dim)
    for _ in range(rng.randint(1, 2)):
        rows.insert(rng.randint(0, len(rows)), rng.choice(rows))
    copy = rng.choice([r for r in rows if any(r)])
    rows.insert(rng.randint(0, len(rows)), list(copy))
    return rows


def test_rays_and_masks_of_constructor_rows_with_zero_and_duplicate_rows():
    # the rows the two constructors hand the engine, built as they build
    # them from seeded inputs: hull_up_set's dual rows (each point with
    # t = 1, then the orthant) and from_halfspaces' homogenized rows (each
    # primitive half-space with minus its offset, then t >= 0).  The
    # engine inserts a zero row and a repeated row like any other, each
    # with its own bit: a zero row is tight at every ray, and a repeated
    # row exactly where its copy is
    rng = random.Random(113)
    for case in range(80):
        n = rng.randint(1, 4)
        dim = n + 1
        units = [tuple(int(i == j) for i in range(dim)) for j in range(n)]
        if case % 2:
            points = {tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3))
                            for _ in range(n))
                      for _ in range(rng.randint(1, 6))}
            rows = [primitive_vector(p + (1,)) for p in sorted(points)]
            rows += units
        else:
            system = random_up_set_system(rng, n)
            rows = [h.normal + (-h.offset,) for h in system]
            rows.append(tuple(int(i == n) for i in range(dim)))
        assert_rays_and_masks(with_zero_and_duplicate_rows(rng, rows, dim),
                              dim)


def test_mdc_of_orthant_is_zero():
    body = from_halfspaces(orthant(3), 3)
    assert mdc(body) == 0
    assert body.vertices == ((Fraction(0),) * 3,)


def fractional_up_sets(seed, count):
    """from_halfspaces bodies whose vertices are mostly fractional: normal
    entries up to 5 and fractional offsets."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        rows = orthant(n)
        for _ in range(rng.randint(1, n + 3)):
            normal = [rng.randint(0, 5) for _ in range(n)]
            if not any(normal):
                normal[rng.randrange(n)] = 1
            rows.append((normal, Fraction(rng.randint(1, 12),
                                          rng.randint(1, 4))))
        yield from_halfspaces(rows, n)


def random_hulls(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield hull_up_set(
            [tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3))
                   for _ in range(n))
             for _ in range(rng.randint(1, 7))], n)


def test_mdc_is_largest_compact_face_dimension(ideals):
    bodies = []
    for parsed in ideals.values():
        bodies.append(newton_polyhedron(parsed.ideal))
        if parsed.classified.supports_sp():
            bodies.append(symbolic_polyhedron(parsed.classified))
    bodies += random_hulls(71, 420)
    fractional = list(fractional_up_sets(73, 120))
    assert sum(any(c.denominator > 1 for v in b.vertices for c in v)
               for b in fractional) > 60
    bodies += fractional
    rng = random.Random(79)
    bodies += [scale(b, Fraction(rng.randint(1, 7), rng.randint(1, 7)))
               for b in bodies[::3]]
    seen_dims = set()
    for body in bodies:
        expected = max(f.dim for f in faces(body) if f.compact)
        assert mdc(body) == expected
        seen_dims.add((body.nvars, expected))
    # the maximal compact faces reach every dimension below nvars
    assert {(n, d) for n in range(1, 6) for d in range(n)} <= seen_dims


def assert_vertex_masks_match_slack(body):
    # construction runs in integers; the stored vertices are Fractions
    assert all(type(c) is Fraction for v in body.vertices for c in v)
    assert len(body._vertex_masks) == len(body.vertices)
    for v, mask in zip(body.vertices, body._vertex_masks):
        assert mask == sum(1 << i for i, h in enumerate(body.facets)
                           if slack(h, v) == 0)


def test_carried_vertex_masks_match_slack(ideals):
    bodies = list(fractional_up_sets(89, 60)) + list(random_hulls(97, 60))
    rng = random.Random(101)
    meets = []
    for _ in range(40):
        n = rng.randint(1, 4)
        group = [b for b in bodies if b.nvars == n]
        meets.append(intersect_polyhedra(rng.sample(group, 2)))
    for parsed in ideals.values():
        meets.append(newton_polyhedron(parsed.ideal))
        if parsed.classified.supports_sp():
            meets.append(symbolic_polyhedron(parsed.classified))
    reordered = 0
    for body in bodies + meets:
        assert_vertex_masks_match_slack(body)
        for t in (2, Fraction(3, 2), Fraction(1, 6), 5):
            scaled = scale(body, t)
            assert_vertex_masks_match_slack(scaled)
            # the facets' order before sorting again
            unsorted = [HalfSpace.from_rational(h.normal, h.offset * t)
                        for h in body.facets]
            reordered += list(scaled.facets) != unsorted
        back = scale(scale(body, 2), Fraction(1, 2))
        assert back == body and hash(back) == hash(body)
        assert back._vertex_masks == body._vertex_masks
    # scalings whose primitive facets shrink come in another order
    assert reordered > 10


def primitive_by_fractions(vec):
    """The reference: clear the denominators of Fractions, then divide by
    the gcd."""
    fracs = [Fraction(x) for x in vec]
    scale = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*ints) if ints else 0
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def test_primitive_vector_matches_fraction_path():
    rng = random.Random(97)
    vectors = [(), (0,), (0, 0, 0), (4, -6, 8), (-3,), (7, 0, -14),
               (Fraction(1, 2), Fraction(-2, 3)), (Fraction(4, 2), 6),
               (3, Fraction(-5, 7), 0), (Fraction(0), Fraction(0, 5))]
    for _ in range(300):
        length = rng.randint(0, 6)
        kind = rng.choice(("int", "fraction", "mixed"))
        vec = []
        for _ in range(length):
            num = rng.randint(-12, 12) * rng.choice((1, 1, 6))
            den = rng.randint(1, 8)
            if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                vec.append(num)
            else:
                vec.append(Fraction(num, den))
        vectors.append(tuple(vec))
    for vec in vectors:
        got = primitive_vector(vec)
        assert got == primitive_by_fractions(vec)
        assert all(type(x) is int for x in got)
        assert primitive_vector(list(vec)) == got


def test_decompose_point_postconditions():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 4)
        rows = random_up_set_system(rng, n)
        body = from_halfspaces(rows, n)
        for _ in range(4):
            base = body.vertices[rng.randrange(len(body.vertices))]
            point = tuple(c + Fraction(rng.randint(0, 6), 3) for c in base)
            cert = membership_certificate(body, point)
            moved = cert.remainder
            anchor = tuple(p - m for p, m in zip(point, moved))
            assert contains(body, anchor)
            assert all(m >= 0 for m in moved)
            # the anchor is the certificate's convex combination
            assert tuple(sum(w * v[j] for w, v in zip(cert.weights,
                                                     cert.vertices))
                         for j in range(n)) == anchor
            # the anchor sits on the boundary: some facet is tight
            assert any(dot(h.normal, anchor) == h.offset
                       for h in body.facets) or not body.facets


def mixed_points(rng, body, count):
    """Points with mixed denominators: on the body's faces (a vertex, or a
    point between two vertices, with or without a shift up), and anywhere,
    outside the body and the orthant included."""
    verts = body.vertices
    for _ in range(count):
        a, b = rng.choice(verts), rng.choice(verts)
        w = Fraction(rng.randint(0, 6), rng.randint(1, 6))
        w = min(w, 1)
        on_face = tuple(w * x + (1 - w) * y for x, y in zip(a, b))
        yield on_face
        yield tuple(c + Fraction(rng.randint(0, 1) * rng.randint(1, 9),
                                 rng.randint(1, 7)) for c in on_face)
        yield tuple(Fraction(rng.randint(-3, 12), rng.randint(1, 7))
                    for _ in range(body.nvars))


def test_contains_and_decompose_match_fraction_slack():
    rng = random.Random(97)
    bodies = list(fractional_up_sets(101, 50)) + list(random_hulls(103, 50))
    on_facet = outside = rescaled = 0
    for body in bodies:
        for p in mixed_points(rng, body, 8):
            slacks = [slack(h, p) for h in body.facets]
            inside = all(s >= 0 for s in slacks)
            assert contains(body, p) == inside
            cert = membership_certificate(body, p)
            if not inside:
                outside += 1
                assert not cert.inside
                continue
            on_facet += 0 in slacks
            got = (tuple(x - r for x, r in zip(p, cert.remainder)),
                   cert.remainder)
            assert got == fraction_decompose(body, p)
            assert all(type(c) is Fraction for part in got for c in part)
            # a step whose length has a denominator new to the walk
            den = math.lcm(*(Fraction(c).denominator for c in p))
            rescaled += any(den % c.denominator for c in got[0])
    assert on_facet > 1000 and outside > 400 and rescaled > 200


def test_contains_converts_like_fraction():
    body = hull_up_set([(Fraction(1, 2), Fraction(3, 2))], 2)
    assert contains(body, ("0.5", "3/2"))
    assert not contains(body, ("1/3", 2))
    assert contains(body, (True, 2))


def test_minimal_lattice_points_against_box_scan():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 3)
        rows = random_up_set_system(rng, n)
        body = from_halfspaces(rows, n)
        box = [int(max(v[j] for v in body.vertices).__ceil__())
               for j in range(n)]
        expected = brute_force_minimal_points(body.facets, box)
        assert minimal_lattice_points(body) == expected


def test_minimal_lattice_points_of_the_orthant():
    # no facet has a positive offset, so the search has no rows at all
    for n in range(1, 5):
        body = from_halfspaces(orthant(n), n)
        for factor in (1, 2, Fraction(7, 3)):
            assert minimal_lattice_points(scale(body, factor)) == [(0,) * n]
        unit = minimalize([(0,) * n])
        assert real_power(unit, Fraction(7, 3)) == unit


def test_minimal_lattice_points_against_box_scan_higher_dimension(ideals):
    # in four and five variables most rows feed several coordinates, so
    # each value step tests the witnesses of the earlier coordinates that
    # share a row with it; bodies whose box holds more than 3000 points are
    # passed over only to bound the oracle, which is quadratic in the
    # feasible points
    rng = random.Random(71)
    checked = 0
    while checked < 25:
        n = rng.randint(4, 5)
        body = from_halfspaces(random_up_set_system(rng, n), n)
        box = dilate_box(body, 1)
        if math.prod(b + 1 for b in box) > 3000:
            continue
        expected = brute_force_minimal_points(body.facets, box)
        assert minimal_lattice_points(body) == expected
        checked += 1
    for name in ("triangle", "c5", "star43"):
        sp = symbolic_polyhedron(ideals[name].classified)
        for k in range(1, 5):
            expected = brute_force_minimal_points(
                sp.facets, dilate_box(sp, k), dilate=k)
            assert minimal_lattice_points(scale(sp, k)) == expected


def test_minimal_lattice_points_is_permutation_equivariant(ideals):
    # the search visits the coordinates in its own order, so the answer on
    # a body with permuted coordinates must be the permuted answer, sorted
    # again in the new coordinates
    rng = random.Random(29)
    bodies = [from_halfspaces(random_up_set_system(rng, n), n)
              for n in (2, 3, 4, 5, 6) for _ in range(8)]
    for name in ("c5cone", "star43", "weighted"):
        sp = symbolic_polyhedron(ideals[name].classified)
        bodies += [scale(sp, k) for k in range(1, 5)]
    for body in bodies:
        n = body.nvars
        perm = rng.sample(range(n), n)

        def permute(v):
            return tuple(v[j] for j in perm)

        image = from_halfspaces([HalfSpace(permute(h.normal), h.offset)
                                 for h in body.facets], n)
        points = minimal_lattice_points(image)
        assert points == sorted(map(permute, minimal_lattice_points(body)))
        box = dilate_box(image, 1)
        if math.prod(b + 1 for b in box) <= 3000:
            assert points == brute_force_minimal_points(image.facets, box)


def test_minimal_lattice_points_of_a_dilate_without_building_it(ideals):
    # minimal_lattice_points(body, t) dilates the rows and the box itself;
    # it must give what the search gives on the dilate that scale builds,
    # whose primitive facets may come in another order
    bodies = []
    for parsed in ideals.values():
        bodies.append(newton_polyhedron(parsed.ideal))
        if parsed.classified.supports_sp():
            bodies.append(symbolic_polyhedron(parsed.classified))
    rng = random.Random(181)
    bodies += [from_halfspaces(random_up_set_system(rng, n), n)
               for n in (1, 2, 3, 4, 5) for _ in range(6)]
    bodies += fractional_up_sets(191, 30)
    factors = (1, 2, 3, Fraction(3, 2), Fraction(5, 3))
    seen = {"fractional": 0, "other order": 0, "reordered": 0}
    for body in bodies:
        for t in factors + (Fraction(rng.randint(1, 7), rng.randint(1, 4)),):
            dilate = scale(body, t)
            if math.prod(b + 1 for b in dilate_box(dilate, 1)) > 40000:
                continue
            assert minimal_lattice_points(body, t) == \
                minimal_lattice_points(dilate), (body, t)
            seen["fractional"] += any(c.denominator > 1
                                      for v in body.vertices for c in v)
            seen["other order"] += search_order(body) != list(
                range(body.nvars))
            dilated = [HalfSpace.from_rational(h.normal, h.offset * t)
                       for h in body.facets]
            seen["reordered"] += dilated != list(dilate.facets)
    assert min(seen.values()) > 10, seen
    # the fixtures' boxes stay under the cap at the fixed factors, so these
    # two were checked above: weighted's SP has fractional vertices, and
    # c5cone's SP is searched in a non-identity order
    weighted = symbolic_polyhedron(ideals["weighted"].classified)
    assert any(c.denominator > 1 for v in weighted.vertices for c in v)
    c5cone = symbolic_polyhedron(ideals["c5cone"].classified)
    assert search_order(c5cone) != list(range(c5cone.nvars))
    assert minimal_lattice_points(weighted) == \
        minimal_lattice_points(weighted, 1)
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(NonPositiveScale):
            minimal_lattice_points(weighted, bad)
    with pytest.raises(InexactNumber):
        minimal_lattice_points(weighted, 1.5)


def search_order(body):
    """The order in which minimal_lattice_points visits the coordinates:
    decreasing number of positive-offset facets fed, ties first by the
    larger number of those facets that the coordinates already placed
    feed too, then by index."""
    rows = [h.normal for h in body.facets if h.offset > 0]
    fed = [{i for i, a in enumerate(rows) if a[j] > 0}
           for j in range(body.nvars)]
    order, placed = [], set()
    while len(order) < body.nvars:
        j = min((j for j in range(body.nvars) if j not in order),
                key=lambda j: (-len(fed[j]), -len(fed[j] & placed), j))
        order.append(j)
        placed |= fed[j]
    return order


def field_extreme(body):
    """The largest value a packed row field of minimal_lattice_points must
    hold, the largest full-box dot product; and whether a witness limit
    b + a of some row exceeds the field's value bits."""
    box = dilate_box(body, 1)
    rows = [h for h in body.facets if h.offset > 0]
    top = max(dot(h.normal, box) for h in rows)
    return top, any(h.offset + a > 1 << top.bit_length()
                    for h in rows for a in h.normal)


def check_against_box_scan(body):
    box = dilate_box(body, 1)
    expected = brute_force_minimal_points(body.facets, box)
    assert minimal_lattice_points(body) == expected
    return expected


def test_minimal_lattice_points_in_identity_and_other_orders():
    # the search records its points in lexicographic order of the visited
    # coordinates; in the identity order they are returned as recorded,
    # in another they are mapped back and sorted again
    rng = random.Random(149)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 15:
        n = rng.randint(2, 4)
        body = from_halfspaces(random_up_set_system(rng, n), n)
        box = dilate_box(body, 1)
        if math.prod(b + 1 for b in box) > 2000:
            continue
        identity = search_order(body) == list(range(n))
        if seen[identity] == 15:
            continue
        points = check_against_box_scan(body)
        assert points == sorted(points)
        seen[identity] += 1


def test_minimal_lattice_points_at_the_field_width_boundaries():
    # the search packs the row dot products into fields as wide as the bit
    # length of the largest full-box dot product: 2^t - 1 fills t value
    # bits, and 2^t and 2^t + 1 need one more, which a field one bit short
    # would take from its guard.  A witness limit above the value bits
    # subtracts without a borrow only because a coordinate is tested while
    # it is set
    rng = random.Random(83)
    targets = {(1 << t) + d for t in range(2, 7) for d in (-1, 0, 1)}
    checked = {}
    for _ in range(300):
        n = rng.randint(2, 3)
        base = from_halfspaces(random_up_set_system(rng, n), n)
        for k in range(1, 10):
            body = scale(base, k)
            key = field_extreme(body)
            box = dilate_box(body, 1)
            if (key[0] not in targets or checked.get(key, 0) == 3
                    or math.prod(b + 1 for b in box) > 1000):
                continue
            check_against_box_scan(body)
            checked[key] = checked.get(key, 0) + 1
    assert {top for top, _ in checked} == targets
    assert sum(n for (_, above), n in checked.items() if above) >= 3


def test_minimal_lattice_points_in_one_and_two_variables():
    # with one variable the root is the last coordinate and takes its
    # closed form; with two the root walks the staircase
    rng = random.Random(89)
    for n in (1, 2):
        for _ in range(40):
            body = from_halfspaces(random_up_set_system(rng, n), n)
            for k in (1, 2, Fraction(7, 3), 5):
                check_against_box_scan(scale(body, k))
    assert minimal_lattice_points(
        from_halfspaces([HalfSpace((3,), 7)], 1)) == [(3,)]
    body = from_halfspaces(orthant(2) + [HalfSpace((1, 2), 5)], 2)
    assert minimal_lattice_points(body) == [(0, 3), (1, 2), (3, 1), (5, 0)]


def test_minimal_lattice_points_when_the_staircase_stops():
    # the staircase stops when the last coordinate reaches 0, and when a
    # row that its value just meets gets nothing from the coordinate
    # before it; both happen on these bodies, in the search's own order
    rng = random.Random(97)
    zero = unfed = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        body = from_halfspaces(random_up_set_system(rng, n), n)
        box = dilate_box(body, 1)
        if math.prod(b + 1 for b in box) > 2000:
            continue
        *_, u, last = search_order(body)
        points = check_against_box_scan(body)
        zero += any(p[last] == 0 and p[u] > 0 for p in points)
        unfed += any(h.offset > 0 and h.normal[last] and not h.normal[u]
                     for h in body.facets)
    assert zero >= 20 and unfed >= 20
    # x3 is visited last and x2 before it; 2*x1 + x3 >= 3 does not get x2
    body = from_halfspaces(orthant(3) + [
        HalfSpace((1, 1, 1), 4), HalfSpace((1, 1, 0), 2),
        HalfSpace((2, 0, 1), 3)], 3)
    assert search_order(body)[1:] == [1, 2]
    check_against_box_scan(body)


def test_minimal_lattice_points_of_block_diagonal_bodies():
    # three blocks of 3 to 5 variables each, up to 15 in all, on disjoint
    # variables in a random layout: the body is the product of the block
    # bodies, so its minimal points are the products of theirs.  Blocks
    # share no row, so the search order breaks its ties by the rows placed
    # coordinates feed, and the witness tables are keyed by subsets of
    # many variables
    rng = random.Random(173)
    shapes = [[rng.randint(3, 5) for _ in range(3)] for _ in range(9)]
    for shape in shapes + [[5, 5, 5]]:
        blocks = []
        for m in shape:
            block = from_halfspaces(random_up_set_system(rng, m), m)
            while math.prod(b + 1 for b in dilate_box(block, 1)) > 1000:
                block = from_halfspaces(random_up_set_system(rng, m), m)
            blocks.append((block, check_against_box_scan(block)))
        n = sum(block.nvars for block, _ in blocks)
        layout = rng.sample(range(n), n)
        rows, places = [], []
        for block, _ in blocks:
            place = [layout.pop() for _ in range(block.nvars)]
            places.append(place)
            for h in block.facets:
                normal = [0] * n
                for j, a in zip(place, h.normal):
                    normal[j] = a
                rows.append(HalfSpace(tuple(normal), h.offset))
        expected = []
        for parts in itertools.product(*(points for _, points in blocks)):
            point = [0] * n
            for place, part in zip(places, parts):
                for j, x in zip(place, part):
                    point[j] = x
            expected.append(tuple(point))
        body = from_halfspaces(rows, n)
        assert minimal_lattice_points(body) == sorted(expected)


@pytest.mark.parametrize("name", ["star43", "c5"])
def test_symbolic_powers_match_the_intersection_oracle(ideals, name):
    # I^(k) read off the lattice points of k*SP(I), against the literal
    # intersection of the primary components' powers
    ci = ideals[name].classified
    for k in range(1, 13):
        assert symbolic_power(ci, k) == \
            symbolic_power_by_intersection(ci.decomposition, k)


def test_minimal_lattice_points_of_a_simplex_body():
    body = hull_up_set([(Fraction(3), Fraction(0)),
                        (Fraction(0), Fraction(3))], 2)
    assert minimal_lattice_points(body) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_vertex_budget(monkeypatch):
    monkeypatch.setenv("NOK_MAX_VERTICES", "2")
    rows = orthant(3) + [HalfSpace((1, 1, 1), 3), HalfSpace((2, 1, 3), 4)]
    with pytest.raises(VertexBudgetExceeded):
        from_halfspaces(rows, 3)


@pytest.mark.parametrize("extra", [[], [(0, 0, 0, 0)]])
def test_vertex_budget_charges_the_start_cone(monkeypatch, extra):
    # the 4 start rays exceed the budget.  Every insertion of the bare
    # system leaves at most 2 rays, so only a check of the start set
    # refuses it; the zero row is inserted first and drops no ray
    monkeypatch.setenv("NOK_MAX_VERTICES", "2")
    rows = [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, -2, -1), (0, 0, 1, 0),
            (1, 0, 0, 0), (1, 1, -3, 4), (0, 0, -3, -1)] + extra
    with pytest.raises(VertexBudgetExceeded, match="ray count 4 exceeds"):
        cone_extreme_rays(rows, 4)


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_bad_vertex_budget_is_refused(monkeypatch, value):
    monkeypatch.setenv("NOK_MAX_VERTICES", value)
    with pytest.raises(InvalidVertexBudget, match="NOK_MAX_VERTICES"):
        from_halfspaces(orthant(2) + [HalfSpace((1, 1), 2)], 2)


def test_unset_vertex_budget_is_the_default(monkeypatch):
    monkeypatch.delenv("NOK_MAX_VERTICES", raising=False)
    assert vertex_budget() == DEFAULT_VERTEX_BUDGET


def test_contains_boundary_points():
    body = from_halfspaces(orthant(2) + [HalfSpace((1, 1), 2)], 2)
    assert contains(body, (Fraction(2), Fraction(0)))
    assert contains(body, (Fraction(1), Fraction(1)))
    assert not contains(body, (Fraction(1), Fraction(1, 2)))


def float_sites():
    """(name, call) for each place a caller's number becomes a Fraction."""
    ideal = minimalize([(2, 0), (1, 1), (0, 3)])
    body = newton_polyhedron(ideal)
    return [
        ("scale", lambda x: scale(body, x)),
        ("real_power", lambda x: real_power(ideal, x)),
        ("ceiling alpha", lambda x: CeilingPowerFamily(ideal, x, 0)),
        ("ceiling beta", lambda x: CeilingPowerFamily(ideal, 1, x)),
        ("hull_up_set", lambda x: hull_up_set([(x, 2)], 2)),
        ("contains", lambda x: contains(body, (x, 3))),
        ("membership_certificate",
         lambda x: membership_certificate(body, (x, 3))),
        ("primitive_vector", lambda x: primitive_vector((x, 1))),
        ("HalfSpace.from_rational",
         lambda x: HalfSpace.from_rational((1, 1), x)),
        ("from_halfspaces",
         lambda x: from_halfspaces(orthant(2) + [((1, 1), x)], 2)),
    ]


@pytest.mark.parametrize("name", [name for name, _ in float_sites()])
def test_floats_are_refused_where_exact_numbers_are_kept(name):
    call = dict(float_sites())[name]
    with pytest.raises(InexactNumber):
        call(0.5)
    # an exactly representable float is refused too; the exact forms of
    # the same number agree with each other
    assert call(Fraction(1, 2)) == call("1/2"), name
    assert call(1) == call(Fraction(1)) == call("1"), name


@pytest.mark.parametrize("text", ["abc", "1/0"])
@pytest.mark.parametrize("name", [name for name, _ in float_sites()])
def test_malformed_strings_are_parse_errors(name, text):
    call = dict(float_sites())[name]
    with pytest.raises(ParseError):
        call(text)


def test_float_ceiling_family_fails_at_once():
    # 0.1 as a float has denominator 2**55 and stands for no exact
    # rational the user wrote; the family refuses it before any arithmetic
    base = minimalize([(1, 0), (0, 1)])
    start = time.perf_counter()
    with pytest.raises(InexactNumber):
        newton_okounkov_body(CeilingPowerFamily(base, 0.1, -0.05))
    assert time.perf_counter() - start < 1
    assert scale(newton_polyhedron(base), "0.1") == scale(
        newton_polyhedron(base), Fraction(1, 10))
