"""Newton and symbolic polyhedra of monomial ideals, and the membership,
power, and closure operations they control.

The symbolic polyhedron is only defined here for ideals where symbolic
powers are cut out by linear constraints: squarefree ideals, explicit
intersections of powers of monomial primes ("linear-power type"), and
ideals primary to the maximal ideal (where it coincides with the Newton
polyhedron).  Everything else is classified as unsupported and the
SP-dependent operations refuse it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from operator import mul
from typing import Sequence

from . import polyhedron as poly
from .errors import (DimensionMismatch, NokError, NonPositiveExponent,
                     UnsupportedIdealClass)
from .ideal import (MonomialIdeal, PrimeDecomposition, _check_power,
                    _integral, expand_decomposition, minimal_primes)
from .linalg import _gauss_jordan
from .polyhedron import HalfSpace, Point, RationalPolyhedron


class IdealKind(enum.Enum):
    SQUAREFREE = "squarefree"
    LINEAR_POWER = "linear-power"
    M_PRIMARY = "m-primary"
    GENERAL_UNSUPPORTED = "general-unsupported"


@dataclass(frozen=True)
class ClassifiedIdeal:
    """A monomial ideal together with the class that fixes how its
    symbolic polyhedron is built (decomposition present when known)."""

    ideal: MonomialIdeal
    kind: IdealKind
    decomposition: PrimeDecomposition | None = None

    @cached_property
    def _hash(self) -> int:
        # derived once per object, as MonomialIdeal._hash is.  A pickle
        # carries it, so it reads only parts built of ints: the kind is
        # left out, as an enum hashes its name's randomized string hash,
        # and a missing decomposition enters as (), as before Python 3.12
        # hash(None) is an address
        return hash((self.ideal, self.decomposition or ()))

    def __hash__(self) -> int:
        return self._hash

    def supports_sp(self) -> bool:
        return self.kind is not IdealKind.GENERAL_UNSUPPORTED


def _has_all_pure_powers(ideal: MonomialIdeal) -> bool:
    # m-primary: every variable has a pure-power generator
    for j in range(ideal.nvars):
        if not any(all(e == 0 for i, e in enumerate(g) if i != j) and g[j] > 0
                   for g in ideal.generators):
            return False
    return True


def classify(ideal: MonomialIdeal) -> ClassifiedIdeal:
    """Classify a bare ideal; an explicit decomposition is classified by
    classify_decomposition instead."""
    if ideal.is_unit():
        # the unit ideal degenerates every class; SP = NP = the orthant
        return ClassifiedIdeal(ideal, IdealKind.M_PRIMARY)
    if ideal.is_squarefree():
        return ClassifiedIdeal(ideal, IdealKind.SQUAREFREE,
                               minimal_primes(ideal))
    if _has_all_pure_powers(ideal):
        return ClassifiedIdeal(ideal, IdealKind.M_PRIMARY)
    return ClassifiedIdeal(ideal, IdealKind.GENERAL_UNSUPPORTED)


def classify_decomposition(decomp: PrimeDecomposition) -> ClassifiedIdeal:
    """An explicit intersection of prime powers is linear-power type by
    construction; the ideal is expanded from the components."""
    return ClassifiedIdeal(expand_decomposition(decomp),
                           IdealKind.LINEAR_POWER, decomp)


# polyhedra kept per cache, least recently used first out; well above the
# handful of ideals one process usually works with
CACHE_SIZE = 256


@lru_cache(maxsize=CACHE_SIZE)
def newton_polyhedron(ideal: MonomialIdeal) -> RationalPolyhedron:
    """conv(generators) + orthant."""
    return poly.hull_up_set(ideal.generators, ideal.nvars)


@lru_cache(maxsize=CACHE_SIZE)
def symbolic_polyhedron(classified: ClassifiedIdeal) -> RationalPolyhedron:
    """The polyhedron whose k-dilates' lattice points are the exponents of
    the k-th symbolic power.

    For squarefree and linear-power ideals it is cut out by one half-space
    per component, sum of the prime's coordinates >= multiplicity, inside
    the orthant.  For m-primary ideals it equals the Newton polyhedron.
    """
    if classified.kind is IdealKind.M_PRIMARY:
        return newton_polyhedron(classified.ideal)
    if not classified.supports_sp():
        raise UnsupportedIdealClass(
            "no symbolic polyhedron for this ideal class; supply a "
            "linear-power decomposition or use a squarefree/m-primary ideal")
    n = classified.ideal.nvars
    rows = [HalfSpace(comp.indicator(n), comp.multiplicity)
            for comp in classified.decomposition.components]
    rows += [HalfSpace(tuple(int(i == j) for j in range(n)), 0)
             for i in range(n)]
    return poly.from_halfspaces(rows, n)


def _member(body: RationalPolyhedron, a: Sequence[int], k: int) -> bool:
    """Is a/k in the body?  a is an int exponent vector, so each facet
    test <normal, a/k> >= offset is <normal, a> >= offset * k: one integer
    pass over the facets, with no denominators to clear.

    Warm, `member_symbolic` and `member_integral_closure` add one cache
    read to this pass: `newton_polyhedron` and `symbolic_polyhedron` each
    keep CACHE_SIZE bodies keyed by the ideal object, whose hash is
    computed once per object.  Keep the parsed object and pass it again."""
    _check_power(k)
    a = tuple(a)
    if not _integral(a):
        raise NonPositiveExponent(f"bad exponent vector {a}")
    if len(a) != body.nvars:
        raise DimensionMismatch(f"point {a} has wrong length")
    return all(sum(map(mul, h.normal, a)) >= h.offset * k
               for h in body.facets)


def member_integral_closure(ideal: MonomialIdeal, a: Sequence[int], k: int) -> bool:
    """Is x^a in the integral closure of I^k?  True iff a/k lies in NP(I)."""
    return _member(newton_polyhedron(ideal), a, k)


def member_symbolic(classified: ClassifiedIdeal, a: Sequence[int], k: int) -> bool:
    """Is x^a in the k-th symbolic power?  True iff a/k lies in SP(I)."""
    return _member(symbolic_polyhedron(classified), a, k)


def symbolic_power(classified: ClassifiedIdeal, k: int) -> MonomialIdeal:
    """Minimal generators of I^(k): minimal lattice points of k*SP(I)."""
    _check_power(k)
    points = poly.minimal_lattice_points(symbolic_polyhedron(classified), k)
    # minimal_lattice_points returns a lex-sorted antichain (its docstring)
    return MonomialIdeal._proven(classified.ideal.nvars, tuple(points))


def real_power(ideal: MonomialIdeal, r) -> MonomialIdeal:
    """Ideal generated by the lattice points of r*NP(I), r a positive
    rational; r = 1 gives the integral closure."""
    ratio = poly.as_fraction(r)
    if ratio <= 0:
        raise NonPositiveExponent(f"real power needs r > 0, got {r}")
    points = poly.minimal_lattice_points(newton_polyhedron(ideal), ratio)
    # minimal_lattice_points returns a lex-sorted antichain (its docstring)
    return MonomialIdeal._proven(ideal.nvars, tuple(points))


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    return real_power(ideal, 1)


def np_equals_sp(classified: ClassifiedIdeal) -> bool:
    """For linear-power type: equivalent to closure(I^k) = I^(k) for all k."""
    return poly.equal(newton_polyhedron(classified.ideal),
                      symbolic_polyhedron(classified))


@dataclass(frozen=True)
class MembershipCertificate:
    """Auditable witness for a polyhedron membership answer.

    Inside: point = sum(weight_i * vertex_i) + remainder with positive
    weights summing to 1 and a nonnegative remainder.  The point minus the
    remainder lies in the relative interior of a compact face, reached by
    walking down each coordinate that is free on the current face, in
    order (see polyhedron._decompose).  The vertices are the first subset
    of that face's vertices, by size and then in vertex order, whose hull
    holds that point, so they are affinely independent; a face that is a
    simplex gives all its vertices (see _convex_combination).  Outside:
    the first facet the point violates.
    """

    inside: bool
    vertices: tuple[Point, ...] = ()
    weights: tuple[Fraction, ...] = ()
    remainder: Point | None = None
    violated: HalfSpace | None = None


def membership_certificate(body: RationalPolyhedron,
                           point: Sequence) -> MembershipCertificate:
    """Prove or refute membership of a point in an up-set polyhedron.

    Raises DimensionMismatch for a point of the wrong length."""
    den, num = poly._cleared_point(body, point)
    slacks = poly._slacks(body.facets, den, num)
    for hs, s in zip(body.facets, slacks):
        if s < 0:
            return MembershipCertificate(inside=False, violated=hs)
    scale, cur, tight = poly._decompose(body, den, num, slacks)
    face = tuple(v for v, m in zip(body.vertices, body._vertex_masks)
                 if m & tight == tight)
    chosen, weights = _convex_combination(face, scale, cur)
    lift = scale // den
    remainder = tuple(Fraction(x * lift - c, scale) for x, c in zip(num, cur))
    return MembershipCertificate(True, chosen, weights, remainder)


def _convex_combination(face: tuple[Point, ...], scale: int,
                        cur: list[int]):
    """Write the anchor u = cur/scale as a convex combination of vertices
    of the compact face whose relative interior holds it (see
    polyhedron._decompose); `face` holds that face's vertices, in vertex
    order.

    Returns the first subset of least size of `face`, in
    itertools.combinations order, whose hull holds u, with its weights.
    Such a subset is affinely independent and its weights are positive:
    were it dependent, or a weight zero, a smaller subset would hold u.
    So an affinely dependent subset is skipped without a look at its
    solutions: if one were nonnegative, its support would be a smaller
    subset holding u, which the search has tried before.

    Two shortcuts rest on u lying in the relative interior of the face.
    A one-vertex face is that vertex, so u is it, with weight 1, and no
    elimination runs.  If the face's vertices are affinely independent,
    the face is a simplex, and the hull of a proper subset of them is a
    proper face of it, which misses the relative interior; so the whole
    face is the first subset holding u, and one elimination of the whole
    table gives its weights, its pivots proving the independence.  Two
    distinct points are independent, and three vertices of a polytope are
    never collinear (the middle one would be no vertex), so a face with 2
    or 3 vertices is always a simplex; one with more vertices than
    nvars + 1 never is.  Otherwise the search runs from size 2, as a
    relative-interior point of a face with two or more vertices is no
    vertex.  It stays exponential in the face's vertex count at worst.

    Each subset is solved by fraction-free elimination of a slice of one
    integer table, built over the lcm c_F of the face's own denominators:
    a row per coordinate i, holding scale * c_F * v[i] for the face's
    vertices v and c_F * cur[i] last, which is scale * c_F times that
    coordinate of the system; and the row of ones.  Every coordinate row
    is a positive multiple of the system's row, whichever common multiple
    of the denominators is taken, so the pivots, the chosen subset and
    the weights are those of the table over the body's lcm c.
    """
    count = len(face)
    if count == 1:
        return face, (Fraction(1),)
    c = math.lcm(*(x.denominator for v in face for x in v))
    table = [[scale * x.numerator * (c // x.denominator) for x in row]
             + [c * u] for row, u in zip(zip(*face), cur)]
    table.append([1] * (count + 1))
    if count <= len(cur) + 1:
        weights = _weights(table, range(count))
        if weights is not None:
            return face, weights
    for size in range(2, count):
        for subset in combinations(range(count), size):
            weights = _weights(table, subset)
            if weights is not None:
                return tuple(face[k] for k in subset), weights
    raise NokError("internal error: point not in the hull of its face")


def _weights(table: list[list[int]], cols: Sequence[int]):
    """The weights of the table's last column over its columns `cols`, as
    Fractions; None when those columns are affinely dependent or a weight
    is negative."""
    size = len(cols)
    rows = [[row[k] for k in (*cols, -1)] for row in table]
    d, pivots = _gauss_jordan(rows, size + 1)
    # rows[k][size] / d is the k-th weight
    if pivots == list(range(size)) and all(
            row[size] * d >= 0 for row in rows[:size]):
        return tuple(Fraction(row[size], d) for row in rows[:size])
    return None
