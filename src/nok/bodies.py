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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import polyhedron as poly
from .errors import NokError, NonPositiveExponent, UnsupportedIdealClass
from .ideal import (MonomialIdeal, PrimeDecomposition, expand_decomposition,
                    minimal_primes)
from .linalg import solve_linear
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


def _check_power(k: int):
    if not isinstance(k, int) or k < 1:
        raise NonPositiveExponent(f"power index must be a positive integer, got {k}")


def member_integral_closure(ideal: MonomialIdeal, a: Sequence[int], k: int) -> bool:
    """Is x^a in the integral closure of I^k?  True iff a/k lies in NP(I)."""
    _check_power(k)
    point = [Fraction(x, k) for x in a]
    return poly.contains(newton_polyhedron(ideal), point)


def member_symbolic(classified: ClassifiedIdeal, a: Sequence[int], k: int) -> bool:
    """Is x^a in the k-th symbolic power?  True iff a/k lies in SP(I)."""
    _check_power(k)
    point = [Fraction(x, k) for x in a]
    return poly.contains(symbolic_polyhedron(classified), point)


def symbolic_power(classified: ClassifiedIdeal, k: int) -> MonomialIdeal:
    """Minimal generators of I^(k): minimal lattice points of k*SP(I)."""
    _check_power(k)
    sp = symbolic_polyhedron(classified)
    points = poly.minimal_lattice_points(poly.scale(sp, k))
    return MonomialIdeal(classified.ideal.nvars, tuple(points))


def real_power(ideal: MonomialIdeal, r) -> MonomialIdeal:
    """Ideal generated by the lattice points of r*NP(I), r a positive
    rational; r = 1 gives the integral closure."""
    ratio = Fraction(r)
    if ratio <= 0:
        raise NonPositiveExponent(f"real power needs r > 0, got {r}")
    body = poly.scale(newton_polyhedron(ideal), ratio)
    points = poly.minimal_lattice_points(body)
    return MonomialIdeal(ideal.nvars, tuple(points))


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    return real_power(ideal, 1)


def np_equals_sp(classified: ClassifiedIdeal) -> bool:
    """For linear-power type: equivalent to closure(I^k) = I^(k) for all k."""
    return poly.equal(newton_polyhedron(classified.ideal),
                      symbolic_polyhedron(classified))


@dataclass(frozen=True)
class MembershipCertificate:
    """Auditable witness for a polyhedron membership answer.

    Inside: point = sum(weight_i * vertex_i) + remainder with nonnegative
    weights summing to 1 and a nonnegative remainder.  Outside: a facet the
    point violates.
    """

    inside: bool
    vertices: tuple[Point, ...] = ()
    weights: tuple[Fraction, ...] = ()
    remainder: Point | None = None
    violated: HalfSpace | None = None


def membership_certificate(body: RationalPolyhedron,
                           point: Sequence) -> MembershipCertificate:
    """Prove or refute membership of a point in an up-set polyhedron."""
    x = tuple(Fraction(c) for c in point)
    for hs in body.facets:
        if hs.slack(x) < 0:
            return MembershipCertificate(inside=False, violated=hs)
    anchor, remainder = poly.decompose_point(body, x)
    tight = [h for h in body.facets if h.slack(anchor) == 0]
    candidates = [v for v in body.vertices
                  if all(h.slack(v) == 0 for h in tight)]
    vertices, weights = _convex_combination(anchor, candidates)
    return MembershipCertificate(True, vertices, weights, remainder)


def _convex_combination(target: Point, candidates: list[Point]):
    """Write target as a convex combination of some of the candidate
    points (they span a face containing it, so a small subset works)."""
    from itertools import combinations
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            rows = [[v[i] for v in subset] for i in range(len(target))]
            rows.append([Fraction(1)] * size)
            rhs = list(target) + [Fraction(1)]
            sol = solve_linear(rows, rhs)
            if sol is not None and all(w >= 0 for w in sol):
                return tuple(subset), tuple(sol)
    raise NokError("internal error: point not in the hull of its face")
