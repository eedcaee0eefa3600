"""Exact rational polyhedra whose recession cone is the nonnegative orthant.

Every polyhedron handled here is an "up-set": a full-dimensional subset of
the orthant closed under adding nonnegative vectors.  Such a set has a
unique irredundant half-space description with nonnegative primitive
integer normals, a finite vertex set, and recession rays exactly the
standard basis vectors.  The facets and the vertices are stored,
canonically ordered, so that structural equality is semantic equality;
the rays and the dimension follow from the shape.

Every polyhedron is built by one of two constructors, each making one
double-description pass over a pointed cone: `from_halfspaces` on the
homogenized rows, for the vertices, and `hull_up_set` on the dual cone of
the points, for the facets; `scale` is the hull of the dilated vertices.
The other side is read off incidence masks: a row (a point) is kept
unless another is tight at (lies on) strictly more extreme rays
(facets).  Those masks are the ones the double description carries
through its insertions, where each ray is classified against each row
exactly once; no product is taken again (`cone_extreme_rays` proves why
none is needed).  Each polyhedron carries its vertex x facet incidence
from them; nothing computes it again.

Construction is integer end to end.  `hull_up_set` keeps int
coordinates as ints through its dedupe, its sort and its rows;
`from_halfspaces` makes each row primitive once and sorts its vertices
by an exact integer key; the double description, its start elimination
included, runs on int rows and rays.  Fractions appear only in the
stored vertices.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, reduce
from fractions import Fraction
from operator import and_, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (DimensionMismatch, EmptyInput, EmptyList, InexactNumber,
                     InfeasibleSystem, InvalidVertexBudget,
                     MissingOrthantConstraints, NoVertices,
                     NonPositiveScale, ParseError, VertexBudgetExceeded)
from .linalg import _gauss_jordan, rank

Point = tuple[Fraction, ...]

DEFAULT_VERTEX_BUDGET = 10_000


def vertex_budget() -> int:
    """The double-description ray budget: NOK_MAX_VERTICES if set, else
    DEFAULT_VERTEX_BUDGET.  Raises InvalidVertexBudget unless the variable
    is unset or a positive integer."""
    raw = os.environ.get("NOK_MAX_VERTICES")
    if raw is None:
        return DEFAULT_VERTEX_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidVertexBudget(
            f"NOK_MAX_VERTICES must be a positive integer, got {raw!r}")
    return value


def as_fraction(x) -> Fraction:
    """Fraction(x), refusing a float: it stands for its binary expansion.
    Raises ParseError for a string that Fraction cannot read, and for a
    bool, which is no more a rational than it is a count."""
    if isinstance(x, float):
        raise InexactNumber(f"{x!r} is a float, not an exact rational")
    if isinstance(x, bool):
        raise ParseError(f"expected a rational, got {x!r}")
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"expected a rational, got {x!r}") from None
    return Fraction(x)


def primitive_vector(vec: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to coprime integers."""
    ints = list(vec)
    # integer vectors (the rows hull_up_set builds from integer points,
    # HalfSpaces given with integer entries) skip the Fractions
    if not all(type(x) is int for x in ints):
        ints = _clear_denominators(ints)[1]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {x : <normal, x> >= offset} in primitive integer form."""

    normal: tuple[int, ...]
    offset: int

    @classmethod
    def from_rational(cls, normal: Sequence, offset) -> "HalfSpace":
        prim = primitive_vector(list(normal) + [offset])
        return cls(prim[:-1], prim[-1])


class VertexConstants(NamedTuple):
    """The paper's vertex constants of a polyhedron: `denoms[i]` is the
    lcm d_i of vertex i's denominators, in canonical vertex order, `c`
    the lcm of the d_i, and `D` their max."""

    denoms: tuple[int, ...]
    c: int
    D: int


@dataclass(frozen=True)
class RationalPolyhedron:
    """Canonical two-sided description of an up-set polyhedron.

    `_vertex_masks` is the incidence from the constructor's double
    description: bit i of a vertex's mask is set when the vertex lies on
    facet i.  It is determined by the other fields, so equality, hashing
    and repr leave it out.
    """

    nvars: int
    facets: tuple[HalfSpace, ...]
    vertices: tuple[Point, ...]
    _vertex_masks: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        # the recession cone is the orthant, so the body is full-dimensional
        return self.nvars

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        # the recession rays: the orthant's unit vectors, sorted
        n = self.nvars
        return tuple(tuple(int(i == j) for i in range(n))
                     for j in reversed(range(n)))

    @cached_property
    def _mdc(self) -> int:
        # derived once per object: cached_property writes the instance
        # __dict__, which a frozen dataclass leaves open, and equality and
        # hashing see only the compared fields
        if not self.vertices:
            raise NoVertices("polyhedron has no vertices")
        n = self.nvars
        covers = self._cover_masks
        # a compact facet: one positive in every coordinate (see mdc)
        if reduce(and_, covers):
            return n - 1
        # the search over covering facet sets (see mdc): a state is (the
        # coordinates its facets cover, the vertices on all of them)
        full = (1 << n) - 1
        supports = _transpose(covers, len(self.facets))
        on, vertex_masks = self._facet_masks, self._vertex_masks
        start = (0, (1 << len(self.vertices)) - 1)
        seen, stack = {start}, [start]
        # {vertex mask of a compact face found: its tight facets}, kept
        # inclusion-maximal
        found = {}
        while stack:
            covered, shared = stack.pop()
            if any(shared & m == shared for m in found):
                continue
            if covered == full:
                tight, rest = -1, shared
                while rest:
                    low = rest & -rest
                    tight &= vertex_masks[low.bit_length() - 1]
                    rest ^= low
                if tight.bit_count() == 2:
                    return n - 2
                found = {m: t for m, t in found.items() if m & shared != m}
                found[shared] = tight
                continue
            # branch on the lowest uncovered coordinate
            options = covers[(~covered & (covered + 1)).bit_length() - 1]
            while options:
                low = options & -options
                i = low.bit_length() - 1
                options ^= low
                state = (covered | supports[i], shared & on[i])
                if state[1] and state not in seen:
                    seen.add(state)
                    stack.append(state)
        return n - min(rank([h.normal for i, h in enumerate(self.facets)
                             if tight >> i & 1]) for tight in found.values())

    @cached_property
    def _vertex_constants(self) -> VertexConstants:
        # derived once per object, as _mdc is
        denoms = tuple(math.lcm(*(x.denominator for x in v))
                       for v in self.vertices)
        return VertexConstants(denoms, math.lcm(*denoms), max(denoms))

    @cached_property
    def _facet_masks(self) -> tuple[int, ...]:
        # per facet i, the vertices on it: _vertex_masks read the other way
        return tuple(_transpose(self._vertex_masks, len(self.facets)))

    @cached_property
    def _cover_masks(self) -> tuple[int, ...]:
        # per coordinate j, the facets whose normal is positive at j
        return tuple(sum(1 << i for i, h in enumerate(self.facets)
                         if h.normal[j] > 0)
                     for j in range(self.nvars))


def _dot(a: Sequence[int], b: Sequence) -> int:
    return sum(map(mul, a, b))


def _clear_denominators(point: Sequence) -> tuple[int, list[int]]:
    """(den, num): den the lcm of the denominators of the point's
    coordinates, num = den*point in integers.  As den > 0, a facet's slack
    <normal, x> - offset has the sign of <normal, num> - offset*den, so
    every facet test on the point runs in integers."""
    xs = [x if type(x) is int or type(x) is Fraction else as_fraction(x)
          for x in point]
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _cleared_point(poly: RationalPolyhedron,
                   point: Sequence) -> tuple[int, list[int]]:
    """_clear_denominators of a point of the polyhedron's space; raises
    DimensionMismatch for a point of the wrong length."""
    if len(point) != poly.nvars:
        raise DimensionMismatch(f"point {tuple(point)} has wrong length")
    return _clear_denominators(point)


def _slacks(facets: Sequence[HalfSpace], den: int,
            num: Sequence[int]) -> list[int]:
    """den times each facet's slack at the point num/den."""
    return [sum(map(mul, h.normal, num)) - h.offset * den for h in facets]


def cone_extreme_rays(rows: Sequence[tuple[int, ...]],
                      dim: int) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {x : <r, x> >= 0 for each row r},
    sorted, each as a pair (ray, mask): bit i of mask is set when the ray
    is tight at rows[i].

    Double description: start from the simplicial subcone cut out by the
    leftmost `dim` independent rows, sparsest first, then insert the
    remaining rows one at a time.  One fraction-free elimination of
    [rows^T | I] picks the start rows (its pivot columns) and their rays
    (its right block, +-det times their inverse); the sparse rows come
    first, so most of its pivots are units and leave the other rows as
    they are.
    Each ray carries the bitmask of the processed rows tight at it, and
    rows[i] owns bit i from the start.  One pass over the rays per
    inserted row sorts them by the sign of their product with it.  Two
    rays on opposite sides of the new row combine exactly when no third
    ray is tight wherever both are (the combinatorial adjacency test of
    Fukuda & Prodon, "Double description method revisited", 1996).
    Everything stays in integers: a new ray is the integer combination
    divided by its gcd.

    The returned masks are the carried ones, and no product is taken
    again: every kept ray is nonnegative on every row, and its mask is
    exactly the set of rows tight at it.  By induction over the inserted
    rows:
    - a start ray is tight at every basis row but one, and positive on
      that one, by the choice of its sign;
    - a ray is kept as it is when its product with the inserted row is
      zero (and gets that row's bit) or positive (and does not), and
      dropped when it is negative;
    - a new ray is ep*vm - em*vp with ep > 0 > em, a combination of a
      plus ray and a minus ray with positive weights ep and -em.  So its
      product with the inserted row is ep*em - em*ep = 0, and with an
      earlier row it is nonnegative, and zero exactly where both rays are
      tight: its mask is `common | bit`.
    No ray appears twice: each new ray lies inside its own 2-face of the
    cone before the insertion, and the kept rays are its extreme rays.
    A zero row, or a repeat of an earlier row, needs no case.  Its column
    is zero, or a copy of an earlier one, so it is never a start row; when
    inserted, no ray is negative on it, so it drops no ray, makes none,
    and only sets its bit where it is tight.  The popcount filter stays
    sound when such rows are counted: their bits only make masks larger,
    so it skips fewer pairs and never an adjacent one, and the
    combinatorial test, which holds for any list of rows, decides the
    rest.  So bit i of a returned mask is set exactly when the ray is
    tight at rows[i], and no ray is negative on any row.  The full
    products stay in the tests, as the oracle of these masks.
    Raises MissingOrthantConstraints when the rows do not have full rank
    (the cone would contain a line) and VertexBudgetExceeded when the ray
    count exceeds the vertex budget, at the start cone or after any
    inserted row.
    """
    budget = vertex_budget()
    rows = [tuple(r) for r in rows]
    width = len(rows)
    order = sorted(range(width),
                   key=lambda i: (len(rows[i]) - rows[i].count(0), rows[i]))
    table = [[rows[p][i] for p in order] + [int(i == k) for k in range(dim)]
             for i in range(dim)]
    det, chosen = _gauss_jordan(table, width)
    if len(chosen) < dim:
        raise MissingOrthantConstraints(
            "some coordinate direction is unconstrained; add the orthant "
            "facets x_i >= 0")
    starts = [order[c] for c in chosen]
    rest = [p for c, p in enumerate(order) if c not in chosen]

    # row j of the right block is det times column j of the inverse: tight
    # at every basis row but row j; dividing by the gcd signed like det
    # makes it primitive and points it into the cone
    full = sum(1 << p for p in starts)
    rays = []
    for row, p in zip(table, starts):
        vec = row[width:]
        g = math.gcd(*vec) if det > 0 else -math.gcd(*vec)
        rays.append((tuple(x // g for x in vec), full & ~(1 << p)))
    _charge(rays, budget)

    for p in rest:
        row = rows[p]
        bit = 1 << p
        masks = [tight for _, tight in rays]
        keep, plus, minus = [], [], []
        for ray in rays:
            vec, tight = ray
            e = sum(map(mul, row, vec))
            if e > 0:
                keep.append(ray)
                plus.append((e, vec, tight))
            elif e < 0:
                minus.append((e, vec, tight))
            else:
                keep.append((vec, tight | bit))
        for ep, vp, tp in plus:
            for em, vm, tm in minus:
                common = tp & tm
                # a 2-face lies on at least dim - 2 independent rows
                if common.bit_count() < dim - 2:
                    continue
                # extreme rays have distinct masks, so o names a third ray
                if any(o & common == common and o != tp and o != tm
                       for o in masks):
                    continue
                # tight where both rays are, and at the new row; a sum of
                # two rays of a pointed cone, so never zero
                combo = [ep * x - em * y for x, y in zip(vm, vp)]
                g = math.gcd(*combo)
                keep.append((tuple(x // g for x in combo), common | bit))
        rays = keep
        _charge(rays, budget)

    return sorted(rays)


def _charge(rays: Sequence, budget: int) -> None:
    """Raise VertexBudgetExceeded when there are more rays than the
    budget allows."""
    if len(rays) > budget:
        raise VertexBudgetExceeded(
            f"ray count {len(rays)} exceeds budget {budget}; "
            "raise NOK_MAX_VERTICES to continue")


def _transpose(masks: Sequence[int], count: int) -> list[int]:
    """Incidence masks read the other way: entry i has bit j set when bit i
    of masks[j] is set, for i < count."""
    return [sum(1 << j for j, mask in enumerate(masks) if mask >> i & 1)
            for i in range(count)]


def _maximal(masks: Sequence[int]) -> list[int]:
    """The indices of the masks that no other mask strictly contains."""
    return [i for i, m in enumerate(masks)
            if not any(o & m == m and o != m for o in masks)]


def from_halfspaces(halfspaces: Iterable, nvars: int) -> RationalPolyhedron:
    """Polyhedron cut out by half-spaces; must be a nonempty up-set.

    Raises MissingOrthantConstraints when the system allows a recession
    direction outside the orthant (negative normal entries, an
    unconstrained coordinate, or a computed vertex or ray with a negative
    coordinate), and InfeasibleSystem for a row 0 >= b with b > 0: with
    nonnegative normals, no other system is contradictory.
    """
    if nvars < 1:
        raise DimensionMismatch("need at least one variable")
    canonical = set()
    for item in halfspaces:
        if isinstance(item, HalfSpace):
            hs = item
        else:
            normal, offset = item
            hs = HalfSpace.from_rational(normal, offset)
        # checked as given, and kept in primitive form: a pair is made
        # primitive before its checks, a HalfSpace after them
        if len(hs.normal) != nvars:
            raise DimensionMismatch(
                f"half-space normal {hs.normal} has wrong length")
        if any(a < 0 for a in hs.normal):
            raise MissingOrthantConstraints(
                f"half-space {hs.normal} >= {hs.offset} has a negative "
                "normal entry; up-set facets have nonnegative normals")
        if not any(hs.normal):
            if hs.offset > 0:
                raise InfeasibleSystem(f"constraint 0 >= {hs.offset}")
            continue
        canonical.add(HalfSpace.from_rational(hs.normal, hs.offset)
                      if hs is item else hs)
    canonical = sorted(canonical, key=lambda h: (h.normal, h.offset))
    if not canonical:
        raise EmptyInput("no nontrivial half-spaces given")

    homog = [hs.normal + (-hs.offset,) for hs in canonical]
    rays = cone_extreme_rays(homog + [(0,) * nvars + (1,)], nvars + 1)
    # rays with t > 0 are the vertices, kept with their row masks, the
    # others recession rays; once no entry is negative, the recession cone
    # is exactly the orthant
    # never empty: the pointed cone holds (M, ..., M, 1), M >= max(0, offsets)
    pairs = [(r, m) for r, m in rays if r[nvars]]
    if any(x < 0 for r, _ in rays for x in r):
        raise MissingOrthantConstraints(
            "system has recession directions outside the orthant")
    # every facet is a row, and a row is one iff its face is maximal; a
    # row's face inside t = 0 also lies on a facet, so t >= 0 needs no mask
    kept = _maximal(_transpose([m for _, m in rays], len(homog)))
    # the vertices r/t sort as the integer vectors r*(lcm/t), lcm that of
    # their t, and become Fractions once; each vertex's row mask is
    # re-indexed to the kept facets
    lcm = math.lcm(*(r[nvars] for r, _ in pairs))
    pairs.sort(key=lambda pair: [x * (lcm // pair[0][nvars])
                                 for x in pair[0][:nvars]])
    verts = tuple(tuple(Fraction(x, r[nvars]) for x in r[:nvars])
                  for r, _ in pairs)
    masks = tuple(sum(1 << k for k, i in enumerate(kept) if m >> i & 1)
                  for _, m in pairs)
    return RationalPolyhedron(nvars, tuple(canonical[i] for i in kept),
                              verts, masks)


def hull_up_set(points: Iterable[Sequence], nvars: int) -> RationalPolyhedron:
    """conv(points) + nonnegative orthant, for nonnegative rational points."""
    # int coordinates stay ints through the dedupe, the sort and the rows;
    # only the kept vertices become Fractions
    pts = sorted({tuple(c if type(c) is int else as_fraction(c) for c in p)
                  for p in points})
    if not pts:
        raise EmptyInput("no points given")
    for p in pts:
        if len(p) != nvars:
            raise DimensionMismatch(
                f"point {tuple(map(Fraction, p))} has wrong length")
        if any(c < 0 for c in p):
            raise MissingOrthantConstraints(
                f"point {tuple(map(Fraction, p))} lies outside the "
                "nonnegative orthant")
    # the facets are the rays of the dual cone, bar the one for t >= 0
    rows = [primitive_vector(p + (1,)) for p in pts]
    rows += [tuple(int(i == j) for i in range(nvars + 1))
             for j in range(nvars)]
    # the engine's sorted rays are already in facet order, as no two share
    # a normal: (a, -b') with b' < b is (a, -b) plus a multiple of the
    # t-ray (0, ..., 0, 1), so not extreme
    pairs = [(HalfSpace(w[:nvars], -w[nvars]), m)
             for w, m in cone_extreme_rays(rows, nvars + 1) if any(w[:nvars])]
    # a point is a vertex unless another point lies on all of its tight
    # facets and on more (as does each vertex of the smallest face through
    # it); the kept points' masks are the vertex masks, in facet order
    masks = _transpose([m for _, m in pairs], len(pts))
    kept = _maximal(masks)
    return RationalPolyhedron(nvars, tuple(h for h, _ in pairs),
                              tuple(tuple(map(Fraction, pts[i]))
                                    for i in kept),
                              tuple(masks[i] for i in kept))


def contains(poly: RationalPolyhedron, point: Sequence) -> bool:
    den, num = _cleared_point(poly, point)
    return all(_dot(h.normal, num) >= h.offset * den for h in poly.facets)


def equal(lhs: RationalPolyhedron, rhs: RationalPolyhedron) -> bool:
    if lhs.nvars != rhs.nvars:
        raise DimensionMismatch("variable counts differ")
    # canonical irredundant facets are unique for full-dimensional sets
    return lhs.facets == rhs.facets


def _scale_factor(factor) -> Fraction:
    """The factor of a dilation, refused unless a positive rational."""
    t = as_fraction(factor)
    if t <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {factor}")
    return t


def scale(poly: RationalPolyhedron, factor) -> RationalPolyhedron:
    """Dilation t*P for a positive rational t: the hull of t times P's
    vertices, as t*P = conv(t*V) + orthant."""
    t = _scale_factor(factor)
    return hull_up_set([[c * t for c in v] for v in poly.vertices],
                       poly.nvars)


def intersect_polyhedra(polys: Sequence[RationalPolyhedron]) -> RationalPolyhedron:
    if not polys:
        raise EmptyList("intersection of an empty list")
    nvars = polys[0].nvars
    if any(p.nvars != nvars for p in polys):
        raise DimensionMismatch("variable counts differ")
    combined = [h for p in polys for h in p.facets]
    return from_halfspaces(combined, nvars)


def mdc(poly: RationalPolyhedron) -> int:
    """Maximum dimension of a compact face (every vertex is one, so >= 0).

    A face is compact exactly when the supports of its tight facet normals
    cover every coordinate: its recession cone is the set of r >= 0 that
    each tight normal, nonnegative, kills, so r_j > 0 is allowed exactly
    when every tight normal is 0 at j.  A face's dimension is nvars minus
    the rank of its tight normals.

    A facet whose normal is positive in every coordinate (a facet in the
    AND of the cover masks) is compact, of dimension n - 1.  The body is
    unbounded, so no face is larger, and mdc = n - 1 at once.

    Otherwise a depth-first search over covering facet sets answers.  For
    a set S of facets that share a vertex, F_S, the points on every facet
    of S, is a face; when the supports of S cover every coordinate, F_S
    is compact, so it is the hull of the vertices on all of S.  A maximal
    compact face F equals F_S for every covering set S of its tight
    facets: F lies in F_S, which is compact, so F = F_S by maximality.  So
    mdc is the largest dim F_S over the covering sets S that share a
    vertex.  A state of the search is (the coordinates S covers, the
    vertices on all of S), from (none, every vertex).  It branches on
    the lowest uncovered coordinate j, over the facets positive at j that
    meet the shared vertices.  A covering set of F's tight facets is
    reached: at each j the search branches on, one of them is positive,
    and each holds F's vertices.  Equal states have equal subtrees, so a
    state is pushed once.  At a covering state the facets tight on F_S
    are the AND of its vertices' incidence masks.

    - The found-face prune.  A state whose shared vertices lie inside
      the vertex set of a compact face G already found is dropped: every
      face below it is the hull of a subset of G's vertices, so a subface
      of G.  A maximal compact face F whose path is dropped there has its
      vertices inside G's, so F lies in G and equals it.  So only the
      inclusion-maximal vertex sets found are kept, and each is ranked
      once.
    - The return at two tight facets.  No facet is compact here, so every
      compact face has dimension at most n - 2.  A covering F_S tight on
      exactly two facets has tight normals of rank at most 2, so
      dimension at least n - 2: mdc = n - 2 without a rank.  Conversely,
      every face of dimension n - 2 lies on exactly two facets, so the
      search meets this return whenever mdc = n - 2: no state above a
      compact ridge R is pruned, as a compact face found with R's
      vertices would contain R and so equal it.

    The worst case is exponential, since the search enumerates the
    transversals of the hypergraph of facet supports; no bound charges
    its states.  Computed once per polyhedron object.
    """
    return poly._mdc


def _decompose(poly: RationalPolyhedron, den: int, num: list[int],
               slacks: list[int]) -> tuple[int, list[int], int]:
    """Split the point num/den of P, whose scaled facet slacks (see
    _slacks) are given, as u + r with u in a compact face and r >= 0.
    Returns u in integers, as (S, U, tight) with u = U/S, S a multiple of
    den, and tight the mask of the facets tight at u; then r is
    (num * (S // den) - U) / S.

    Walks down each coordinate direction that is free on the current
    minimal face, in order.  A step down coordinate j makes a facet with a
    positive entry at j tight, and leaves the tight facets tight (they are
    zero at j), so one pass over the coordinates reaches a compact face.
    The walk keeps u as U/S and the facet slacks at u as S*slack, all in
    integers.  A step of length lam = p/q down coordinate j lowers U[j] by
    S*lam and slack i by a_ij*lam; S grows to lcm(S, q) first, scaling U
    and the slacks, only when q does not divide it.

    u lies in the relative interior of the face cut out by the facets
    in `tight`, the facets tight at u, and that face is compact: each
    coordinate has a tight facet positive there.
    """
    facets = poly.facets
    scale, cur, slack = den, list(num), list(slacks)
    tight = sum(1 << i for i, s in enumerate(slack) if s == 0)
    for free, cover in enumerate(poly._cover_masks):
        if cover & tight:
            continue
        # the nearest facet down coordinate free: least slack_i / a_i
        best, best_a = None, 1
        for s, h in zip(slack, facets):
            a = h.normal[free]
            if a > 0 and (best is None or s * best_a < best * a):
                best, best_a = s, a
        g = math.gcd(best, scale * best_a)
        p, q = best // g, scale * best_a // g
        if scale % q:
            r = q // math.gcd(scale, q)
            scale *= r
            cur = [c * r for c in cur]
            slack = [s * r for s in slack]
        step = p * (scale // q)
        cur[free] -= step
        slack = [s - step * h.normal[free] for s, h in zip(slack, facets)]
        tight = sum(1 << i for i, s in enumerate(slack) if s == 0)
    return scale, cur, tight


def minimal_lattice_points(poly: RationalPolyhedron,
                           factor=1) -> list[tuple[int, ...]]:
    """Componentwise-minimal integer points of the up-set polyhedron t*P,
    for P = `poly` and a positive rational t = `factor`, 1 by default.

    The dilate is never built.  With t = p/q, each facet with a positive
    offset is dilated to (q*a, p*b) over one gcd, the facet of t*P;
    the facets with offset 0 hold no row of the search.  The vertices of
    t*P are t times those of P, so coordinate j of the box is
    ceil(t * max_v v_j), one rational product per coordinate.  The search
    below reads its rows as a set: the coordinate order counts the rows
    each coordinate feeds, and every other use of a row is a bound, a max
    or a test over all of them.  So the order of the facets changes
    neither the coordinate order nor the output, and this equals
    `minimal_lattice_points(scale(poly, factor))`.

    Every minimal point lies in the box bounded by the per-coordinate
    ceilings of the vertex coordinates, which is the search box.  Its far
    corner dominates every vertex, so it lies in the body.

    Depth-first search over the coordinates, keeping each row (facet with
    a positive offset) dot product with the prefix.  The normals are
    nonnegative, so below a node the dot products only grow.  Three rules
    keep the work close to the size of the answer:

    - Best completion.  The current coordinate starts at the least value
      that leaves each of its rows satisfiable with every later coordinate
      at its box bound.  No branch is ever cut for a row: at node j every
      row has dot_i + suffix_i(j) >= b_i, where suffix_i(j) is the row's
      product with the box on coordinates j and later.  At the root that
      is the box corner; below, the start value keeps it for the rows of
      j, a row that j does not feed keeps it unchanged, and the box bound
      of j itself meets the rows of j, so the start lies in the box.
    - Lowerability.  A feasible point x is minimal exactly when every set
      coordinate l (x_l > 0) has a witness: a row i with a_il > 0 and
      dot_i < b_i + a_il, so that x - e_l violates it.  When the current
      coordinate has no witness among its rows at the prefix, it has none
      below the node either, and no larger value gives one: its value
      loop stops.
    - Earlier witnesses.  A witness dies only when its row's dot product
      grows, that is when the current coordinate feeds that row, so at
      each value only the earlier set coordinates sharing a row with the
      current one are tested again.  When one has no witness left, no
      completion below is minimal, and the larger values of the current
      coordinate only grow the same dot products, so its value loop
      stops.  Backing up shrinks the dot products, so nothing is undone.

    Packed rows (guard bits after Lamport, "Multiple byte processing with
    full-word instructions", CACM 18, 1975).  All dot products share one
    int.  Row i owns field i, w + 1 bits from bit i(w + 1): w value bits
    and a guard bit 2^w above them, where w is the bit length of the
    largest full-box product suffix_i(0).  The search carries D, whose
    field i holds 2^w + dot_i; every value stays in the box, so
    dot_i <= suffix_i(0) < 2^w and a value step, one add of the packed
    column of the current coordinate, carries into no guard.  T_l holds
    b_i + a_il in the field of each row i of l and 0 elsewhere.  Field i
    of D - T_l is then 2^w + dot_i - b_i - a_il.  It is below 2^(w+1).
    It is positive, as l is tested only while it is set, so that
    dot_i >= a_il, and b_i <= suffix_i(0) < 2^w because the box corner
    lies in the body.  So no field borrows from the next, and the guard
    of field i survives exactly when row i is no witness for l: l has a
    witness exactly when D - T_l loses a guard bit.  That is one
    subtraction and one mask per coordinate tested.

    Witness tables.  A level tests a list of packed limits: its own T_j,
    then the T_l of the earlier coordinates that are set and share a row
    with j.  The search passes down the bitmask of the set coordinates;
    the list depends only on that mask restricted to the earlier
    coordinates sharing a row with j, so each level looks its list up in
    a table keyed by that restriction, building a list the first time its
    key is met.  A table holds at most one list per node visited at its
    level, however many variables there are.

    The coordinates are visited most constrained first: in decreasing
    number of rows they feed (first-fail, Haralick & Elliott, "Increasing
    tree search efficiency for constraint satisfaction problems", 1980).
    Most subtrees that yield nothing die when a later coordinate, forced
    up by the best-completion cut, takes the last witness of an earlier
    one; a coordinate that feeds many rows moves many dot products at
    once, so deciding it early forces those rises, and the lost witnesses
    they cause, near the root.  Ties go first to the coordinate that feeds
    the most rows also fed by the coordinates already placed, as its rises
    move the dot products that hold their witnesses, then to the lower
    index.  The rows and the box are permuted once.  Every value loop
    counts up and each prefix records at most one point, so the points
    come out in increasing lexicographic order of the visited
    coordinates.  Each is recorded in the body's own coordinates: in the
    identity order the list is returned as it is, in another it is
    sorted again.

    The last two coordinates are walked in one loop.  The last coordinate
    takes its value in closed form, w, the least value that meets each of
    its rows.  Each of its rows has dot >= b at w, so at w + 1 none is a
    witness; and when w > 0, a row that set w had dot < b one step below,
    so it is a witness.  The best-completion invariant at the last level
    puts w in the box.

    The coordinate before it, u, walks a staircase.  After u's value v,
    with the last coordinate at w > 0, the rows that w - 1 leaves unmet
    are those with g_i = b_i - dot_i - (w - 1) a_iw > 0, where dot_i is
    the product before the last coordinate; u steps to v plus the largest
    ceil(g_i / a_iu) over them, the first value at which w drops.  Below
    that value w stays the same, so every skipped point (..., v', w)
    dominates the feasible point (..., v, w) and is not minimal.  When
    w = 0, or when an unmet row has a_iu = 0, w never drops again and
    every larger value of u is skipped the same way.

    Neither u nor the last coordinate is ever tested, as each value that
    u takes leaves u a witness at the point:

    - its best-completion start v > 0: a row i that set v has
      (v - 1) a_iu < b_i - suffix_i(u + 1) - dot_i, with dot_i the
      caller's product, and the last coordinate adds w a_iw <=
      suffix_i(u + 1) as w lies in the box, so the point has
      dot_i + v a_iu + w a_iw < b_i + a_iu;
    - a step r from v: a row i that set r has (r - 1) a_iu < g_i, and at
      v + r the last coordinate takes w' <= w - 1, so the point has
      dot_i + r a_iu + w' a_iw < b_i + a_iu, with dot_i as at v.

    So u's loop tests, at each value v > 0, the earlier set coordinates
    that share a row with u, stopping as any level does; and at each
    point, the earlier set coordinates that share a row with the last
    coordinate, skipping the point without stopping.  Both lists
    come from one table lookup per frame.

    Every recorded point is then feasible with a witness for each set
    coordinate: minimal, with no check at the end.
    """
    if not poly.vertices:
        raise NoVertices("polyhedron has no vertices")
    t = _scale_factor(factor)
    n = poly.nvars
    # each row is the facet of t*P, primitive (q*a, p*b), offset last
    rows = [primitive_vector([t.denominator * a for a in h.normal]
                             + [t.numerator * h.offset])
            for h in poly.facets if h.offset > 0]
    if n == 1:
        # the root is the last coordinate, and its closed form the point
        return [(max((-(-b // a) for a, b in rows), default=0),)]
    # the mask of the rows each coordinate feeds
    feeds = [sum(1 << i for i, row in enumerate(rows) if row[j])
             for j in range(n)]
    order: list[int] = []
    placed = 0
    left = list(range(n))
    while left:
        j = min(left, key=lambda c: (-feeds[c].bit_count(),
                                     -(feeds[c] & placed).bit_count(), c))
        order.append(j)
        left.remove(j)
        placed |= feeds[j]
    feeds = [feeds[j] for j in order]
    tops = [max(v[j] for v in poly.vertices) for j in order]
    box = [-(-t.numerator * m.numerator // (t.denominator * m.denominator))
           for m in tops]
    rows = [([row[j] for j in order], row[-1]) for row in rows]

    # field i holds row i's dot product in its low `width` bits and a guard
    # bit above them; `guards` has every guard bit set, as has each packed
    # dot product the search carries
    width = max((_dot(normal, box) for normal, _ in rows),
                default=0).bit_length()
    low = (1 << width) - 1
    guards = 0
    # per coordinate j: its packed column, the packed limits b_i + a_ij of
    # its rows, and those rows with a positive threshold b_i - suffix_i(j+1)
    # as (shift, a_ij, threshold)
    column = [0] * n
    limits = [0] * n
    fed: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    # the last coordinate's rows as (shift, a_i last, b_i, a_i of the
    # coordinate before it)
    last_rows = []
    for i, (normal, b) in enumerate(rows):
        shift = i * (width + 1)
        guards |= 1 << (shift + width)
        rest = 0
        for j in range(n - 1, -1, -1):
            a = normal[j]
            if a:
                column[j] += a << shift
                limits[j] += (b + a) << shift
                if b > rest:
                    fed[j].append((shift, a, b - rest))
                rest += a * box[j]
        if normal[-1]:
            last_rows.append((shift, normal[-1], b, normal[-2]))
    # the mask of the earlier coordinates that share a row with j
    near = [sum(1 << l for l in range(j) if feeds[l] & feeds[j])
            for j in range(n)]
    # per level above the last, the witness tables, keyed by the set
    # coordinates in near
    tables: list[dict] = [{} for _ in range(n - 1)]

    def earlier(key: int) -> list[int]:
        return [limits[l] for l in range(n) if key >> l & 1]

    found: list[tuple[int, ...]] = []
    last = n - 1
    u = n - 2
    cw = column[last]
    # the point being built, in the body's own coordinates
    point = [0] * n
    at_u = order[u]
    at_last = order[last]
    # the last level's tests are keyed together with u's
    near_u = near[u] | near[last]
    # a step past every box bound
    past = max(box) + 1

    def search(j: int, dots: int, setm: int) -> None:
        # the best-completion start
        v = 0
        for shift, a, threshold in fed[j]:
            gap = threshold - (dots >> shift & low)
            if gap > 0:
                q = -(-gap // a)
                if q > v:
                    v = q
        cj = column[j]
        dots += v * cj
        bj = box[j]
        if j == u:
            key = setm & near_u
            tests = tables[u].get(key)
            if tests is None:
                tests = tables[u][key] = (earlier(key & near[u]),
                                          earlier(key & near[last]))
            mine, theirs = tests
            while True:
                if v:
                    for t in mine:
                        if (dots - t) & guards == guards:
                            return
                # the closed form w, and the step to the first value at
                # which it drops; past the box when w = 0 or when an unmet
                # row of w - 1 is one that u does not feed
                w = 0
                step = past
                for shift, a, b, au in last_rows:
                    gap = b - (dots >> shift & low)
                    if gap > 0:
                        q = -(-gap // a)
                        if q >= w:
                            r = -(-(gap - (q - 1) * a) // au) if au else past
                            if q > w:
                                w = q
                                step = r
                            elif r > step:
                                step = r
                at = dots + w * cw
                for t in theirs:
                    if (at - t) & guards == guards:
                        break
                else:
                    point[at_u] = v
                    point[at_last] = w
                    found.append(tuple(point))
                v += step
                if v > bj:
                    return
                dots += step * cj
        key = setm & near[j]
        mine = tables[j].get(key)
        if mine is None:
            mine = tables[j][key] = [limits[j]] + earlier(key)
        at_j = order[j]
        if not v:
            point[at_j] = 0
            search(j + 1, dots, setm)
            v = 1
            dots += cj
        setm |= 1 << j
        while v <= bj:
            for t in mine:
                if (dots - t) & guards == guards:
                    return
            point[at_j] = v
            search(j + 1, dots, setm)
            v += 1
            dots += cj

    search(0, guards, 0)
    if order != list(range(n)):
        found.sort()
    return found
