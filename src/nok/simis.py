"""Integral Hilbert basis of the cone over the symbolic polyhedron at
height one, and the invariants it carries: symbolic generation type,
Veronese (svd) probing, and generator degrees of the normalized Rees
algebra (same machinery over the Newton polyhedron).

An element (a, k) of the cone is a basis element when it is not the sum
of two nonzero integral cone points.  The basis is computed by the primal
algorithm of Normaliz (Bruns & Ichim, J. Algebra 324, 2010), in
integers throughout:
- `_pulling_triangulation` splits the cone into simplicial cells and
  proves most of them unimodular as it builds them; the height-1
  certificate is proved there;
- `_parallelepiped` lists the lattice points of each other cell's
  half-open parallelepiped from the cell's adjugate;
- `_cone_basis` keeps the irreducible candidates among the generators
  and those points; the parallelepiped lemma, which makes them enough, is
  proved there.
The degree bound only filters the result; the work does not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

from . import polyhedron as poly
from .bodies import (ClassifiedIdeal, newton_polyhedron, symbolic_polyhedron,
                     symbolic_power)
from .errors import NoCandidate
# `power` is kept in this namespace only for the benchmark's tracer test
from .ideal import (MonomialIdeal, Vector, _check_power, _every_sum,
                    minimal_vectors, power)
from .invariants import _generation_bound, analytic_spread, svd_bounds
from .linalg import _adjugate
from .polyhedron import RationalPolyhedron


@dataclass(frozen=True)
class HilbertElement:
    exponent: tuple[int, ...]
    degree: int


@dataclass(frozen=True)
class HilbertBasisReport:
    elements: tuple[HilbertElement, ...]
    degrees: frozenset[int]
    sgt: int
    degree_bound_used: int
    exhaustive: bool


def _parallelepiped(cols: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The |det| lattice points sum(lambda_i * g_i), 0 <= lambda_i < 1, of
    the half-open parallelepiped spanned by the linearly independent
    integer columns g_i (the origin included).

    One point per coset of Z^m / G*Z^m, found from the adjugate alone.
    Take T*G = d*I with d = +-det G.  The map y -> T*y mod d has kernel
    G*Z^m (T*y = d*z gives y = G*z), so its image is a copy of the group,
    and the columns of T mod d generate that image: it is the closure of
    {0} under adding one column mod d.  The closure takes the columns in
    turn: while a multiple i*s of the column s lies outside the subgroup
    H built so far, the coset H + i*s is new, and each of its elements is
    one of the previous coset plus s.  Python's mod takes the sign of d,
    so each vector num of the closure is d*lambda with lambda in [0, 1)
    for either sign, and G*num/d is the point of one coset.  A cell with
    |d| = 1 closes at {0}.
    """
    d, adj = _adjugate(cols)
    group = [(0,) * len(cols)]
    for j in range(len(cols)):
        step = tuple(row[j] % d for row in adj)
        subgroup, coset, shift = set(group), group, step
        while shift not in subgroup:
            coset = [tuple((a + b) % d for a, b in zip(x, step))
                     for x in coset]
            group += coset
            shift = tuple((a + b) % d for a, b in zip(shift, step))
    rows = list(zip(*cols))
    return [tuple(sum(g * a for g, a in zip(row, num)) // d for row in rows)
            for num in group]


def _pulling_triangulation(gens: Sequence[tuple[int, ...]],
                           rows: Sequence[tuple[int, ...]],
                           tight: Sequence[int],
                           dim: int) -> list[tuple[tuple[int, ...], bool]]:
    """Simplicial cells, as tuples of generator indices, that cover the
    full-dimensional cone spanned by the primitive extreme-ray generators
    `gens` and cut out by the facet `rows`, where `tight[k]` is the mask of
    the generators on row k.  Each cell comes with a flag: True when the
    triangulation proves it unimodular.

    A face is the bitmask of the generators it contains.  A face with one
    generator b is the cell (b,).  Every other face takes its first
    generator as the apex: each facet of the face that misses the apex is
    triangulated in turn and its cells are coned over the apex.  A face
    whose generator count equals its dimension is simplicial, and its one
    such facet drops the apex.  The facets of any other face F are the
    maximal proper subsets F & tight[k], so the whole recursion is bitmask
    arithmetic, and each face is triangulated once.

    The flag rests on the heights of the steps.  Write L_X for lin(X) & Z^m.
    Coning a cell C of a facet F = G & {r = 0} of the face G over the apex
    a gives [L_G : Za + span C] = (<r, a>/g) * [L_F : span C], where
    r(L_G) = gZ: L_F is the kernel of r on L_G, and r maps Za + span C
    onto <r, a>Z.  So a row r with G & tight[r] == F and <r, a> = 1 makes
    the step's height 1.  The facet of a simplicial face that drops its
    apex is again a face of the cone, and so cut out by a row.  The
    recursion ends at one primitive generator b, where L_b = Zb, so a cell
    whose steps all have height 1 has |det| = 1.
    """
    def unit_step(face: int, sub: int, apex: int) -> bool:
        # some row cutting `sub` out of `face` is 1 at the apex
        for row, mask in zip(rows, tight):
            if face & mask == sub and poly._dot(row, gens[apex]) == 1:
                return True
        return False

    done: dict[int, list[tuple[tuple[int, ...], bool]]] = {}

    def cells(face: int, d: int) -> list[tuple[tuple[int, ...], bool]]:
        if face in done:
            return done[face]
        apex = face & -face
        index = apex.bit_length() - 1
        if face == apex:
            return [((index,), True)]
        if face.bit_count() == d:
            facets = [face ^ apex]
        else:
            proper = list({face & mask for mask in tight} - {face})
            facets = [proper[i] for i in poly._maximal(proper)
                      if not proper[i] & apex]
        out = []
        for sub in facets:
            step = unit_step(face, sub, index)
            out.extend(((index,) + cell, step and certified)
                       for cell, certified in cells(sub, d - 1))
        done[face] = out
        return out

    return cells((1 << len(gens)) - 1, dim)


def _simis_cone(body: RationalPolyhedron) -> tuple[
        list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """(gens, rows, tight) of the cone over `body`: the primitive vector of
    (v, 1) for each vertex v and (r, 0) for each recession ray r; the row
    (normal, -offset) of each facet, then t >= 0; and per row, the mask
    of the generators on it.  The masks are read off the vertices on each
    facet (`_facet_masks`): (e_j, 0) lies on a facet exactly when its
    normal is 0 at j, and t >= 0 holds the rays.  The vertex generator is
    (d*v, d), d the vertex's denominator lcm from the body's vertex
    constants, already primitive: a prime p of d divides some coordinate's
    denominator den to its full power in d, so p misses that entry
    num * (d // den)."""
    n = body.nvars
    gens = [tuple(x.numerator * (d // x.denominator) for x in v) + (d,)
            for v, d in zip(body.vertices, body._vertex_constants.denoms)]
    gens += [tuple(r) + (0,) for r in body.rays]
    rows = [h.normal + (-h.offset,) for h in body.facets]
    rows.append((0,) * n + (1,))
    # body.rays lists e_(n-1) first, so (e_j, 0) is generator nv + n-1-j
    nv = len(body.vertices)
    tight = [mask | sum(1 << (nv + n - 1 - j)
                        for j, a in enumerate(h.normal) if not a)
             for mask, h in zip(body._facet_masks, body.facets)]
    tight.append(((1 << n) - 1) << nv)
    return gens, rows, tight


def _cone_basis(body: RationalPolyhedron, bound: int) -> list[HilbertElement]:
    """Hilbert-basis elements of degree 1..bound of the cone over `body`.

    The cone is generated by the primitive vector of (v, 1) for each
    vertex v and by (r, 0) for each recession ray r, and cut out by
    (normal, -offset) for each facet and by t >= 0; its incidence is read
    off the body (`_simis_cone`).  By the parallelepiped lemma, every
    basis element is a generator or a nonzero lattice point of the
    half-open parallelepiped of one simplicial cell of a triangulation (a
    point with some lambda_i >= 1 splits off g_i).  A cell that
    `_pulling_triangulation` proves unimodular has the origin alone as its
    parallelepiped, so it gets no elimination; every other cell's points
    come from `_parallelepiped`.  A candidate x is kept unless x - h lies in
    the cone for another candidate h, that is, unless the facet values of
    h are componentwise at most those of x: the kept set is the Hilbert
    basis, degree-0 rays included.  When no cell adds a nonzero point,
    the candidates are the generators and no filter runs: a primitive
    extreme-ray generator is irreducible (its two parts would lie on its
    ray, as integer multiples of it), so the basis is the generators.
    Everything is integer arithmetic.
    """
    n = body.nvars
    gens, rows, tight = _simis_cone(body)
    candidates = set(gens)
    for cell, certified in _pulling_triangulation(gens, rows, tight, n + 1):
        if not certified:
            candidates.update(_parallelepiped([gens[i] for i in cell]))
    candidates.discard((0,) * (n + 1))

    if len(candidates) == len(gens):
        kept = gens
    else:
        # the map to facet values is injective (the rows have full rank),
        # so the kept set is the antichain of componentwise-minimal values
        by_values = {tuple(poly._dot(r, x) for r in rows): x
                     for x in candidates}
        kept = [by_values[v] for v in minimal_vectors(by_values)]
    return sorted((HilbertElement(x[:n], x[n]) for x in kept
                   if 1 <= x[n] <= bound),
                  key=lambda e: (e.degree, e.exponent))


def hilbert_basis(classified: ClassifiedIdeal,
                  degree_bound: int | None = None) -> HilbertBasisReport:
    """Hilbert basis elements of the Simis cone up to the degree bound;
    the default bound max{ell_s*D - 1, D} makes the result exhaustive."""
    if degree_bound is not None:
        _check_power(degree_bound, "degree bound")
    limit = _generation_bound(classified)
    bound = limit if degree_bound is None else degree_bound
    sp = symbolic_polyhedron(classified)
    elements = _cone_basis(sp, bound)
    degrees = frozenset(e.degree for e in elements)
    return HilbertBasisReport(tuple(elements), degrees,
                              max(degrees), bound, bound >= limit)


def sgt_exact(classified: ClassifiedIdeal) -> int:
    """Maximum generating degree of the symbolic Rees algebra, from an
    exhaustive Hilbert basis run."""
    return hilbert_basis(classified).sgt


def _veronese_holds(generators: Callable[[int], tuple[Vector, ...]],
                    d: int, k_max: int) -> bool:
    """`veronese_verify` without its argument checks, reading the
    generators of I^(i) from `generators(i)`."""
    base = previous = generators(d)
    for k in range(2, k_max + 1):
        current = generators(d * k)
        if not _every_sum(current, previous, base):
            return False
        previous = current
    return True


def veronese_verify(classified: ClassifiedIdeal, d: int, k_max: int) -> bool:
    """Bounded certificate that I^(dk) = (I^(d))^k for k <= k_max; not a
    proof for all k.

    Write K_k for the minimal generators of I^(dk), the minimal lattice
    points of dk*P for the up-set polyhedron P.  Each step k = 2..k_max
    builds no product ideal: it checks that every g in K_k is exactly a
    sum s + b with s in K_(k-1) and b in K_1.  This decides
    I^(dk) = (I^(d))^k once the earlier steps have shown
    (I^(d))^(k-1) = K_(k-1), and the loop stops at the first failing k:
    - P is convex, so s + b lies in d(k-1)*P + d*P = dk*P, and the
      product (I^(d))^k, generated by these sums, lies in I^(dk);
    - if equality holds, g lies in the product, so g dominates some
      s + b; that sum lies in I^(dk), so it dominates some g' in K_k,
      and g' <= g forces g' = g = s + b, as K_k is an antichain;
    - conversely, if every g is such a sum, every generator of I^(dk)
      lies in the product.
    k = 1 compares I^(d) with itself.
    """
    _check_power(d, "Veronese degree d")
    _check_power(k_max, "k_max")
    return _veronese_holds(
        lambda i: symbolic_power(classified, i).generators, d, k_max)


def svd_probe(classified: ClassifiedIdeal,
              k_max: int = 4) -> tuple[int, int]:
    """Smallest multiple of c in the theorem window passing the bounded
    Veronese check, together with the window's upper end.

    The candidate equals svd(I) whenever the window plus the divisibility
    constraint pin it down, or when k_max >= B below; otherwise it is a
    k_max-bounded certificate.  A symbolic power that two candidates read
    is built once.

    Each candidate m is checked only for k up to min(k_max, B), with
    B = upper // lower = max(ell_s - 1, 1), and the answer is the one the
    check up to k_max gives.  The generators of I^(i) are the minimal
    lattice points of i*SP, and m is a multiple of c, so m*SP has lattice
    vertices.  Take a lattice point x = (a, t) of the cone over m*SP with
    t >= 2, and write a/t = u + r, u on a compact face and r >= 0
    (`polyhedron._decompose`).  By Caratheodory u = sum mu_j v_j over at
    most ell_s vertices v_j of that face (its dimension is at most
    mdc = ell_s - 1).  If some t*mu_j >= 1, then x - (v_j, 1) is again a
    lattice point of the cone, and x splits off a degree-1 element;
    otherwise t = sum t*mu_j < ell_s.  So every Hilbert-basis element of
    the cone has degree at most B.  The checks up to k hold exactly when
    I^(mi) = (I^(m))^i for each i <= k (`veronese_verify`), that is, when
    every lattice point of degree i <= k is a sum of i points of degree 1.
    If they hold up to B, no basis element has degree 2..B, so none has a
    degree above 1, and the checks hold for every k.  If one fails at some
    k <= B, the check up to k_max stops there too.
    """
    _check_power(k_max, "k_max")
    lower, upper = svd_bounds(classified)
    bound = min(k_max, upper // lower)
    generators = cache(lambda i: symbolic_power(classified, i).generators)
    for m in range(lower, upper + 1, lower):
        if _veronese_holds(generators, m, bound):
            return m, upper
    raise NoCandidate(
        f"no multiple of {lower} up to {upper} passed the Veronese check; "
        "impossible at k_max=1, so this flags an arithmetic bug")


def _normal_rees_bound(ideal: MonomialIdeal) -> int:
    """max{ell(I) - 1, 1}: the normalized Rees algebra is generated in
    degrees up to it."""
    return max(analytic_spread(ideal) - 1, 1)


def normal_rees_generator_degrees(ideal: MonomialIdeal) -> set[int]:
    """Degrees of the minimal generators of the normalized Rees algebra:
    the Hilbert-basis degrees of the cone over NP(I), complete up to the
    bound max{ell(I) - 1, 1}."""
    elements = _cone_basis(newton_polyhedron(ideal), _normal_rees_bound(ideal))
    return {e.degree for e in elements}
