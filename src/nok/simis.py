"""Integral Hilbert basis of the cone over the symbolic polyhedron at
height one, and the invariants it carries: symbolic generation type,
Veronese (svd) probing, and generator degrees of the normalized Rees
algebra (same machinery over the Newton polyhedron).

An element (a, k) of the cone is a basis element when it is not the sum
of two integral cone points of positive degree; degree-zero splits are
impossible for the candidates used here because they are taken from the
componentwise-minimal lattice points of each dilate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import polyhedron as poly
from .bodies import (ClassifiedIdeal, newton_polyhedron, symbolic_polyhedron,
                     symbolic_power)
from .errors import NoCandidate, NonPositiveExponent
from .ideal import MonomialIdeal, power
from .invariants import (analytic_spread, svd_bounds,
                         symbolic_analytic_spread, vertex_constants)
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


def _theorem_bound(classified: ClassifiedIdeal) -> int:
    _, _, big_d = vertex_constants(classified)
    ell_s = symbolic_analytic_spread(classified)
    return max(ell_s * big_d - 1, big_d)


def _cone_basis(body: RationalPolyhedron, bound: int) -> list[HilbertElement]:
    """Degree-bounded Hilbert basis of the cone over `body` at height 1.

    Candidates at degree k are the minimal lattice points of k*body,
    processed in increasing degree then lex order; a candidate joins the
    basis unless some accepted element (b, j) has b <= a componentwise
    and (a - b) in (k - j)*body.  Membership is tested on the primitive
    facet rows, so the whole search is integer arithmetic.
    """
    normals = [h.normal for h in body.facets]
    offsets = [h.offset for h in body.facets]
    n = body.nvars
    accepted: list[HilbertElement] = []
    accepted_dots: list[tuple[int, ...]] = []
    for k in range(1, bound + 1):
        # facet thresholds that (a - b) in (k - j)*body translates to
        thresholds = [tuple(d + (k - elem.degree) * o
                            for d, o in zip(dots, offsets))
                      for elem, dots in zip(accepted, accepted_dots)]
        fresh = []
        for a in poly.minimal_lattice_points(poly.scale(body, k)):
            dots_a = None
            for elem, thr in zip(accepted, thresholds):
                b = elem.exponent
                if all(x <= y for x, y in zip(b, a)):
                    if dots_a is None:
                        dots_a = [sum(c * x for c, x in zip(nrm, a))
                                  for nrm in normals]
                    if all(d >= t for d, t in zip(dots_a, thr)):
                        break
            else:
                fresh.append(a)
        for a in fresh:
            accepted.append(HilbertElement(a, k))
            accepted_dots.append(tuple(sum(c * x for c, x in zip(nrm, a))
                                       for nrm in normals))
    return accepted


def hilbert_basis(classified: ClassifiedIdeal,
                  degree_bound: int | None = None) -> HilbertBasisReport:
    """Hilbert basis elements of the Simis cone up to the degree bound;
    the default bound max{ell_s*D - 1, D} makes the result exhaustive."""
    limit = _theorem_bound(classified)
    bound = limit if degree_bound is None else degree_bound
    if bound < 1:
        raise NonPositiveExponent(f"degree bound must be >= 1, got {bound}")
    sp = symbolic_polyhedron(classified)
    elements = _cone_basis(sp, bound)
    degrees = frozenset(e.degree for e in elements)
    return HilbertBasisReport(tuple(elements), degrees,
                              max(degrees), bound, bound >= limit)


def sgt_exact(classified: ClassifiedIdeal) -> int:
    """Maximum generating degree of the symbolic Rees algebra, from an
    exhaustive Hilbert basis run."""
    return hilbert_basis(classified).sgt


def veronese_verify(classified: ClassifiedIdeal, d: int, k_max: int) -> bool:
    """Bounded certificate that I^(dk) = (I^(d))^k for k <= k_max; not a
    proof for all k."""
    if d < 1 or k_max < 1:
        raise NonPositiveExponent("d and k_max must be >= 1")
    base = symbolic_power(classified, d)
    return all(symbolic_power(classified, d * k) == power(base, k)
               for k in range(1, k_max + 1))


def svd_probe(classified: ClassifiedIdeal,
              k_max: int = 4) -> tuple[int, int]:
    """Smallest multiple of c in the theorem window passing the bounded
    Veronese check, together with the window's upper end.

    The candidate equals svd(I) whenever the window plus the divisibility
    constraint pin it down; otherwise it is a k_max-bounded certificate.
    """
    lower, upper = svd_bounds(classified)
    for m in range(lower, upper + 1, lower):
        if veronese_verify(classified, m, k_max):
            return m, upper
    raise NoCandidate(
        f"no multiple of {lower} up to {upper} passed the Veronese check; "
        "impossible at k_max=1, so this flags an arithmetic bug")


def normal_rees_generator_degrees(ideal: MonomialIdeal) -> set[int]:
    """Degrees of the minimal generators of the normalized Rees algebra:
    the Hilbert-basis degrees of the cone over NP(I), complete up to the
    bound max{ell(I) - 1, 1}."""
    bound = max(analytic_spread(ideal) - 1, 1)
    elements = _cone_basis(newton_polyhedron(ideal), bound)
    return {e.degree for e in elements}
