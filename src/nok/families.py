"""Graded families of monomial ideals: member ideals, limiting bodies, and
the stabilization test that certifies a Noetherian Rees algebra.

Three classes represent them: ordinary powers I_k = base^k,
intersections I_k of the k-th powers of several ideals, and ceiling
powers I_k = base^ceil(alpha*k + beta).  A symbolic family I_k = base^(k)
is built by `symbolic_family` as one of the first two.  Each has a
closed-form limiting body, so the union over k of (1/k)NP(I_k) never has
to be approximated.

Power, symbolic and intersection families are graded by construction:
(J^a)(J^b) = J^(a+b) for each ideal J, and a product of intersections
lies in the intersection of the products.

Stabilization is decided on the body's vertices.  Since (1/c)NP(I_c) lies
in the body, c attains the body iff every vertex v of the body has c*v
integral and x^(c*v) in I_c.  For power and ceiling families, and for
intersections whose every component is a power of a monomial prime, the
least such c has a closed form, so no member ideal is expanded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple, Union

from . import polyhedron as poly
from .bodies import ClassifiedIdeal, IdealKind, newton_polyhedron
from .errors import (DimensionMismatch, EmptyList, NokError,
                     NonPositiveExponent, NotProvenNoetherian,
                     UnsupportedIdealClass)
from .ideal import MonomialIdeal, _check_power, intersect, power
from .polyhedron import Point, RationalPolyhedron


class _Family:
    """What the three family classes share: the limit, built once per
    object on first use (family_limit)."""

    @cached_property
    def _limit(self) -> FamilyLimit:
        # derived once per object, as RationalPolyhedron._mdc is; a family
        # parsed afresh builds its own, as no module-level cache holds it
        return _build_limit(self)


@dataclass(frozen=True)
class PowerFamily(_Family):
    """I_k = base^k."""

    base: MonomialIdeal


@dataclass(frozen=True)
class IntersectionFamily(_Family):
    """I_k = intersection of J_i^k over the component ideals J_i."""

    components: tuple[MonomialIdeal, ...]

    def __post_init__(self):
        # any iterable is stored as the tuple that equality and hashing read
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise EmptyList("intersection family needs at least one ideal")
        if len({j.nvars for j in self.components}) > 1:
            raise DimensionMismatch("component variable counts differ")


@dataclass(frozen=True)
class CeilingPowerFamily(_Family):
    """I_k = base^ceil(alpha*k + beta) with alpha > 0 and ceil(alpha+beta) >= 1."""

    base: MonomialIdeal
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", poly.as_fraction(self.alpha))
        object.__setattr__(self, "beta", poly.as_fraction(self.beta))
        if self.alpha <= 0:
            raise NonPositiveExponent(
                f"ceiling family needs alpha > 0, got {self.alpha}")
        if math.ceil(self.alpha + self.beta) < 1:
            raise NonPositiveExponent(
                "ceiling family needs ceil(alpha + beta) >= 1 so that I_1 "
                "is a genuine power")

    def exponent(self, k: int) -> int:
        return math.ceil(self.alpha * k + self.beta)


FamilySpec = Union[PowerFamily, IntersectionFamily, CeilingPowerFamily]


def symbolic_family(classified: ClassifiedIdeal) -> FamilySpec:
    """I_k = base^(k), the symbolic powers of a squarefree, linear-power
    or m-primary base.

    A squarefree or linear-power base is the intersection of its
    components P^m, so I^(k) is the intersection of the P^(m*k).  An
    m-primary base, the unit ideal among them, has I^(k) = I^k."""
    if classified.kind is IdealKind.M_PRIMARY:
        return PowerFamily(classified.ideal)
    if not classified.supports_sp():
        raise UnsupportedIdealClass("symbolic family needs a squarefree, "
                                    "linear-power, or m-primary base ideal")
    d = classified.decomposition
    return IntersectionFamily(tuple(power(c.ideal(d.nvars), c.multiplicity)
                                    for c in d.components))


def _is_prime_power(ideal: MonomialIdeal) -> bool:
    """Is the ideal P^m for a monomial prime P, the unit ideal being m = 0?

    With m the degree of the first generator and P the variables of the
    support, of size |P|, the generators are distinct monomials in P; they
    are all comb(|P| + m - 1, m) monomials of degree m in P exactly when
    each has degree m and there are that many."""
    gens = ideal.generators
    m, size = sum(gens[0]), sum(map(any, zip(*gens)))
    # the unit ideal's one generator has m = 0 and size = 0, where comb
    # is undefined
    return m == 0 or (all(sum(g) == m for g in gens)
                      and len(gens) == math.comb(size + m - 1, m))


@dataclass(frozen=True)
class StabilizationWitness:
    """Evidence that the body was not attained: a vertex of the limiting
    body outside (1/k)NP(I_k) at the largest tested index."""

    c_tested: int
    k: int
    vertex: Point


@dataclass(frozen=True)
class StabilizationReport:
    """The least c <= c_max attaining the body, or a witness at c_max.

    A report without c says whether its answer is proven: least_c is the
    least c attaining the body when that exceeds c_max, and never is set
    when no c attains it.  With neither, only c <= c_max was searched.
    """

    stabilized: bool
    c: int | None = None
    witness: StabilizationWitness | None = None
    least_c: int | None = None
    never: bool = False


class FamilyLimit(NamedTuple):
    """The limiting body of a family and what its closed form decides.

    scale is the s with body = s*NP(base) for a ceiling family, None for
    the other variants.  least_c is the least c with (1/c)NP(I_c) = body;
    it is None for a ceiling family that never attains its body, and for
    an intersection with a component that is no prime power, which has
    no closed form for it.
    """

    body: RationalPolyhedron
    scale: Fraction | None
    least_c: int | None


def member_ideal(family: FamilySpec, k: int) -> MonomialIdeal:
    """The k-th ideal of the family, k >= 1."""
    _check_power(k, "family index")
    if isinstance(family, PowerFamily):
        return power(family.base, k)
    if isinstance(family, IntersectionFamily):
        body, _, least_c = family_limit(family)
        if least_c is None:
            return intersect([power(j, k) for j in family.components])
        # with a closed form, I_k is the set of lattice points of k*body;
        # minimal_lattice_points returns them as a lex-sorted antichain
        return MonomialIdeal._proven(
            body.nvars, tuple(poly.minimal_lattice_points(body, k)))
    if isinstance(family, CeilingPowerFamily):
        return power(family.base, family.exponent(k))
    raise NokError(f"unknown family variant {type(family).__name__}")


def _least_multiple(p: int, q: int, lo: int, hi: int) -> int:
    """The least k >= 0 with lo <= p*k mod q <= hi, for 0 <= lo <= hi < q
    and p coprime to q.

    Euclid's descent.  The least k with p*k >= lo answers unless p*k >
    hi, as p*k < q is then its own residue.  Otherwise [lo, hi] holds no
    multiple of p, and p*k = q*y + r with r in [lo, hi] has a solution k
    for y exactly when q*y mod p lies in [-hi mod p, -lo mod p]; k grows
    with y, so the least y, the same question for (q mod p, p), gives
    k = ceil((lo + q*y)/p).  The frames of that chain are kept in a list
    and solved back up, so no stack grows with the continued fraction.
    """
    frames = []
    while True:
        k = -(-lo // p)
        if p * k <= hi:
            break
        frames.append((p, q, lo))
        p, q, lo, hi = q % p, p, -hi % p, -lo % p
    for p, q, lo in reversed(frames):
        k = -(-(lo + q * k) // p)
    return k


def _ceiling_minimum(family: CeilingPowerFamily) -> tuple[Fraction,
                                                          int | None]:
    """The infimum s of ceil(alpha*k + beta)/k, and the least k attaining
    it (None when no k does).

    Write alpha = p/q and b = ceil(q*beta).  An integer m satisfies
    m*q >= p*k + q*beta exactly when m*q >= p*k + b, as m*q - p*k is an
    integer; so e(k) = ceil(alpha*k + beta) = ceil((p*k + b)/q), and
    beta's denominator drops out.  For b >= 0 every ratio is at least
    alpha, the infimum: b > 0 keeps each ratio above it, and b = 0 first
    attains it at k = q.

    For b = -B < 0 the exponent at k + q is p more than at k, so a ratio
    at most alpha only grows towards alpha along k, k + q, ...; the least
    k attaining the infimum is at most q.  When B >= q it is k = 1: with
    E = e(1), q*E - p < q - B <= 0, so k*(q*E - p) < q - B and k*E <=
    e(k) for every k.  When B < q, write m(k) = p*k mod q; then e(k) =
    (p*k - m(k))/q when 1 <= m(k) <= B, a ratio alpha - m(k)/(q*k) below
    alpha, every other k < q has a ratio above alpha, and k = q has
    alpha itself.  The least k1 with m(k1) in [1, B] is the least
    minimizer.  Were k2 the least k with a lower ratio, m(k2)/k2 >
    m(k1)/k1, then m(k2) > m(k1), so k2 - k1 has residue m(k2) - m(k1)
    in [1, B]; being below k2, it has m(k2 - k1)/(k2 - k1) <= m(k1)/k1,
    and so has m(k2)/k2, the mediant of the two.
    """
    alpha, beta = family.alpha, family.beta
    p, q = alpha.numerator, alpha.denominator
    b = math.ceil(q * beta)
    if b >= 0:
        return alpha, (None if b else q)
    if -b >= q:
        return Fraction(-((-p - b) // q)), 1
    k = _least_multiple(p % q, q, 1, -b)
    return Fraction(p * k // q, k), k


def ceiling_scale(family: CeilingPowerFamily) -> Fraction:
    """The scale s with limiting body s*NP(base): the infimum of
    ceil(alpha*k + beta)/k, which is alpha for beta >= 0 and is attained
    at some k <= denominator(alpha) otherwise."""
    return _ceiling_minimum(family)[0]


def family_limit(family: FamilySpec) -> FamilyLimit:
    """The limiting body, closure of the union of (1/k)NP(I_k), by the
    closed form of each variant, with the least c attaining it; built
    once per family object."""
    if not isinstance(family, _Family):
        raise NokError(f"unknown family variant {type(family).__name__}")
    return family._limit


def _build_limit(family: FamilySpec) -> FamilyLimit:
    if isinstance(family, PowerFamily):
        # NP(I^c) = c*NP(I)
        return FamilyLimit(newton_polyhedron(family.base), None, 1)
    if isinstance(family, IntersectionFamily):
        # a power P^m of a monomial prime is normal: (P^m)^c is the set
        # of lattice points of c*NP(P^m).  So when every component is one,
        # a body vertex v, which lies in each NP(P^m), has x^(c*v) in I_c
        # once c*v is integral, and the least c is the lcm of the body's
        # vertex denominators
        body = poly.intersect_polyhedra(
            [newton_polyhedron(j) for j in family.components])
        closed = all(map(_is_prime_power, family.components))
        return FamilyLimit(body, None,
                           body._vertex_constants.c if closed else None)
    # a ceiling family: (1/c)NP(I_c) = (e_c/c)*NP(base) with
    # e_c = ceil(alpha*c + beta), which is the body iff e_c/c is the scale,
    # or the base is the unit ideal, whose every dilate is the orthant
    s, k = _ceiling_minimum(family)
    body = poly.scale(newton_polyhedron(family.base), s)
    return FamilyLimit(body, s, 1 if family.base.is_unit() else k)


def newton_okounkov_body(family: FamilySpec) -> RationalPolyhedron:
    """The limiting body: closure of the union of (1/k)NP(I_k), by the
    closed form of each variant."""
    return family_limit(family).body


def _missing(family: FamilySpec, c: int) -> list[Point]:
    """The body vertices outside (1/c)NP(I_c).  That polyhedron lies in
    the body, so a vertex v is in it iff it is one of its vertices: c*v
    is integral, that is, d_v divides c, and x^(c*v) is a generator of
    I_c.  With a closed-form least c, x^(c*v) is in I_c once c*v is
    integral (family_limit), so only the denominators are tested.  An
    intersection with no closed form expands each component's c-th power
    at most once, on the first vertex with c*v integral that needs it.

    A ceiling family is asked only at a c that does not attain its body,
    and misses every vertex there, so none is tested.  Its body is
    s*NP(base), and (1/c)NP(I_c) = (e_c/c)*NP(base) with e_c/c > s, as s
    is the infimum of those ratios and c does not attain it.  A vertex w
    of NP(base) lies on a facet <a, x> >= b with b > 0, since a vertex
    on offset-0 facets only would be the origin; so <a, s*w> = s*b is
    less than (e_c/c)*b, and the body's vertex s*w is outside.  The
    origin is a vertex only of the unit base's NP, the orthant, whose
    least c is 1, so its check never gets here.
    """
    body, _, least_c = family_limit(family)
    if isinstance(family, CeilingPowerFamily):
        return list(body.vertices)
    expanded = cache(lambda j: power(j, c))
    missing = []
    for v, d in zip(body.vertices, body._vertex_constants.denoms):
        if c % d:
            missing.append(v)
        elif least_c is None:
            a = [x.numerator * (c // x.denominator) for x in v]
            if not all(expanded(j).contains_monomial(a)
                       for j in family.components):
                missing.append(v)
    return missing


def stabilization_check(family: FamilySpec,
                        c_max: int) -> StabilizationReport:
    """The smallest c <= c_max with (1/c)NP(I_c) equal to the limiting
    body.

    c attains the body iff every vertex v of the body has c*v integral
    and x^(c*v) in I_c.  Power and ceiling families, and intersections of
    prime powers, symbolic families among them, take the least such c
    from family_limit and expand no member ideal.  Any other intersection
    tests the multiples of the lcm of the body's vertex denominators up
    to c_max, one power of each component per multiple.

    Success certifies that the Rees algebra of the family is Noetherian.
    Otherwise the witness is the largest body vertex that
    (1/c_max)NP(I_{c_max}) misses.  The report's least_c or never then
    proves the answer; for an intersection with no closed form it is
    only a bounded search, not a proof of non-Noetherianity.  The search
    tests each c once, so the witness at c_max reuses its last test.
    """
    _check_power(c_max, "c_max")
    body, _, least_c = family_limit(family)
    missing = cache(lambda c: _missing(family, c))
    searched = least_c is None and isinstance(family, IntersectionFamily)
    if searched:
        step = body._vertex_constants.c
        least_c = next((c for c in range(step, c_max + 1, step)
                        if not missing(c)), None)
    if least_c is not None and least_c <= c_max:
        return StabilizationReport(True, least_c)
    witness = StabilizationWitness(c_max, c_max, max(missing(c_max)))
    return StabilizationReport(False, None, witness, least_c,
                               least_c is None and not searched)


def family_analytic_spread(family: FamilySpec, c_max: int) -> int:
    """mdc of the limiting body plus one; valid once some c attains the
    body.  A closed-form least c proves that, above c_max too; otherwise
    the family must stabilize at some c <= c_max, or it is refused."""
    _check_power(c_max, "c_max")
    limit = family_limit(family)
    if limit.least_c is None and not stabilization_check(family,
                                                         c_max).stabilized:
        raise NotProvenNoetherian(
            f"no c <= {c_max} attains the limiting body; the analytic "
            "spread formula requires a Noetherian Rees algebra")
    return poly.mdc(limit.body) + 1
