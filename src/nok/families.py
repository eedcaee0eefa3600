"""Graded families of monomial ideals: member ideals, limiting bodies, and
the polyhedral stabilization test that certifies a Noetherian Rees algebra.

Four families are representable: ordinary powers, symbolic powers,
intersections of powers of several ideals, and ceiling powers
I_k = base^ceil(alpha*k + beta).  Each has a closed-form limiting body, so
the union over k of (1/k)NP(I_k) never has to be approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import polyhedron as poly
from .bodies import (ClassifiedIdeal, newton_polyhedron, symbolic_polyhedron,
                     symbolic_power)
from .errors import (DimensionMismatch, EmptyList, NokError,
                     NonPositiveExponent, NotProvenNoetherian,
                     UnsupportedIdealClass)
from .ideal import MonomialIdeal, intersect, multiply, power
from .polyhedron import Point, RationalPolyhedron


@dataclass(frozen=True)
class PowerFamily:
    """I_k = base^k."""

    base: MonomialIdeal


@dataclass(frozen=True)
class SymbolicFamily:
    """I_k = base^(k), so the base must support a symbolic polyhedron."""

    base: ClassifiedIdeal

    def __post_init__(self):
        if not self.base.supports_sp():
            raise UnsupportedIdealClass(
                "symbolic family needs a squarefree, linear-power, or "
                "m-primary base ideal")


@dataclass(frozen=True)
class IntersectionFamily:
    """I_k = intersection of J_i^k over the component ideals J_i."""

    components: tuple[MonomialIdeal, ...]

    def __post_init__(self):
        if not self.components:
            raise EmptyList("intersection family needs at least one ideal")
        if len({j.nvars for j in self.components}) > 1:
            raise DimensionMismatch("component variable counts differ")


@dataclass(frozen=True)
class CeilingPowerFamily:
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


FamilySpec = Union[PowerFamily, SymbolicFamily, IntersectionFamily,
                   CeilingPowerFamily]


@dataclass(frozen=True)
class StabilizationWitness:
    """Evidence that the body was not attained: a vertex of the limiting
    body outside (1/k)NP(I_k) at the largest tested index."""

    c_tested: int
    k: int
    vertex: Point


@dataclass(frozen=True)
class StabilizationReport:
    stabilized: bool
    c: int | None = None
    witness: StabilizationWitness | None = None


def member_ideal(family: FamilySpec, k: int) -> MonomialIdeal:
    """The k-th ideal of the family, k >= 1."""
    if not isinstance(k, int) or k < 1:
        raise NonPositiveExponent(f"family index must be >= 1, got {k}")
    if isinstance(family, PowerFamily):
        return power(family.base, k)
    if isinstance(family, SymbolicFamily):
        return symbolic_power(family.base, k)
    if isinstance(family, IntersectionFamily):
        return intersect([power(j, k) for j in family.components])
    if isinstance(family, CeilingPowerFamily):
        return power(family.base, family.exponent(k))
    raise NokError(f"unknown family variant {type(family).__name__}")


def ceiling_scale(family: CeilingPowerFamily) -> Fraction:
    """The scale s with limiting body s*NP(base): the infimum of
    ceil(alpha*k + beta)/k.

    For beta >= 0 the infimum is alpha.  For beta < 0, write alpha = p/q:
    the exponent at k + q is p more than at k, so a ratio below alpha only
    grows towards alpha along k, k + q, k + 2q, ...  Any value below alpha
    is therefore attained at some k <= q, and the minimum over that prefix
    and alpha is exact.
    """
    alpha, beta = family.alpha, family.beta
    if beta >= 0:
        return alpha
    p, q = alpha.numerator, alpha.denominator
    u, v = beta.numerator, beta.denominator
    best, best_k = p, q
    for k in range(1, q + 1):
        # ceil(alpha*k + beta) = ceil((p*k*v + u*q) / (q*v)) in integers
        exponent = -((-p * k * v - u * q) // (q * v))
        if exponent * best_k < best * k:
            best, best_k = exponent, k
    return Fraction(best, best_k)


def newton_okounkov_body(family: FamilySpec) -> RationalPolyhedron:
    """The limiting body: closure of the union of (1/k)NP(I_k), by the
    closed form of each variant."""
    if isinstance(family, PowerFamily):
        return newton_polyhedron(family.base)
    if isinstance(family, SymbolicFamily):
        return symbolic_polyhedron(family.base)
    if isinstance(family, IntersectionFamily):
        return poly.intersect_polyhedra(
            [newton_polyhedron(j) for j in family.components])
    if isinstance(family, CeilingPowerFamily):
        return poly.scale(newton_polyhedron(family.base),
                          ceiling_scale(family))
    raise NokError(f"unknown family variant {type(family).__name__}")


def stabilization_check(family: FamilySpec,
                        c_max: int) -> StabilizationReport:
    """Search for the smallest c <= c_max with (1/c)NP(I_c) equal to the
    limiting body.

    Success certifies that the Rees algebra of the family is Noetherian.
    Failure only reports that no tested c works, with a witness vertex of
    the body that (1/c_max)NP(I_{c_max}) misses; it is not a proof of
    non-Noetherianity.
    """
    if c_max < 1:
        raise NonPositiveExponent(f"c_max must be >= 1, got {c_max}")
    body = newton_okounkov_body(family)
    for c in range(1, c_max + 1):
        scaled = poly.scale(newton_polyhedron(member_ideal(family, c)),
                            Fraction(1, c))
        if poly.equal(scaled, body):
            return StabilizationReport(True, c)
    # the loop ran to the end, so `scaled` is (1/c_max)NP(I_{c_max})
    missing = [v for v in body.vertices if not poly.contains(scaled, v)]
    witness = StabilizationWitness(c_max, c_max, max(missing))
    return StabilizationReport(False, None, witness)


def family_analytic_spread(family: FamilySpec, c_max: int) -> int:
    """mdc of the limiting body plus one; valid once stabilization is
    certified, refused otherwise."""
    report = stabilization_check(family, c_max)
    if not report.stabilized:
        raise NotProvenNoetherian(
            f"no c <= {c_max} attains the limiting body; the analytic "
            "spread formula requires a Noetherian Rees algebra")
    return poly.mdc(newton_okounkov_body(family)) + 1

