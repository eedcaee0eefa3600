"""Numeric invariants read off the Newton and symbolic polyhedra: analytic
spreads, the vertex-denominator constants c and D, and the derived bound
formulas for svd and sgt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import polyhedron as poly
from .bodies import (ClassifiedIdeal, newton_polyhedron, np_equals_sp,
                     symbolic_polyhedron)
from .ideal import MonomialIdeal, _check_power
from .polyhedron import VertexConstants


class SvdBounds(NamedTuple):
    lower: int
    upper: int


class SgtBounds(NamedTuple):
    general: int
    np_eq_sp: int | None
    hadamard: Fraction
    hadamard_exact: bool


@dataclass(frozen=True)
class InvariantReport:
    """Everything the polyhedra say about one ideal in a single record.

    SP-derived fields are None when the ideal class does not support a
    symbolic polyhedron.  hadamard_exact records whether hadamard_bound is
    the exact real bound or the least rational upper approximation with
    denominator 2^n (the bound involves a square root that need not be
    rational).
    """

    ell: int
    ell_s: int | None = None
    vertex_denoms: tuple[int, ...] | None = None
    c: int | None = None
    D: int | None = None
    svd_lower: int | None = None
    svd_upper: int | None = None
    sgt_upper: int | None = None
    sgt_upper_np_eq_sp: int | None = None
    hadamard_bound: Fraction | None = None
    hadamard_exact: bool | None = None


def analytic_spread(ideal: MonomialIdeal) -> int:
    """mdc(NP(I)) + 1."""
    return poly.mdc(newton_polyhedron(ideal)) + 1


def symbolic_analytic_spread(classified: ClassifiedIdeal) -> int:
    """mdc(SP(I)) + 1."""
    return poly.mdc(symbolic_polyhedron(classified)) + 1


def vertex_constants(classified: ClassifiedIdeal) -> VertexConstants:
    """Per-vertex denominator lcms d_i (in canonical vertex order), their
    lcm c, and their max D: the symbolic polyhedron's one set of vertex
    constants, computed once per body."""
    return symbolic_polyhedron(classified)._vertex_constants


def verify_np_scaled_sp(classified: ClassifiedIdeal, d: int) -> bool:
    """Does NP(I^(d)) equal d*SP(I)?

    Equivalent to every vertex of d*SP(I) being integral: the dilate is
    the hull of its lattice points exactly when its vertices are lattice
    points, and NP(I^(d)) is that hull.  The vertex d*v is integral iff
    the lcm of v's denominators divides d, so all are iff their lcm c
    does.  Neither I^(d) nor the dilate is built.
    """
    _check_power(d, "dilation")
    return d % vertex_constants(classified).c == 0


def svd_bounds(classified: ClassifiedIdeal) -> SvdBounds:
    """svd is a multiple of c in [c, max{(ell_s - 1)c, c}].

    The upper bound is clamped to c when ell_s = 1 (single-vertex SP), where
    symbolic powers are generated along one vertex ray and svd = c.
    """
    _, c, _ = vertex_constants(classified)
    ell_s = symbolic_analytic_spread(classified)
    return SvdBounds(c, max((ell_s - 1) * c, c))


def _generation_bound(classified: ClassifiedIdeal) -> int:
    """max{ell_s*D - 1, D}, from SP alone."""
    D = vertex_constants(classified).D
    return max(symbolic_analytic_spread(classified) * D - 1, D)


def sgt_bounds(classified: ClassifiedIdeal) -> SgtBounds:
    """Upper bounds for the symbolic generation type.

    general: max{ell_s*D - 1, D}.  np_eq_sp: max{ell_s - 2, 1}, only for
    squarefree ideals whose Newton and symbolic polyhedra agree.
    hadamard: the same formula with D replaced by the Hadamard-type bound
    H = (n+1)^((n+1)/2) / 2^n, reported exactly when H is rational and as
    the least rational above it (denominator 2^n) otherwise.
    """
    ell_s = symbolic_analytic_spread(classified)
    special = None
    if classified.ideal.is_squarefree() and np_equals_sp(classified):
        special = max(ell_s - 2, 1)
    n = classified.ideal.nvars
    big = (n + 1) ** (n + 1)
    root = math.isqrt(big)
    exact = root * root == big
    if not exact:
        root += 1
    h_up = Fraction(root, 2 ** n)
    hadamard = max(ell_s * h_up - 1, h_up)
    return SgtBounds(_generation_bound(classified), special, hadamard,
                     exact)


def c_degree_compatibility(classified: ClassifiedIdeal,
                           hilbert_degrees) -> bool:
    """c must divide lcm(degrees), and every d_i must itself occur as a
    degree (each scaled vertex is an algebra generator)."""
    degrees = set(hilbert_degrees)
    if not degrees:
        return False
    denoms, c, _ = vertex_constants(classified)
    return math.lcm(*degrees) % c == 0 and set(denoms) <= degrees


def invariant_report(classified: ClassifiedIdeal) -> InvariantReport:
    """Assemble the full report; SP-derived fields only when supported."""
    ell = analytic_spread(classified.ideal)
    if not classified.supports_sp():
        return InvariantReport(ell=ell)
    denoms, c, D = vertex_constants(classified)
    ell_s = symbolic_analytic_spread(classified)
    svd = svd_bounds(classified)
    sgt = sgt_bounds(classified)
    return InvariantReport(
        ell=ell, ell_s=ell_s, vertex_denoms=denoms, c=c, D=D,
        svd_lower=svd.lower, svd_upper=svd.upper,
        sgt_upper=sgt.general, sgt_upper_np_eq_sp=sgt.np_eq_sp,
        hadamard_bound=sgt.hadamard, hadamard_exact=sgt.hadamard_exact)
