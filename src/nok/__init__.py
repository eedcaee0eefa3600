"""Exact computations with Newton and symbolic polyhedra of monomial
ideals: symbolic powers, integral closures, analytic spreads, graded
families and their limit bodies, and Hilbert bases of the associated
cones.  All arithmetic is exact over the rationals."""

from types import ModuleType as _ModuleType

from .bodies import (ClassifiedIdeal, IdealKind, MembershipCertificate,
                     classify, classify_decomposition, integral_closure,
                     member_integral_closure, member_symbolic,
                     membership_certificate, newton_polyhedron, np_equals_sp,
                     real_power, symbolic_polyhedron, symbolic_power)
from .errors import (DimensionMismatch, EmptyGeneratorSet,
                     EmptyInput, EmptyList, EmptyPrime, InexactNumber,
                     InfeasibleSystem, InvalidVertexBudget,
                     MissingOrthantConstraints, NoCandidate, NokError,
                     NonPositiveExponent, NonPositiveMultiplicity,
                     NonPositiveScale, NotProvenNoetherian, NotSquarefree,
                     NoVertices, ParseError, UnknownVariable,
                     UnsupportedIdealClass, VertexBudgetExceeded)
from .families import (CeilingPowerFamily, FamilyLimit, FamilySpec,
                       IntersectionFamily, PowerFamily, StabilizationReport,
                       StabilizationWitness, ceiling_scale,
                       family_analytic_spread, family_limit, member_ideal,
                       newton_okounkov_body, stabilization_check,
                       symbolic_family)
from .fileio import (ParsedFamily, ParsedIdeal, format_halfspace,
                     format_monomial, format_monomials, format_point,
                     frac_to_str, parse_family_file, parse_family_text,
                     parse_ideal_file, parse_ideal_text, parse_monomial_text,
                     str_to_frac)
from .ideal import (MonomialIdeal, PrimeComponent, PrimeDecomposition,
                    expand_decomposition, intersect, minimal_primes,
                    minimal_vectors, minimalize, multiply, power)
from .invariants import (InvariantReport, SgtBounds, SvdBounds,
                         VertexConstants, analytic_spread,
                         c_degree_compatibility, invariant_report,
                         sgt_bounds, svd_bounds, symbolic_analytic_spread,
                         verify_np_scaled_sp, vertex_constants)
from .polyhedron import (DEFAULT_VERTEX_BUDGET, HalfSpace, RationalPolyhedron,
                         contains, equal, from_halfspaces, hull_up_set,
                         intersect_polyhedra, mdc, minimal_lattice_points,
                         scale)
from .simis import (HilbertBasisReport, HilbertElement, hilbert_basis,
                    normal_rees_generator_degrees, sgt_exact, svd_probe,
                    veronese_verify)

__version__ = "0.1.0"

# every public name imported above; the submodules are not part of it
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
