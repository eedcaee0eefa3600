"""Exception taxonomy shared by every module in the package.

Each class carries the exit code with which `nok` refuses it:
`exit_code` is 1 on `NokError`, 2 on `ParseError` (so on
`UnknownVariable` and `NonPositiveMultiplicity`) and on
`InvalidVertexBudget`, and 3 on `VertexBudgetExceeded`.
"""

from __future__ import annotations


class NokError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 1


# -- ideal arithmetic ---------------------------------------------------------

class EmptyGeneratorSet(NokError):
    """No generators were given (the zero ideal is not representable)."""


class DimensionMismatch(NokError):
    """Operands live in different ambient dimensions."""


class NonPositiveExponent(NokError):
    """A power or real-power exponent must be positive."""


class InexactNumber(NokError):
    """A float was given where an exact rational is needed."""


class EmptyList(NokError):
    """An operation over a list of ideals received an empty list."""


class NotSquarefree(NokError):
    """Operation requires a squarefree ideal (all exponents 0/1)."""


class EmptyPrime(NokError):
    """A monomial prime must contain at least one variable."""


# -- polyhedra ----------------------------------------------------------------

class EmptyInput(NokError):
    """Hull of an empty point set requested."""


class InfeasibleSystem(NokError):
    """The half-space system has no solution."""


class MissingOrthantConstraints(NokError):
    """The system does not include or imply x_i >= 0 for every coordinate."""


class NoVertices(NokError):
    """The polyhedron has no vertices; compact-face analysis is undefined."""


class NonPositiveScale(NokError):
    """Polyhedron scaling factor must be positive."""


class VertexBudgetExceeded(NokError):
    """Double description ray count exceeded NOK_MAX_VERTICES."""

    exit_code = 3


class InvalidVertexBudget(NokError):
    """NOK_MAX_VERTICES is set to something other than a positive integer."""

    exit_code = 2


# -- bodies / families / cones ------------------------------------------------

class UnsupportedIdealClass(NokError):
    """Symbolic machinery is only defined for squarefree, explicit
    intersection-of-prime-powers, and m-primary monomial ideals."""


class NotProvenNoetherian(NokError):
    """Stabilization was not certified within the search bound; the
    analytic-spread formula's hypothesis is unverified."""


class NoCandidate(NokError):
    """No candidate degree passed the bounded verification (flags a bug)."""


# -- parsing ------------------------------------------------------------------

class ParseError(NokError):
    """Input file violates the ideal/family grammar."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")


class UnknownVariable(ParseError):
    """A monomial or prime uses a variable not declared in `vars:`."""


class NonPositiveMultiplicity(ParseError):
    """Component multiplicities and monomial exponents must be >= 1."""
