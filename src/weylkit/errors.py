"""Exception hierarchy.

Everything user-facing derives from WeylkitError (CLI exit code 1).
InternalInvariantError marks states the library promises are impossible;
the CLI maps it, like any other exception outside WeylkitError, to exit
code 2.
"""

from __future__ import annotations

__all__ = [
    "WeylkitError",
    "InternalInvariantError",
    "NotFiniteType",
    "SafetyBoundExceeded",
    "NotDivisible",
    "WordMismatch",
    "NotInvariant",
    "FreenessCheckFailed",
    "SingularMatrix",
    "ParseError",
]


class WeylkitError(Exception):
    """Base class for domain errors raised on bad or unservable input."""


class InternalInvariantError(Exception):
    """A condition the library guarantees never happens did happen."""


class NotFiniteType(WeylkitError):
    """Cartan matrix is not of finite type (or not a Cartan matrix at all)."""


class SafetyBoundExceeded(WeylkitError):
    """Valid input whose work would pass a size cap, such as a Weyl group of
    more than weyl.ELEMENT_CAP elements; checked before the work starts."""


class NotDivisible(WeylkitError):
    """A negative power of an element that is not a unit monomial +-e^mu."""


class WordMismatch(InternalInvariantError):
    """Two reduced words of one group element gave different operator values."""


class NotInvariant(WeylkitError):
    """Operand was required to be Weyl-invariant but is not."""


class FreenessCheckFailed(InternalInvariantError):
    """The Steinberg pairing has no unitriangular pivot order, so the
    library's own basis weights failed to certify freeness."""


class SingularMatrix(WeylkitError):
    """Integer matrix was required to be nonsingular but has determinant 0."""


class ParseError(WeylkitError):
    """Expression text does not match the grammar; message carries position."""
