"""Exception types shared across the package.

Everything raised on bad mathematical input derives from DomainError so
the command line front end can map it to a single exit code.  A failed
internal check raises VerificationError instead, which is not a DomainError.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Base class for errors caused by invalid mathematical input."""


class GroupMismatchError(DomainError):
    """Operands belong to different groups."""


class UnsupportedSurfaceError(DomainError):
    """The requested computation is not defined for this surface/strand count."""


class WordSyntaxError(DomainError):
    """A braid word string does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GeneratorIndexError(DomainError):
    """A generator index in a braid word is out of range."""


class InfiniteOrderError(DomainError):
    """The element has infinite order where finite order is required."""


class NotAnSnEmbeddingError(DomainError):
    """The supplied images do not define a symmetric-group copy."""


class BadPrimeError(DomainError):
    """The prime parameter is not an odd prime >= 5."""


class BadMultiplierError(DomainError):
    """The multiplier does not have multiplicative order (p-1)/2 modulo p."""


class NotProductOfCyclotomicsError(DomainError):
    """The polynomial is not a product of cyclotomic polynomials."""


class VerificationError(RuntimeError):
    """An internal consistency check failed: the computation, not the input,
    is at fault.  Deliberately not a ValueError, so it is never reported as a
    domain error, and raised explicitly so it survives ``python -O``."""


def check(condition: bool, message: str) -> None:
    """Raise VerificationError with ``message`` unless ``condition`` holds."""
    if not condition:
        raise VerificationError(message)
