"""Exception types, the base of the immutable value classes, and the one
exponent check, shared across the package.

Everything raised on bad mathematical input derives from DomainError so
the command line front end can map it to a single exit code.  A failed
internal check raises VerificationError instead, which is not a DomainError.
"""

from __future__ import annotations

from operator import attrgetter


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


class VerificationError(RuntimeError):
    """An internal consistency check failed: the computation, not the input,
    is at fault.  Deliberately not a ValueError, so it is never reported as a
    domain error, and raised explicitly so it survives ``python -O``."""


def check(condition: bool, message: str) -> None:
    """Raise VerificationError with ``message`` unless ``condition`` holds."""
    if not condition:
        raise VerificationError(message)


def check_exponent(k) -> None:
    """The exponent check of every ``__pow__``: only an exact ``int`` passes;
    bools, floats and strings are rejected, never coerced."""
    if type(k) is not int:
        raise ValueError(f"exponent must be an integer, got {k!r}")


class Frozen:
    """Base of the package's immutable value classes.

    A subclass declares its fields in ``__slots__`` (plus ``__dict__`` where
    a ``functools.cached_property`` caches into the instance) and names the
    ones that make up its value, in order, in ``_fields``.  This base gives
    what the ``_fields`` determine.  The one constructor, ``Cls(*values)``,
    takes exactly one positional value per field (a wrong count raises
    TypeError before anything is stored), stores them in order and runs the
    class's ``__post_init__``, which checks them and may store derived slots
    with ``object.__setattr__``: plain assignment and deletion raise
    AttributeError.  The repr is ``Cls(field=value, ...)``, equality holds
    between instances of the same class only, and the hash is that of the
    key, ``operator.attrgetter(*_fields)`` made once per class: the field
    tuple, or the one field itself.  Pickling and copying restore the
    fields without assigning them.  The unchecked constructors that
    arithmetic runs once per result (each ``_trusted`` and
    ``CoeffVector.__init__``) store through the slot descriptors' setters
    instead, bound once at module level next to the class, for example
    ``_set_rows = CoeffVector.rows.__set__``, because ``object.__setattr__``
    looks the slot up by name on every call.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)  # not a descriptor: self._key is the getter itself

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes one value per field {self._fields}: "
                            f"{len(self._fields)} expected, {len(values)} given")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The check a subclass runs on its stored fields; none here."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        state = {name: getattr(self, name) for name in self.__slots__ if name != "__dict__"}
        state.update(getattr(self, "__dict__", ()))  # what a cached_property stored
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
