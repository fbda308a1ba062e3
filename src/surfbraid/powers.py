"""Square-and-multiply, the one exponentiation loop of the package.

Permutations, integer matrices and integer polynomials raise to powers
through :func:`power`; group elements use the closed form of
:meth:`surfbraid.core.Element.__pow__` instead, and braid words repeat their
letters.  Every ``__pow__`` takes its exponent through :func:`check_exponent`.
The module imports nothing, so every layer can use it without importing a
layer above itself.
"""

from __future__ import annotations


def check_exponent(k) -> None:
    """The one exponent check: only an exact ``int`` passes; bools, floats
    and strings are rejected, never coerced."""
    if type(k) is not int:
        raise ValueError(f"exponent must be an integer, got {k!r}")


def power(base, k: int, one, inverse=None):
    """``base ** k``, where ``one`` is the identity of ``*``: one product per
    set bit of |k| and one squaring per bit.  A negative k raises
    ``inverse()`` to -k, and is rejected when ``inverse`` is None."""
    check_exponent(k)
    if k < 0:
        if inverse is None:
            raise ValueError(f"negative powers of {type(base).__name__} are not defined")
        base, k = inverse(), -k
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result
