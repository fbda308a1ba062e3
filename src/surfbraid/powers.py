"""Square-and-multiply, the one exponentiation loop of the package.

Permutations, integer matrices and integer polynomials raise to non-negative
powers through :func:`power`; group elements use the closed form of
:meth:`surfbraid.core.Element.__pow__` instead.  The module imports nothing,
so every layer can use it without importing a layer above itself.
"""

from __future__ import annotations


def power(base, k: int, one):
    """``base ** k`` for ``k >= 0``, where ``one`` is the identity of ``*``:
    one product per set bit of k and one squaring per bit."""
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result
