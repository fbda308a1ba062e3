"""Exact integer polynomials and Euler's totient.

A polynomial is a dense coefficient tuple, constant term first, with
trailing zeros trimmed; the zero polynomial is the empty tuple.  The
library builds one per representation, its characteristic polynomial, and
never divides or factors one: the cyclotomic data come from the power
traces (see :mod:`surfbraid.invariants`).
"""

from __future__ import annotations

from .errors import Frozen


class IntPoly(Frozen):
    """A polynomial over the integers.

    >>> IntPoly.of(-1, 0, 1, 0).degree
    2

    The public constructor and :meth:`of` accept integer coefficients only:
    floats, booleans and strings are rejected, never coerced.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple) or any([type(c) is not int for c in self.coeffs]):
            raise ValueError(f"polynomial coefficients must be a tuple of integers, got {self.coeffs!r}")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use IntPoly.of to normalize")

    @classmethod
    def of(cls, *coeffs: int) -> IntPoly:
        """The polynomial of these coefficients with its trailing integer
        zeros trimmed, checked by the constructor."""
        end = len(coeffs)
        while end > 0 and type(coeffs[end - 1]) is int and coeffs[end - 1] == 0:
            end -= 1
        return cls(coeffs[:end])

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


def totient(d: int) -> int:
    """Euler's phi; only an exact ``int`` >= 1 passes: bools, floats and
    strings are rejected, never coerced."""
    if type(d) is not int or d < 1:
        raise ValueError(f"the totient's argument must be an integer >= 1, got {d!r}")
    result, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result
