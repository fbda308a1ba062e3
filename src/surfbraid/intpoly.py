"""Exact integer polynomials and cyclotomic factorization.

A polynomial is a dense coefficient tuple, constant term first, with
trailing zeros trimmed; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

import functools

from .errors import Frozen, NotProductOfCyclotomicsError


class IntPoly(Frozen):
    """A polynomial over the integers.

    >>> IntPoly.of(-1, 0, 1).degree
    2
    >>> IntPoly.of(-1, 0, 1) == IntPoly.x_pow_minus_one(2)
    True

    The public constructor and :meth:`of` accept integer coefficients only:
    floats, booleans and strings are rejected, never coerced.  Quotients and
    remainders of division are built by :meth:`_trusted`, which skips that
    check.
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
        if any([type(c) is not int for c in coeffs]):
            raise ValueError(f"polynomial coefficients must be integers, got {coeffs!r}")
        return cls._trusted(coeffs)

    @classmethod
    def _trusted(cls, coeffs) -> IntPoly:
        """Constructor for integer coefficients computed from valid operands:
        trailing zeros trimmed, no validation."""
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        p = _new(cls)
        _set_coeffs(p, tuple(coeffs[:end]))
        return p

    @classmethod
    def one(cls) -> IntPoly:
        return cls._trusted((1,))

    @classmethod
    def x_pow_minus_one(cls, n: int) -> IntPoly:
        _check_index(n, "the exponent of x^n - 1")
        return cls((-1,) + (0,) * (n - 1) + (1,))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __divmod__(self, other: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Exact Euclidean division over Z; the divisor's leading coefficient
        must divide every leading coefficient encountered.  The shifts are
        walked once from the top down, a zero remainder coefficient skips
        its shift, and each step subtracts the divisor's nonzero terms only."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        top = other.degree
        lead = other.coeffs[-1]
        terms = [(j, d) for j, d in enumerate(other.coeffs[:top]) if d]
        quo = [0] * max(0, len(self.coeffs) - top)
        rem = list(self.coeffs)
        for shift in range(len(quo) - 1, -1, -1):
            c = rem[shift + top]
            if not c:
                continue
            q, r = divmod(c, lead)
            if r != 0:
                raise ValueError(f"{c} is not divisible by leading coefficient {lead}")
            quo[shift] = q
            for j, d in terms:
                rem[shift + j] -= q * d
        return IntPoly._trusted(quo), IntPoly._trusted(rem[:top])

    def exact_div(self, other: IntPoly) -> IntPoly:
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError("division is not exact")
        return quo

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


_new = object.__new__
_set_coeffs = IntPoly.coeffs.__set__  # the unchecked store of _trusted (see Frozen)


def _check_index(d, what: str) -> None:
    """The index check of :func:`totient`, :func:`cyclotomic` and
    :meth:`IntPoly.x_pow_minus_one`: only an exact ``int`` >= 1 passes;
    bools, floats and strings are rejected, never coerced."""
    if type(d) is not int or d < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {d!r}")


def totient(d: int) -> int:
    _check_index(d, "the totient's argument")
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


@functools.lru_cache(maxsize=None, typed=True)  # typed: True must not find the entry of 1
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by exact division of x^d - 1.

    >>> str(cyclotomic(6))
    'x^2 - x + 1'
    """
    _check_index(d, "the cyclotomic index")
    poly = IntPoly.x_pow_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            poly = poly.exact_div(cyclotomic(e))
    return poly


def cyclotomic_multiplicities(p: IntPoly) -> dict[int, int]:
    """Factor p as a product of cyclotomic polynomials, returning {d: multiplicity}.

    Raises NotProductOfCyclotomicsError when p is not monic or some factor
    is not cyclotomic.  Candidate indices d satisfy totient(d) <= deg, and
    totient(d) >= sqrt(d/2) bounds the search.
    """
    if p.is_zero() or not p.is_monic():
        raise NotProductOfCyclotomicsError(f"not a monic polynomial: {p}")
    work = p
    out: dict[int, int] = {}
    d = 1
    while work.degree > 0:
        if d > 2 * work.degree * work.degree + 1:
            raise NotProductOfCyclotomicsError(
                f"irreducible non-cyclotomic factor remains: {work}"
            )
        if totient(d) <= work.degree:
            phi = cyclotomic(d)
            while True:
                quo, rem = divmod(work, phi)  # phi is monic, so the division never fails
                if not rem.is_zero():
                    break
                work = quo
                out[d] = out.get(d, 0) + 1
                if work.degree == 0:
                    break
        d += 1
    if work != IntPoly.one():
        raise NotProductOfCyclotomicsError(f"constant factor {work} is not 1")
    return dict(sorted(out.items()))
