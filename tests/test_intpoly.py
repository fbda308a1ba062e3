import math
import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.errors import NotProductOfCyclotomicsError
from surfbraid.intpoly import IntPoly, cyclotomic, cyclotomic_multiplicities, totient

from helpers import DERANDOMIZED, X, poly_from_sympy, poly_to_sympy, reference_divmod


def product_of_cyclotomics(indices) -> IntPoly:
    """The product of the cyclotomic polynomials of the given indices, by sympy."""
    return poly_from_sympy(math.prod([poly_to_sympy(cyclotomic(d)) for d in indices], start=sympy.Poly(1, X)))


def test_construction_and_degree():
    assert IntPoly.of(0, 0).is_zero()
    assert IntPoly.of(3).degree == 0
    assert IntPoly.of(-1, 0, 1).degree == 2
    assert IntPoly.of().degree == -1
    assert IntPoly.x_pow_minus_one(3).coeffs == (-1, 0, 0, 1)
    with pytest.raises(ValueError):
        IntPoly((1, 0))
    with pytest.raises(ValueError, match="tuple of integers"):
        IntPoly([-1, 0, 1])


@pytest.mark.parametrize("coeffs", [(1.5, True, 2.9), (1, 2.0), (True,), (0, False, 1), ("1",)])
def test_coefficients_are_rejected_never_coerced(coeffs):
    with pytest.raises(ValueError, match="integers"):
        IntPoly.of(*coeffs)
    with pytest.raises(ValueError, match="integers"):
        IntPoly(coeffs)


@pytest.mark.parametrize("d", [True, 2.0, "2", 0, -1])
def test_indices_are_rejected_never_coerced(d):
    # cyclotomic(1) is cached first: under a cache keyed by value, True
    # would find it and give x - 1
    assert cyclotomic(1) == IntPoly.of(-1, 1)
    for index_of in (cyclotomic, totient, IntPoly.x_pow_minus_one):
        with pytest.raises(ValueError, match=f"must be an integer >= 1, got {re.escape(repr(d))}$"):
            index_of(d)


def test_arithmetic_builds_polynomials_without_validation(monkeypatch):
    q = IntPoly.of(-1, 0, 0, 0, 0, 0, 1)

    def results():
        return [divmod(q, IntPoly.of(2, 1)), divmod(q, IntPoly.of(1, 0, 1)), q.exact_div(IntPoly.of(1, 1))]

    expected = results()

    def refuse(self):
        raise AssertionError("IntPoly.__post_init__ ran on an arithmetic result")

    monkeypatch.setattr(IntPoly, "__post_init__", refuse)
    assert results() == expected
    assert IntPoly.of(2, 0, 0) == IntPoly.of(2) and divmod(q, q)[1].coeffs == ()


def test_divmod_exact():
    num = IntPoly.x_pow_minus_one(6)
    quo, rem = divmod(num, IntPoly.of(-1, 1))
    assert rem.is_zero()
    assert quo == IntPoly.of(1, 1, 1, 1, 1, 1)
    assert divmod(num, quo) == (IntPoly.of(-1, 1), IntPoly.of())
    with pytest.raises(ValueError):
        IntPoly.of(1, 1).exact_div(IntPoly.of(0, 1))
    with pytest.raises(ZeroDivisionError):
        divmod(num, IntPoly.of())


def test_cyclotomic_known_values():
    assert cyclotomic(1) == IntPoly.of(-1, 1)
    assert cyclotomic(2) == IntPoly.of(1, 1)
    assert cyclotomic(3) == IntPoly.of(1, 1, 1)
    assert cyclotomic(4) == IntPoly.of(1, 0, 1)
    assert cyclotomic(6) == IntPoly.of(1, -1, 1)
    assert cyclotomic(12) == IntPoly.of(1, 0, -1, 0, 1)
    assert cyclotomic(105).degree == totient(105) == 48


def test_cyclotomic_product_over_divisors():
    for n in range(1, 31):
        assert product_of_cyclotomics([d for d in range(1, n + 1) if n % d == 0]) == IntPoly.x_pow_minus_one(n)
        assert poly_from_sympy(sympy.cyclotomic_poly(n, X)) == cyclotomic(n)


def test_totient():
    assert [totient(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_multiplicities_examples():
    assert cyclotomic_multiplicities(IntPoly.of(-1, 0, 1)) == {1: 1, 2: 1}
    assert cyclotomic_multiplicities(IntPoly.of(1, 1, 1)) == {3: 1}
    # (x^3 - 1)^2, expanded by sympy as the oracle
    assert cyclotomic_multiplicities(poly_from_sympy((X**3 - 1) ** 2)) == {1: 2, 3: 2}
    assert cyclotomic_multiplicities(IntPoly.one()) == {}


def test_multiplicities_random_products_round_trip():
    rng = random.Random(73)
    for _ in range(25):
        indices = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        expected = {d: indices.count(d) for d in sorted(set(indices))}
        assert cyclotomic_multiplicities(product_of_cyclotomics(indices)) == expected


def test_multiplicities_rejections():
    with pytest.raises(NotProductOfCyclotomicsError):
        cyclotomic_multiplicities(IntPoly.of(2, 0, 1))  # x^2 + 2
    with pytest.raises(NotProductOfCyclotomicsError):
        cyclotomic_multiplicities(IntPoly.of(-2, 2))  # not monic
    with pytest.raises(NotProductOfCyclotomicsError):
        cyclotomic_multiplicities(IntPoly.of())
    with pytest.raises(NotProductOfCyclotomicsError):
        cyclotomic_multiplicities(IntPoly.of(-2, 1))  # x - 2


def test_str():
    assert str(IntPoly.of(-1, 0, 2)) == "2x^2 - 1"
    assert str(IntPoly.of()) == "0"
    assert str(IntPoly.of(0, 1)) == "x"


def polys(max_size=10, bound=9):
    return st.lists(st.integers(-bound, bound), max_size=max_size).map(lambda c: IntPoly.of(*c))


@st.composite
def divisors(draw):
    """Nonzero polynomials, monic or not, often with zero terms inside."""
    lead = draw(st.sampled_from([1, 1, -1, 2, -3, 5]))
    inner = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -4]), max_size=7))
    return IntPoly.of(*inner, lead)


@settings(DERANDOMIZED, max_examples=400)
@given(polys(), divisors())
def test_divmod_against_the_rescanning_reference(num, den):
    try:
        expected = reference_divmod(num, den)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            divmod(num, den)
        assert str(raised.value) == str(exc)
        assert "is not divisible by leading coefficient" in str(exc)
    else:
        quo, rem = divmod(num, den)
        assert (quo, rem) == expected
        assert poly_from_sympy(poly_to_sympy(quo) * poly_to_sympy(den) + poly_to_sympy(rem)) == num
        assert rem.degree < den.degree


@settings(DERANDOMIZED, max_examples=300)
@given(polys(), divisors(), polys(max_size=8))
def test_divmod_recovers_quotient_and_remainder(quo, den, rem):
    # num = quo * den + rem with deg rem < deg den is divisible by any divisor's lead
    rem = IntPoly.of(*rem.coeffs[:den.degree])
    num = poly_from_sympy(poly_to_sympy(quo) * poly_to_sympy(den) + poly_to_sympy(rem))
    assert divmod(num, den) == (quo, rem)


def test_divmod_message_names_the_leading_coefficient():
    with pytest.raises(ValueError, match="^3 is not divisible by leading coefficient 2$"):
        divmod(IntPoly.of(1, 0, 3), IntPoly.of(1, 0, 2))
    # the leading 4 divides; it leaves 1 - 2 * 1 = -1 as the next leading coefficient
    with pytest.raises(ValueError, match="^-1 is not divisible by leading coefficient 2$"):
        divmod(IntPoly.of(0, 1, 4), IntPoly.of(1, 2))


@settings(DERANDOMIZED, max_examples=100)
@given(st.lists(st.integers(1, 30), min_size=0, max_size=5))
def test_multiplicities_round_trip_on_cyclotomic_products(indices):
    expected = {d: indices.count(d) for d in sorted(set(indices))}
    assert cyclotomic_multiplicities(product_of_cyclotomics(indices)) == expected
