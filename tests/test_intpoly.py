import re

import pytest

from surfbraid.intpoly import IntPoly, totient


def test_construction_and_degree():
    assert IntPoly.of(0, 0).coeffs == ()
    assert IntPoly.of(3).degree == 0
    assert IntPoly.of(-1, 0, 1).degree == 2
    assert IntPoly.of().degree == -1
    assert IntPoly.of(-1, 0, 0, 1, 0).coeffs == (-1, 0, 0, 1)
    with pytest.raises(ValueError):
        IntPoly((1, 0))
    with pytest.raises(ValueError, match="tuple of integers"):
        IntPoly([-1, 0, 1])


@pytest.mark.parametrize("coeffs", [(1.5, True, 2.9), (1, 2.0), (True,), (0, False, 1), ("1",),
                                    (1, 0.0), (1, False)])
def test_coefficients_are_rejected_never_coerced(coeffs):
    with pytest.raises(ValueError, match="integers"):
        IntPoly.of(*coeffs)
    with pytest.raises(ValueError, match="integers"):
        IntPoly(coeffs)


@pytest.mark.parametrize("d", [True, 2.0, "2", 0, -1])
def test_indices_are_rejected_never_coerced(d):
    with pytest.raises(ValueError, match=f"must be an integer >= 1, got {re.escape(repr(d))}$"):
        totient(d)


def test_totient():
    assert [totient(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_str():
    assert str(IntPoly.of(-1, 0, 2)) == "2x^2 - 1"
    assert str(IntPoly.of()) == "0"
    assert str(IntPoly.of(0, 1)) == "x"
