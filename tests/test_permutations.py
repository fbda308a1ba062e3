import math
import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.permutations import Permutation

from helpers import DERANDOMIZED, random_permutation


def test_identity_and_validation():
    assert Permutation.identity(3)(2) == 2
    assert Permutation.identity(1).is_identity()
    # Arithmetic builds its results unchecked; the public constructor, the
    # one JSON input takes, still validates.
    for images in [(1, 1, 3), (1, 1), (0, 1), (2, 3)]:
        with pytest.raises(ValueError):
            Permutation(images)
    # images equal to 1..n as numbers but not ints are rejected, never coerced
    for images in [(2.0, 1.0), (2, True), (True,), ("1",)]:
        with pytest.raises(ValueError, match="integers"):
            Permutation(images)
    # a list would compare unequal to the same images as a tuple and not hash
    with pytest.raises(ValueError, match="tuple"):
        Permutation([2, 1])


def test_transposition():
    t = Permutation.transposition(4, 2)
    assert [t(i) for i in (1, 2, 3, 4)] == [1, 3, 2, 4]
    with pytest.raises(ValueError):
        Permutation.transposition(4, 4)
    # True would pass the range check as 1
    for n, i in [(3, True), (3, 1.0), (3.0, 1), (True, 1)]:
        with pytest.raises(ValueError, match="integers"):
            Permutation.transposition(n, i)


def test_from_cycles():
    p = Permutation.from_cycles(5, (1, 4), (2, 3))
    assert [p(i) for i in range(1, 6)] == [4, 3, 2, 1, 5]
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, (1, 2), (2, 3))
    # True passes the range check as 1 and would land in the images as
    # JSON true, which no element encoding reads back
    for n, cycle in [(2, (True, 2)), (2, (1.0, 2)), (2.0, (1, 2)), (True, (1,))]:
        with pytest.raises(ValueError, match="integer"):
            Permutation.from_cycles(n, cycle)
    # a bare entry, or a cycle as a list or a string, is not a cycle
    for cycles in [(5,), ((1, 2), 3), ([1, 2],), ("12",)]:
        with pytest.raises(ValueError, match="tuple of integers"):
            Permutation.from_cycles(3, *cycles)


def test_composition_applies_right_factor_first():
    # The defining convention: (p * q)(i) == p(q(i)).
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 7)
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        for i in range(1, n + 1):
            assert (p * q)(i) == p(q(i))


def test_transposition_ladder_is_increment_cycle():
    # t1 * t2 * ... * t_{n-1} sends i to i+1 and n to 1.
    for n in range(2, 7):
        ladder = reduce(
            lambda a, b: a * b,
            (Permutation.transposition(n, i) for i in range(1, n)),
        )
        assert ladder == Permutation.from_cycles(n, tuple(range(1, n + 1)))


def test_inverse_and_power():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 7)
        p = random_permutation(rng, n)
        assert p * p.inverse() == Permutation.identity(n)
        assert p**0 == Permutation.identity(n)
        assert p**3 == p * p * p
        assert p**-2 == (p.inverse()) * (p.inverse())
        assert (p ** p.order()).is_identity()


@settings(DERANDOMIZED, max_examples=300)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))), st.data())
def test_closed_form_power_matches_repeated_products(images, data):
    # the closed form reads the orbits; the oracle multiplies p or its
    # inverse |k| times, for k on both sides of 0 beyond twice the order
    p = Permutation(tuple(images))
    bound = 2 * p.order() + 1
    k = data.draw(st.integers(-bound, bound) | st.just(0))
    base = p if k >= 0 else p.inverse()
    assert p**k == reduce(lambda acc, _: acc * base, range(abs(k)), Permutation.identity(p.n))


@pytest.mark.parametrize("k", [True, 2.0, "2"])
def test_power_rejects_an_exponent_that_is_not_an_int(k):
    # the message of errors.check_exponent, which every __pow__ runs
    with pytest.raises(ValueError, match=f"^exponent must be an integer, got {re.escape(repr(k))}$"):
        Permutation((2, 3, 1)) ** k


def test_cycles_and_cycle_type():
    p = Permutation.from_cycles(6, (2, 5), (3, 6, 4))
    assert p.orbits == ((1,), (2, 5), (3, 6, 4))
    assert sorted([len(c) for c in p.orbits], reverse=True) == [3, 2, 1]
    assert p.order() == 6
    assert str(p) == "(2 5)(3 6 4)"
    assert str(Permutation.identity(2)) == "id"


def reference_orbits(p):
    """Orbits by repeated application from each unvisited strand, in order."""
    out, seen = [], set()
    for start in range(1, p.n + 1):
        if start not in seen:
            orbit = [start]
            while p(orbit[-1]) != start:
                orbit.append(p(orbit[-1]))
            seen.update(orbit)
            out.append(tuple(orbit))
    return tuple(out)


def test_cached_orbits_match_a_reference_walk():
    rng = random.Random(17)
    samples = [Permutation.identity(n) for n in range(1, 10)]
    samples += [random_permutation(rng, rng.randint(1, 9)) for _ in range(200)]
    samples += [random_permutation(rng, 4) * random_permutation(rng, 4) for _ in range(20)]
    for p in samples:
        ref = reference_orbits(p)
        assert p.orbits == ref and p.orbits is p.orbits
        assert p.orbits == ref
        assert str(p) == ("".join(["(" + " ".join(map(str, c)) + ")" for c in ref if len(c) > 1]) or "id")
        assert p.order() == reduce(math.lcm, (len(c) for c in ref), 1)


def test_adjacent_word_reconstructs():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 7)
        p = random_permutation(rng, n)
        word = p.adjacent_word()
        rebuilt = Permutation.identity(n)
        for i in word:
            rebuilt = rebuilt * Permutation.transposition(n, i)
        assert rebuilt == p
