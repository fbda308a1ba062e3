"""Permutations of {1, ..., n}, stored as 1-based image tuples.

Composition convention, fixed here and nowhere else: the right factor
acts first, i.e. ``(p * q)(i) == p(q(i))``, exactly like composition of
functions.  Under this convention the product of adjacent transpositions
``t(1) * t(2) * ... * t(n-1)`` is the cycle sending ``i`` to ``i + 1``
(and ``n`` to ``1``), and conjugating a strand generator by a group
element relabels its strand by the *image* permutation of the conjugator.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

from .errors import Frozen, check_exponent


class Permutation(Frozen):
    """A bijection of {1..n}; ``images[i-1]`` is the image of ``i``.

    >>> p = Permutation.from_cycles(3, (1, 2, 3))
    >>> [p(i) for i in (1, 2, 3)]
    [2, 3, 1]
    >>> str(p * p)
    '(1 3 2)'

    The public constructor validates its images.  Products, inverses and
    powers are built by :meth:`_trusted`, which skips that O(n log n)
    check.  The orbit decomposition :attr:`orbits` is computed on first use
    and cached on the instance; the class is frozen, so the images never
    change and the cache never goes stale.
    """

    __slots__ = ("images", "__dict__")  # the dict holds the cached orbits
    _fields = ("images",)

    def __post_init__(self):
        # a list would compare unequal and not hash; floats and bools are never coerced
        if not isinstance(self.images, tuple) or any([type(v) is not int for v in self.images]):
            raise ValueError(f"permutation images must be a tuple of integers, got {self.images}")
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """Constructor for images known to permute 1..n: no validation."""
        p = _new(cls)
        _set_images(p, images)
        return p

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        if type(n) is not int or n < 0:
            raise ValueError(f"degree must be an integer >= 0, got {n!r}")
        return cls._trusted(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> Permutation:
        """The adjacent transposition t(i) swapping i and i+1."""
        if type(n) is not int or type(i) is not int:
            raise ValueError(f"degree and index must be integers, got n={n!r}, i={i!r}")
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range 1..{n - 1}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls._trusted(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, *cycles: tuple[int, ...]) -> Permutation:
        """Build a permutation from disjoint cycles; (c0, c1, ...) sends c0 to c1."""
        if type(n) is not int:
            raise ValueError(f"degree must be an integer, got {n!r}")
        if any([not isinstance(cycle, tuple) for cycle in cycles]):
            raise ValueError(f"each cycle must be a tuple of integers, got {cycles!r}")
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for v in cycle:
                if type(v) is not int:
                    raise ValueError(f"cycle entry {v!r} is not an integer")
                if not 1 <= v <= n:
                    raise ValueError(f"cycle entry {v} out of range 1..{n}")
                if v in seen:
                    raise ValueError(f"cycles are not disjoint at {v}")
                seen.add(v)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls._trusted(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            raise ValueError(f"a permutation composes only with a Permutation, got {other!r}")
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation._trusted(tuple([self.images[j - 1] for j in other.images]))

    def inverse(self) -> Permutation:
        images = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            images[v - 1] = i
        return Permutation._trusted(tuple(images))

    def __pow__(self, k: int) -> Permutation:
        """self**k in closed form, with no product: on each orbit
        (c_0, ..., c_{m-1}), c_i goes to c_{(i+k) mod m}, for negative k too."""
        check_exponent(k)
        images = [0] * self.n
        for cycle in self.orbits:
            shift = k % len(cycle)
            for c, image in zip(cycle, cycle[shift:] + cycle[:shift]):
                images[c - 1] = image
        return Permutation._trusted(tuple(images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Every orbit, fixed points included, each starting at its least
        element, sorted by that element; computed once per permutation."""
        images = self.images
        seen = [False] * (len(images) + 1)
        out = []
        for start in range(1, len(images) + 1):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            v = images[start - 1]
            while v != start:
                cycle.append(v)
                seen[v] = True
                v = images[v - 1]
            out.append(tuple(cycle))
        return tuple(out)

    def order(self) -> int:
        return reduce(math.lcm, [len(c) for c in self.orbits], 1)

    def adjacent_word(self) -> tuple[int, ...]:
        """Indices i(1), ..., i(k) with t(i(1)) * ... * t(i(k)) equal to self."""
        line = list(self.images)
        swaps = []
        changed = True
        while changed:
            changed = False
            for j in range(self.n - 1):
                if line[j] > line[j + 1]:
                    line[j], line[j + 1] = line[j + 1], line[j]
                    swaps.append(j + 1)
                    changed = True
        return tuple(reversed(swaps))

    def __str__(self) -> str:
        """Cycle notation of the nontrivial orbits; ``id`` when there are none."""
        cycles = [c for c in self.orbits if len(c) > 1]
        if not cycles:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


_new = object.__new__
_set_images = Permutation.images.__set__  # the unchecked store of _trusted (see Frozen)
