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
from dataclasses import dataclass
from functools import reduce

from .powers import power


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``images[i-1]`` is the image of ``i``.

    >>> p = Permutation.from_cycles(3, (1, 2, 3))
    >>> [p(i) for i in (1, 2, 3)]
    [2, 3, 1]
    >>> str(p * p)
    '(1 3 2)'
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> Permutation:
        """The adjacent transposition t(i) swapping i and i+1."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range 1..{n - 1}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, *cycles: tuple[int, ...]) -> Permutation:
        """Build a permutation from disjoint cycles; (c0, c1, ...) sends c0 to c1."""
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for v in cycle:
                if not 1 <= v <= n:
                    raise ValueError(f"cycle entry {v} out of range 1..{n}")
                if v in seen:
                    raise ValueError(f"cycles are not disjoint at {v}")
                seen.add(v)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(tuple([self.images[j - 1] for j in other.images]))

    def inverse(self) -> Permutation:
        images = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            images[v - 1] = i
        return Permutation(tuple(images))

    def __pow__(self, k: int) -> Permutation:
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, Permutation.identity(self.n))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its least element, sorted by that element."""
        out = []
        seen: set[int] = set()
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            v = self(start)
            while v != start:
                cycle.append(v)
                seen.add(v)
                v = self(v)
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, in decreasing order."""
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True))

    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in self.cycles()), 1)

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
        cycles = self.cycles()
        if not cycles:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
