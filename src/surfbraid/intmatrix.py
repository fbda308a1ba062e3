"""Exact integer matrices: products, differences, determinant and rank.  No
floating point anywhere; verdict-grade arithmetic only.  Rank and
determinant read one elimination, :meth:`IntMatrix._echelon`, through which
the selftest also checks the trace-derived characteristic polynomial.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import add, getitem, sub

from .errors import Frozen


class IntMatrix(Frozen):
    """A dense integer matrix as a tuple of row tuples.

    The public constructor checks that the rows are tuples of equal length
    holding integers only: floats, booleans and strings are rejected, never
    coerced.  Results of arithmetic are built by :meth:`_trusted`, which
    skips that check.

    Rows are built with tuple() of a list, not of a generator: from a list
    the tuple is allocated at its exact size, from a generator it is
    allocated at a guessed size and resized, and in a long run those resizes
    fill CPython's per-size tuple free lists (megabytes of resident memory).
    """

    __slots__ = _fields = ("rows",)

    def __post_init__(self):
        rows = self.rows
        if not isinstance(rows, tuple) or any([not isinstance(r, tuple) for r in rows]):
            raise ValueError(f"matrix rows must be a tuple of tuples, got {rows!r}")
        if rows and any([len(r) != len(rows[0]) for r in rows]):
            raise ValueError("ragged rows")
        if any([type(v) is not int for r in rows for v in r]):
            raise ValueError(f"matrix entries must be integers, got {rows!r}")

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
        """Constructor for rows computed from valid operands: no validation."""
        m = _new(cls)
        _set_rows(m, rows)
        return m

    @classmethod
    def identity(cls, m: int) -> IntMatrix:
        return cls._trusted(tuple([(0,) * i + (1,) + (0,) * (m - 1 - i) for i in range(m)]))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def require_square(self) -> None:
        if self.nrows != self.ncols:
            raise ValueError(f"matrix is {self.nrows}x{self.ncols}, need square")

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        """Sparse-row product: row i of the result sums a * row_k(other) over
        the nonzero entries a = self[i][k] only, found by ``compress``.  The
        sum starts from its first term, not from a zero row; a later term
        with a = 1 or -1 is added or subtracted by one ``map``.  A first
        term with a = 1 is row_k(other) itself, so a row of self whose one
        nonzero entry is 1 (most rows of a permutation-like holonomy matrix)
        makes its result row the very tuple row_k(other); a zero row gives
        a zero row."""
        if not isinstance(other, IntMatrix):
            raise ValueError(f"a matrix multiplies only an IntMatrix, got {other!r}")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        zero = (0,) * other.ncols
        out = []
        for row in self.rows:
            acc = None
            for a, other_row in zip(compress(row, row), compress(other.rows, row)):
                if acc is None:
                    acc = other_row if a == 1 else [a * y for y in other_row]
                elif a == 1:
                    acc = list(map(add, acc, other_row))
                elif a == -1:
                    acc = list(map(sub, acc, other_row))
                else:
                    acc = [x + a * y for x, y in zip(acc, other_row)]
            out.append(zero if acc is None else acc if type(acc) is tuple else tuple(acc))
        return IntMatrix._trusted(tuple(out))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"matrix shapes differ: {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}")
        return IntMatrix._trusted(
            tuple([tuple([a - b for a, b in zip(ra, rb)]) for ra, rb in zip(self.rows, other.rows)])
        )

    def trace(self) -> int:
        self.require_square()
        return sum(map(getitem, self.rows, range(self.nrows)))

    def det(self) -> int:
        """The sign of the echelon's row swaps times the product of its
        diagonal; 0 when the rank is short."""
        self.require_square()
        rows, rank, sign = self._echelon()
        return sign * math.prod([rows[i][i] for i in range(rank)]) if rank == self.nrows else 0

    def rank(self) -> int:
        """Rank over the rationals: the pivot count of :meth:`_echelon`."""
        return self._echelon()[1]

    def _echelon(self) -> tuple[list[list[int]], int, int]:
        """The one elimination behind :meth:`rank` and :meth:`det`: a row echelon
        form by unimodular integer row operations only.  In each column, of the
        rows below the pivots, the one with the least nonzero |entry| is taken
        floor-quotient times from the others, Euclid-style, until it alone is
        nonzero there; a swap, flipping the sign, makes it the next pivot row.
        No division has to come out exact.  Returns the rows, the pivot count
        and the sign."""
        a = [list(row) for row in self.rows]
        rank, sign = 0, 1
        for col in range(self.ncols):
            live = [i for i in range(rank, len(a)) if a[i][col]]
            if not live:
                continue
            while len(live) > 1:
                p = min(live, key=lambda i: abs(a[i][col]))
                pivot_row = a[p]
                pivot = pivot_row[col]
                for i in live:
                    if i != p:
                        q = a[i][col] // pivot
                        a[i] = [v - q * w for v, w in zip(a[i], pivot_row)]
                live = [i for i in live if a[i][col]]
            if live[0] != rank:
                a[rank], a[live[0]] = a[live[0]], a[rank]
                sign = -sign
            rank += 1
        return a, rank, sign

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


_new = object.__new__
_set_rows = IntMatrix.rows.__set__  # the unchecked store of _trusted (see Frozen)
