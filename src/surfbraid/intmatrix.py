"""Exact integer matrices: products, powers, determinant, rank, characteristic
polynomial.  No floating point anywhere; verdict-grade arithmetic only.
"""

from __future__ import annotations

import math

from .errors import Frozen, check
from .intpoly import IntPoly
from .powers import power


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

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

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
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    @classmethod
    def identity(cls, m: int) -> IntMatrix:
        return cls._trusted(tuple([tuple([1 if i == j else 0 for j in range(m)]) for i in range(m)]))

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
        """Sparse-row product: row i of the result accumulates a * row_k(other)
        over the nonzero entries a = self[i][k] only."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        zero = (0,) * other.ncols
        out = []
        for row in self.rows:
            acc = zero
            for a, other_row in zip(row, other.rows):
                if a:
                    acc = [x + a * y for x, y in zip(acc, other_row)]
            out.append(tuple(acc))
        return IntMatrix._trusted(tuple(out))

    def __add__(self, other: IntMatrix) -> IntMatrix:
        return IntMatrix._trusted(
            tuple([tuple([a + b for a, b in zip(ra, rb)]) for ra, rb in zip(self.rows, other.rows)])
        )

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        return IntMatrix._trusted(
            tuple([tuple([a - b for a, b in zip(ra, rb)]) for ra, rb in zip(self.rows, other.rows)])
        )

    def __pow__(self, k: int) -> IntMatrix:
        self.require_square()
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        return power(self, k, IntMatrix.identity(self.nrows))

    def trace(self) -> int:
        self.require_square()
        return sum(self.rows[i][i] for i in range(self.nrows))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        self.require_square()
        m = self.nrows
        if m == 0:
            return 1
        a = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(m - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, m):
                for j in range(k + 1, m):
                    num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                    q, r = divmod(num, prev)
                    check(r == 0, "Bareiss division must be exact")
                    a[i][j] = q
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[m - 1][m - 1]

    def rank(self) -> int:
        """Rank over the rationals by fraction-free integer elimination: each
        row below the pivot becomes pivot * row - entry * pivot_row, divided
        by the gcd of its entries to keep them small."""
        a = [list(row) for row in self.rows]
        rank = 0
        for col in range(self.ncols):
            pivot = next((i for i in range(rank, self.nrows) if a[i][col] != 0), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            pivot_row = a[rank]
            p = pivot_row[col]
            for i in range(rank + 1, self.nrows):
                f = a[i][col]
                if f:
                    row = [p * v - f * w for v, w in zip(a[i], pivot_row)]
                    g = math.gcd(*row)
                    a[i] = [v // g for v in row] if g > 1 else row
            rank += 1
            if rank == self.nrows:
                break
        return rank

    def scaled(self, k: int) -> IntMatrix:
        return IntMatrix._trusted(tuple([tuple([k * v for v in row]) for row in self.rows]))

    def char_poly(self) -> IntPoly:
        """Monic characteristic polynomial det(xI - M), exactly.

        Faddeev-LeVerrier recurrence: every division by the step index is
        exact over the integers, which is checked.  The invariants derive
        the polynomial from power traces instead; this one cross-checks them.
        """
        self.require_square()
        m = self.nrows
        coeffs = [0] * (m + 1)
        coeffs[m] = 1
        aux = self
        for k in range(1, m + 1):
            t = aux.trace()
            q, r = divmod(-t, k)
            check(r == 0, "Faddeev-LeVerrier division must be exact")
            coeffs[m - k] = q
            if k < m:
                shifted = aux + IntMatrix.identity(m).scaled(q)
                aux = self * shifted
        return IntPoly.of(*coeffs)

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.rows]
