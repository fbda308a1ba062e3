"""Exact integer matrices: products, differences, determinant and rank.  No
floating point anywhere; verdict-grade arithmetic only.

A matrix is stored as its nonzero entries only: the column count and, per
row, a tuple of (column, value) pairs in increasing column order, zeros
dropped.  That form is canonical, so equality and hashing read it directly,
and every operation touches nonzero entries only; a holonomy matrix of
:mod:`surfbraid.bieberbach` has about one per row.  Rank and determinant
read one elimination, :meth:`IntMatrix._echelon`, through which the
selftest also checks the trace-derived characteristic polynomial.
"""

from __future__ import annotations

import math
from bisect import bisect

from .errors import Frozen


class IntMatrix(Frozen):
    """An integer matrix in the stored form of the module docstring:
    ``ncols``, and ``entries``, one tuple of (column, value) pairs per row.

    The public constructor checks that form: ``ncols`` an int >= 0, each
    row a tuple of pairs of integers, every value nonzero and the columns
    increasing inside [0, ncols).  :meth:`from_rows` builds a matrix from
    dense rows, checked to be tuples of equal length holding integers only,
    and :attr:`rows` gives them back.  Floats, booleans and strings are
    rejected, never coerced.  Results of arithmetic, and of :meth:`from_rows`
    once its dense checks pass, are built by :meth:`_trusted`, which skips
    the check of the stored form.

    Rows are built with tuple() of a list, not of a generator: from a list
    the tuple is allocated at its exact size, from a generator it is
    allocated at a guessed size and resized, and in a long run those resizes
    fill CPython's per-size tuple free lists (megabytes of resident memory).
    """

    __slots__ = _fields = ("ncols", "entries")

    def __post_init__(self):
        ncols, entries = self.ncols, self.entries
        if type(ncols) is not int or ncols < 0:
            raise ValueError(f"column count must be an integer >= 0, got {ncols!r}")
        if not isinstance(entries, tuple) or any([not isinstance(r, tuple) for r in entries]):
            raise ValueError(f"matrix rows must be a tuple of tuples, got {entries!r}")
        for row in entries:
            if any([not isinstance(e, tuple) or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int
                    for e in row]):
                raise ValueError(f"matrix entries must be (column, value) pairs of integers, got {row!r}")
            columns = [-1] + [c for c, _ in row] + [ncols]
            if 0 in [v for _, v in row] or any([a >= b for a, b in zip(columns, columns[1:])]):
                raise ValueError(f"a row must hold nonzero values at increasing columns in [0, {ncols}), got {row!r}")

    @classmethod
    def from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
        """The matrix with the given dense rows: a tuple of equal-length tuples
        of integers, checked before any zero is dropped."""
        if not isinstance(rows, tuple) or any([not isinstance(r, tuple) for r in rows]):
            raise ValueError(f"matrix rows must be a tuple of tuples, got {rows!r}")
        if rows and any([len(r) != len(rows[0]) for r in rows]):
            raise ValueError("ragged rows")
        if any([type(v) is not int for r in rows for v in r]):
            raise ValueError(f"matrix entries must be integers, got {rows!r}")
        entries = tuple([tuple([e for e in enumerate(r) if e[1]]) for r in rows])
        return cls._trusted(len(rows[0]) if rows else 0, entries)

    @classmethod
    def _trusted(cls, ncols: int, entries: tuple[tuple[tuple[int, int], ...], ...]) -> IntMatrix:
        """Constructor for entries computed from valid operands: no validation."""
        m = _new(cls)
        _set_ncols(m, ncols)
        _set_entries(m, entries)
        return m

    @classmethod
    def identity(cls, m: int) -> IntMatrix:
        if type(m) is not int or m < 0:
            raise ValueError(f"dimension must be an integer >= 0, got {m!r}")
        return cls._trusted(m, tuple([((i, 1),) for i in range(m)]))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built afresh on each read; no arithmetic reads them."""
        out = []
        for row in self.entries:
            dense = [0] * self.ncols
            for c, v in row:
                dense[c] = v
            out.append(tuple(dense))
        return tuple(out)

    def require_square(self) -> None:
        if self.nrows != self.ncols:
            raise ValueError(f"matrix is {self.nrows}x{self.ncols}, need square")

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        """Row i of the product sums a * row_k(other) over the stored entries
        (k, a) of row i only, one :func:`_add_multiple` each, from the empty
        row.  A first entry a = 1 starts the sum from the very tuple
        row_k(other), so a unit row, whose one entry is a 1, makes its result
        row that tuple: most rows of a permutation-like holonomy matrix cost
        one lookup."""
        if not isinstance(other, IntMatrix):
            raise ValueError(f"a matrix multiplies only an IntMatrix, got {other!r}")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        right = other.entries
        out = []
        for row in self.entries:
            acc = ()
            for k, a in row:
                acc = _add_multiple(acc, a, right[k])
            out.append(acc)
        return IntMatrix._trusted(other.ncols, tuple(out))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            raise ValueError(f"a matrix subtracts only an IntMatrix, got {other!r}")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"matrix shapes differ: {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}")
        return IntMatrix._trusted(
            self.ncols, tuple([_add_multiple(a, -1, b) for a, b in zip(self.entries, other.entries)]))

    def trace(self) -> int:
        self.require_square()
        return sum([v for i, row in enumerate(self.entries) for c, v in row if c == i])

    def det(self) -> int:
        """The sign of the echelon times the product of its rows' leading
        entries; 0 when the rank is short."""
        self.require_square()
        rows, rank, sign = self._echelon()
        return sign * math.prod([row[0][1] for row in rows]) if rank == self.nrows else 0

    def rank(self) -> int:
        """Rank over the rationals: the pivot count of :meth:`_echelon`."""
        return self._echelon()[1]

    def _echelon(self) -> tuple[list[tuple[tuple[int, int], ...]], int, int]:
        """The one elimination behind :meth:`rank` and :meth:`det`: an echelon
        form by unimodular integer row operations only (Cohen, A Course in
        Computational Algebraic Number Theory, 1993, 2.4), over the stored
        entries.  Row by row, in order, a row is reduced against the pivot
        rows, keyed by their leading column: while its leading column has a
        pivot row, it takes that row floor-quotient times away, Euclid-style,
        and a nonzero remainder there swaps places with the pivot row, which
        goes on being reduced.  No division has to come out exact.  A row left
        nonzero becomes the pivot row of its leading column where it stands.
        The sign is flipped by each swap and by each inversion between the
        rows' places and echelon order (leading columns increasing, zero rows
        last), so a square matrix of full rank has determinant the sign times
        the product of the leading entries.  Returns the rows in their
        places, the pivot count and the sign."""
        rows = list(self.entries)
        pivots: dict[int, int] = {}  # leading column -> place of its pivot row
        keys: list[int] = []  # the echelon-order keys of the rows reduced so far, sorted
        sign = 1
        for i in range(len(rows)):
            row = rows[i]
            while row and row[0][0] in pivots:
                p = pivots[row[0][0]]
                pivot_row = rows[p]
                row = _add_multiple(row, -(row[0][1] // pivot_row[0][1]), pivot_row)
                if row and row[0][0] == pivot_row[0][0]:
                    rows[p], row = row, pivot_row
                    sign = -sign
            rows[i] = row
            if row:
                pivots[row[0][0]] = i
            key = row[0][0] if row else self.ncols + i
            at = bisect(keys, key)
            if (len(keys) - at) % 2:
                sign = -sign
            keys.insert(at, key)
        return rows, len(pivots), sign

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def _add_multiple(x: tuple[tuple[int, int], ...], a: int,
                  y: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The stored row x + a * y, by one merge of the two rows in column
    order, dropping the sums that cancel; x itself when a is 0, and y itself
    when x is empty and a is 1."""
    if not a:
        return x
    if not x and a == 1:
        return y
    out = []
    i, end = 0, len(x)
    for c, v in y:
        while i < end and x[i][0] < c:
            out.append(x[i])
            i += 1
        if i < end and x[i][0] == c:
            total = x[i][1] + a * v
            i += 1
            if total:
                out.append((c, total))
        else:
            out.append((c, a * v))
    out += x[i:]
    return tuple(out)


_new = object.__new__
_set_ncols = IntMatrix.ncols.__set__  # the unchecked stores of _trusted (see Frozen)
_set_entries = IntMatrix.entries.__set__
