"""The torsion-free (Bieberbach) subgroup with cyclic holonomy.

Inside the orientable quotient, the subgroup generated by
``a[1,1] * (s_1 ... s_{n-1})`` together with all n-th powers ``a[i,r]^n``
is torsion free and crystallographic of dimension 2ng; its translation
lattice L has the basis

    u = a[1,1] a[2,1] ... a[n,1],
    a[i,1]^n               for i = 2..n,
    a[j,r]^n               for j = 1..n and r = 2..2g,

in that fixed order.  A lattice vector lies in L exactly when its
handle-1 entries are pairwise congruent modulo n and every other handle
entry is divisible by n; this characterisation is validated against a
brute-force span oracle in the test suite.

A descriptor holds the group and the generator only.  The basis, the
generating set, the centre, the holonomy matrix and the torsion scan's rows
are read through one coordinate codec: one encoder, ``coeffs_from_coords``,
which writes each strand's row with ``_strand_row``, and one decoder,
``lattice_coords``.  The checks that run: the holonomy matrix's columns
that involve lam are decoded and must lie in L; a membership that the
command prints is rebuilt from its residue and coordinates and compared
with the element (``checked_membership``); and ``torsion_scan``, which
covers every element of a coordinate box without visiting each one
(``_strand_tables``, ``_joined_rows`` and ``torsion.zero_sum_rows``), runs
the constructor's row check on every row it builds, builds each tuple it
reports with the checked constructor and re-checks it with
``torsion.order``, requires the identity exactly once, and checks the
number of elements scanned against the size of the box.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Any, Iterator

from . import torsion
from .core import CoeffVector, Element, GroupDescriptor, _require_elements
from .errors import DomainError, Frozen, GroupMismatchError, check
from .intmatrix import IntMatrix
from .permutations import Permutation


class GnMembership(Frozen):
    """Membership result: holonomy residue j and exact lattice coordinates."""

    __slots__ = _fields = ("in_group", "j", "coords")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "in_group": self.in_group,
            "j": self.j,
            "coords": list(self.coords) if self.coords is not None else None,
        }


_NOT_A_MEMBER = GnMembership(False, None, None)  # frozen, so one shared instance serves every call


class TorsionScanReport(Frozen):
    """Exhaustive torsion scan over bounded lattice coordinates and all residues."""

    __slots__ = _fields = ("n", "genus", "bound", "scanned", "torsion_hits", "obstruction_mismatches")

    @property
    def passed(self) -> bool:
        return not self.torsion_hits and not self.obstruction_mismatches

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "g": self.genus,
            "bound": self.bound,
            "scanned": self.scanned,
            "torsion_hits": list(self.torsion_hits),
            "obstruction_mismatches": list(self.obstruction_mismatches),
            "passed": self.passed,
        }


def _strand_row(n: int, lam: int, i: int, strand: tuple[int, ...]) -> tuple[int, ...]:
    """Row i of the lattice vector theta with coordinates coords, where
    lam = coords[0] and strand = coords[i::n] holds the coordinates that
    reach strand i: lam + n*coords[i] (lam alone for i = 0) in handle 1 and
    n*coords[r*n + i] in handle r + 1.  The one place the layout of the
    Bieberbach coordinate codec is written."""
    row = [n * c for c in strand]
    row[0] += lam - (0 if i else n * strand[0])  # strand 0's handle-1 coordinate is lam itself
    return tuple(row)


class BieberbachDescriptor(Frozen):
    """The cyclic-holonomy Bieberbach subgroup, held as its ambient group and
    its distinguished generator; the lattice data is read through the codec."""

    __slots__ = ("group", "generator", "__dict__")  # the dict holds the cached properties
    _fields = ("group", "generator")

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def genus(self) -> int:
        return self.group.genus

    @property
    def dimension(self) -> int:
        return self.group.lattice_rank

    @cached_property
    def powers(self) -> tuple[Element, ...]:
        """The powers of the generator with exponents 0..n-1, one product each
        on first use; the j-th lies over the permutation sending strand 1 to
        1 + j."""
        out = [Element.identity(self.group)]
        for _ in range(1, self.n):
            out.append(out[-1] * self.generator)
        return tuple(out)

    def _basis_vector(self, k: int) -> CoeffVector:
        """Lattice part of basis vector k of L, the vector with coordinates e_k."""
        return self.coeffs_from_coords((0,) * k + (1,) + (0,) * (self.dimension - 1 - k))

    @cached_property
    def lattice_basis(self) -> tuple[Element, ...]:
        """The fixed basis of L, as pure-lattice elements."""
        identity = Permutation.identity(self.n)
        return tuple([Element(self.group, self._basis_vector(k), identity) for k in range(self.dimension)])

    @cached_property
    def x_generators(self) -> tuple[Element, ...]:
        """The generating set: the generator, then a[i,r]^n for r = 1..2g and
        i = 1..n.  All but a[1,1]^n, the n-th power of the strand generator,
        are basis vectors; u takes its place in the basis."""
        first = Element.strand_generator(self.group, 1, 1) ** self.n
        return (self.generator, first) + self.lattice_basis[1:]

    def holonomy_matrix(self) -> IntMatrix:
        """Matrix of conjugation by the generator on L, in the fixed basis.

        Conjugation by v * section(w) moves row i to row w(i), so it moves strand
        i's coordinates coords[i::n] (:func:`_strand_row`, strands from 0) to
        strand w(i): column r*n + i is the unit vector at r*n + w(i).  Where
        handle 1 meets strand 0, whose coordinate lam reaches every strand, the
        column is decoded from the moved basis vector and checked to lie in L.
        Each column's nonzero entries are appended to their rows, column by
        column, so the rows come out in the stored form of :class:`IntMatrix`."""
        n, dim, w = self.n, self.dimension, self.generator.perm
        rows: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
        for k in range(dim):
            target = k - k % n + w(k % n + 1) - 1
            if k and target:
                rows[target].append((k, 1))
                continue
            coords = self.lattice_coords(self._basis_vector(k).permuted(w))
            check(coords is not None, "conjugation by the generator must preserve the lattice")
            for i, v in enumerate(coords):
                if v:
                    rows[i].append((k, v))
        return IntMatrix._trusted(dim, tuple([tuple(row) for row in rows]))

    def lattice_coords(self, vec: CoeffVector) -> tuple[int, ...] | None:
        """Coordinates of a lattice vector in the fixed basis, or None if the
        vector lies outside L; the inverse of :meth:`coeffs_from_coords`."""
        n, rows = self.n, vec.rows
        lam = rows[0][0]
        scaled = [row[0] - lam for row in rows[1:]]
        scaled += [row[r] for r in range(1, 2 * self.genus) for row in rows]
        if any([v % n for v in scaled]):
            return None
        return tuple([lam] + [v // n for v in scaled])

    def coeffs_from_coords(self, coords: tuple[int, ...]) -> CoeffVector:
        """The lattice vector with the given coordinates in the fixed basis,
        one :func:`_strand_row` per strand."""
        n, g = self.n, self.genus
        if not isinstance(coords, tuple) or any([type(c) is not int for c in coords]):
            raise ValueError(f"coordinates must be a tuple of integers, got {coords!r}")
        if len(coords) != 2 * n * g:
            raise ValueError(f"need {2 * n * g} coordinates, got {len(coords)}")
        return CoeffVector(tuple([_strand_row(n, coords[0], i, coords[i::n]) for i in range(n)]))

    def _lattice_element(self, coords: tuple[int, ...]) -> Element:
        """The pure-lattice element with the given coordinates."""
        return Element(self.group, self.coeffs_from_coords(coords), Permutation.identity(self.n))

    def membership(self, x: Element) -> GnMembership:
        """Decide membership and, if so, express x as lattice part times the
        j-th power of the distinguished generator."""
        if not isinstance(x, Element):
            raise ValueError(f"membership is decided for an Element, got {type(x).__name__}")
        if x.group != self.group:
            raise GroupMismatchError("element does not live in the ambient group of this subgroup")
        j = x.perm(1) - 1
        if x.perm != self.powers[j].perm:
            return _NOT_A_MEMBER
        coords = self.lattice_coords(x.coeffs - self.powers[j].coeffs)
        if coords is None:
            return _NOT_A_MEMBER
        return GnMembership(True, j, coords)

    def centre(self) -> tuple[Element, ...]:
        """Basis of the centre, rank 2g: u, and for each handle r >= 2 the sum
        of its basis vectors, the full-orbit product a[1,r]^n ... a[n,r]^n.
        Commutation with every generator is verified."""
        n, dim = self.n, self.dimension
        basis = [self.lattice_basis[0]]
        for r in range(1, 2 * self.genus):
            basis.append(self._lattice_element(tuple([int(i // n == r) for i in range(dim)])))
        for z in basis:
            for gen in self.x_generators:
                check(z * gen == gen * z, "centre element must commute with every generator")
        return tuple(basis)

    def checked_membership(self, x: Element) -> GnMembership:
        """:meth:`membership`, backed for the command that prints it: a member
        is rebuilt from its residue and coordinates, as the lattice element
        with those coordinates times generator**j, and compared with x.
        :meth:`membership` keeps its cost."""
        result = self.membership(x)
        if result.in_group:
            check(self._lattice_element(result.coords) * self.powers[result.j] == x,
                  "a member must be rebuilt from its residue and coordinates")
        return result

    def _strand_tables(self, bound: int) -> list[tuple[int, Element, list[tuple[tuple[int, ...], ...]],
                                                       tuple[tuple[int, ...], ...]]]:
        """The scan's rows, written as offset + shift.  Strand i's row at
        coordinates strand = coords[i::n] over residue j is the offset
        ``_strand_row(n, 0, i, strand)``, which depends on neither j nor
        lam = coords[0], plus the shift, row i of generator**j with lam added
        in handle 1.  The offset tables are built once per call through the
        codec, one row per choice of strand i's coordinates in the box: one
        table for strand 0, whose handle-1 coordinate is lam itself, and one
        shared by strands 1..n-1, whose offsets are identical.  Returns, for
        each residue j and lam in [-bound, bound], j, generator**j, the n
        offset tables and the n shift rows.  Before it returns, each table
        has passed the constructor's row check once, and each (j, lam)'s
        shift rows have passed it too, and with the table count and the
        residue's permutation the size check."""
        n, group = self.n, self.group
        box = range(-bound, bound + 1)
        free = [box] * (2 * self.genus - 1)
        first = tuple([_strand_row(n, 0, 0, strand) for strand in itertools.product((0,), *free)])
        other = tuple([_strand_row(n, 0, 1, strand) for strand in itertools.product(box, *free)])
        Element._check_rows(group, first)
        Element._check_rows(group, other)
        tables = [first] + [other] * (n - 1)
        out = []
        for j, gj in enumerate(self.powers):
            for lam in box:
                shifts = tuple([(row[0] + lam,) + row[1:] for row in gj.coeffs.rows])
                Element._check_sizes(group, len(tables), len(shifts), len(gj.perm.images))
                Element._check_rows(group, shifts)
                out.append((j, gj, tables, shifts))
        return out

    def torsion_scan(self, bound: int) -> TorsionScanReport:
        """Check every element theta * generator**j with lattice coordinates
        in [-bound, bound] and every holonomy residue j: all must have
        infinite order except the identity, and any finite order forces the
        handle-1 counting obstruction n*(sum of handle-1 coordinates) + j to
        vanish.

        The box for each (j, lam) is the product of the tables of
        :meth:`_strand_tables`, and :func:`_joined_rows` yields its finite
        tuples.  Each is built with the checked constructor, which runs the
        row check, and re-checked with :func:`~surfbraid.torsion.order`, so
        a join that reports too much fails a check; the element is decoded
        with :meth:`lattice_coords` for the obstruction and identity checks.
        The identity must be found exactly once, so a join that drops it, or
        finds it twice, fails too.  Hits and mismatches are reported in
        (coords, j) order, and the number of elements scanned, the sum of the
        products of the table lengths, is checked against
        (2*bound + 1)**(2ng) * n."""
        if type(bound) is not int:
            raise DomainError(f"scan bound must be an integer, got {bound!r}")
        if bound < 0:
            raise DomainError(f"scan bound must be >= 0, got {bound}")
        n, g, group = self.n, self.genus, self.group
        _require_elements(group)
        hits: list[dict[str, Any]] = []
        mismatches: list[dict[str, Any]] = []
        scanned = identities = 0
        for j, gj, tables, shifts in self._strand_tables(bound):
            scanned += math.prod(map(len, tables))
            for rows in _joined_rows(tables, shifts, gj.perm.orbits):
                elt = Element(group, CoeffVector(rows), gj.perm)
                check(torsion.order(elt).is_finite, "a joined tuple of rows must have vanishing cycle sums")
                coords = self.lattice_coords(elt.coeffs - gj.coeffs)
                check(coords is not None, "a scanned element must decode to lattice coordinates")
                obstruction = n * sum(coords[:n]) + j
                if obstruction != 0:
                    mismatches.append({"coords": list(coords), "j": j, "obstruction": obstruction})
                if elt.is_identity():
                    identities += 1
                else:
                    hits.append({"coords": list(coords), "j": j})
        check(scanned == (2 * bound + 1) ** (2 * n * g) * n, "the scan must cover every element of the box")
        check(identities == 1, "the join must find the identity exactly once")
        in_box_order = operator.itemgetter("coords", "j")
        return TorsionScanReport(n, g, bound, scanned, tuple(sorted(hits, key=in_box_order)),
                                 tuple(sorted(mismatches, key=in_box_order)))


def _joined_rows(tables: list[tuple[tuple[int, ...], ...]], shifts: tuple[tuple[int, ...], ...],
                 orbits: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every tuple of rows offset + shift, the offset from strand i's table
    and the shift row i, whose sums vanish over every cycle of ``orbits``.
    For each cycle C the join :func:`~surfbraid.torsion.zero_sum_rows` finds
    the tuples of offsets that sum to the target -(sum of the shifts over
    C), and only those get their shifts added back; the result is the
    product of the per-cycle parts, each tuple put back in strand order."""
    place = sorted(range(len(tables)), key=[c for cycle in orbits for c in cycle].__getitem__)
    parts = []
    for cycle in orbits:
        cycle_shifts = [shifts[c - 1] for c in cycle]
        target = tuple([-total for total in map(sum, zip(*cycle_shifts))])
        parts.append([tuple([tuple(list(map(operator.add, row, shift))) for row, shift in zip(part, cycle_shifts)])
                      for part in torsion.zero_sum_rows(tables, cycle, target)])
    for chosen in itertools.product(*parts):
        joined = [row for part in chosen for row in part]
        yield tuple([joined[k] for k in place])


def make_bieberbach(n: int, genus: int) -> BieberbachDescriptor:
    """Construct the descriptor for given strand count (>= 2) and genus (>= 1).

    The generator is a[1,1] * c, c the section of the cycle sending each
    strand i to i + 1.  The defining identity (a[1,1] * c)^n == u, the
    lattice element with coordinates e_0, is checked here.
    """
    if type(n) is int and n < 2:
        raise ValueError(f"strand count must be >= 2, got {n}")
    group = GroupDescriptor.orientable(n, genus)  # which rejects an n that is not an int
    alpha = Element.section(group, Permutation.from_cycles(n, tuple(range(1, n + 1))))
    desc = BieberbachDescriptor(group, Element.strand_generator(group, 1, 1) * alpha)
    u = desc._lattice_element((1,) + (0,) * (desc.dimension - 1))
    check(desc.generator**n == u, "generator power identity must hold")
    return desc
