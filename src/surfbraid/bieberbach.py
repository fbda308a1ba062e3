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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .core import CoeffVector, Element, GroupDescriptor
from .errors import DomainError, GroupMismatchError, check
from .intmatrix import IntMatrix
from .permutations import Permutation
from .torsion import order


@dataclass(frozen=True)
class GnMembership:
    """Membership result: holonomy residue j and exact lattice coordinates."""

    in_group: bool
    j: int | None = None
    coords: tuple[int, ...] | None = None

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "in_group": self.in_group,
            "j": self.j,
            "coords": list(self.coords) if self.coords is not None else None,
        }


@dataclass(frozen=True)
class TorsionScanReport:
    """Exhaustive torsion scan over bounded lattice coordinates and all residues."""

    n: int
    genus: int
    bound: int
    scanned: int
    torsion_hits: tuple[dict[str, Any], ...]
    obstruction_mismatches: tuple[dict[str, Any], ...]

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


@dataclass(frozen=True)
class BieberbachDescriptor:
    """Generators and lattice data of the cyclic-holonomy Bieberbach subgroup."""

    group: GroupDescriptor
    generator: Element
    x_generators: tuple[Element, ...]
    lattice_basis: tuple[Element, ...]

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

    def holonomy_matrix(self) -> IntMatrix:
        """Matrix of conjugation by the distinguished generator on L, in the
        fixed lattice basis; block diagonal with one n-by-n block per handle.

        Handle 1 (basis u, a[2,1]^n, ..., a[n,1]^n): u is invariant,
        a[i,1]^n moves to a[i+1,1]^n, and a[n,1]^n lands on
        a[1,1]^n = u^n * (a[2,1]^n ... a[n,1]^n)^{-1}, giving a last column
        (n, -1, ..., -1).  Handles r >= 2 get the plain cyclic-shift
        companion block of x^n - 1.
        """
        n = self.n
        block1 = [[0] * n for _ in range(n)]
        block1[0][0] = 1
        for j in range(2, n):  # column j holds the image of a[j,1]^n
            block1[j][j - 1] = 1
        block1[0][n - 1] = n
        for i in range(1, n):
            block1[i][n - 1] = -1
        shift = [[0] * n for _ in range(n)]
        shift[0][n - 1] = 1
        for j in range(1, n):
            shift[j][j - 1] = 1
        blocks = [IntMatrix.from_rows(block1)]
        blocks += [IntMatrix.from_rows(shift)] * (2 * self.genus - 1)
        return IntMatrix.block_diag(*blocks)

    def lattice_coords(self, vec: CoeffVector) -> tuple[int, ...] | None:
        """Coordinates of a lattice vector in the fixed basis, or None if the
        vector lies outside L."""
        rows = vec.rows
        lam = rows[0][0]
        coords = [lam]
        scaled = [row[0] - lam for row in rows[1:]]
        scaled += [row[r] for r in range(1, 2 * self.genus) for row in rows]
        for v in scaled:
            q, rem = divmod(v, self.n)
            if rem:
                return None
            coords.append(q)
        return tuple(coords)

    def coeffs_from_coords(self, coords: tuple[int, ...]) -> CoeffVector:
        """The lattice vector with the given coordinates in the fixed basis."""
        return self.element_from_coords(0, coords).coeffs

    def element_from_coords(self, j: int, coords: tuple[int, ...]) -> Element:
        """The element theta * generator**j, where theta is the lattice vector
        with the given coordinates and j the holonomy residue.

        theta is pure lattice, so the product adds theta's rows to those of
        generator**j and keeps its permutation.  The rows are built in one
        pass: strand i of theta holds lam + n*coords[i] (lam alone for i = 0)
        in handle 1 and n*coords[r*n + i] in handle r + 1.  The result goes
        through the validating Element constructor."""
        n, g = self.n, self.genus
        if len(coords) != 2 * n * g:
            raise ValueError(f"need {2 * n * g} coordinates, got {len(coords)}")
        gj = self.powers[j]
        lam = coords[0]
        rows = gj.coeffs.rows
        return Element(self.group, CoeffVector(tuple([
            tuple([lam + row[0] + (n * coords[i] if i else 0)]
                  + [n * coords[r * n + i] + row[r] for r in range(1, 2 * g)])
            for i, row in enumerate(rows)
        ])), gj.perm)

    def membership(self, x: Element) -> GnMembership:
        """Decide membership and, if so, express x as lattice part times the
        j-th power of the distinguished generator."""
        if x.group != self.group:
            raise GroupMismatchError("element does not live in the ambient group of this subgroup")
        j = x.perm(1) - 1
        if x.perm != self.powers[j].perm:
            return GnMembership(False)
        coords = self.lattice_coords(x.coeffs - self.powers[j].coeffs)
        if coords is None:
            return GnMembership(False)
        return GnMembership(True, j, coords)

    def centre(self) -> tuple[Element, ...]:
        """Basis of the centre: u and the full-orbit n-th powers per handle
        r >= 2; rank 2g.  Commutation with every generator is verified."""
        n, g = self.n, self.genus
        group = self.group
        basis = [product_over_strands(group, 1, 1)]
        for r in range(2, 2 * g + 1):
            basis.append(product_over_strands(group, r, n))
        for z in basis:
            for gen in self.x_generators:
                check(z * gen == gen * z, "centre element must commute with every generator")
        return tuple(basis)

    def torsion_scan(self, bound: int) -> TorsionScanReport:
        """Check every element with lattice coordinates in [-bound, bound] and
        every holonomy residue: all must have infinite order except the
        identity, and any finite order forces the handle-1 counting
        obstruction n*(sum of handle-1 coordinates) + j to vanish."""
        if bound < 0:
            raise DomainError(f"scan bound must be >= 0, got {bound}")
        n, g = self.n, self.genus
        dim = 2 * n * g
        hits: list[dict[str, Any]] = []
        mismatches: list[dict[str, Any]] = []
        scanned = 0
        for coords in itertools.product(range(-bound, bound + 1), repeat=dim):
            handle1 = n * sum(coords[:n])
            for j in range(n):
                scanned += 1
                elt = self.element_from_coords(j, coords)
                finite = order(elt).is_finite
                obstruction = handle1 + j
                if finite and obstruction != 0:
                    mismatches.append({"coords": list(coords), "j": j, "obstruction": obstruction})
                if finite and not elt.is_identity():
                    hits.append({"coords": list(coords), "j": j})
        return TorsionScanReport(n, g, bound, scanned, tuple(hits), tuple(mismatches))


def product_over_strands(group: GroupDescriptor, r: int, exponent: int) -> Element:
    """The pure-lattice element a[1,r]^e a[2,r]^e ... a[n,r]^e."""
    rows = [
        tuple([exponent if col == r else 0 for col in range(1, group.handle_count + 1)])
        for _ in range(group.n)
    ]
    return Element.from_coeffs(group, rows)


def make_bieberbach(n: int, genus: int) -> BieberbachDescriptor:
    """Construct the descriptor for given strand count (>= 2) and genus (>= 1).

    The generating set is {a[1,1] * c} together with all a[i,r]^n, where c
    is the section of the cycle sending each strand i to i + 1; the defining
    identity (a[1,1] * c)^n == a[1,1] a[2,1] ... a[n,1] is checked here.
    """
    if n < 2:
        raise ValueError(f"strand count must be >= 2, got {n}")
    group = GroupDescriptor.orientable(n, genus)
    alpha = Element.section(group, Permutation.from_cycles(n, tuple(range(1, n + 1))))
    generator = Element.strand_generator(group, 1, 1) * alpha
    x_gens = [generator]
    basis = [product_over_strands(group, 1, 1)]
    for r in range(1, 2 * genus + 1):
        for i in range(1, n + 1):
            power_gen = Element(
                group,
                CoeffVector.basis(n, 2 * genus, i, r).scaled(n),
                Permutation.identity(n),
            )
            x_gens.append(power_gen)
            if r >= 2 or i >= 2:  # a[1,1]^n is not a basis vector: u takes its place
                basis.append(power_gen)
    check(generator**n == basis[0], "generator power identity must hold")
    return BieberbachDescriptor(group, generator, tuple(x_gens), tuple(basis))
