"""Normal-form arithmetic in the lattice-by-symmetric-group quotient of a
surface braid group.

For a closed surface other than the sphere and n strands, the quotient of
the braid group by the commutator subgroup of the pure braid group splits
as a semidirect product: an abelian kernel with one coefficient row per
strand, extended by the symmetric group S_n, which acts by permuting
strand indices.  Every element has a unique normal form
``coeffs * section(permutation)``, stored as a (CoeffVector, Permutation)
pair; the lattice part sits on the left.  One :class:`Element` serves both
kernels:

* orientable genus g: Z^{2ng}, row i holding the exponents of
  ``a[i,1], ..., a[i,2g]``;
* non-orientable genus g: Z_2^n + Z^{n(g-1)}, row i holding the Z_2 torsion
  bit of strand i in column 1 (kept reduced mod 2) and its g-1 free
  coordinates in columns 2..g.  :attr:`Element.bits` and :attr:`Element.free`
  read the two parts, :func:`rows_from_parts` joins them, and the JSON
  encoding carries them as ``torsion_bits`` and ``coeffs``.

The handle letters act through :meth:`GroupDescriptor.letter_images`.
Conjugating a strand generator ``a[j,r]`` by an element with permutation
part w yields ``a[w(j),r]`` (w applied per the composition convention of
:mod:`surfbraid.permutations`); this determines the product rule below.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, neg, sub
from typing import Any

from .errors import Frozen, GroupMismatchError, UnsupportedSurfaceError, check, check_exponent
from .permutations import Permutation

ORIENTABLE = "orientable"
SPHERE = "sphere"
NONORIENTABLE = "nonorientable"


class GroupDescriptor(Frozen):
    """Surface kind plus strand count; selects the arithmetic model."""

    __slots__ = _fields = ("kind", "n", "genus")

    def __post_init__(self):
        if self.kind not in (ORIENTABLE, SPHERE, NONORIENTABLE):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if type(self.n) is not int or (self.genus is not None and type(self.genus) is not int):
            raise ValueError(f"strand count and genus must be integers, got n={self.n!r}, genus={self.genus!r}")
        if self.n < 1:
            raise ValueError(f"strand count must be >= 1, got {self.n}")
        if self.kind == SPHERE:
            if self.genus is not None:
                raise ValueError("the sphere has no genus parameter")
        elif self.genus is None or self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")

    @classmethod
    def orientable(cls, n: int, genus: int) -> GroupDescriptor:
        return cls(ORIENTABLE, n, genus)

    @classmethod
    def torus(cls, n: int) -> GroupDescriptor:
        return cls(ORIENTABLE, n, 1)

    @classmethod
    def sphere(cls, n: int) -> GroupDescriptor:
        return cls(SPHERE, n, None)

    @classmethod
    def nonorientable(cls, n: int, genus: int) -> GroupDescriptor:
        return cls(NONORIENTABLE, n, genus)

    @property
    def is_orientable(self) -> bool:
        return self.kind == ORIENTABLE

    @property
    def handle_count(self) -> int:
        """Handle generators per strand: 2g (orientable) or g (non-orientable)."""
        if self.kind == ORIENTABLE:
            return 2 * self.genus
        if self.kind == NONORIENTABLE:
            return self.genus
        raise UnsupportedSurfaceError("the sphere model exposes no handle generators")

    @property
    def lattice_rank(self) -> int:
        """Rank of the free abelian kernel in the orientable model (2ng)."""
        if self.kind != ORIENTABLE:
            raise UnsupportedSurfaceError(
                f"lattice rank is defined for orientable surfaces only, not {self.kind}"
            )
        return 2 * self.n * self.genus

    def require_orientable(self, what: str) -> None:
        if self.kind != ORIENTABLE:
            raise UnsupportedSurfaceError(f"{what} requires an orientable surface, got {self.kind}")

    def require_nonorientable(self, what: str) -> None:
        if self.kind != NONORIENTABLE:
            raise UnsupportedSurfaceError(f"{what} requires a non-orientable surface, got {self.kind}")

    def letter_images(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Coefficient row of each handle letter, indexed by r - 1, as sparse
        (column, value) pairs with 0-based columns: ``a[j,r]^e`` adds e times
        this row to the row of strand j.

        Orientable: ``a[j,r]`` is column r.  Non-orientable: ``a[j,r]`` is
        free coordinate r (column r + 1) for r < g, and ``a[j,g]`` is torsion
        bit 1 with free part (-1, ..., -1), since the product
        ``a[j,1] ... a[j,g]`` is the torsion class of strand j.
        """
        handles = self.handle_count
        if self.kind == ORIENTABLE:
            return tuple([((r, 1),) for r in range(handles)])
        free = tuple([((r, 1),) for r in range(1, handles)])
        return free + (((0, 1),) + tuple([(r, -1) for r in range(1, handles)]),)


def json_ints(obj: Any, what: str) -> tuple[int, ...]:
    """A JSON array of integers as a tuple.  Only JSON integers pass: floats,
    booleans and strings are rejected, never coerced."""
    if not isinstance(obj, list) or any(type(v) is not int for v in obj):
        raise ValueError(f"{what} must be an array of integers, got {obj!r}")
    return tuple(obj)


def json_int_rows(obj: Any, what: str) -> tuple[tuple[int, ...], ...]:
    """A JSON array of integer arrays as row tuples, checked by :func:`json_ints`."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be an array of integer arrays, got {obj!r}")
    return tuple([json_ints(row, what) for row in obj])


class CoeffVector(Frozen):
    """Exponent matrix of the lattice part: rows[i-1][r-1] is the exponent of a[i,r].

    Tuples are built from lists, not generators: tuple() of a generator is
    resized after allocation, and in a long run those resizes fill CPython's
    per-size tuple free lists (see :class:`surfbraid.intmatrix.IntMatrix`).
    """

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        _set_rows(self, rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, n: int, handles: int) -> CoeffVector:
        if type(n) is not int or type(handles) is not int:
            raise ValueError(f"row count and row length must be integers, got n={n!r}, handles={handles!r}")
        return cls(((0,) * handles,) * n)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def _require_same_shape(self, other: CoeffVector) -> None:
        """The operand check of + and -: a CoeffVector with the same row count and
        row lengths, since ``map`` in :func:`_rowwise` would stop silently at the
        shorter row."""
        if not isinstance(other, CoeffVector):
            raise ValueError(f"a coefficient vector combines only with a CoeffVector, got {other!r}")
        if list(map(len, self.rows)) != list(map(len, other.rows)):
            raise ValueError(f"coefficient vector shapes differ: row lengths {list(map(len, self.rows))} "
                             f"and {list(map(len, other.rows))}")

    def __add__(self, other: CoeffVector) -> CoeffVector:
        self._require_same_shape(other)
        return _rowwise(add, self, other)

    def __sub__(self, other: CoeffVector) -> CoeffVector:
        self._require_same_shape(other)
        return _rowwise(sub, self, other)

    def __neg__(self) -> CoeffVector:
        return _rowwise(neg, self)

    def permuted(self, w: Permutation) -> CoeffVector:
        """Strand action: the row at strand i moves to strand w(i); handles are fixed."""
        rows: list[tuple[int, ...] | None] = [None] * self.n
        for row, image in zip(self.rows, w.images):
            rows[image - 1] = row
        return CoeffVector(tuple(rows))


_set_rows = CoeffVector.rows.__set__  # the unchecked store of every CoeffVector (see Frozen)


def _rowwise(op, *vectors: CoeffVector) -> CoeffVector:
    """The row kernel of the arithmetic: one ``map(op, *rows)`` pass per row of the
    operands, which must have one shape (see :meth:`CoeffVector._require_same_shape`)."""
    return CoeffVector(tuple([tuple(list(row)) for row in map(map, repeat(op), *[v.rows for v in vectors])]))


def rows_from_parts(bits, free) -> CoeffVector:
    """The non-orientable coefficient rows: strand j's torsion bit, then its free coordinates."""
    if len(bits) != len(free):
        raise ValueError("component sizes do not match the group")
    return CoeffVector(tuple([(b,) + tuple(f) for b, f in zip(bits, free)]))


def _require_elements(group: GroupDescriptor) -> None:
    """The one sphere check of the constructor and the JSON loader."""
    if group.kind == SPHERE:
        raise UnsupportedSurfaceError("the sphere model has no element arithmetic")


class Element(Frozen):
    """Normal form ``coeffs * section(perm)`` of a quotient-group element.

    The public constructor and class methods validate their input; the
    results of arithmetic are built by :meth:`_trusted`, which reduces
    non-orientable torsion bits mod 2.
    """

    __slots__ = _fields = ("group", "coeffs", "perm")

    def __post_init__(self):
        group, coeffs, perm = self.group, self.coeffs, self.perm
        if not (isinstance(group, GroupDescriptor) and isinstance(coeffs, CoeffVector)
                and isinstance(perm, Permutation)):
            raise ValueError(f"an element is a GroupDescriptor, a CoeffVector and a Permutation, got "
                             f"{type(group).__name__}, {type(coeffs).__name__} and {type(perm).__name__}")
        rows = coeffs.rows
        _require_elements(group)
        self._check_sizes(group, len(rows), len(perm.images))
        self._check_rows(group, rows)

    @staticmethod
    def _check_sizes(group: GroupDescriptor, *sizes: int) -> None:
        """The constructor's size condition: one row per strand and n permutation images."""
        if any([size != group.n for size in sizes]):
            raise ValueError("coefficient/permutation size does not match the group")

    @staticmethod
    def _check_rows(group: GroupDescriptor, rows: tuple[tuple[int, ...], ...]) -> None:
        """The constructor's row conditions, for any number of rows: a tuple of
        tuples of ``handle_count`` exact ints, with every torsion bit 0 or 1 on
        a non-orientable surface.  The torsion scan checks its strand-table
        rows here once each, before any element is built from them."""
        handles = group.handle_count
        if not isinstance(rows, tuple) or any([not isinstance(row, tuple) or len(row) != handles for row in rows]):
            raise ValueError(f"every coefficient row must have {handles} entries (rows as a tuple of tuples)")
        if any([type(v) is not int for row in rows for v in row]):  # floats and bools are never coerced
            raise ValueError("coefficients must be integers")
        if group.kind == NONORIENTABLE and any([row[0] not in (0, 1) for row in rows]):
            raise ValueError("torsion bits must be 0 or 1")

    @staticmethod
    def _trusted(group: GroupDescriptor, coeffs: CoeffVector, perm: Permutation) -> Element:
        """Constructor for parts computed from valid operands: no validation,
        torsion bits reduced mod 2 on a non-orientable surface, where only
        the rows whose bit is not already 0 or 1 are rebuilt."""
        if group.kind == NONORIENTABLE and any([row[0] not in (0, 1) for row in coeffs.rows]):
            coeffs = CoeffVector(tuple([row if row[0] in (0, 1) else (row[0] % 2,) + row[1:]
                                        for row in coeffs.rows]))
        x = _new(Element)
        _set_group(x, group)
        _set_coeffs(x, coeffs)
        _set_perm(x, perm)
        return x

    @classmethod
    def identity(cls, group: GroupDescriptor) -> Element:
        return cls.section(group, Permutation.identity(group.n))

    @classmethod
    def section(cls, group: GroupDescriptor, w: Permutation) -> Element:
        """The canonical section of a permutation: trivial lattice part."""
        return cls(group, CoeffVector.zero(group.n, group.handle_count), w)

    @classmethod
    def strand_generator(cls, group: GroupDescriptor, i: int, r: int) -> Element:
        """The generator a[i,r]: its letter image on strand i."""
        if type(i) is not int or type(r) is not int:
            raise ValueError(f"generator indices must be integers, got ({i!r},{r!r})")
        n, handles = group.n, group.handle_count
        if not (1 <= i <= n and 1 <= r <= handles):
            raise ValueError(f"generator index ({i},{r}) out of range")
        row = [0] * handles
        for col, v in group.letter_images()[r - 1]:
            row[col] = v
        rows = [(0,) * handles] * n
        rows[i - 1] = tuple(row)
        return cls(group, CoeffVector(tuple(rows)), Permutation.identity(n))

    def __mul__(self, other: Element) -> Element:
        if not isinstance(other, Element):
            raise ValueError(f"an element multiplies only an Element, got {other!r}")
        if self.group != other.group:
            raise GroupMismatchError(f"operands live in different groups: {self.group} vs {other.group}")
        # one group, so one shape: the rows were checked when each operand was built
        return self._trusted(
            self.group,
            _rowwise(add, self.coeffs, other.coeffs.permuted(self.perm)),
            self.perm * other.perm,
        )

    def inverse(self) -> Element:
        w_inv = self.perm.inverse()
        return self._trusted(self.group, (-self.coeffs).permuted(w_inv), w_inv)

    def __pow__(self, k: int) -> Element:
        """x**k in closed form, with no product: for x = v * section(w) and k >= 0,
        x**k = (v + w.v + ... + w^(k-1).v) * section(w**k).  On a cycle
        C = (c_0, ..., c_{m-1}) of w, strand c_i gets (k // m) * S_C (the cycle sum of
        :func:`surfbraid.torsion.cycle_sums`) plus the k mod m rows of C ending at c_i,
        a window slid once round C.  The permutation part w**k is
        :meth:`Permutation.__pow__`, which reads the same orbits."""
        check_exponent(k)
        if k < 0:
            return self.inverse() ** -k
        rows = self.coeffs.rows
        out = [()] * self.group.n
        for cycle in self.perm.orbits:
            m = len(cycle)
            q, r = divmod(k, m)
            ring = [rows[c - 1] for c in cycle]
            window = [q * s for s in map(sum, zip(*ring))]
            for row in ring[m - r:]:  # the r rows ending at c_{m-1}
                window = list(map(add, window, row))
            for i, c in enumerate(cycle):
                if r:  # slide to the r rows ending at c_i
                    window = list(map(sub, map(add, window, ring[i]), ring[i - r]))
                out[c - 1] = tuple(window)
        return self._trusted(self.group, CoeffVector(tuple(out)), self.perm ** k)

    def conjugated_by(self, by: Element) -> Element:
        """by * self * by^{-1} in closed form, with no product and no inverse:
        for by = a * section(u) and self = v * section(w), it is
        (a + u.v - w'.a) * section(w') with w' = u w u^{-1}, where u.v is the
        strand action of :meth:`CoeffVector.permuted`.  One pass over the
        strands builds w' from w'(u(i)) = u(w(i)) and places the rows of u.v
        and w'.a; one row pass sums the three, except that a row of u.v is
        placed as it is wherever a row of a and its w'.a row are one object
        (a strand w' fixes, or two shared zero rows of
        :meth:`CoeffVector.zero`), since x + y - x = y exactly.  The operand
        checks are those of the product ``by * self``."""
        if not isinstance(by, Element):
            raise ValueError(f"an element is conjugated only by an Element, got {by!r}")
        if by.group is not self.group and by.group != self.group:
            raise GroupMismatchError(f"operands live in different groups: {by.group} vs {self.group}")
        u, a = by.perm.images, by.coeffs.rows
        n = len(u)
        images = [0] * n
        uv: list[tuple[int, ...]] = [()] * n
        wa: list[tuple[int, ...]] = [()] * n
        for ui, wi, row in zip(u, self.perm.images, self.coeffs.rows):
            uwi = u[wi - 1]
            images[ui - 1] = uwi
            uv[ui - 1] = row
            wa[uwi - 1] = a[ui - 1]
        rows = tuple([y if x is z else tuple(list(map(sub, map(add, x, y), z))) for x, y, z in zip(a, uv, wa)])
        return self._trusted(self.group, CoeffVector(rows), Permutation._trusted(tuple(images)))

    def is_identity(self) -> bool:
        return self.coeffs.is_zero() and self.perm.is_identity()

    @property
    def bits(self) -> tuple[int, ...]:
        """The Z_2 torsion bit of each strand (non-orientable surfaces only)."""
        self.group.require_nonorientable("torsion bits")
        return tuple([row[0] for row in self.coeffs.rows])

    @property
    def free(self) -> tuple[tuple[int, ...], ...]:
        """The g-1 free coordinates of each strand (non-orientable surfaces only)."""
        self.group.require_nonorientable("free coordinates")
        return tuple([row[1:] for row in self.coeffs.rows])

    def to_json_obj(self) -> dict[str, Any]:
        """The JSON encoding; non-orientable rows split into ``torsion_bits`` and ``coeffs``."""
        obj: dict[str, Any] = {"n": self.group.n, "g": self.group.genus, "perm": list(self.perm.images)}
        if self.group.kind == NONORIENTABLE:
            obj["torsion_bits"] = list(self.bits)
            obj["coeffs"] = [list(row) for row in self.free]
        else:
            obj["coeffs"] = [list(row) for row in self.coeffs.rows]
        return obj

    @classmethod
    def from_json_obj(cls, group: GroupDescriptor, obj: dict[str, Any]) -> Element:
        _require_elements(group)  # before the header, whose genus the sphere lacks
        n, g = obj.get("n"), obj.get("g")
        if type(n) is not int or type(g) is not int or (n, g) != (group.n, group.genus):
            raise ValueError(f"element encodes (n={n}, g={g}), expected "
                             f"(n={group.n}, g={group.genus})")
        if group.kind == NONORIENTABLE:
            coeffs = rows_from_parts(json_ints(obj["torsion_bits"], "torsion_bits"),
                                     json_int_rows(obj["coeffs"], "coeffs"))
        else:
            coeffs = CoeffVector(json_int_rows(obj["coeffs"], "coeffs"))
        return cls(group, coeffs, Permutation(json_ints(obj["perm"], "perm")))

    def as_word_text(self) -> str:
        """A braid word in the generator grammar that normalizes back to this element."""
        parts = []
        for i, row in enumerate(self.coeffs.rows, start=1):
            if self.group.kind == NONORIENTABLE:  # bit b, free f: a[i,r]^(f_r + b) ... a[i,g]^b
                row = tuple([f + row[0] for f in row[1:]]) + row[:1]
            for r, e in enumerate(row, start=1):
                if e == 1:
                    parts.append(f"a[{i},{r}]")
                elif e != 0:
                    parts.append(f"a[{i},{r}]^{e}")
        parts.extend(f"s{i}" for i in self.perm.adjacent_word())
        return " ".join(parts)

    def __str__(self) -> str:
        word = self.as_word_text()
        return word if word else "<identity>"


_new = object.__new__
_set_group, _set_coeffs, _set_perm = Element.group.__set__, Element.coeffs.__set__, Element.perm.__set__


class Verdict(Frozen):
    """Outcome of the crystallographic test, with a machine-checkable witness."""

    __slots__ = _fields = ("is_crystallographic", "dimension", "holonomy_order", "witness")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "is_crystallographic": self.is_crystallographic,
            "dimension": self.dimension,
            "holonomy_order": self.holonomy_order,
            "witness": self.witness,
        }


def verify_crystallographic(group: GroupDescriptor) -> Verdict:
    """Decide crystallographicity of the quotient for this surface.

    Orientable surfaces give a crystallographic group of dimension 2ng with
    holonomy S_n, witnessed by the strand action being faithful: each
    adjacent transposition moves a lattice basis vector.  The sphere and
    non-orientable surfaces give False, witnessed by the nontrivial finite
    normal subgroup of :func:`surfbraid.nonorientable.finite_normal_subgroup`.
    """
    if group.kind != ORIENTABLE:
        from .nonorientable import finite_normal_subgroup

        witness = finite_normal_subgroup(group).to_json_obj()
        witness["kind"] = "finite_normal_subgroup"
        witness["justification"] = ("a crystallographic group has no nontrivial finite normal subgroup; "
                                    "the listed torsion classes generate one")
        return Verdict(False, None, None, witness)

    n = group.n
    moves = []
    zero = (0,) * group.handle_count
    for i in range(1, n):
        # Conjugation by section(t(i)) sends a[i,1] to a[i+1,1]: the product rule's strand action, run on its row.
        a_i1 = CoeffVector((zero,) * (i - 1) + ((1,) + zero[1:],) + (zero,) * (n - i))
        check(a_i1.permuted(Permutation.transposition(n, i)).rows[i] == a_i1.rows[i - 1],
              f"transposition {i} must move a[{i},1]")
        moves.append({"transposition": i, "from": [i, 1], "to": [i + 1, 1]})
    return Verdict(True, group.lattice_rank, math.factorial(n), {
        "kind": "faithful_strand_action",
        "generator_moves": moves,
        "justification": "every non-identity permutation moves some strand, hence "
                         "moves a lattice basis vector; conjugation acts faithfully",
    })
