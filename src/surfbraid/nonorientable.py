"""Quotient structures for the sphere and for non-orientable closed surfaces.

Neither quotient is crystallographic: the kernel of the permutation map
has torsion, and its torsion part is a nontrivial finite normal subgroup.

For a non-orientable surface of genus g the kernel is generated per
strand j by a[j,1], ..., a[j,g] subject to the single relation
a[j,1]^2 ... a[j,g]^2 = 1, giving Z_2 + Z^{g-1} per strand.  The working
coordinates are: a torsion bit (the class of the full product
a[j,1]...a[j,g]) and g-1 free coordinates (the images of
a[j,1], ..., a[j,g-1]); the last generator a[j,g] maps to torsion bit 1
with free part (-1, ..., -1).  This change of basis is validated against
a Smith-normal-form oracle in the test suite.

The arithmetic, the row layout and the JSON encoding are those of
:class:`surfbraid.core.Element`: its coefficient row per strand holds the
torsion bit in column 1 and the free coordinates after it, driven by the
letter images of :meth:`surfbraid.core.GroupDescriptor.letter_images`.
:func:`MixedElement` builds such an element from its bits and free parts.

For the sphere (n >= 3) the kernel is Z_2 + Z^{n(n-3)/2} with the full
twist generating the torsion summand; no strand action on that basis is
available here, so only the structure and the finite normal subgroup are
exposed.  :func:`surfbraid.core.verify_crystallographic` turns the finite
normal subgroup of either surface into its verdict.
"""

from __future__ import annotations

from typing import Any

from . import core
from .core import Element, GroupDescriptor, rows_from_parts
from .errors import Frozen, UnsupportedSurfaceError, check
from .permutations import Permutation
from .words import BraidWord, full_twist_word, normalize


class AbelianInvariants(Frozen):
    """Torsion orders, free rank, and named torsion generators of the kernel."""

    __slots__ = _fields = ("torsion", "free_rank", "torsion_generator_words")

    def __init__(self, torsion: tuple[int, ...], free_rank: int, torsion_generator_words: tuple[str, ...]):
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion_generator_words", torsion_generator_words)


class FiniteNormalWitness(Frozen):
    """A finite normal subgroup certifying that the quotient is not crystallographic."""

    __slots__ = _fields = ("generator_words", "subgroup_order", "normality_verified", "note")

    def __init__(self, generator_words: tuple[str, ...], subgroup_order: int, normality_verified: bool,
                 note: str):
        object.__setattr__(self, "generator_words", generator_words)
        object.__setattr__(self, "subgroup_order", subgroup_order)
        object.__setattr__(self, "normality_verified", normality_verified)
        object.__setattr__(self, "note", note)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "generators": list(self.generator_words),
            "order": self.subgroup_order,
            "normality_verified": self.normality_verified,
            "note": self.note,
        }


def _strand_product_word(j: int, genus: int) -> str:
    return " ".join(f"a[{j},{r}]" for r in range(1, genus + 1))


def kernel_structure(group: GroupDescriptor) -> AbelianInvariants:
    """Abelian invariants of the kernel of the permutation map."""
    if group.kind == core.SPHERE:
        if group.n < 3:
            raise UnsupportedSurfaceError(
                f"sphere kernel structure is only available for n >= 3, got n={group.n}"
            )
        twist = full_twist_word(group).text()
        return AbelianInvariants((2,), group.n * (group.n - 3) // 2, (twist,))
    if group.kind == core.NONORIENTABLE:
        g = group.genus
        gens = tuple(_strand_product_word(j, g) for j in range(1, group.n + 1))
        return AbelianInvariants((2,) * group.n, group.n * (g - 1), gens)
    raise UnsupportedSurfaceError(
        "kernel structure is reported for the sphere and non-orientable surfaces; "
        "orientable kernels are free abelian of rank 2ng"
    )


def MixedElement(group: GroupDescriptor, bits, free, perm: Permutation) -> Element:
    """The :class:`Element` over a non-orientable surface with the given
    torsion bits (one per strand) and free coordinates (g-1 per strand)."""
    group.require_nonorientable("MixedElement")
    return Element(group, rows_from_parts(bits, free), perm)


def normalize_word(group: GroupDescriptor, word: BraidWord) -> Element:
    """The normal form of a word over a non-orientable surface: the one
    left fold of :func:`surfbraid.words.normalize`."""
    group.require_nonorientable("normalize_word")
    return normalize(group, word)


def torsion_subgroup_elements(group: GroupDescriptor) -> list[Element]:
    """Generators of the torsion subgroup T: one bit per strand, no free part."""
    return [
        MixedElement(
            group,
            tuple(1 if i == j else 0 for i in range(1, group.n + 1)),
            tuple((0,) * (group.genus - 1) for _ in range(group.n)),
            Permutation.identity(group.n),
        )
        for j in range(1, group.n + 1)
    ]


def _in_torsion_subgroup(x: Element) -> bool:
    """x lies in the torsion subgroup: identity permutation, and every row
    zero after its torsion bit in column 1."""
    return x.perm.is_identity() and not any([any(row[1:]) for row in x.coeffs.rows])


def finite_normal_subgroup(group: GroupDescriptor) -> FiniteNormalWitness:
    """A nontrivial finite normal subgroup of the quotient.

    Sphere (n >= 3): the order-2 subgroup generated by the full twist class;
    its centrality is recorded, not recomputed, since no strand action is
    available on the sphere kernel.  Non-orientable: the subgroup generated
    by the per-strand products a[j,1]...a[j,g], isomorphic to Z_2^n (for
    the projective plane this is the entire kernel); normality is verified
    by conjugating every generator by every group generator, n - 1
    transposition sections and ng strand generators, each pair by the
    closed form :meth:`surfbraid.core.Element.conjugated_by`, with no
    product and no inverse.
    """
    if group.kind == core.SPHERE:  # kernel_structure checks n >= 3 and names the full twist
        return FiniteNormalWitness(
            kernel_structure(group).torsion_generator_words,
            2,
            False,
            "order-2 full twist class; centrality recorded, not recomputed",
        )
    if group.kind != core.NONORIENTABLE:
        raise UnsupportedSurfaceError("orientable quotients have no finite normal subgroup witness")
    n, g = group.n, group.genus
    torsion_gens = torsion_subgroup_elements(group)
    conjugators = [Element.section(group, Permutation.transposition(n, i)) for i in range(1, n)]
    conjugators += [
        Element.strand_generator(group, j, r)
        for j in range(1, n + 1)
        for r in range(1, g + 1)
    ]
    for t in torsion_gens:
        for c in conjugators:
            check(_in_torsion_subgroup(t.conjugated_by(c)), "torsion subgroup failed the normality check")
    note = "entire kernel (projective plane)" if g == 1 else "per-strand torsion classes"
    return FiniteNormalWitness(
        tuple(_strand_product_word(j, g) for j in range(1, n + 1)),
        2**n,
        True,
        note,
    )
