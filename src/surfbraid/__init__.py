"""Exact arithmetic in crystallographic quotients of surface braid groups.

The quotient of the braid group of a closed surface by the commutator
subgroup of its pure braid group is, for orientable surfaces, a
crystallographic group: a rank-2ng lattice extended by the symmetric
group acting by strand relabelling.  This package computes in that group
in exact normal form, detects finite-order elements, decides the
conjugacy of any two elements, constructs the cyclic-holonomy
torsion-free subgroup with its flat-manifold invariants, and certifies
that the sphere and non-orientable quotients are not crystallographic.
"""

from .bieberbach import BieberbachDescriptor, GnMembership, TorsionScanReport, make_bieberbach
from .core import (
    CoeffVector,
    Element,
    GroupDescriptor,
    Verdict,
    verify_crystallographic,
)
from .errors import DomainError
from .intmatrix import IntMatrix
from .intpoly import IntPoly, cyclotomic, cyclotomic_multiplicities
from .invariants import (
    CyclicRep,
    anosov_check,
    betti_numbers,
    invariant_report,
    kahler_check,
    orientability,
)
from .nonorientable import (
    AbelianInvariants,
    FiniteNormalWitness,
    MixedElement,
    finite_normal_subgroup,
    kernel_structure,
    normalize_word,
)
from .permutations import Permutation
from .torsion import (
    FrobeniusEmbedding,
    OrderResult,
    conjugacy_test,
    conjugator_to_section,
    frobenius_conjugator,
    frobenius_embed,
    frobenius_pair,
    frobenius_torsion_element,
    order,
    symmetric_copy_conjugator,
)
from .words import BraidWord, Letter, RelationReport, check_relations, normalize, parse

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "BieberbachDescriptor",
    "BraidWord",
    "CoeffVector",
    "CyclicRep",
    "DomainError",
    "Element",
    "FiniteNormalWitness",
    "FrobeniusEmbedding",
    "GnMembership",
    "GroupDescriptor",
    "IntMatrix",
    "IntPoly",
    "Letter",
    "MixedElement",
    "OrderResult",
    "Permutation",
    "RelationReport",
    "TorsionScanReport",
    "Verdict",
    "anosov_check",
    "betti_numbers",
    "check_relations",
    "conjugacy_test",
    "conjugator_to_section",
    "cyclotomic",
    "cyclotomic_multiplicities",
    "finite_normal_subgroup",
    "frobenius_conjugator",
    "frobenius_embed",
    "frobenius_pair",
    "frobenius_torsion_element",
    "invariant_report",
    "kahler_check",
    "kernel_structure",
    "make_bieberbach",
    "normalize",
    "normalize_word",
    "order",
    "orientability",
    "parse",
    "symmetric_copy_conjugator",
    "verify_crystallographic",
    "__version__",
]
