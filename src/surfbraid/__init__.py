"""Exact arithmetic in crystallographic quotients of surface braid groups.

The quotient of the braid group of a closed surface by the commutator
subgroup of its pure braid group is, for orientable surfaces, a
crystallographic group: a rank-2ng lattice extended by the symmetric
group acting by strand relabelling.  This package computes in that group
in exact normal form, detects finite-order elements, decides the
conjugacy of any two elements, constructs the cyclic-holonomy
torsion-free subgroup with its flat-manifold invariants, and certifies
that the sphere and non-orientable quotients are not crystallographic.

Public names resolve on first use: ``import surfbraid`` runs no
submodule, and ``surfbraid.Element`` (or ``from surfbraid import
Element``) runs the submodule that defines it and what that imports.
Each submodule that defines a public name is still in ``sys.modules``
from ``import surfbraid`` on, as it was when the package imported them
all; it runs when its first attribute is read.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "bieberbach": ("BieberbachDescriptor", "GnMembership", "TorsionScanReport", "make_bieberbach"),
        "core": ("CoeffVector", "Element", "GroupDescriptor", "Verdict", "verify_crystallographic"),
        "errors": ("DomainError",),
        "intmatrix": ("IntMatrix",),
        "invariants": ("CyclicRep", "anosov_check", "betti_numbers", "invariant_report", "kahler_check",
                       "orientability"),
        "nonorientable": ("AbelianInvariants", "FiniteNormalWitness", "MixedElement", "finite_normal_subgroup",
                          "kernel_structure", "normalize_word"),
        "permutations": ("Permutation",),
        "torsion": ("FrobeniusEmbedding", "OrderResult", "conjugacy_test", "conjugator_to_section",
                    "frobenius_conjugator", "frobenius_embed", "frobenius_pair", "frobenius_torsion_element",
                    "order", "symmetric_copy_conjugator"),
        "words": ("BraidWord", "Letter", "RelationReport", "check_relations", "normalize", "parse"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def _register(fullname: str):
    """Put ``fullname`` in ``sys.modules`` unexecuted; its code runs on the
    first attribute read (the ``importlib.util.LazyLoader`` recipe)."""
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in sorted(set(_EXPORTS.values())):
    globals()[_name] = _register(f"{__name__}.{_name}")
del _name


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and cache the value here (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
