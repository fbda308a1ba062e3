"""Value semantics of the package's immutable classes: repr, equality, hash,
immutability, pickling and copying, pinned for every class alike."""

import copy
import itertools
import pickle

import pytest

from surfbraid.bieberbach import GnMembership, TorsionScanReport, make_bieberbach
from surfbraid.core import CoeffVector, Element, GroupDescriptor, Verdict
from surfbraid.errors import Frozen
from surfbraid.intmatrix import IntMatrix
from surfbraid.invariants import CyclicRep
from surfbraid.nonorientable import AbelianInvariants, FiniteNormalWitness
from surfbraid.permutations import Permutation
from surfbraid.torsion import FrobeniusEmbedding, OrderResult
from surfbraid.words import BraidWord, Letter, RelationReport

T2 = GroupDescriptor.orientable(2, 1)
T2_REPR = "GroupDescriptor(kind='orientable', n=2, genus=1)"

# Each class with a builder of a fresh instance, its fields and its repr.
# Error messages embed the reprs, so they are pinned byte for byte.
VALUES = [
    (lambda: GroupDescriptor("sphere", 3, None), ("kind", "n", "genus"),
     "GroupDescriptor(kind='sphere', n=3, genus=None)"),
    (lambda: CoeffVector(((1, 0), (0, -2))), ("rows",), "CoeffVector(rows=((1, 0), (0, -2)))"),
    (lambda: Permutation((2, 3, 1)), ("images",), "Permutation(images=(2, 3, 1))"),
    (lambda: Element(T2, CoeffVector(((1, 0), (0, -2))), Permutation((2, 1))), ("group", "coeffs", "perm"),
     f"Element(group={T2_REPR}, coeffs=CoeffVector(rows=((1, 0), (0, -2))), perm=Permutation(images=(2, 1)))"),
    (lambda: Verdict(False, None, None, {"kind": "finite_normal_subgroup"}),
     ("is_crystallographic", "dimension", "holonomy_order", "witness"),
     "Verdict(is_crystallographic=False, dimension=None, holonomy_order=None, "
     "witness={'kind': 'finite_normal_subgroup'})"),
    (lambda: IntMatrix(2, (((0, 1), (1, 2)), ((1, 4),))), ("ncols", "entries"),
     "IntMatrix(ncols=2, entries=(((0, 1), (1, 2)), ((1, 4),)))"),
    # the power traces, char_poly and cyclotomic are derived: neither shown nor compared
    (lambda: CyclicRep(IntMatrix(2, (((1, 1),), ((0, 1),))), 2),
     ("matrix", "order", "power_traces", "char_poly", "cyclotomic"),
     "CyclicRep(matrix=IntMatrix(ncols=2, entries=(((1, 1),), ((0, 1),))), order=2)"),
    (lambda: GnMembership(True, 1, (2, 3)), ("in_group", "j", "coords"),
     "GnMembership(in_group=True, j=1, coords=(2, 3))"),
    (lambda: TorsionScanReport(2, 1, 0, 2, (), ()),
     ("n", "genus", "bound", "scanned", "torsion_hits", "obstruction_mismatches"),
     "TorsionScanReport(n=2, genus=1, bound=0, scanned=2, torsion_hits=(), obstruction_mismatches=())"),
    (lambda: make_bieberbach(2, 1), ("group", "generator"),
     f"BieberbachDescriptor(group={T2_REPR}, generator=Element(group={T2_REPR}, "
     "coeffs=CoeffVector(rows=((1, 0), (0, 0))), perm=Permutation(images=(2, 1))))"),
    (lambda: AbelianInvariants((2,), 0, ("s1 s1",)), ("torsion", "free_rank", "torsion_generator_words"),
     "AbelianInvariants(torsion=(2,), free_rank=0, torsion_generator_words=('s1 s1',))"),
    (lambda: FiniteNormalWitness(("a[1,1]",), 2, True, "a note"),
     ("generator_words", "subgroup_order", "normality_verified", "note"),
     "FiniteNormalWitness(generator_words=('a[1,1]',), subgroup_order=2, normality_verified=True, "
     "note='a note')"),
    # is_finite is a property derived from the value: refused assignment and restored, but not shown
    (lambda: OrderResult(None), ("value", "is_finite"), "OrderResult(value=None)"),
    (lambda: OrderResult(3), ("value", "is_finite"), "OrderResult(value=3)"),
    (lambda: FrobeniusEmbedding.zero(1), ("genus", "blocks"),
     "FrobeniusEmbedding(genus=1, blocks=((0, 0, 0, 0), (0, 0, 0, 0)))"),
    (lambda: BraidWord((Letter("s", 1), Letter("a", 2, 1, -3))), ("letters",),
     "BraidWord(letters=(Letter(kind='s', i=1, r=0, exp=1), Letter(kind='a', i=2, r=1, exp=-3)))"),
    (lambda: RelationReport(T2, 3, ("s1^2 = 1",)), ("group", "checked", "failures"),
     f"RelationReport(group={T2_REPR}, checked=3, failures=('s1^2 = 1',))"),
]
UNHASHABLE = (Verdict,)  # its witness is a dict
# the class name, or the whole repr for a second value of the same class
VALUE_IDS = [expected.partition("(")[0] for _, _, expected in VALUES]
VALUE_IDS = [name if VALUE_IDS.index(name) == i else VALUES[i][2] for i, name in enumerate(VALUE_IDS)]


@pytest.mark.parametrize("build, fields, expected", VALUES, ids=VALUE_IDS)
def test_value_semantics(build, fields, expected):
    x, y = build(), build()
    assert x is not y and x == y and not x != y
    assert repr(x) == expected
    if isinstance(x, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name, None))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y and repr(x) == expected  # nothing was assigned or deleted
    for clone in [copy.copy(x), copy.deepcopy(x)] + [
            pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(clone) is type(x) and clone == x and repr(clone) == expected
        assert all(getattr(clone, name) == getattr(x, name) for name in fields)
        with pytest.raises(AttributeError):
            setattr(clone, fields[0], getattr(x, fields[0]))


# For each class, a value built unchecked or by arithmetic beside the same
# value from the public constructor.  The unchecked one must refuse
# assignment and deletion like the constructed one.
X = Element(T2, CoeffVector(((1, 0), (0, -2))), Permutation((2, 1)))
REBUILT = [
    (lambda: GroupDescriptor("".join(["orient", "able"]), 2, 1), lambda: GroupDescriptor("orientable", 2, 1)),
    (lambda: CoeffVector(((1, 0), (0, -2))) + CoeffVector.zero(2, 2), lambda: CoeffVector(((1, 0), (0, -2)))),
    (lambda: Permutation._trusted((2, 1)), lambda: Permutation((2, 1))),
    (lambda: Permutation((2, 1)) * Permutation.identity(2), lambda: Permutation((2, 1))),
    (lambda: X * Element.identity(T2), lambda: X),
    (lambda: Element._trusted(T2, CoeffVector(((1, 0), (0, -2))), Permutation._trusted((2, 1))), lambda: X),
    (lambda: IntMatrix._trusted(2, (((0, 1), (1, 2)), ((1, 4),))), lambda: IntMatrix(2, (((0, 1), (1, 2)), ((1, 4),)))),
    (lambda: IntMatrix.from_rows(((1, 2), (0, 4))) * IntMatrix.identity(2),
     lambda: IntMatrix(2, (((0, 1), (1, 2)), ((1, 4),)))),
]


@pytest.mark.parametrize("rebuild, build", REBUILT, ids=[
    "GroupDescriptor-joined-kind", "CoeffVector-plus-zero", "Permutation-trusted", "Permutation-times-identity",
    "Element-times-identity", "Element-trusted", "IntMatrix-trusted", "IntMatrix-times-identity"])
def test_rebuilt_values_equal_hash_and_look_up_like_constructed_ones(rebuild, build):
    x, y = rebuild(), build()
    assert x is not y and type(x) is type(y)
    assert x == y and y == x and not x != y
    assert hash(x) == hash(y)
    assert {y: "found"}[x] == "found" and {x: "found"}[y] == "found"
    assert x in {y} and y in {x}
    # built without the public __init__, still frozen
    for name in x._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name, None))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y


@pytest.mark.parametrize("build, fields, expected", VALUES, ids=VALUE_IDS)
def test_constructor_takes_exactly_one_value_per_field(build, fields, expected):
    x = build()
    cls, values = type(x), [getattr(x, name) for name in x._fields]
    for wrong in (values + [values[0]], values[:-1]):
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(*wrong)


def test_instances_of_different_classes_never_compare_equal():
    values = [build() for build, _, _ in VALUES]
    for a, b in itertools.permutations(values, 2):
        assert a != b and not a == b
    # the same fields holding the same values in another class are still
    # another value: only the class test of Frozen.__eq__ keeps them apart
    class Entries(Frozen):
        __slots__ = _fields = ("ncols", "entries")

    a, b = IntMatrix(1, (((0, 1),),)), Entries(1, (((0, 1),),))
    assert a._key(a) == b._key(b)
    assert a != b and not a == b and b != a and not b == a


def test_cached_orbits_survive_pickle_and_copy():
    p = Permutation((2, 3, 1, 5, 4))
    orbits = p.orbits
    assert vars(p) == {"orbits": orbits}
    for clone in (copy.copy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and vars(clone) == {"orbits": orbits}
        assert clone.orbits == ((1, 2, 3), (4, 5)) and str(clone) == str(p) == "(1 2 3)(4 5)"
    fresh = pickle.loads(pickle.dumps(Permutation((2, 1))))
    assert vars(fresh) == {} and fresh.orbits == ((1, 2),)
